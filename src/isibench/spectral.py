"""Composite Hamiltonian assembly, eigendecomposition, and the degeneracy test.

Each type here holds its inputs once and derives the rest from them:
``CompositeHamiltonian`` holds the three parts, reads the layout from their
dimensions and builds H with ``total()``, and ``SpectralData`` holds the
energies by label and derives their order, the ascending eigenvalues and
the level table below once, on construction.  The eigenvectors are kept as
their solver returns them: every reader's output is a function of |n><n|
and c_n |n> alone, so no output depends on an eigenvector's phase.

``SpectralData`` holds a spectrum and its eigenvectors in one form, by
sector: H is block-diagonal over S (x) (a sector of g bath levels), and the
stack holds the eigenvectors of each block.  ``eigendecompose`` gives one
sector (g = dB); the commuting models give dB sectors of g = 1, whose
eigenvectors are system vectors times bath basis vectors.  It carries the
S (x) B layout that every Tr_B reduces over, checked once on construction.
Its methods are the package's only readers of eigenvectors, each with one
formula whose kernel the sizes choose; the subspace projections they build
are ``DenseProjection`` and ``GroupedProjection``, and each hands the T0
estimate its own draw.

The equilibration statements this package evaluates assume a nondegenerate
spectrum, and Tr_B removes the coherences between sectors, so a reduced
state sees only the spacings inside a sector.  One rule reads them: two
levels adjacent inside a sector are degenerate when their gap is at most
``SPECTRUM_DEGENERACY`` times the spectral norm of H, and levels of
different sectors may coincide.  ``degenerate_level_pairs`` (the verdict
and the refusals), the groups of ``dephased_reduction`` (the average of a
degenerate spectrum) and ``min_sector_spacing`` (the margin and the
dynamics' timescale) all read the one level table of a ``SpectralData``:
each sector's ``levels`` in ascending order of energy, their ``gaps`` and
the ``degenerate`` mask of the rule.  The gates read the mask; a list of
pairs is built only to be named.

The thresholds of the checks are fixed module constants beside them;
relative ones are scaled by the spectral norm of the operator they test.
``require_fits`` refuses a model by the arrays it would hold: sectors above
``DECOMPOSE_DIM_CAP`` (one is what the dense eigensolver takes), or d
reductions above ``STACK_ELEMENT_CAP``, the entries of a (count, dS, dS) stack;
``require_count_fits`` holds the count of a config key to the same cap.

The dense eigensolver, ``_eigh``, is LAPACK's MRRR driver zheevr, called
through ctypes in the OpenBLAS that numpy's wheel ships, from
``MRRR_MIN_DIM`` on, and ``numpy.linalg.eigh`` below it or on a numpy build
without that library.  zheevr solves conj(H), H's C-ordered buffer read by
columns, and its eigenvectors are conjugated.  When the Hermiticity scan
finds H its own bitwise mirror, zheevr works on H's buffer and hands it back
bit for bit; any other H is solved on a copy, dropped as zheevr left it.

The dense path holds each d x d array once.  The assembly, the checks on a
d x d array, the reductions and the evolution work through it in blocks of
``DENSE_BLOCK`` rows, columns, labels or times, so that their temporaries
are (DENSE_BLOCK, d) slabs at most ((DENSE_BLOCK, dB) ones for the
assembly, which writes each block in place); a blocked maximum is NaN when
any block's is.
The evolution of small sectors works through the times the same way, so
that each of its worker threads holds one table of phases at the F Bohr
frequencies, of at most DENSE_BLOCK times and DENSE_BLOCK^2 entries (one
time when F is larger).

Hamiltonians are round-tripped through a small text format (a line with a
magic tag, one with dimensions and the system/bath split, then one row per
line as interleaved real/imag pairs in %.17g, lossless for doubles), which
``write_matrix`` writes one row at a time, refusing a matrix that is not
square or not finite.  The CSV data files of a run share ``write_csv``.
"""

from __future__ import annotations

import contextvars
import csv
import ctypes
import functools
import itertools
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import CapExceededError, ConfigError, ValidationError
from .hilbert import (DENSE_BLOCK, PureState, SpaceLayout, blocked_max, dense_blocks,
                      weighted_sum)
from .sampling import dirichlet_weights, sample_amplitudes

HAMILTONIAN_ASYMMETRY = 1e-10  # max |H - H^dagger| accepted on assembly
UNITARITY = 1e-10              # max |V^dagger V - I| for eigenvector matrices
RESIDUAL = 1e-9                # eigenpair residual, relative to norm(H)
SPECTRUM_DEGENERACY = 1e-10    # min gap inside a sector, relative to norm(H)
DECOMPOSE_DIM_CAP = 8192       # sector dimension m, the dense eigensolver's d
STACK_ELEMENT_CAP = 20_000_000 # entries count * dS^2 of a (count, dS, dS) stack

# The dense eigensolver is LAPACK's MRRR driver zheevr from this dimension on;
# below it numpy's divide and conquer (zheevd) is as fast on one BLAS thread
# and closer to the bits of the eigenvalues.  zheevd against zheevr, one
# thread of OpenBLAS 0.3.31: 3.25 against 3.44 ms at d = 160, 5.14 against
# 5.06 ms at d = 192, 96 against 59 ms at d = 512.
MRRR_MIN_DIM = 192

MATRIX_FORMAT_MAGIC = "isibench-matrix"
MATRIX_FORMAT_VERSION = 1

# Threads of one small-sector evolution; None: one per CPU this process may run on.
_evolution_threads: int | None = None


def run_on_one_thread() -> None:
    """Evolve on the calling thread, and run numpy's OpenBLAS on one thread
    whatever ``OPENBLAS_NUM_THREADS`` says (a numpy without it keeps its
    count): for processes that fill the CPUs already, as a sweep's pool does."""
    global _evolution_threads
    _evolution_threads = 1
    if set_threads := _openblas_symbol("scipy_openblas_set_num_threads64_"):
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _on_threads(work: Callable[[int, int], None], tasks: int) -> None:
    """work(k, w) for k < w, on w = min(CPUs, tasks) threads, the calling
    thread being worker 0 (w = 1 runs inline).  Helpers run in copies of the
    caller's context, so numpy's errstate holds in them too; every worker
    ends before this returns, and the first error of a helper is raised here."""
    workers = max(1, min(_evolution_threads or usable_cpus(), tasks))
    errors: list[BaseException] = []

    def guarded(k: int) -> None:
        try:
            work(k, workers)
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(guarded, k))
               for k in range(1, workers)]
    for helper in helpers:
        helper.start()
    try:
        work(0, workers)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


@dataclass(frozen=True)
class CompositeHamiltonian:
    """The three Hermitian parts of H = HS(x)I + I(x)HB + HSB; ``total()`` builds H.

    On construction HS and HB are checked Hermitian and HSB d x d (its
    Hermiticity is the scan of H by ``eigendecompose``), each kept as a
    complex array, and ``layout`` is derived from the dimensions of HS and HB.
    """

    system: np.ndarray
    bath: np.ndarray
    interaction: np.ndarray

    def __post_init__(self) -> None:
        for name in ("system", "bath"):
            object.__setattr__(self, name, _require_hermitian(f"{name} part",
                                                              getattr(self, name))[0])
        layout = SpaceLayout(len(self.system), len(self.bath))
        d, interaction = layout.dim_total, np.asarray(self.interaction, dtype=complex)
        if interaction.shape != (d, d):
            raise ValidationError(f"interaction part must be {d}x{d}, got {interaction.shape}")
        object.__setattr__(self, "interaction", interaction)
        object.__setattr__(self, "layout", layout)

    def total(self) -> np.ndarray:
        """The dense d x d H, assembled DENSE_BLOCK rows at a time on every call.

        Each block of rows is written in place: kron(HS, 1), then kron(1, HB)
        added one system index at a time, then the rows of HSB.  Each entry
        is the same product as in np.kron and the terms are added in that
        order, so H holds the bits of the full expression, and the
        temporaries are (DENSE_BLOCK, dB) slabs.
        """
        ds, db, d = len(self.system), len(self.bath), self.layout.dim_total
        total = np.empty((d, d), dtype=complex)
        for rows in dense_blocks(d):
            sys_index, bath_index = np.divmod(np.arange(rows.start, rows.stop), db)
            block = total[rows].reshape(-1, ds, db)
            ones_b = (bath_index[:, None] == np.arange(db)).astype(float)  # rows of eye(db)
            np.multiply(self.system[sys_index][:, :, None], ones_b[:, None, :], out=block)
            bath_rows = self.bath[bath_index]
            for s in range(ds):  # column s of the rows of eye(dS)
                block[:, s] += (sys_index == s).astype(float)[:, None] * bath_rows
            total[rows] += self.interaction[rows]
        return total


def _mirror_tiles(mat: np.ndarray, cols: slice) -> list[tuple]:
    """Each DENSE_BLOCK-high tile of columns ``cols`` of ``mat`` from its diagonal down, with
    the ``_mirror`` of its mirror tile and the index of its entries below the diagonal."""
    return [(mat[rows, cols], _mirror(mat[cols, rows].T),
             np.tri(cols.stop - cols.start, k=-1, dtype=bool) if rows == cols else slice(None))
            for rows in dense_blocks(len(mat))[cols.start // DENSE_BLOCK:]]


def _mirror(entries: np.ndarray) -> np.ndarray:
    """conj(``entries``) in C order, but the imaginary parts 0.0 - x: a zero is +0.0."""
    mirror = np.empty(entries.shape, dtype=complex)
    mirror.real, mirror.imag = entries.real, 0.0 - entries.imag
    return mirror


def _require_hermitian(name: str, mat: np.ndarray) -> tuple[np.ndarray, bool]:
    """``mat`` as a complex array A, refused unless max |A - A^H| is within
    HAMILTONIAN_ASYMMETRY, and whether each entry below the diagonal is, bit
    for bit, the ``_mirror`` of its mirror, as in a real-valued A.  D = A - A^H
    has |D_ji| = |D_ij| to the bit (the real parts are negatives of each other,
    the imaginary parts one sum, and a NaN shows on both sides), so one pass
    reads each block of columns from the diagonal down against its mirror."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    mirrored = []  # per tile: are its entries below the diagonal mirrored?

    def asymmetry(cols: slice) -> float:
        tiles = _mirror_tiles(arr, cols)
        mirrored.extend(lower[below].tobytes() == mirror[below].tobytes()
                        for lower, mirror, below in tiles)
        return np.max([np.abs(lower - mirror).max() for lower, mirror, _ in tiles])

    asym = blocked_max(asymmetry, len(arr))
    if not asym <= HAMILTONIAN_ASYMMETRY:  # a NaN entry fails too
        raise ValidationError(f"{name} not Hermitian: max asymmetry {asym:.3e} > "
                              f"{HAMILTONIAN_ASYMMETRY:.1e}")
    return arr, all(mirrored)


# BLAS kernels compute a trailing partial block of GEMM rows differently from
# whole blocks, so a draw's populations would depend on where its chunk ends.
# Padding every chunk to whole blocks of this many rows keeps them the same.
_GEMM_ROW_BLOCK = 8

# A T0 sampler: the length of the longest per-sample row its draw builds, and
# the draw itself, which hands out the (count, dS, dS) equilibrium states of
# the next ``count`` Haar-uniform states of a subspace.
Sampler = tuple[int, Callable[[int], np.ndarray]]


@dataclass(frozen=True)
class DenseProjection:
    """W = B^H V of a subspace R on the eigenbasis as a dense (dR, d) matrix."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """w_n = sum_r |W_rn|^2 / dR = <n| Pi_R |n> / dR; nonnegative, summing to 1."""
        return np.sum(np.abs(self.matrix) ** 2, axis=0) / self.dim

    def populations(self, amplitudes: np.ndarray) -> np.ndarray:
        """|<n|B a>|^2 = |(a^H W)_n|^2 for (dR, count) amplitudes a; shape (count, d)."""
        rows = amplitudes.T.conj()
        padded = np.pad(rows, ((0, -len(rows) % _GEMM_ROW_BLOCK), (0, 0)))
        return np.abs((padded @ self.matrix)[:len(rows)]) ** 2

    def sampler(self, matrices: np.ndarray, rng: np.random.Generator) -> Sampler:
        """Haar-uniform amplitudes a of R from ``rng``, whose equilibrium states
        are sum_n |(a^H W)_n|^2 rho_n for the (d, dS, dS) eigenstate reductions."""
        return (self.matrix.shape[1], lambda count: weighted_sum(
            self.populations(sample_amplitudes(self.dim, count, rng)), matrices))


@dataclass(frozen=True)
class GroupedProjection:
    """W = B^H V of a subspace R whose basis vectors b_r each overlap their
    own group of eigenvectors: eigenvector ``members[r, j]`` has
    |<b_r|n>|^2 = ``shares[r, j]`` and no overlap with the other b_r.
    ``members=None`` is the whole space in the eigenbasis (W = I).

    A state sum_r a_r b_r then has the populations |a_r|^2 shares[r, j], so
    its equilibrium state is sum_r |a_r|^2 M_r with the (dR, dS, dS) stack
    M_r = sum_j shares[r, j] rho_{members[r, j]} (the eigenstate reductions
    themselves for the whole space), and for a Haar-uniform state the
    |a_r|^2 are Dirichlet weights.  ``weights`` are the w_n = <n|Pi_R|n>/dR.
    """

    dim: int
    weights: np.ndarray
    members: np.ndarray | None = None
    shares: np.ndarray | None = None

    def stack(self, matrices: np.ndarray) -> np.ndarray:
        """The (dR, dS, dS) stack M of the (d, dS, dS) eigenstate reductions."""
        if self.members is None:
            return matrices
        stack = self.shares[:, 0, None, None] * matrices[self.members[:, 0]]
        for j in range(1, self.members.shape[1]):
            stack += self.shares[:, j, None, None] * matrices[self.members[:, j]]
        return stack

    def sampler(self, matrices: np.ndarray, rng: np.random.Generator) -> Sampler:
        """Dirichlet weights w from ``rng``, whose equilibrium states are sum_r w_r M_r."""
        stack = self.stack(matrices)
        return self.dim, lambda count: weighted_sum(dirichlet_weights(self.dim, count, rng),
                                                    stack)


@dataclass(frozen=True)
class SpectralData:
    """Energies and eigenvectors, held by sector as their solver returns them.

    Sector c is S (x) the bath levels c*g, ..., c*g + g - 1 of ``layout``, and
    ``sectors`` is the (n_sec, m, m) stack (m = dS*g) of the eigenvectors of
    H's blocks: row s*g + j of ``sectors[c]`` is the amplitude on
    |s> (x) |c*g + j>, so column k is the (dS, g) matrix A of the eigenvector
    labelled c*m + k, whose energy is ``energies[c*m + k]`` (given in any
    shape, kept flat).
    ``eigendecompose`` gives one sector (g = dB), the commuting models dB
    sectors of g = 1.  A layout is refused unless its d is the data's and its
    dS divides m; None (a matrix of no known split) has no reduced states.
    The methods below are the only readers of the eigenvectors, one per use,
    each one formula on the (n_sec, dS, g, m) view of the stack; where two
    kernels compute it, the sizes choose.

    Derived once, on construction: ``order``, the labels in ascending order
    of energy (a stable argsort), ``eigenvalues``, the energies in that
    order, and the level table of ``_sector_levels``: ``levels``, ``gaps``
    and the mask ``degenerate``.
    """

    energies: np.ndarray
    sectors: np.ndarray
    layout: SpaceLayout | None

    def __post_init__(self) -> None:
        energies = np.array(self.energies, dtype=float).ravel()
        sectors = np.asarray(self.sectors, dtype=complex)  # kept, not copied
        shape, layout = sectors.shape, self.layout
        if len(shape) != 3 or shape[1] != shape[2] or shape[0] * shape[1] != energies.size:
            raise ValidationError(f"inconsistent shapes: energies {np.shape(self.energies)}, "
                                  f"sectors {shape}")
        if layout is not None and (layout.dim_total != energies.size
                                   or shape[1] % layout.dim_system):
            raise ValidationError(f"layout {layout.dim_system}x{layout.dim_bath} does not "
                                  f"match the spectral data (d={energies.size})")
        order = np.argsort(energies, kind="stable")
        for name, value in (("energies", energies), ("sectors", sectors), ("order", order),
                            ("eigenvalues", energies[order])):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        for name, value in zip(("levels", "gaps", "degenerate"), self._sector_levels()):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def spectral_norm(self) -> float:
        """max |E_n|, with 1.0 substituted for an identically zero spectrum."""
        norm = float(np.abs(self.eigenvalues).max())
        return norm if norm > 0.0 else 1.0

    @property
    def min_sector_spacing(self) -> float:
        """The smallest gap between consecutive levels of any one sector (inf
        for sectors of one level): the smallest Bohr frequency a reduced state
        can see, since Tr_B removes the coherences between sectors."""
        return float(self.gaps.min()) if self.gaps.size else float("inf")

    def _sector_levels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (n_sec, m) indices of each sector's levels (into ``eigenvalues``)
        in ascending order of energy, the (n_sec, m - 1) gaps between
        consecutive ones, the only spacings a reduced state sees, and which
        of those gaps are degenerate: at most SPECTRUM_DEGENERACY*|H|."""
        index = np.sort(self._by_sector(np.arange(self.dim)), axis=1)
        gaps = np.diff(self.eigenvalues[index], axis=1)
        return index, gaps, gaps <= SPECTRUM_DEGENERACY * self.spectral_norm

    def _by_sector(self, values: np.ndarray) -> np.ndarray:
        """Values indexed like the eigenvalues, rearranged to (n_sec, m) by label."""
        flat = np.empty(self.dim, dtype=values.dtype)
        flat[self.order] = values
        return flat.reshape(self.sectors.shape[:2])

    def _view(self) -> np.ndarray:
        """The (n_sec, dS, g, m) view: [c, :, :, k] is A of eigenvector c*m + k."""
        if self.layout is None:
            raise ValidationError(f"the spectral data (d={self.dim}) has no system/bath "
                                  "layout to reduce its eigenvectors by")
        n_sec, m, _ = self.sectors.shape
        return self.sectors.reshape(n_sec, self.layout.dim_system, -1, m)

    def coefficients(self, state: PureState) -> np.ndarray:
        """The read-only (d,) overlaps c_n = <n|x> of the composite state x:
        one BLAS product conj(x^H V) for one sector, which conjugates x
        rather than V, one einsum for more (they round differently)."""
        sectors, amplitudes = self._view(), state.amplitudes
        if state.space != "composite":
            raise ValidationError(f"initial state must be composite, got {state.space!r}")
        if state.dim != self.dim:
            raise ValidationError(f"state dim {state.dim} != spectral dim {self.dim}")
        n_sec, ds, g, _ = sectors.shape
        if n_sec == 1:
            per_label = np.conj(amplitudes.conj() @ self.sectors[0])
        else:
            per_label = np.einsum("csgk,scg->ck", sectors.conj(),
                                  amplitudes.reshape(ds, n_sec, g)).ravel()
        coefficients = per_label[self.order]
        coefficients.setflags(write=False)
        return coefficients

    def reductions(self) -> np.ndarray:
        """C-contiguous (d, dS, dS) bath traces Tr_B |n><n| = A A^H of the
        eigenvectors, DENSE_BLOCK labels of every sector at a time."""
        sectors = self._view()
        n_sec, ds, _, m = sectors.shape
        out = np.empty((n_sec, m, ds, ds), dtype=complex)
        for cols in dense_blocks(m):
            block = sectors[..., cols]
            out[:, cols] = np.einsum("csgk,ctgk->ckst", block, block.conj())
        return out.reshape(self.dim, ds, ds)[self.order]

    def projection(self, psi: PureState | None = None,
                   dim_prefix: int | None = None) -> DenseProjection | GroupedProjection:
        """W = B^H V, the (dR, d) overlaps of an orthonormal basis of R with
        the eigenvectors: R is the whole space (``psi=None``), or the system
        state psi (x) span of the first ``dim_prefix`` bath levels (None: all
        of them), W[b, n] = sum_i conj(psi_i) <i, b|n>.

        The whole space is grouped in the eigenbasis.  With g = 1 sector l
        overlaps only psi (x) |l>, so a product subspace is grouped by bath
        level; otherwise W is dense, each sector's einsum writing its g rows
        and m columns in place, by label (the dense path's order, or permuted).
        """
        sectors, layout = self._view(), self.layout
        n_sec, ds, g, m = sectors.shape
        if psi is not None and (psi.space != "system" or psi.dim != ds):
            raise ValidationError("psi must be a system state matching the layout")
        k = layout.dim_bath if dim_prefix is None else dim_prefix
        if not 1 <= k <= layout.dim_bath:
            raise ValidationError(f"bath subspace dim {k} outside [1, {layout.dim_bath}]")
        if psi is None:
            return GroupedProjection(self.dim, np.full(self.dim, 1.0 / self.dim))
        bra = psi.amplitudes.conj()
        if g == 1:
            shares = np.abs(np.einsum("s,csk->ck", bra, sectors[:, :, 0])) ** 2
            shares[k:] = 0.0
            return GroupedProjection(k, shares.ravel()[self.order] / k,
                                     self._by_sector(np.arange(self.dim))[:k], shares[:k])
        matrix = np.zeros((k, self.dim), dtype=complex)
        for c in range(-(-k // g)):  # the sectors that hold the first k bath levels
            rows = slice(c * g, min(c * g + g, k))
            np.einsum("s,sjn->jn", bra, sectors[c, :, :rows.stop - rows.start],
                      out=matrix[rows, c * m:c * m + m])
        in_order = np.array_equal(self.order, np.arange(self.dim))
        return DenseProjection(matrix if in_order else matrix[:, self.order])

    def dephased_reduction(self, values: np.ndarray) -> np.ndarray:
        """sum_G Tr_B |x_G><x_G| for x_G = sum_{n in G} values_n |n>, the groups
        G being the runs of degenerate levels inside a sector: the reduced
        state of sum_n values_n |n> with the coherences between groups
        removed.  Tr_B removes those between sectors too, so the A values_n
        of a run are summed into one C, and the result is sum C C^H.
        """
        sectors = self._view()
        n_sec, ds, g, m = sectors.shape
        starts = np.flatnonzero(np.pad(~self.degenerate, ((0, 0), (1, 0)),
                                       constant_values=True))
        labels = self.order[self.levels].ravel()  # each sector's, in ascending order of energy
        columns = np.einsum("csgk,ck->cksg", sectors,
                            self._by_sector(values)).reshape(-1, ds, g)[labels]
        summed = np.add.reduceat(columns, starts)  # one row per run
        return np.einsum("ksg,ktg->st", summed, summed.conj())

    def evolved_reductions(self, values: np.ndarray, times: np.ndarray) -> np.ndarray:
        """(n_times, dS, dS) reductions Tr_B |x(t)><x(t)| of
        x(t) = sum_n values_n exp(-i E_n t) |n>.

        The times are worked through DENSE_BLOCK at a time, so temporaries
        do not grow with their number; only eigenvectors of one sector
        interfere.  Sectors of m > 3 reduce sectors @ amplitudes, (d,
        DENSE_BLOCK) arrays.  With m <= 3 (so g = 1) the m(m-1)/2 Bohr
        frequencies w = E_k' - E_k, k < k', cost no more exponentials than m
        amplitudes: rho(t) = sum_k |c_k|^2 A_k A_k^H + sum (exp(-i w t) M +
        h.c.), M = c_k' conj(c_k) A_k' A_k^H.  A block of times fills a
        (rows, F) phase table (rows F <= DENSE_BLOCK^2, or one row) and
        contracts it with the (dS^2, F) table of the M by einsum, which calls
        no BLAS: a row's sum depends on neither rows nor the threads.  The
        blocks are dealt in turn to one worker thread per CPU (at most one
        per block, the caller among them), each filling one table of its
        own, so every worker count gives the same bits.  The m > 3 branch
        stays serial: its product already runs on the BLAS threads, and
        splitting its exponentials as well slowed a sweep of 1-thread
        workers and saved 2 % of a d = 1536 run.
        """
        sectors = self._view()
        n_sec, ds, g, m = sectors.shape
        values, energies = self._by_sector(values), self.energies.reshape(n_sec, m)
        if m > 3:
            # the layout of one einsum over all the times: the same bits in sums
            out = np.empty((ds, ds, times.size), dtype=complex).transpose(2, 0, 1)
            for span in dense_blocks(times.size):
                phases = np.exp(-1j * energies[:, :, None] * times[span])
                amplitudes = values[:, :, None] * phases
                evolved = (self.sectors @ amplitudes).reshape(n_sec, ds, g, -1)
                out[span] = np.einsum("csgt,cugt->tsu", evolved, evolved.conj())
            return out
        weighted = sectors[:, :, 0] * values[:, None, :]
        lower, upper = np.triu_indices(m, 1)
        frequencies = (energies[:, upper] - energies[:, lower]).ravel()
        moving = np.einsum("csp,ctp->stcp", weighted[:, :, upper],
                           weighted[:, :, lower].conj()).reshape(ds * ds, frequencies.size)
        static = np.einsum("csk,ctk->st", weighted, weighted.conj())
        out = np.empty((times.size, ds, ds), dtype=complex)
        rows = max(1, min(times.size, DENSE_BLOCK, DENSE_BLOCK**2 // frequencies.size))
        spans = dense_blocks(times.size, rows)

        def evolve(worker: int, workers: int) -> None:
            table = np.empty((rows, frequencies.size), dtype=complex)
            for span in spans[worker::workers]:
                phases = table[:len(times[span])]
                np.multiply.outer(times[span], frequencies, out=phases)
                phases *= -1j
                np.exp(phases, out=phases)
                oscillating = np.einsum("tf,kf->tk", phases, moving).reshape(-1, ds, ds)
                out[span] = static + oscillating + oscillating.conj().transpose(0, 2, 1)

        _on_threads(evolve, len(spans))
        return out


def _unitarity_error(vecs: np.ndarray, rows: slice) -> float:
    """max |(V^H V - I)[rows, rows.start:]|: V^H V is Hermitian, so the blocks
    of rows cover its maximum with the columns on and right of the diagonal."""
    gram = vecs[:, rows].conj().T @ vecs[:, rows.start:]
    gram[np.arange(len(gram)), np.arange(len(gram))] -= 1.0
    return np.abs(gram).max()


def require_fits(n_sec: int, m: int, dim_system: int) -> None:
    """Refuse, before it is built, a model of n_sec sectors of dimension m above
    DECOMPOSE_DIM_CAP, or whose d = n_sec m reductions hold more than
    STACK_ELEMENT_CAP entries d dS^2 (dS = 1: a matrix of no known layout)."""
    d, entries = n_sec * m, n_sec * m * dim_system * dim_system
    if m > DECOMPOSE_DIM_CAP:
        raise CapExceededError(f"sector dimension {m} exceeds the eigensolver cap {DECOMPOSE_DIM_CAP}")
    if entries > STACK_ELEMENT_CAP:
        raise CapExceededError(f"composite dimension {d}: its eigenstate reductions hold "
                               f"d * dS^2 = {entries} entries, above the cap "
                               f"{STACK_ELEMENT_CAP}")


def require_count_fits(key: str, count: int, dim_system: int) -> None:
    """Refuse, before anything is drawn, the value ``count`` of the config key
    ``key`` when count * dS^2 entries exceed STACK_ELEMENT_CAP: the times of a
    trajectory, the Monte Carlo samples, the starts of the dS > 2 search."""
    entries = dim_system * dim_system
    if entries * count > STACK_ELEMENT_CAP:
        raise CapExceededError(f"{key} * dS^2 = {count} * {entries} exceeds "
                               f"{STACK_ELEMENT_CAP}; set {key} to at most "
                               f"{STACK_ELEMENT_CAP // entries}")


def _openblas_symbol(name: str):
    """The function ``name`` of the OpenBLAS (64-bit integers) that numpy's
    wheel ships and has loaded already, or None when this numpy has none."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            return getattr(ctypes.CDLL(str(path)), name)
        except (OSError, AttributeError):
            continue
    return None


@functools.cache
def _zheevr():
    """LAPACKE_zheevr of numpy's OpenBLAS (``_openblas_symbol``), or None."""
    if solver := _openblas_symbol("scipy_LAPACKE_zheevr64_"):
        index, address, real = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
        solver.restype = index
        solver.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char, index,
                           address, index, real, real, index, index, real,
                           address, address, address, index, address]
    return solver


def _eigh(mat: np.ndarray, mirrored: bool) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigenvalues and the eigenvectors (columns) of the
    Hermitian complex d x d ``mat``, read from its lower triangle as
    ``numpy.linalg.eigh`` reads it, which computes them below MRRR_MIN_DIM
    or when ``_zheevr`` finds no solver.

    zheevr takes about half the time and workspace of numpy's zheevd.  It
    works on H's own buffer if H is ``mirrored`` (the scan's answer) and
    writeable, aligned and C-ordered, and on a C-ordered copy of any other
    H.  LAPACK reads the C-ordered buffer by columns as conj(H), so its
    eigenvectors, conjugated in place, are H's.  zheevr overwrites the
    diagonal and the lower triangle; on H's own buffer, also when it fails,
    ``_mirror`` rebuilds the lower one and the diagonal is put back, so H
    comes back bit for bit, and a copy is dropped.  The eigenvectors are
    the column-major array LAPACK writes; a nonzero status raises LinAlgError.
    """
    d = len(mat)
    solver = _zheevr() if d >= MRRR_MIN_DIM else None
    if solver is None:
        return np.linalg.eigh(mat)
    own = mirrored and mat.flags.carray  # C-ordered, aligned and writeable
    if not own:
        mat = np.array(mat, order="C")
    diagonal = mat.diagonal().copy()
    evals = np.empty(d)
    evecs = np.empty((d, d), dtype=complex, order="F")
    count, supports = np.empty(1, dtype=np.int64), np.empty(2 * d, dtype=np.int64)
    try:
        # 102: column-major; V: with eigenvectors; A: all of them; U: the
        # upper triangle of the buffer read by columns, which is H's lower one
        info = solver(102, b"V", b"A", b"U", d, mat.ctypes.data, d, 0.0, 0.0, 0, 0, 0.0,
                      count.ctypes.data, evals.ctypes.data, evecs.ctypes.data, d,
                      supports.ctypes.data)
    finally:
        if own:
            for cols in dense_blocks(d):
                for lower, mirror, below in _mirror_tiles(mat, cols):
                    lower[below] = mirror[below]
            np.fill_diagonal(mat, diagonal)
    if info:
        raise np.linalg.LinAlgError(f"zheevr failed with status {info}")
    return evals, np.conjugate(evecs, out=evecs)


def eigendecompose(mat: np.ndarray, layout: SpaceLayout | None = None) -> SpectralData:
    """Dense Hermitian eigendecomposition: one sector of ``layout`` (None: no
    known split), with the eigenvectors as the solver returns them.

    H, a Hermitian array, is refused by its shape above ``DECOMPOSE_DIM_CAP``
    before it is checked or copied.  Verifies the residual
    ``max |H v_n - E_n v_n|`` against ``RESIDUAL * norm(H)`` and the
    unitarity of the eigenvector matrix, so downstream consumers can rely on
    SpectralData invariants without rechecking; a NaN fails either check.

    The solver is ``_eigh``: LAPACK's MRRR driver from d = MRRR_MIN_DIM,
    numpy's eigh below it.  The MRRR driver writes into a writeable C-ordered
    H that the scan finds its own bitwise mirror, unconjugated, and hands it
    back bit for bit; it copies any other H, so the checks read H as given.
    Besides H, the call holds the solver's buffers while it runs (the
    eigenvector matrix; numpy's eigh holds about four d x d arrays), then the
    eigenvector matrix, which the checks read in blocks of DENSE_BLOCK
    columns or rows; the result keeps it as its sector.
    """
    require_fits(1, max(np.shape(mat), default=0), 1)
    mat, mirrored = _require_hermitian("hamiltonian", mat)
    d = mat.shape[0]
    evals, evecs = _eigh(mat, mirrored)
    span = float(evals[-1]) - float(evals[0])  # Python floats: no overflow warning
    if not np.isfinite(span):
        raise ValidationError(f"the energy range E_max - E_min = {span} is not finite")

    hnorm = max(float(np.abs(evals).max()), 1e-300)
    residual = blocked_max(lambda cols: np.abs(
        mat @ evecs[:, cols] - evecs[:, cols] * evals[cols]).max(), d)
    if not residual <= RESIDUAL * hnorm:
        raise ValidationError(f"eigenpair residual {residual:.3e} exceeds {RESIDUAL:.1e}*|H|")
    unit_err = blocked_max(lambda rows: _unitarity_error(evecs, rows), d)
    if not unit_err <= UNITARITY:
        raise ValidationError(f"eigenvector matrix not unitary: {unit_err:.3e}")

    return SpectralData(evals, evecs[None], layout)


def degenerate_level_pairs(spectral: SpectralData,
                           limit: int | None = None) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, of levels adjacent inside one sector and no
    farther apart than SPECTRUM_DEGENERACY*|H|, in ascending order of i (the
    first ``limit`` of them); the spectrum is nondegenerate iff there are
    none.  Levels of different sectors never interfere in a reduced state,
    so they may coincide."""
    levels, degenerate = spectral.levels, spectral.degenerate
    first, second = levels[:, :-1][degenerate], levels[:, 1:][degenerate]
    ranked = np.argsort(first)[:limit]  # no level is the first of two pairs
    return list(zip(first[ranked].tolist(), second[ranked].tolist()))


def write_matrix(path, matrix: np.ndarray, layout: SpaceLayout | None = None) -> None:
    """Write a complex matrix in the package's text format, one row at a time.

    Line 1 is ``isibench-matrix 1``; line 2 is ``rows cols dS dB`` with zeros
    for an untagged matrix; each following line is one row as interleaved
    ``re im`` pairs in %.17g (lossless round-trip for doubles).  A matrix
    that is not square or not finite is refused before the file is created.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"only square matrices are supported, got shape {mat.shape}")
    d = len(mat)
    if layout is not None and d != layout.dim_total:
        raise ValidationError(f"matrix dim {d} does not match layout {layout.dim_total}")
    if not np.isfinite(mat).all():
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise ValidationError(f"matrix entry ({i}, {j}) is not finite: {mat[i, j]}")
    ds, db = (layout.dim_system, layout.dim_bath) if layout is not None else (0, 0)
    with Path(path).open("w", encoding="utf-8") as fh:  # savetxt gzips a *.gz path
        np.savetxt(fh, mat, fmt=" ".join(["%.17g"] * (2 * d)), comments="",
                   header=f"{MATRIX_FORMAT_MAGIC} {MATRIX_FORMAT_VERSION}\n{d} {d} {ds} {db}")


# Rows of a data file formatted by one template at a time.
CSV_CHUNK_ROWS = 65536


def _csv_field(text: str) -> str:
    """A string cell as the csv module writes it (minimal quoting)."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header: list[str], rows) -> None:
    """Write a data file: a ``# schema_version 1`` line, the header, the rows.

    Strings are written as they are (quoted as the csv module quotes them)
    and numbers in %.17g (lossless for doubles); the schema line lets
    downstream parsers detect column changes.  Rows are read in chunks of
    CSV_CHUNK_ROWS, each formatted by one %-template built from the cell
    types of its first row.
    """
    rows = iter(rows)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("# schema_version 1\n")
        csv.writer(fh, lineterminator="\n").writerow(header)
        while chunk := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
            is_text = [isinstance(value, str) for value in chunk[0]]
            if any(is_text):
                chunk = [[_csv_field(v) if t else v for v, t in zip(row, is_text)]
                         for row in chunk]
            template = ",".join("%s" if t else "%.17g" for t in is_text) + "\n"
            fh.write(template * len(chunk) % tuple(itertools.chain.from_iterable(chunk)))


def _unreadable(path, err: Exception, offset: int = 0) -> ConfigError:
    """The ConfigError of ``path`` for ``err``; a decode error names its byte, after ``offset``."""
    if isinstance(err, UnicodeDecodeError):
        return ConfigError(f"{path}: not UTF-8 text (byte {offset + err.start})")
    return ConfigError(f"{path}: cannot read: {getattr(err, 'strerror', None) or err}")


def read_text(path) -> str:
    """The text of a UTF-8 file; one that cannot be read is a ConfigError
    naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as err:  # ValueError: not UTF-8, or a NUL in the path
        raise _unreadable(path, err) from None


def _text_lines(path):
    """The lines of a UTF-8 file as str.splitlines cuts its text, decoded one
    line at a time; a file that cannot be read is ``read_text``'s ConfigError."""
    offset = 0
    try:
        with Path(path).open("rb") as fh:
            for raw in fh:  # cut after each b"\n", where str.splitlines cuts too
                yield from raw.decode().splitlines()
                offset += len(raw)
    except (OSError, ValueError) as err:
        raise _unreadable(path, err, offset) from None


def read_matrix_header(path, dim_system: int | None = None) -> tuple[int, SpaceLayout | None]:
    """d and the layout (None: untagged, no ``dim_system``) of a square matrix
    file, from its first two non-blank lines; a ``dim_system`` splits an
    untagged matrix and must match a tag, and the caps hold at its dS."""
    lines = [*itertools.islice((line for line in _text_lines(path) if line.strip()), 2)]
    if not lines:
        raise ConfigError(f"{path}: empty matrix file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MATRIX_FORMAT_MAGIC or not head[1].isdecimal():
        raise ConfigError(f"{path}: line 1: expected '{MATRIX_FORMAT_MAGIC} <version>'")
    if int(head[1]) != MATRIX_FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported format version {head[1]}")
    try:  # a missing line, a wrong count or a non-integer
        rows, cols, ds, db = (int(x) for x in lines[1].split())
    except (IndexError, ValueError):
        raise ConfigError(f"{path}: line 2: expected integers 'rows cols dS dB'") from None
    if rows < 1 or cols != rows:
        raise ConfigError(f"{path}: line 2: invalid dimensions {rows}x{cols} (need d x d, d >= 1)")
    if (ds, db) != (0, 0) and (ds < 2 or db < 1 or ds * db != rows):
        raise ConfigError(f"{path}: line 2: layout {ds}x{db} does not fit a {rows}x{cols} "
                          "matrix (need dS >= 2, dB >= 1 and dS*dB rows and columns, "
                          "or 0 0 for no layout)")
    if dim_system is not None and ds and ds != dim_system:
        raise ConfigError(f"model.dim_system {dim_system} contradicts the "
                          f"file's layout tag dS={ds}")
    if dim_system is not None and not ds:
        if rows % dim_system != 0:
            raise ConfigError(f"matrix dimension {rows} is not divisible by "
                              f"dim_system {dim_system}")
        ds, db = dim_system, rows // dim_system
    require_fits(1, rows, ds or 1)
    return rows, None if ds == 0 else SpaceLayout(ds, db)


def read_matrix(path, dim_system: int | None = None) -> tuple[np.ndarray, SpaceLayout | None]:
    """Read a matrix written by write_matrix: (matrix, layout-or-None), its
    header checked by read_matrix_header before any row is parsed.  The text
    is read a line at a time, twice: to decode it and count the data lines,
    then to parse each row into the (d, d) array (lines numbered as by
    str.splitlines, blank ones too)."""
    d, layout = read_matrix_header(path, dim_system)
    found = sum(1 for line in _text_lines(path) if line.strip()) - 2
    if found != d:
        raise ConfigError(f"{path}: expected {d} data lines, found {found}")
    matrix = np.empty((d, d), dtype=complex)
    parts = matrix.view(float)  # re, im of each entry: the bits of each part, signed zeros too
    rows = ((number, line) for number, line in enumerate(_text_lines(path), 1) if line.strip())
    for row, (number, line) in enumerate(itertools.islice(rows, 2, None)):
        values = line.split()
        if len(values) != 2 * d:
            raise ConfigError(f"{path}: line {number}: expected {2 * d} numbers, "
                              f"found {len(values)}")
        try:
            parts[row] = [float(v) for v in values]
        except ValueError as exc:
            raise ConfigError(f"{path}: line {number}: bad number: {exc}") from None
        if not np.isfinite(parts[row]).all():
            raise ConfigError(f"{path}: line {number}: non-finite number")
    return matrix, layout
