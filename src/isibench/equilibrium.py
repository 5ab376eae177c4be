"""Equilibrium (infinite-time-averaged) states and eigenstate reductions.

With a nondegenerate spectrum the infinite-time average of the reduced state
is diagonal in the eigenbasis: rho_bar = sum_n |c_n|^2 rho_n, where rho_n is
the bath-traced projector of eigenvector n and c_n the overlap of the
initial state with it, the read-only (d,) array of
``SpectralData.coefficients``, whose unit norm the initial ``PureState``,
the checked eigenbasis and the trace check of rho_bar keep.  This module
computes those objects exactly from spectral data, and the weighted-purity
functional delta that controls the sufficient independence condition.
``EigenstateReductions`` holds only the rho_n (built as
``EigenstateReductions(spectral.reductions())``, over the layout the
spectral data carries) and derives from them
their layout, their purities and, for a qubit, their polarizations once, by
hilbert's formulas, so delta and the polarization statistics of ``theorems``
read values that cannot disagree with the matrices.  An initial-state
subspace R enters only through its projection W on the eigenbasis
(``SpectralData.projection``), whose column norms give the weights
<n|Pi_R|n>/dR; the Haar average of the equilibrium state over R is then
sum_n w_n rho_n (``hilbert.weighted_sum``).  The eigenvectors are read only
through the methods of ``SpectralData``, so the same code serves every
sector form.  For sectors of one bath level (the commuting models), and for
the whole space in any form, R has a basis in which each eigenvector
overlaps one basis vector at most, and W is kept as those groups
(``spectral.GroupedProjection``).  Whether the spectrum is degenerate, and
so which average ``time_averaged_state`` takes, is read from the mask
``SpectralData.degenerate``.

Everything here is exact linear algebra; time evolution lives in the
dynamics module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ValidationError
from .hilbert import (SpaceLayout, batched_bloch_vectors, check_density_stack, purities,
                      weighted_sum)
from .spectral import (DenseProjection, GroupedProjection, SpectralData,
                       degenerate_level_pairs, write_csv)

COMPLETENESS_TOL = 1e-10  # max |(1/d) sum_n rho_n - I/dS|
DELTA_SLACK = 1e-9        # rounding accepted outside delta's range [1/dS, 1]


@dataclass(frozen=True)
class EigenstateReductions:
    """System reductions of all composite eigenvectors, with derived summaries.

    ``matrices[n]`` is the bath-traced projector of eigenvector n.  Derived
    on construction: ``layout``, dS = k and dB = n / k from the (n, k, k)
    stack, ``purities[n] = tr(matrices[n]^2)``, and for a qubit system (None
    otherwise) ``bloch``, the (d, 3) polarization vectors, and
    ``polarization_gram``, G = sum_n p_n p_n^T.
    Completeness of the eigenbasis forces (1/d) sum_n matrices[n] = I/dS,
    which is verified on construction.
    """

    matrices: np.ndarray

    def __post_init__(self) -> None:
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.ndim != 3 or not 0 < mats.shape[1] == mats.shape[2] \
                or len(mats) % mats.shape[1]:
            raise ValidationError(f"expected (n, k, k) reductions with k dividing n, "
                                  f"got {mats.shape}")
        ds = mats.shape[1]
        object.__setattr__(self, "layout", SpaceLayout(ds, len(mats) // ds))
        check_density_stack("eigenstate reductions", mats)
        completeness = float(np.abs(mats.mean(axis=0) - np.eye(ds) / ds).max())
        if completeness > COMPLETENESS_TOL:
            raise ValidationError(
                f"eigenbasis completeness violated: |(1/d) sum rho_n - I/dS| = "
                f"{completeness:.3e}"
            )
        object.__setattr__(self, "purities", purities(mats))
        bloch = gram = None
        if ds == 2:
            # the (d, 3) .real view of the complex einsum output: its Gram goes
            # through numpy's strided product, whose bits the reports keep, and
            # a copy lets the complex array go
            strided = batched_bloch_vectors(mats)
            bloch, gram = strided.copy(), strided.T @ strided
        object.__setattr__(self, "bloch", bloch)
        object.__setattr__(self, "polarization_gram", gram)

    @property
    def dim(self) -> int:
        return self.matrices.shape[0]


def require_nondegenerate(spectral: SpectralData) -> None:
    """Gate for formulas that assume a nondegenerate spectrum.

    When the mask ``spectral.degenerate`` marks a gap it raises
    DegenerateSpectrumError with their count and the first 8 pairs.
    """
    count = int(np.count_nonzero(spectral.degenerate))
    if count:
        shown = ", ".join(f"({a}, {b})" for a, b in degenerate_level_pairs(spectral, 8))
        more = "" if count <= 8 else f" and {count - 8} more"
        raise DegenerateSpectrumError(
            f"spectrum has {count} degenerate level pair(s): {shown}{more}; "
            "set analysis.allow_degenerate = true to average over degenerate blocks "
            "(the dynamics needs a nondegenerate spectrum either way)")


def time_averaged_state(coefficients: np.ndarray, reductions: EigenstateReductions,
                        spectral: SpectralData, allow_degenerate: bool = False
                        ) -> np.ndarray:
    """Infinite-time average of the reduced state, sum_n |c_n|^2 rho_n.

    The formula needs a nondegenerate spectrum; degenerate inputs are refused
    with the colliding levels named.  With ``allow_degenerate=True`` the
    average is computed block-exactly instead (project the initial state onto
    each run of degenerate levels inside a sector, reduce, and sum), which is
    the correct infinite-time average when the degeneracy is exact; callers
    should mark such output as obtained under a violated hypothesis.  The
    result is a read-only (dS, dS) array checked Hermitian, of unit trace and
    PSD, so overlaps c whose sum |c_n|^2 is not 1 fail its trace check.
    """
    if np.shape(coefficients) != (spectral.dim,) or reductions.dim != spectral.dim:
        raise ValidationError(f"coefficients of shape {np.shape(coefficients)} and "
                              f"{reductions.dim} reductions do not fit d = {spectral.dim}")
    if not allow_degenerate:
        require_nondegenerate(spectral)
    rho = (spectral.dephased_reduction(coefficients) if spectral.degenerate.any()
           else weighted_sum(np.abs(coefficients) ** 2, reductions.matrices))
    check_density_stack("density matrix", rho[None])
    rho.setflags(write=False)
    return rho


def delta(reductions: EigenstateReductions,
          projection: DenseProjection | GroupedProjection) -> float:
    """Subspace-weighted mean purity of the eigenstate reductions.

    delta = sum_n w_n tr(rho_n^2) with w_n the normalized diagonal of the
    subspace projector, read from the projection W; a value outside [1/dS,
    1] is refused.  Small sqrt(delta) is the sufficient condition for
    equilibrium states to be initial-state independent within the subspace.
    """
    value = float(projection.weights @ reductions.purities)
    lower = 1.0 / reductions.layout.dim_system
    if not lower - DELTA_SLACK <= value <= 1.0 + DELTA_SLACK:
        raise ValidationError(f"delta = {value:.15g} outside [{lower:.6g}, 1]")
    return value


def write_reductions_csv(path, spectral: SpectralData,
                         reductions: EigenstateReductions) -> None:
    """One row per eigenstate: index, energy, purity, and Bloch components (qubits)."""
    qubit = reductions.bloch is not None
    header = ["n", "energy", "purity"] + (["p_x", "p_y", "p_z"] if qubit else [])
    bloch = reductions.bloch.T if qubit else ()
    write_csv(path, header, zip(range(spectral.dim), spectral.eigenvalues,
                                reductions.purities, *bloch))
