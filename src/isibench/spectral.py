"""Composite Hamiltonian assembly, eigendecomposition, and the degeneracy test.

The equilibration statements this package evaluates assume a nondegenerate
spectrum.  ``degenerate_level_pairs`` is the one place that decides it: two
consecutive levels are degenerate when their spacing is at most
``spectrum_degeneracy`` times the spectral norm of H.  The verdict, the
refusals and the block average of a degenerate spectrum all read it.

Hamiltonians can be round-tripped through a small text format (one header
line with a magic tag, one with dimensions and the system/bath split, then
one row per line as interleaved real/imag pairs printed with %.17g, which is
lossless for doubles).  The CSV data files of a run share ``write_csv``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapExceededError, ConfigError, ValidationError
from .hilbert import SpaceLayout
from .tolerances import DEFAULT, Tolerances

MATRIX_FORMAT_MAGIC = "isibench-matrix"
MATRIX_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CompositeHamiltonian:
    """The three Hermitian parts and their dense total, H = HS(x)I + I(x)HB + HSB."""

    system: np.ndarray
    bath: np.ndarray
    interaction: np.ndarray
    total: np.ndarray
    layout: SpaceLayout

    def __post_init__(self) -> None:
        for name, mat, dim in (
            ("system", self.system, self.layout.dim_system),
            ("bath", self.bath, self.layout.dim_bath),
            ("interaction", self.interaction, self.layout.dim_total),
            ("total", self.total, self.layout.dim_total),
        ):
            arr = np.asarray(mat)
            if arr.shape != (dim, dim):
                raise ValidationError(f"{name} part must be {dim}x{dim}, got {arr.shape}")
        rebuilt = (
            np.kron(self.system, np.eye(self.layout.dim_bath))
            + np.kron(np.eye(self.layout.dim_system), self.bath)
            + self.interaction
        )
        drift = float(np.abs(rebuilt - self.total).max())
        if drift > 1e-12 * max(1.0, float(np.abs(self.total).max())):
            raise ValidationError(f"total does not match assembled parts, drift {drift:.3e}")


def _require_hermitian(name: str, mat: np.ndarray, tol: float) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    asym = float(np.abs(arr - arr.conj().T).max()) if arr.size else 0.0
    if not asym <= tol:  # a NaN entry fails too
        raise ValidationError(f"{name} not Hermitian: max asymmetry {asym:.3e} > {tol:.1e}")
    return arr


def assemble(system: np.ndarray, bath: np.ndarray, interaction: np.ndarray | None,
             layout: SpaceLayout | None = None,
             tolerances: Tolerances = DEFAULT) -> CompositeHamiltonian:
    """Build the dense composite Hamiltonian from its parts.

    ``interaction=None`` means no coupling.  The layout is inferred from the
    part dimensions when not given.
    """
    hs = _require_hermitian("system part", system, tolerances.hamiltonian_asymmetry)
    hb = _require_hermitian("bath part", bath, tolerances.hamiltonian_asymmetry)
    if layout is None:
        layout = SpaceLayout(hs.shape[0], hb.shape[0])
    if interaction is None:
        hsb = np.zeros((layout.dim_total, layout.dim_total), dtype=complex)
    else:
        hsb = _require_hermitian("interaction part", interaction,
                                 tolerances.hamiltonian_asymmetry)
    if hs.shape[0] != layout.dim_system or hb.shape[0] != layout.dim_bath:
        raise ValidationError(
            f"part dims ({hs.shape[0]}, {hb.shape[0]}) do not match layout "
            f"{layout.dim_system}x{layout.dim_bath}"
        )
    if hsb.shape[0] != layout.dim_total:
        raise ValidationError(
            f"interaction dim {hsb.shape[0]} does not match composite {layout.dim_total}"
        )
    total = (np.kron(hs, np.eye(layout.dim_bath)) + np.kron(np.eye(layout.dim_system), hb)
             + hsb)
    return CompositeHamiltonian(system=hs, bath=hb, interaction=hsb, total=total,
                                layout=layout)


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending) and phase-fixed eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        evals = np.array(self.eigenvalues, dtype=float, copy=True)
        evecs = np.array(self.eigenvectors, dtype=complex, copy=True)
        d = evals.size
        if evals.ndim != 1 or evecs.shape != (d, d):
            raise ValidationError(
                f"inconsistent shapes: eigenvalues {evals.shape}, eigenvectors {evecs.shape}"
            )
        if np.any(np.diff(evals) < 0):
            raise ValidationError("eigenvalues must be sorted ascending")
        evals.setflags(write=False)
        evecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "eigenvectors", evecs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def spectral_norm(self) -> float:
        """max |E_n|, with 1.0 substituted for an identically zero spectrum."""
        norm = float(np.abs(self.eigenvalues).max())
        return norm if norm > 0.0 else 1.0

    @property
    def min_level_spacing(self) -> float:
        """The smallest consecutive eigenvalue difference (inf for one level)."""
        if self.dim < 2:
            return float("inf")
        return float(np.diff(self.eigenvalues).min())


def fix_phases(eigenvectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive.

    Ties on the magnitude pick the lowest index (argmax convention), making
    the output deterministic and shared by the dense and analytic paths.
    """
    vecs = np.array(eigenvectors, dtype=complex, copy=True)
    anchor = np.argmax(np.abs(vecs), axis=0)
    pivots = vecs[anchor, np.arange(vecs.shape[1])]
    phases = pivots / np.abs(pivots)
    return vecs * phases.conj()[None, :]


def eigendecompose(hamiltonian, tolerances: Tolerances = DEFAULT) -> SpectralData:
    """Dense Hermitian eigendecomposition with deterministic phases.

    Accepts a CompositeHamiltonian or a plain Hermitian array.  Verifies the
    residual ``max |H v_n - E_n v_n|`` against ``tolerances.residual * norm(H)``
    and the unitarity of the eigenvector matrix, so downstream consumers can
    rely on SpectralData invariants without rechecking.
    """
    mat = hamiltonian.total if isinstance(hamiltonian, CompositeHamiltonian) else hamiltonian
    mat = _require_hermitian("hamiltonian", mat, tolerances.hamiltonian_asymmetry)
    d = mat.shape[0]
    if d > tolerances.decompose_dim_cap:
        raise CapExceededError(
            f"dimension {d} exceeds the dense decomposition cap "
            f"{tolerances.decompose_dim_cap}"
        )
    evals, evecs = np.linalg.eigh(mat)
    evecs = fix_phases(evecs)

    hnorm = max(float(np.abs(evals).max()), 1e-300)
    residual = float(np.abs(mat @ evecs - evecs * evals[None, :]).max())
    if residual > tolerances.residual * hnorm:
        raise ValidationError(
            f"eigenpair residual {residual:.3e} exceeds {tolerances.residual:.1e}*|H|"
        )
    unit_err = float(np.abs(evecs.conj().T @ evecs - np.eye(d)).max())
    if unit_err > tolerances.unitarity:
        raise ValidationError(f"eigenvector matrix not unitary: {unit_err:.3e}")

    return SpectralData(eigenvalues=evals, eigenvectors=evecs)


def degenerate_level_pairs(spectral: SpectralData,
                           tolerances: Tolerances = DEFAULT) -> list[tuple[int, int]]:
    """Index pairs (n, n+1) of consecutive levels no farther apart than
    tolerances.spectrum_degeneracy*|H|; the spectrum is nondegenerate iff
    there are none."""
    threshold = tolerances.spectrum_degeneracy * spectral.spectral_norm
    diffs = np.diff(spectral.eigenvalues)
    return [(int(i), int(i) + 1) for i in np.nonzero(diffs <= threshold)[0]]


def check_nondegenerate_spectrum(spectral: SpectralData,
                                 tolerances: Tolerances = DEFAULT) -> tuple[bool, float]:
    """True iff no level pair is degenerate (see degenerate_level_pairs).

    Returns the margin (the smallest level spacing) alongside, so reports can
    show how close a passing instance sits to the threshold.
    """
    return not degenerate_level_pairs(spectral, tolerances), spectral.min_level_spacing


def write_matrix(path, matrix: np.ndarray, layout: SpaceLayout | None = None) -> None:
    """Write a complex matrix in the package's text format.

    Line 1 is ``isibench-matrix 1``; line 2 is ``rows cols dS dB`` with zeros
    for an untagged matrix; each following line is one row as interleaved
    ``re im`` pairs in %.17g (lossless round-trip for doubles).
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2:
        raise ValidationError(f"only 2-d matrices are supported, got shape {mat.shape}")
    if layout is not None and mat.shape[0] != layout.dim_total:
        raise ValidationError(
            f"matrix dim {mat.shape[0]} does not match layout {layout.dim_total}"
        )
    ds, db = (layout.dim_system, layout.dim_bath) if layout is not None else (0, 0)
    lines = [f"{MATRIX_FORMAT_MAGIC} {MATRIX_FORMAT_VERSION}",
             f"{mat.shape[0]} {mat.shape[1]} {ds} {db}"]
    lines.extend(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) for row in mat)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_csv(path, header: list[str], rows) -> None:
    """Write a data file: a ``# schema_version 1`` line, the header, the rows.

    Strings are written as they are and numbers in %.17g (lossless for
    doubles); the schema line lets downstream parsers detect column changes.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("# schema_version 1\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else f"{v:.17g}" for v in row]
                         for row in rows)


def read_matrix(path) -> tuple[np.ndarray, SpaceLayout | None]:
    """Read a matrix written by write_matrix; returns (matrix, layout-or-None)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty matrix file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MATRIX_FORMAT_MAGIC or not head[1].isdecimal():
        raise ConfigError(f"{path}: line 1: expected '{MATRIX_FORMAT_MAGIC} <version>'")
    if int(head[1]) != MATRIX_FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported format version {head[1]}")
    if len(lines) < 2:
        raise ConfigError(f"{path}: missing dimension line")
    dims = lines[1].split()
    if len(dims) != 4:
        raise ConfigError(f"{path}: line 2: expected 'rows cols dS dB'")
    try:
        rows, cols, ds, db = (int(x) for x in dims)
    except ValueError as exc:
        raise ConfigError(f"{path}: line 2: non-integer dimension: {exc}") from None
    if rows < 1 or cols < 1:
        raise ConfigError(f"{path}: invalid dimensions {rows}x{cols}")
    if len(lines) != 2 + rows:
        raise ConfigError(f"{path}: expected {rows} data lines, found {len(lines) - 2}")
    data = np.empty((rows, cols), dtype=complex)
    for i, line in enumerate(lines[2:]):
        values = line.split()
        if len(values) != 2 * cols:
            raise ConfigError(
                f"{path}: line {i + 3}: expected {2 * cols} numbers, found {len(values)}"
            )
        try:
            floats = np.array([float(v) for v in values])
        except ValueError as exc:
            raise ConfigError(f"{path}: line {i + 3}: bad number: {exc}") from None
        if not np.isfinite(floats).all():
            raise ConfigError(f"{path}: line {i + 3}: non-finite number")
        data[i] = floats[0::2] + 1j * floats[1::2]
    if ds == 0 and db == 0:
        return data, None
    layout = SpaceLayout(ds, db)
    if layout.dim_total != rows or rows != cols:
        raise ConfigError(
            f"{path}: layout {ds}x{db} inconsistent with matrix shape {rows}x{cols}"
        )
    return data, layout
