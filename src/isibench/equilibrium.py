"""Equilibrium (infinite-time-averaged) states and eigenstate reductions.

With a nondegenerate spectrum the infinite-time average of the reduced state
is diagonal in the eigenbasis: rho_bar = sum_n |c_n|^2 rho_n, where rho_n is
the bath-traced projector of eigenvector n and c_n the overlap of the initial
state with it.  This module computes those objects exactly from spectral
data, the weighted-purity functional delta that controls the sufficient
independence condition, and the closed-form subspace averages used as
references by the theorem evaluators.

Everything here is deliberately exact linear algebra; long-time numerical
integration lives in the dynamics module and is used only as an oracle in
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ValidationError
from .hilbert import DensityMatrix, PureState, SpaceLayout, batched_bloch_vectors
from .sampling import SubspaceBasis
from .spectral import (SpectralData, check_nondegenerate_spectrum, degenerate_level_pairs,
                       write_csv)
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True)
class OverlapCoefficients:
    """Amplitudes c_n = <eigenvector_n | initial state>, unit sum of squares."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=complex, copy=True)
        if vals.ndim != 1 or vals.size == 0:
            raise ValidationError(f"coefficients must be a vector, got shape {vals.shape}")
        total = float(np.sum(np.abs(vals) ** 2))
        if abs(total - 1.0) > DEFAULT.state_norm:
            raise ValidationError(f"sum |c_n|^2 = {total:.15g} deviates from 1")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class EigenstateReductions:
    """System reductions of all composite eigenvectors, with derived summaries.

    ``matrices[n]`` is the bath-traced projector of eigenvector n;
    ``purities[n] = tr(matrices[n]^2)``; ``bloch`` holds the polarization
    vectors when the system is a qubit (None otherwise).  Completeness of the
    eigenbasis forces (1/d) sum_n matrices[n] = I/dS, which is verified on
    construction.
    """

    matrices: np.ndarray
    purities: np.ndarray
    bloch: np.ndarray | None
    layout: SpaceLayout

    def __post_init__(self) -> None:
        mats = np.asarray(self.matrices, dtype=complex)
        d = self.layout.dim_total
        ds = self.layout.dim_system
        if mats.shape != (d, ds, ds):
            raise ValidationError(f"expected ({d}, {ds}, {ds}) reductions, got {mats.shape}")
        herm_err = float(np.abs(mats - mats.conj().transpose(0, 2, 1)).max())
        if herm_err > DEFAULT.hermiticity:
            raise ValidationError(f"reductions not Hermitian: {herm_err:.3e}")
        traces = np.einsum("nii->n", mats)
        trace_err = float(np.abs(traces - 1.0).max())
        if trace_err > DEFAULT.trace:
            raise ValidationError(f"reduction traces deviate from 1 by {trace_err:.3e}")
        lowest = float(np.linalg.eigvalsh(mats).min())
        if lowest < -DEFAULT.eigenvalue_floor:
            raise ValidationError(f"reduction not PSD: lowest eigenvalue {lowest:.3e}")
        completeness = float(np.abs(mats.mean(axis=0) - np.eye(ds) / ds).max())
        if completeness > DEFAULT.completeness:
            raise ValidationError(
                f"eigenbasis completeness violated: |(1/d) sum rho_n - I/dS| = "
                f"{completeness:.3e}"
            )
        pur = np.asarray(self.purities, dtype=float)
        if pur.shape != (d,):
            raise ValidationError(f"purities must have shape ({d},), got {pur.shape}")
        if self.bloch is not None:
            b = np.asarray(self.bloch, dtype=float)
            if b.shape != (d, 3):
                raise ValidationError(f"bloch must have shape ({d}, 3), got {b.shape}")

    @property
    def dim(self) -> int:
        return self.matrices.shape[0]

    @property
    def mean_squared_polarization(self) -> float:
        """(1/d) sum_n |p_n|^2, the tractable necessary-condition quantity (qubits)."""
        if self.bloch is None:
            raise ValidationError("mean squared polarization is defined for qubit systems")
        return float(np.mean(np.sum(self.bloch**2, axis=1)))


def overlaps(spectral: SpectralData, initial: PureState) -> OverlapCoefficients:
    """Expansion coefficients of the initial state in the eigenbasis."""
    if initial.space != "composite":
        raise ValidationError(f"initial state must be composite, got {initial.space!r}")
    if initial.dim != spectral.dim:
        raise ValidationError(f"state dim {initial.dim} != spectral dim {spectral.dim}")
    return OverlapCoefficients(spectral.eigenvectors.conj().T @ initial.amplitudes)


def eigenstate_reductions(spectral: SpectralData,
                          layout: SpaceLayout) -> EigenstateReductions:
    """Bath-traced projectors of every eigenvector, batched."""
    if spectral.dim != layout.dim_total:
        raise ValidationError(f"spectral dim {spectral.dim} != layout {layout.dim_total}")
    blocks = spectral.eigenvectors.T.reshape(layout.dim_total, layout.dim_system,
                                             layout.dim_bath)
    mats = np.einsum("nib,njb->nij", blocks, blocks.conj())
    purities = np.einsum("nij,nji->n", mats, mats).real
    bloch = batched_bloch_vectors(mats) if layout.dim_system == 2 else None
    return EigenstateReductions(matrices=mats, purities=purities, bloch=bloch,
                                layout=layout)


def require_nondegenerate(spectral: SpectralData, tolerances: Tolerances = DEFAULT,
                          allow_degenerate: bool = False) -> bool:
    """Gate for formulas that assume a nondegenerate spectrum.

    Returns True when the hypothesis holds.  When it fails: raises
    DegenerateSpectrumError naming the colliding levels, unless
    ``allow_degenerate`` asks to proceed (then returns False so the caller
    can mark its output as computed under a violated hypothesis).
    """
    ok, _ = check_nondegenerate_spectrum(spectral, tolerances)
    if ok:
        return True
    if not allow_degenerate:
        pairs = degenerate_level_pairs(spectral, tolerances)
        shown = ", ".join(f"({a}, {b})" for a, b in pairs[:8])
        more = "" if len(pairs) <= 8 else f" and {len(pairs) - 8} more"
        raise DegenerateSpectrumError(
            f"spectrum has {len(pairs)} degenerate level pair(s): {shown}{more}; "
            "pass allow_degenerate=True to average over degenerate blocks",
            colliding=pairs,
        )
    return False


def _degenerate_blocks(spectral: SpectralData, tolerances: Tolerances) -> list[np.ndarray]:
    """Partition level indices into clusters closer than the degeneracy threshold."""
    threshold = tolerances.spectrum_degeneracy * spectral.spectral_norm
    splits = np.nonzero(np.diff(spectral.eigenvalues) > threshold)[0] + 1
    return np.split(np.arange(spectral.dim), splits)


def time_averaged_state(coefficients: OverlapCoefficients, reductions: EigenstateReductions,
                        spectral: SpectralData, tolerances: Tolerances = DEFAULT,
                        allow_degenerate: bool = False) -> DensityMatrix:
    """Infinite-time average of the reduced state, sum_n |c_n|^2 rho_n.

    The formula needs a nondegenerate spectrum; degenerate inputs are refused
    with the colliding levels named.  With ``allow_degenerate=True`` the
    average is computed block-exactly instead (project the initial state onto
    each near-degenerate energy block, reduce, and sum), which is the correct
    infinite-time average when the degeneracy is exact; callers should mark
    such output as obtained under a violated hypothesis.
    """
    if coefficients.dim != spectral.dim or reductions.dim != spectral.dim:
        raise ValidationError("coefficients, reductions, and spectral data disagree on d")
    if require_nondegenerate(spectral, tolerances, allow_degenerate):
        mat = np.einsum("n,nij->ij", coefficients.populations, reductions.matrices)
        return DensityMatrix(mat, space="system")
    layout = reductions.layout
    mat = np.zeros((layout.dim_system, layout.dim_system), dtype=complex)
    for block in _degenerate_blocks(spectral, tolerances):
        component = spectral.eigenvectors[:, block] @ coefficients.values[block]
        piece = component.reshape(layout.dim_system, layout.dim_bath)
        mat += piece @ piece.conj().T
    return DensityMatrix(mat, space="system")


def subspace_weights(spectral: SpectralData, subspace: SubspaceBasis) -> np.ndarray:
    """w_n = <n| Pi_R |n> / dR; nonnegative, summing to 1."""
    if subspace.space != "composite" or subspace.dim_ambient != spectral.dim:
        raise ValidationError("subspace must live in the composite space of the spectrum")
    overlap = subspace.columns.conj().T @ spectral.eigenvectors
    return np.sum(np.abs(overlap) ** 2, axis=0) / subspace.dim_subspace


def delta(reductions: EigenstateReductions, subspace: SubspaceBasis,
          spectral: SpectralData) -> float:
    """Subspace-weighted mean purity of the eigenstate reductions.

    delta = sum_n w_n tr(rho_n^2) with w_n the normalized diagonal of the
    subspace projector in the eigenbasis; bounded between 1/dS and 1.  Small
    sqrt(delta) is the sufficient condition for equilibrium states to be
    initial-state independent within the subspace.
    """
    w = subspace_weights(spectral, subspace)
    value = float(w @ reductions.purities)
    lower = 1.0 / reductions.layout.dim_system
    if not lower - 1e-9 <= value <= 1.0 + 1e-9:
        raise ValidationError(f"delta = {value:.15g} outside [{lower:.6g}, 1]")
    return value


def bath_averaged_equilibrium(psi: PureState, reductions: EigenstateReductions) -> DensityMatrix:
    """Average equilibrium state over Haar bath states at fixed system state.

    Closed form (1/dB) sum_n <psi|rho_n|psi> rho_n.  Completeness of the
    eigenbasis makes the trace exactly 1 (sum_n rho_n = dB * I), which the
    DensityMatrix constructor re-verifies.
    """
    if psi.space != "system" or psi.dim != reductions.layout.dim_system:
        raise ValidationError("psi must be a system state matching the layout")
    amps = psi.amplitudes
    weights = np.einsum("i,nij,j->n", amps.conj(), reductions.matrices, amps).real
    mat = np.einsum("n,nij->ij", weights, reductions.matrices) / reductions.layout.dim_bath
    return DensityMatrix(mat, space="system")


def subspace_averaged_equilibrium(subspace: SubspaceBasis, reductions: EigenstateReductions,
                                  spectral: SpectralData) -> DensityMatrix:
    """Exact average of the equilibrium state over Haar draws from a subspace.

    The equilibrium state is a quadratic functional of the initial vector, and
    the Haar average of |Psi><Psi| over any subspace is Pi_R/dR, so the
    average equals sum_n w_n rho_n with the same weights as in delta.  Valid
    for every subspace, product or not.
    """
    w = subspace_weights(spectral, subspace)
    mat = np.einsum("n,nij->ij", w, reductions.matrices)
    return DensityMatrix(mat, space="system")


def write_reductions_csv(path, spectral: SpectralData,
                         reductions: EigenstateReductions) -> None:
    """One row per eigenstate: index, energy, purity, and Bloch components (qubits)."""
    qubit = reductions.bloch is not None
    header = ["n", "energy", "purity"] + (["p_x", "p_y", "p_z"] if qubit else [])
    bloch = reductions.bloch.T if qubit else ()
    write_csv(path, header, zip(range(spectral.dim), spectral.eigenvalues,
                                reductions.purities, *bloch))
