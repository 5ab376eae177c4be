"""Equilibrium (infinite-time-averaged) states and eigenstate reductions.

With a nondegenerate spectrum the infinite-time average of the reduced state
is diagonal in the eigenbasis: rho_bar = sum_n |c_n|^2 rho_n, where rho_n is
the bath-traced projector of eigenvector n and c_n the overlap of the initial
state with it.  This module computes those objects exactly from spectral
data, and the weighted-purity functional delta that controls the sufficient
independence condition.  ``EigenstateReductions`` holds only the rho_n and
derives from them their layout, their purities and, for a qubit, their
polarizations once, so delta and the polarization bounds read values that
cannot disagree with the matrices.  An initial-state subspace R enters only
through its projection W on the eigenbasis (``subspace_projection``), whose
column norms give the weights <n|Pi_R|n>/dR; the Haar average of the
equilibrium state over R is then sum_n w_n rho_n (``weighted_reduction``).
The eigenvectors are read only through the methods of ``SpectralData``, so
the same code serves every sector form.  For sectors of one bath level (the
commuting models), and for the whole space in any form, R has a basis in
which each eigenvector overlaps one basis vector at most, and W is kept as
those groups (``spectral.GroupedProjection``).  Whether the spectrum is degenerate, and
so which average ``time_averaged_state`` takes, is read from the mask
``SpectralData.degenerate``.

Everything here is exact linear algebra; time evolution lives in the
dynamics module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ValidationError
from .hilbert import (STATE_NORM_TOL, DensityMatrix, PureState, SpaceLayout,
                      batched_bloch_vectors, check_density_stack, weighted_sum)
from .spectral import (DenseProjection, GroupedProjection, SpectralData,
                       degenerate_level_pairs, write_csv)

COMPLETENESS_TOL = 1e-10  # max |(1/d) sum_n rho_n - I/dS|


@dataclass(frozen=True)
class OverlapCoefficients:
    """Amplitudes c_n = <eigenvector_n | initial state>, unit sum of squares."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=complex, copy=True)
        if vals.ndim != 1 or vals.size == 0:
            raise ValidationError(f"coefficients must be a vector, got shape {vals.shape}")
        total = float(np.sum(np.abs(vals) ** 2))
        if abs(total - 1.0) > STATE_NORM_TOL:
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

    ``matrices[n]`` is the bath-traced projector of eigenvector n.  Derived
    on construction: ``layout``, dS = k and dB = n / k from the (n, k, k)
    stack, ``purities[n] = tr(matrices[n]^2)`` and ``bloch``, the
    polarization vectors when the system is a qubit (None otherwise).
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
        object.__setattr__(self, "purities", np.einsum("nij,nji->n", mats, mats).real)
        object.__setattr__(self, "bloch", batched_bloch_vectors(mats) if ds == 2 else None)

    @property
    def dim(self) -> int:
        return self.matrices.shape[0]

    @property
    def mean_squared_polarization(self) -> float:
        """(1/d) sum_n |p_n|^2, the tractable necessary-condition quantity (qubits)."""
        if self.bloch is None:
            raise ValidationError("mean squared polarization is defined for qubit systems")
        return float(np.mean(np.sum(self.bloch**2, axis=1)))


def overlaps(spectral: SpectralData, initial: PureState,
             layout: SpaceLayout) -> OverlapCoefficients:
    """Expansion coefficients of the initial state in the eigenbasis."""
    if initial.space != "composite":
        raise ValidationError(f"initial state must be composite, got {initial.space!r}")
    if initial.dim != spectral.dim:
        raise ValidationError(f"state dim {initial.dim} != spectral dim {spectral.dim}")
    return OverlapCoefficients(spectral.coefficients(initial.amplitudes, layout))


def eigenstate_reductions(spectral: SpectralData,
                          layout: SpaceLayout) -> EigenstateReductions:
    """Bath-traced projectors of every eigenvector, batched."""
    return EigenstateReductions(spectral.reductions(layout))


def require_nondegenerate(spectral: SpectralData, allow_degenerate: bool = False) -> None:
    """Gate for formulas that assume a nondegenerate spectrum.

    When the mask ``spectral.degenerate`` marks a gap it raises
    DegenerateSpectrumError with their count and the first 8 pairs, unless
    ``allow_degenerate`` asks to proceed (the caller then marks its output as
    computed under a violated hypothesis).
    """
    count = int(np.count_nonzero(spectral.degenerate))
    if count and not allow_degenerate:
        shown = ", ".join(f"({a}, {b})" for a, b in degenerate_level_pairs(spectral, 8))
        more = "" if count <= 8 else f" and {count - 8} more"
        raise DegenerateSpectrumError(
            f"spectrum has {count} degenerate level pair(s): {shown}{more}; "
            "set analysis.allow_degenerate = true to average over degenerate blocks "
            "(the dynamics needs a nondegenerate spectrum either way)")


def time_averaged_state(coefficients: OverlapCoefficients, reductions: EigenstateReductions,
                        spectral: SpectralData, allow_degenerate: bool = False
                        ) -> DensityMatrix:
    """Infinite-time average of the reduced state, sum_n |c_n|^2 rho_n.

    The formula needs a nondegenerate spectrum; degenerate inputs are refused
    with the colliding levels named.  With ``allow_degenerate=True`` the
    average is computed block-exactly instead (project the initial state onto
    each run of degenerate levels inside a sector, reduce, and sum), which
    is the correct infinite-time average when the degeneracy is exact;
    callers should mark such output as obtained under a violated hypothesis.
    """
    if coefficients.dim != spectral.dim or reductions.dim != spectral.dim:
        raise ValidationError("coefficients, reductions, and spectral data disagree on d")
    require_nondegenerate(spectral, allow_degenerate)
    if not spectral.degenerate.any():
        return DensityMatrix(weighted_reduction(coefficients.populations, reductions),
                             space="system")
    return DensityMatrix(spectral.dephased_reduction(coefficients.values, reductions.layout),
                         space="system")


def subspace_projection(spectral: SpectralData, layout: SpaceLayout,
                        psi: PureState | None = None, dim_bath: int | None = None
                        ) -> DenseProjection | GroupedProjection:
    """W = B^H V, the (dR, d) overlaps of an orthonormal basis of the
    initial-state subspace R with the eigenvectors.

    ``psi=None`` is the whole space, taken in the eigenbasis (W = I);
    otherwise R = psi (x) span of the first ``dim_bath`` bath levels (all by
    default), and W[b, n] = sum_i conj(psi_i) <i, b|n>.  The result has the
    dimension dR, the weights w_n = <n|Pi_R|n>/dR and the draw of the T0
    estimate; it is grouped for the whole space and for sectors of g = 1.
    """
    if psi is None:
        return spectral.projection(layout)
    if psi.space != "system" or psi.dim != layout.dim_system:
        raise ValidationError("psi must be a system state matching the layout")
    k = layout.dim_bath if dim_bath is None else dim_bath
    if not 1 <= k <= layout.dim_bath:
        raise ValidationError(f"bath subspace dim {k} outside [1, {layout.dim_bath}]")
    return spectral.projection(layout, psi.amplitudes, k)


def weighted_purity(weights: np.ndarray, reductions: EigenstateReductions) -> float:
    """sum_n w_n tr(rho_n^2), checked to lie in [1/dS, 1]."""
    value = float(weights @ reductions.purities)
    lower = 1.0 / reductions.layout.dim_system
    if not lower - 1e-9 <= value <= 1.0 + 1e-9:
        raise ValidationError(f"delta = {value:.15g} outside [{lower:.6g}, 1]")
    return value


def weighted_reduction(weights: np.ndarray, reductions: EigenstateReductions) -> np.ndarray:
    """sum_n w_n rho_n for weights of shape (..., d); shape (..., dS, dS)."""
    return weighted_sum(weights, reductions.matrices)


def delta(reductions: EigenstateReductions,
          projection: DenseProjection | GroupedProjection) -> float:
    """Subspace-weighted mean purity of the eigenstate reductions.

    delta = sum_n w_n tr(rho_n^2) with w_n the normalized diagonal of the
    subspace projector, read from the projection W; bounded between 1/dS and
    1.  Small sqrt(delta) is the sufficient condition for equilibrium states
    to be initial-state independent within the subspace.
    """
    return weighted_purity(projection.weights, reductions)


def write_reductions_csv(path, spectral: SpectralData,
                         reductions: EigenstateReductions) -> None:
    """One row per eigenstate: index, energy, purity, and Bloch components (qubits)."""
    qubit = reductions.bloch is not None
    header = ["n", "energy", "purity"] + (["p_x", "p_y", "p_z"] if qubit else [])
    bloch = reductions.bloch.T if qubit else ()
    write_csv(path, header, zip(range(spectral.dim), spectral.eigenvalues,
                                reductions.purities, *bloch))
