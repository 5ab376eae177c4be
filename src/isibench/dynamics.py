"""Reduced-state time evolution and finite-time averaging.

Evolution is computed in the energy eigenbasis: the composite amplitudes at
time t are c_n exp(-i E_n t), so the reduced state at many times is two
matrix products and a batched partial trace; no propagator is ever formed.
The finite-horizon average has a closed form in the same basis (the average
of exp(-i (E_n - E_m) t) over [0, T] is an explicit kernel), which this
module evaluates without materializing all pairwise reduced operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import EigenstateReductions, OverlapCoefficients, time_averaged_state
from .errors import CapExceededError, ValidationError
from .hilbert import (DensityMatrix, SpaceLayout, batched_bloch_vectors,
                      check_density_stack, partial_trace_bath)
from .spectral import SpectralData, write_csv
from .tolerances import DEFAULT, Tolerances

EVOLUTION_ELEMENT_CAP = 20_000_000


@dataclass(frozen=True)
class Trajectory:
    """Reduced states sampled along a time grid."""

    times: np.ndarray
    states: np.ndarray
    layout: SpaceLayout

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float, copy=True)
        states = np.array(self.states, dtype=complex, copy=True)
        if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
            raise ValidationError(f"times must be a finite vector, got shape {times.shape}")
        ds = self.layout.dim_system
        if states.shape != (times.size, ds, ds):
            raise ValidationError(
                f"expected ({times.size}, {ds}, {ds}) states, got {states.shape}"
            )
        check_density_stack("trajectory states", states, positive=False)
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def n_times(self) -> int:
        return self.times.size

    def purities(self) -> np.ndarray:
        return np.einsum("tij,tji->t", self.states, self.states).real

    def bloch(self) -> np.ndarray:
        if self.layout.dim_system != 2:
            raise ValidationError("Bloch trajectory is defined for qubit systems")
        return batched_bloch_vectors(self.states)


def _reduced_states(coefficients: OverlapCoefficients, spectral: SpectralData,
                    layout: SpaceLayout, times: np.ndarray) -> np.ndarray:
    """Reduced states at the given times, shape (nt, dS, dS)."""
    d = spectral.dim
    if coefficients.dim != d or layout.dim_total != d:
        raise ValidationError("coefficients, spectral data, and layout disagree on d")
    times = np.asarray(times, dtype=float)
    if d * times.size > EVOLUTION_ELEMENT_CAP:
        raise CapExceededError(
            f"evolution buffer d * n_times = {d * times.size} exceeds "
            f"{EVOLUTION_ELEMENT_CAP}; evolve in chunks"
        )
    weights = coefficients.values[:, None] * np.exp(
        -1j * spectral.eigenvalues[:, None] * times[None, :])
    amplitudes = spectral.eigenvectors @ weights
    blocks = amplitudes.reshape(layout.dim_system, layout.dim_bath, times.size)
    return np.einsum("ibt,jbt->tij", blocks, blocks.conj())


def evolve_reduced(coefficients: OverlapCoefficients, spectral: SpectralData,
                   layout: SpaceLayout, times: np.ndarray) -> Trajectory:
    """Exact reduced evolution of the initial state along a time grid."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValidationError(f"times must be a nonempty vector, got shape {times.shape}")
    return Trajectory(times=times, states=_reduced_states(coefficients, spectral,
                                                          layout, times),
                      layout=layout)


def stratified_times(horizon: float, n_times: int,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """n_times points in [0, horizon), one uniform draw per equal stratum.

    Stratification keeps the estimator unbiased for uniform time averages
    while cutting its variance; with no generator the stratum midpoints are
    used, which makes the grid deterministic.
    """
    if horizon <= 0 or not np.isfinite(horizon):
        raise ValidationError(f"horizon must be positive and finite, got {horizon}")
    if n_times < 1:
        raise ValidationError(f"n_times must be >= 1, got {n_times}")
    offsets = rng.uniform(size=n_times) if rng is not None else np.full(n_times, 0.5)
    return (np.arange(n_times) + offsets) * (horizon / n_times)


def equilibration_metric(coefficients: OverlapCoefficients, spectral: SpectralData,
                         layout: SpaceLayout, horizon: float, n_times: int,
                         rng: np.random.Generator | None = None,
                         reductions: EigenstateReductions | None = None,
                         tolerances: Tolerances = DEFAULT,
                         allow_degenerate: bool = False) -> float:
    """Mean trace distance between the evolving reduced state and its time average.

    Sampled over a stratified grid on [0, horizon).  Small values certify
    equilibration: the system spends most of the time close to the
    infinite-time average.
    """
    if reductions is None:
        from .equilibrium import eigenstate_reductions
        reductions = eigenstate_reductions(spectral, layout)
    equilibrium = time_averaged_state(coefficients, reductions, spectral, tolerances,
                                      allow_degenerate=allow_degenerate)
    times = stratified_times(horizon, n_times, rng)
    return equilibrate(coefficients, spectral, layout, times, equilibrium)[1]


def equilibrate(coefficients: OverlapCoefficients, spectral: SpectralData,
                layout: SpaceLayout, times: np.ndarray,
                equilibrium: DensityMatrix) -> tuple[Trajectory, float]:
    """Reduced trajectory along ``times`` and its mean trace distance to ``equilibrium``."""
    trajectory = evolve_reduced(coefficients, spectral, layout, times)
    deviations = np.linalg.eigvalsh(trajectory.states - equilibrium.matrix[None, :, :])
    return trajectory, float(np.abs(deviations).sum(axis=1).mean())


def _average_kernel(eigenvalues: np.ndarray, horizon: float) -> np.ndarray:
    """K[n, m] = (1/T) integral_0^T exp(-i (E_n - E_m) t) dt, stably.

    Equal to exp(-i x / 2) * sin(x/2) / (x/2) at x = (E_n - E_m) T, written
    through np.sinc so the removable singularity at equal energies is exact.
    """
    x = (eigenvalues[:, None] - eigenvalues[None, :]) * horizon
    return np.exp(-0.5j * x) * np.sinc(x / (2.0 * np.pi))


def finite_time_average(source, spectral: SpectralData | None = None,
                        layout: SpaceLayout | None = None,
                        horizon: float | None = None, n_times: int | None = None,
                        rng: np.random.Generator | None = None,
                        tolerances: Tolerances = DEFAULT) -> DensityMatrix:
    """Average reduced state over [0, horizon].

    Accepts either a Trajectory (plain mean of its states, no other arguments)
    or overlap coefficients plus spectral data and layout.  In the latter case
    ``n_times=None`` selects the closed-form average: the dephasing kernel is
    applied to the amplitude matrix A = eigenvectors * diag(c) and the bath is
    traced out of A K A^dagger, two cubic matrix products.  A positive
    ``n_times`` averages over a stratified grid instead.
    """
    if isinstance(source, Trajectory):
        if spectral is not None or layout is not None or horizon is not None:
            raise ValidationError("a Trajectory source takes no further arguments")
        return DensityMatrix(source.states.mean(axis=0), space="system")
    if not isinstance(source, OverlapCoefficients):
        raise ValidationError(f"expected Trajectory or OverlapCoefficients, "
                              f"got {type(source).__name__}")
    if spectral is None or layout is None or horizon is None:
        raise ValidationError("coefficient input needs spectral data, layout, and horizon")
    if horizon <= 0 or not np.isfinite(horizon):
        raise ValidationError(f"horizon must be positive and finite, got {horizon}")
    if n_times is not None:
        times = stratified_times(horizon, n_times, rng)
        states = _reduced_states(source, spectral, layout, times)
        return DensityMatrix(states.mean(axis=0), space="system")
    if spectral.dim > tolerances.kernel_dim_cap:
        raise CapExceededError(
            f"closed-form average at d={spectral.dim} exceeds the kernel cap "
            f"{tolerances.kernel_dim_cap}; pass n_times for a sampled average"
        )
    weighted = spectral.eigenvectors * source.values[None, :]
    dephased = (weighted @ _average_kernel(spectral.eigenvalues, horizon)) @ weighted.conj().T
    return partial_trace_bath(dephased, layout)


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    """One row per time: t, purity, and Bloch components for qubit systems."""
    qubit = trajectory.layout.dim_system == 2
    header = ["t", "purity"] + (["p_x", "p_y", "p_z"] if qubit else [])
    bloch = trajectory.bloch().T if qubit else ()
    write_csv(path, header, zip(trajectory.times, trajectory.purities(), *bloch))
