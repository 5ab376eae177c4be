"""Reduced-state time evolution and its distance to equilibrium.

Evolution is computed in the energy eigenbasis, and no propagator is ever
formed (``SpectralData.evolved_reductions``).  The times are worked through
in blocks, which the commuting and cucchietti models deal to one thread per
CPU with the same bits on any thread, and only the (n_times, dS, dS)
trajectory grows with the grid;
``Trajectory`` keeps it without a copy and reads dS from its shape, and
``spectral.STACK_ELEMENT_CAP``, the cap of every (count, dS, dS) stack a run
holds, bounds its entries.  The trajectory's purities and Bloch vectors
come from hilbert's stack formulas, as the reductions' do.  The
equilibration metric, the mean trace distance of the reduced states on a
stratified time grid to the infinite-time average, is
``hilbert.batched_trace_distances`` of the trajectory's states, averaged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import OverlapCoefficients
from .errors import CapExceededError, ValidationError
from .hilbert import SpaceLayout, batched_bloch_vectors, check_density_stack, purities
from .spectral import STACK_ELEMENT_CAP, SpectralData, write_csv


@dataclass(frozen=True)
class Trajectory:
    """Reduced (n_times, dS, dS) states sampled along a time grid."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float, copy=True)
        states = np.asarray(self.states, dtype=complex)  # kept, not copied
        if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
            raise ValidationError(f"times must be a finite vector, got shape {times.shape}")
        ds = states.shape[-1] if states.ndim else 0
        if states.shape != (times.size, ds, ds) or ds < 2:
            raise ValidationError(
                f"expected ({times.size}, dS, dS) states with dS >= 2, got {states.shape}"
            )
        check_density_stack("trajectory states", states, positive=False)
        for name, value in (("times", times), ("states", states)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_times(self) -> int:
        return self.times.size

    def bloch(self) -> np.ndarray:
        if self.states.shape[-1] != 2:
            raise ValidationError("Bloch trajectory is defined for qubit systems")
        return batched_bloch_vectors(self.states)


def require_evolution_fits(dim_system: int, n_times: int) -> None:
    """Refuse a trajectory of n_times * dS^2 entries above the cap; a caller
    that draws the time grid checks before the draw.  The evolution itself
    works through the times in blocks, so the trajectory is what grows."""
    entries = dim_system * dim_system
    if entries * n_times > STACK_ELEMENT_CAP:
        raise CapExceededError(f"trajectory n_times * dS^2 = {n_times} * {entries} exceeds "
                               f"{STACK_ELEMENT_CAP}; set dynamics.n_times to at most "
                               f"{STACK_ELEMENT_CAP // entries}")


def evolve_reduced(coefficients: OverlapCoefficients, spectral: SpectralData,
                   layout: SpaceLayout, times: np.ndarray) -> Trajectory:
    """Exact reduced evolution of the initial state along a time grid."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValidationError(f"times must be a nonempty vector, got shape {times.shape}")
    if coefficients.dim != spectral.dim:  # the layout is checked by the spectral data
        raise ValidationError("coefficients and spectral data disagree on d")
    require_evolution_fits(layout.dim_system, times.size)
    states = spectral.evolved_reductions(coefficients.values, times, layout)
    return Trajectory(times=times, states=states)


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


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    """One row per time: t, purity, and Bloch components for qubit systems."""
    qubit = trajectory.states.shape[-1] == 2
    header = ["t", "purity"] + (["p_x", "p_y", "p_z"] if qubit else [])
    bloch = trajectory.bloch().T if qubit else ()
    write_csv(path, header, zip(trajectory.times, purities(trajectory.states), *bloch))
