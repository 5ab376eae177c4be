"""Reduced-state time evolution and its distance to equilibrium.

Evolution is computed in the energy eigenbasis from the (d,) overlaps c_n
of ``SpectralData.coefficients``, and no propagator is ever formed
(``SpectralData.evolved_reductions``, over the layout the data carries).
The times are worked through in blocks, which the commuting and cucchietti
models deal to one thread per CPU with the same bits on any thread, and
only the (n_times, dS, dS) trajectory grows with the grid;
``evolve_reduced`` returns it as a read-only array that has passed
``check_density_stack``, as rho-bar is, and ``spectral.STACK_ELEMENT_CAP``,
the cap of every (count, dS, dS) stack a run holds, bounds its entries.  The trajectory's purities and Bloch vectors
come from hilbert's stack formulas, as the reductions' do.  The
equilibration metric, the mean trace distance of the reduced states on a
stratified time grid to the infinite-time average, is
``hilbert.batched_trace_distances`` of the trajectory's states, averaged.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .hilbert import batched_bloch_vectors, check_density_stack, purities
from .spectral import SpectralData, require_count_fits, write_csv


def evolve_reduced(coefficients: np.ndarray, spectral: SpectralData,
                   times: np.ndarray) -> np.ndarray:
    """The read-only (n_times, dS, dS) reduced states of the initial state,
    given by its (d,) overlaps c, along a finite time grid; their trace
    check refuses a c whose sum |c_n|^2 is not 1.  Data without a layout,
    which the evolution refuses, has its grid capped at dS = 1."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValidationError(f"times must be a nonempty finite vector, got shape {times.shape}")
    if np.shape(coefficients) != (spectral.dim,):
        raise ValidationError(f"coefficients of shape {np.shape(coefficients)} do not fit "
                              f"d = {spectral.dim}")
    require_count_fits("dynamics.n_times", times.size,
                       spectral.layout.dim_system if spectral.layout else 1)
    states = spectral.evolved_reductions(coefficients, times)
    check_density_stack("trajectory states", states, positive=False)
    states.setflags(write=False)
    return states


def stratified_times(horizon: float, n_times: int, rng: np.random.Generator) -> np.ndarray:
    """n_times points in [0, horizon), one uniform draw per equal stratum.

    Stratification keeps the estimator unbiased for uniform time averages
    while cutting its variance.
    """
    if horizon <= 0 or not np.isfinite(horizon):
        raise ValidationError(f"horizon must be positive and finite, got {horizon}")
    if n_times < 1:
        raise ValidationError(f"n_times must be >= 1, got {n_times}")
    return (np.arange(n_times) + rng.uniform(size=n_times)) * (horizon / n_times)


def write_trajectory_csv(path, times: np.ndarray, states: np.ndarray) -> None:
    """One row per time: t, purity, and Bloch components for qubit systems."""
    qubit = states.shape[-1] == 2
    header = ["t", "purity"] + (["p_x", "p_y", "p_z"] if qubit else [])
    bloch = batched_bloch_vectors(states).T if qubit else ()
    write_csv(path, header, zip(times, purities(states), *bloch))
