"""Haar-uniform draws and reproducible Monte Carlo averaging.

Each draw costs only what the estimated value depends on:

* ``haar_amplitudes(dim)``: unit vectors uniform on the sphere of C^dim,
  2*dim standard normals normalised, as coordinates in an orthonormal basis
  of the target subspace (the measure does not depend on the basis);
* ``dirichlet_weights(dim)``: their populations |a_r|^2, which are
  Dirichlet(1, ..., 1) weights, dim standard exponentials normalised; they
  serve every value that reads the populations in one fixed basis
  (``spectral.GroupedProjection``);
* ``induced_states(dS, dB)``: the reduced states of Haar-uniform vectors of
  C^dS (x) C^dB, which are G G^H / tr(G G^H) for a dS x dB standard complex
  Gaussian G (the induced measure: Zyczkowski and Sommers, J. Phys. A 34,
  7111 (2001)).  For dB >= dS the Bartlett factor of G G^H is drawn, O(dS^2)
  variates per draw whatever dB is; for dB < dS, G itself.

A draw binds to a generator and hands out chunks of samples, consuming each
kind of variate in sample order, so that the chunking never changes the
draws.  Monte Carlo estimates are batched: the functional maps a whole chunk
of draws to their values at once.  An estimate draws from one Philox child
of its seed and sums its values once, so identical inputs give bit-identical
estimates on the same machine and numpy/BLAS build with the same BLAS
thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ValidationError

# Largest number of entries in one chunk's (count, width) buffer of a batched
# Monte Carlo estimate: 2**21 entries, 32 MB when they are complex.
MONTE_CARLO_ELEMENT_CAP = 2**21


def sample_amplitudes(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(dim, n) complex columns uniform on the unit sphere of C^dim."""
    z = rng.standard_normal((n, dim, 2))
    amps = z[..., 0] + 1j * z[..., 1]
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return amps.T


# A draw binds to a generator and returns the function that hands out the
# next ``count`` samples of its law.  (The generator type is named, not
# looked up: numpy loads numpy.random on first access, and importing the
# package does not.)
Draw = Callable[["np.random.Generator"], Callable[[int], np.ndarray]]


def haar_amplitudes(dim: int) -> Draw:
    """Haar-uniform unit vectors of C^dim as (dim, count) columns."""
    return lambda rng: lambda count: sample_amplitudes(dim, count, rng)


def dirichlet_weights(dim: int) -> Draw:
    """The populations |a_r|^2 of Haar-uniform unit vectors a of C^dim as
    (count, dim) rows: Dirichlet(1, ..., 1) weights."""
    def bind(rng: np.random.Generator) -> Callable[[int], np.ndarray]:
        def chunk(count: int) -> np.ndarray:
            exponentials = rng.standard_exponential((count, dim))
            return exponentials / exponentials.sum(axis=1, keepdims=True)
        return chunk
    return bind


def induced_states(dim_system: int, dim_bath: int) -> Draw:
    """Reduced states Tr_B |x><x| of Haar-uniform unit vectors x of
    C^dS (x) C^dB as a (count, dS, dS) stack: G G^H / tr(G G^H) for a
    dS x dB standard complex Gaussian G.

    For dB >= dS, G G^H is drawn as L L^H with its Bartlett factor L, lower
    triangular: |L_ii|^2 ~ Gamma(dB - i) and L_ij ~ CN(0, 1) below the
    diagonal.  The gamma and the normal variates come from two fixed
    children of the generator, so each kind is consumed in sample order.
    For dB < dS the generator draws G itself.
    """
    ds, db = dim_system, dim_bath
    rows, cols = np.tril_indices(ds, -1)

    def bind(rng: np.random.Generator) -> Callable[[int], np.ndarray]:
        if db < ds:
            def direct(count: int) -> np.ndarray:
                z = rng.standard_normal((count, ds, db, 2))
                return _normalised_gram(z[..., 0] + 1j * z[..., 1])
            return direct

        diagonal, lower = rng.spawn(2)
        shapes = db - np.arange(ds, dtype=float)

        def bartlett(count: int) -> np.ndarray:
            factor = np.zeros((count, ds, ds), dtype=complex)
            factor[:, np.arange(ds), np.arange(ds)] = np.sqrt(
                diagonal.standard_gamma(np.broadcast_to(shapes, (count, ds))))
            z = lower.standard_normal((count, rows.size, 2)) * np.sqrt(0.5)
            factor[:, rows, cols] = z[..., 0] + 1j * z[..., 1]
            return _normalised_gram(factor)
        return bartlett
    return bind


def _normalised_gram(factors: np.ndarray) -> np.ndarray:
    """F F^H / tr(F F^H) for a (count, dS, k) stack of factors F."""
    gram = factors @ factors.conj().transpose(0, 2, 1)
    norms = (factors.real ** 2 + factors.imag ** 2).sum(axis=(1, 2))
    return gram / norms[:, None, None]


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with standard errors and full provenance.

    ``mean``/``standard_error`` keep the shape of the functional's value.
    """

    mean: Any
    standard_error: Any
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValidationError(f"need at least 2 samples, got {self.n_samples}")
        se = np.asarray(self.standard_error)
        if np.any(se < 0) or not np.all(np.isfinite(se)):
            raise ValidationError("standard errors must be finite and nonnegative")


def generator(seed: int) -> np.random.Generator:
    """The one stream of a seed: a Philox generator on the seed's first child."""
    [child] = np.random.SeedSequence(seed).spawn(1)
    return np.random.Generator(np.random.Philox(child))


def batched_monte_carlo(values_of: Callable[[np.ndarray], np.ndarray], draw: Draw,
                        width: int, n_samples: int, seed: int) -> MonteCarloEstimate:
    """Mean and standard error of a value of the samples of ``draw``.

    ``values_of`` maps a chunk of samples to the (count, ...) values of its
    samples, a float or a fixed-shape array per sample.  ``width`` is the
    length of the longest per-sample row the draw or ``values_of`` builds; a
    chunk holds at most MONTE_CARLO_ELEMENT_CAP // width samples.  The draws
    are those of one-sample chunks, in the same order, from the first Philox
    child of the seed.  Each value component is summed pairwise over the
    samples, as a scalar value is.

    Raises
    ------
    ValidationError : for fewer than 2 samples, or a non-finite value (with
        the offending sample index in the message).
    """
    if n_samples < 2:
        raise ValidationError(f"need at least 2 samples, got {n_samples}")
    chunk = max(1, MONTE_CARLO_ELEMENT_CAP // width)
    samples = draw(generator(seed))
    values = np.concatenate([values_of(samples(min(chunk, n_samples - start)))
                             for start in range(0, n_samples, chunk)])
    finite = np.isfinite(values).reshape(n_samples, -1).all(axis=1)
    if not finite.all():
        raise ValidationError(f"non-finite value at sample {int(np.argmin(finite))}")
    # the sample axis last and contiguous, so that numpy sums it pairwise
    by_component = np.ascontiguousarray(np.moveaxis(values, 0, -1))
    total = by_component.sum(axis=-1)
    total_sq = (np.abs(by_component) ** 2).sum(axis=-1)

    mean = total / n_samples
    # complex variance E|X|^2 - |EX|^2, elementwise
    var = (total_sq - n_samples * np.abs(mean) ** 2) / (n_samples - 1)
    se = np.sqrt(np.maximum(var, 0.0) / n_samples)
    if np.ndim(mean) == 0:
        mean = complex(mean) if np.iscomplexobj(mean) else float(mean)
        se = float(se)
    return MonteCarloEstimate(mean=mean, standard_error=se, n_samples=n_samples,
                              seed=seed)
