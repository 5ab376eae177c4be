"""Haar-uniform state sampling and reproducible Monte Carlo averaging.

States are sampled as amplitude vectors: 2*dR independent standard normals
form dR complex amplitudes, which are normalized.  The induced measure is
the uniform one on the unit sphere of C^dR.  The amplitudes are coordinates
in an orthonormal basis of the target subspace; callers never build that
basis, because the amplitudes enter only through the subspace's projection
on the eigenbasis (``equilibrium.subspace_projection``), and the measure
does not depend on the basis choice.

Monte Carlo estimates are batched: the functional maps a whole chunk of
amplitude columns to their values at once.  They are deterministic for a
given (seed, n_streams): each stream is a Philox child of the seed, its
chunks consume the generator exactly as one draw at a time would, each
stream's values are summed once, and the stream sums are added in stream
order.  Identical inputs give bit-identical estimates on the same
machine and numpy/BLAS build with the same BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ValidationError

# Largest number of complex entries in one chunk's (d, count) buffer of a
# batched Monte Carlo estimate: 2**21 entries of 16 bytes, 32 MB.
MONTE_CARLO_ELEMENT_CAP = 2**21


def sample_amplitudes(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(dim, n) complex columns uniform on the unit sphere of C^dim."""
    z = rng.standard_normal((n, dim, 2))
    amps = z[..., 0] + 1j * z[..., 1]
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return amps.T


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with standard errors and full provenance.

    ``mean``/``standard_error`` keep the shape of the functional's value.
    """

    mean: Any
    standard_error: Any
    n_samples: int
    seed: int
    n_streams: int = 1

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValidationError(f"need at least 2 samples, got {self.n_samples}")
        se = np.asarray(self.standard_error)
        if np.any(se < 0) or not np.all(np.isfinite(se)):
            raise ValidationError("standard errors must be finite and nonnegative")


def split_counts(n_samples: int, n_streams: int) -> list[int]:
    """Deterministic near-even split of the sample budget across streams."""
    if n_streams < 1:
        raise ValidationError(f"n_streams must be positive, got {n_streams}")
    if n_samples < n_streams:
        raise ValidationError(f"cannot split {n_samples} samples over {n_streams} streams")
    base, extra = divmod(n_samples, n_streams)
    return [base + (1 if i < extra else 0) for i in range(n_streams)]


def stream_generators(seed: int, n_streams: int) -> list[np.random.Generator]:
    """Philox children of the seed; stream i is reproducible in isolation."""
    children = np.random.SeedSequence(seed).spawn(n_streams)
    return [np.random.Generator(np.random.Philox(child)) for child in children]


def batched_monte_carlo(values_of: Callable[[np.ndarray], np.ndarray], dim: int,
                        width: int, n_samples: int, seed: int,
                        n_streams: int = 1) -> MonteCarloEstimate:
    """Mean and standard error of a value of Haar-uniform vectors of C^dim.

    ``values_of`` maps a (dim, count) block of amplitudes to the (count, ...)
    values of its columns, a float or a fixed-shape array per column.
    ``width`` is the length of the longest per-sample row it builds; a chunk
    holds at most MONTE_CARLO_ELEMENT_CAP // width samples.  The draws are
    those of per-sample ``sample_amplitudes(dim, 1, rng)`` calls, in the
    same order.

    Raises
    ------
    ValidationError : for fewer than 2 samples, or a non-finite value (with
        the offending stream and sample index in the message).
    """
    if n_samples < 2:
        raise ValidationError(f"need at least 2 samples, got {n_samples}")
    chunk = max(1, MONTE_CARLO_ELEMENT_CAP // width)
    counts = split_counts(n_samples, n_streams)
    total = total_sq = 0.0
    for index, (rng, count) in enumerate(zip(stream_generators(seed, n_streams), counts)):
        values = np.concatenate([
            values_of(sample_amplitudes(dim, min(chunk, count - start), rng))
            for start in range(0, count, chunk)])
        finite = np.isfinite(values).reshape(count, -1).all(axis=1)
        if not finite.all():
            raise ValidationError(f"non-finite value at stream {index}, "
                                  f"sample {int(np.argmin(finite))}")
        total = total + values.sum(axis=0)
        total_sq = total_sq + (np.abs(values) ** 2).sum(axis=0)

    mean = total / n_samples
    # complex variance E|X|^2 - |EX|^2, elementwise
    var = (total_sq - n_samples * np.abs(mean) ** 2) / (n_samples - 1)
    se = np.sqrt(np.maximum(var, 0.0) / n_samples)
    if np.ndim(mean) == 0:
        mean = complex(mean) if np.iscomplexobj(mean) else float(mean)
        se = float(se)
    return MonteCarloEstimate(mean=mean, standard_error=se, n_samples=n_samples,
                              seed=seed, n_streams=n_streams)
