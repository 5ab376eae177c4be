"""Haar-uniform draws and the one estimator of the sampled bounds.

Each draw takes the generator it consumes and costs only what the estimated
value depends on:

* ``sample_amplitudes(dim, n, rng)``: unit vectors uniform on the sphere of
  C^dim, 2*dim standard normals normalised, as coordinates in an orthonormal
  basis of the target subspace (the measure does not depend on the basis);
* ``dirichlet_weights(dim, count, rng)``: their populations |a_r|^2, which
  are Dirichlet(1, ..., 1) weights, dim standard exponentials normalised;
  they serve every value that reads the populations in one fixed basis
  (``spectral.GroupedProjection``);
* ``induced_states(dS, dB, rng)``: the reduced states of Haar-uniform
  vectors of C^dS (x) C^dB, G G^H / tr(G G^H) for a dS x dB standard complex
  Gaussian G (the induced measure: Zyczkowski and Sommers, J. Phys. A 34,
  7111 (2001)), drawn from its dS x min(dS, dB) Bartlett factor at every dB:
  O(dS min(dS, dB)) variates per draw.

Each kind of variate is consumed in sample order, so that chunking never
changes the draws.  T0 and Popescu both bound how often a random state lies
farther than a threshold from a fixed reference state in trace distance, and
``sampled_distances`` estimates both from one stream: identical inputs give
bit-identical estimates on the same machine and numpy/BLAS build with the
same BLAS thread count.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ValidationError
from .hilbert import batched_trace_distances

# Largest number of entries in the (count, width) rows that one chunk of a
# sampled-distance estimate builds: 2**21 entries, 32 MB when they are complex.
MONTE_CARLO_ELEMENT_CAP = 2**21


def sample_amplitudes(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(dim, n) complex columns uniform on the unit sphere of C^dim."""
    z = rng.standard_normal((n, dim, 2))
    amps = z[..., 0] + 1j * z[..., 1]
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return amps.T


def dirichlet_weights(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The populations |a_r|^2 of ``count`` Haar-uniform unit vectors a of
    C^dim as (count, dim) rows: Dirichlet(1, ..., 1) weights."""
    exponentials = rng.standard_exponential((count, dim))
    return exponentials / exponentials.sum(axis=1, keepdims=True)


def induced_states(dim_system: int, dim_bath: int,
                   rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    """The draw of the next ``count`` reduced states Tr_B |x><x| of
    Haar-uniform unit vectors x of C^dS (x) C^dB as a (count, dS, dS) stack:
    G G^H / tr(G G^H) for a dS x dB standard complex Gaussian G.

    G G^H is drawn as L L^H for its dS x min(dS, dB) lower-trapezoidal
    Bartlett factor L (L^H is the R of G^H = QR): |L_ii|^2 ~ Gamma(dB - i)
    and L_ij ~ CN(0, 1) below the diagonal, row by row, at every dB.  The
    gamma and the normal variates come from two children of ``rng``, spawned
    once here, so each kind is consumed in sample order.
    """
    ds, rank = dim_system, min(dim_system, dim_bath)
    rows, cols = np.tril_indices(ds, -1, rank)
    diagonal, lower = rng.spawn(2)
    shapes = dim_bath - np.arange(rank, dtype=float)

    def bartlett(count: int) -> np.ndarray:
        factor = np.zeros((count, ds, rank), dtype=complex)
        factor[:, np.arange(rank), np.arange(rank)] = np.sqrt(
            diagonal.standard_gamma(np.broadcast_to(shapes, (count, rank))))
        z = lower.standard_normal((count, rows.size, 2)) * np.sqrt(0.5)
        factor[:, rows, cols] = z[..., 0] + 1j * z[..., 1]
        return _normalised_gram(factor)
    return bartlett


def _normalised_gram(factors: np.ndarray) -> np.ndarray:
    """F F^H / tr(F F^H) for a (count, dS, k) stack of factors F."""
    gram = factors @ factors.conj().transpose(0, 2, 1)
    norms = (factors.real ** 2 + factors.imag ** 2).sum(axis=(1, 2))
    return gram / norms[:, None, None]


def generator(seed: int) -> np.random.Generator:
    """The one stream of a seed: a Philox generator on the seed's first child."""
    [child] = np.random.SeedSequence(seed).spawn(1)
    return np.random.Generator(np.random.Philox(child))


def sampled_distances(states_of: Callable[[int], np.ndarray], width: int,
                      reference: np.ndarray, threshold: float,
                      n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(mean, standard error) of the trace distance D of ``n_samples`` states
    to ``reference`` (component 0) and of the frequency of D > ``threshold``
    (component 1), each an array of the two values.

    ``states_of(count)`` hands out the next (count, dS, dS) states, in chunks
    of at most MONTE_CARLO_ELEMENT_CAP // ``width`` samples, ``width`` being
    the longest per-sample row the draw builds.  Each component is summed
    pairwise over the samples, in one contiguous row.

    Raises
    ------
    ValidationError : for fewer than 2 samples, a non-finite distance (with
        the offending sample index in the message), or a standard error that
        overflows.
    """
    if n_samples < 2:
        raise ValidationError(f"need at least 2 samples, got {n_samples}")
    chunk = max(1, MONTE_CARLO_ELEMENT_CAP // width)
    distances = np.concatenate([
        batched_trace_distances(states_of(min(chunk, n_samples - start)), reference)
        for start in range(0, n_samples, chunk)])
    finite = np.isfinite(distances)
    if not finite.all():
        raise ValidationError(f"non-finite value at sample {int(np.argmin(finite))}")
    # one C-contiguous row per component, so that numpy sums it pairwise
    values = np.stack([distances, (distances > threshold).astype(float)])
    total = values.sum(axis=-1)
    total_sq = (values ** 2).sum(axis=-1)

    mean = total / n_samples
    var = (total_sq - n_samples * mean ** 2) / (n_samples - 1)
    se = np.sqrt(np.maximum(var, 0.0) / n_samples)
    if not np.all(np.isfinite(se)):
        raise ValidationError("standard errors must be finite")
    return mean, se
