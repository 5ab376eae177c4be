"""Haar-uniform state sampling and reproducible Monte Carlo averaging.

States are sampled by drawing 2*dR independent standard normals, forming dR
complex amplitudes, normalizing, and mapping through the orthonormal basis of
the target subspace.  The induced measure is the uniform one on the unit
sphere of the span and does not depend on the basis choice.

Monte Carlo estimates are deterministic for a given (seed, n_streams): each
stream is a Philox child of the seed, partial sums use compensated (Neumaier)
accumulation, and merging streams in any order moves the result by less than
1e-13 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ValidationError
from .hilbert import PureState, SpaceLayout
from .tolerances import DEFAULT

@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a subspace of one factor (or the composite)."""

    columns: np.ndarray
    space: str = "composite"

    def __post_init__(self) -> None:
        cols = np.array(self.columns, dtype=complex, copy=True)
        if cols.ndim != 2 or cols.shape[1] == 0 or cols.shape[0] < cols.shape[1]:
            raise ValidationError(
                f"basis must be a tall (ambient, subspace) matrix, got shape {cols.shape}"
            )
        # An exact identity (every full_basis) is orthonormal by inspection;
        # skipping its Gram product keeps large full-space bases O(d^2).
        identity = (cols.shape[0] == cols.shape[1]
                    and bool(np.all(np.diagonal(cols) == 1.0))
                    and float(np.abs(cols).sum()) == float(cols.shape[1]))
        if not identity:
            gram = cols.conj().T @ cols
            err = float(np.abs(gram - np.eye(cols.shape[1])).max())
            if err > DEFAULT.basis_orthonormality:
                raise ValidationError(f"columns not orthonormal: max |B^H B - I| = {err:.3e}")
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_identity", identity)

    @property
    def dim_ambient(self) -> int:
        return self.columns.shape[0]

    @property
    def dim_subspace(self) -> int:
        return self.columns.shape[1]

    def projector(self) -> np.ndarray:
        """Pi = B B^dagger on the ambient space."""
        return self.columns @ self.columns.conj().T


def full_basis(dim: int, space: str = "composite") -> SubspaceBasis:
    """The computational basis of a whole factor space."""
    return SubspaceBasis(np.eye(dim, dtype=complex), space=space)


def bath_prefix_basis(layout: SpaceLayout, dim: int) -> SubspaceBasis:
    """First ``dim`` computational bath basis vectors (a deterministic B_R choice)."""
    if not 1 <= dim <= layout.dim_bath:
        raise ValidationError(f"bath subspace dim {dim} outside [1, {layout.dim_bath}]")
    return SubspaceBasis(np.eye(layout.dim_bath, dtype=complex)[:, :dim], space="bath")


def product_subspace(psi: PureState, bath_basis: SubspaceBasis | None,
                     layout: SpaceLayout) -> SubspaceBasis:
    """Composite subspace psi (x) B_R with the system factor frozen.

    ``bath_basis=None`` means the full bath, giving a subspace of dimension
    dim_bath.
    """
    if psi.space != "system":
        raise ValidationError(f"frozen factor must be a system state, got {psi.space!r}")
    if psi.dim != layout.dim_system:
        raise ValidationError(f"system state dim {psi.dim} != layout {layout.dim_system}")
    if bath_basis is None:
        bath_cols = np.eye(layout.dim_bath, dtype=complex)
    else:
        if bath_basis.space != "bath" or bath_basis.dim_ambient != layout.dim_bath:
            raise ValidationError("bath_basis must span a subspace of the layout's bath")
        bath_cols = bath_basis.columns
    cols = np.kron(psi.amplitudes[:, None], bath_cols)
    return SubspaceBasis(cols, space="composite")


def sample_amplitudes(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(dim, n) complex columns uniform on the unit sphere of C^dim."""
    z = rng.standard_normal((n, dim, 2))
    amps = z[..., 0] + 1j * z[..., 1]
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return amps.T


def sample_uniform_columns(basis: SubspaceBasis, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """(ambient, n) array of Haar-uniform vectors from the subspace; hot-loop form."""
    amplitudes = sample_amplitudes(basis.dim_subspace, n, rng)
    if getattr(basis, "_identity", False):
        return amplitudes
    return basis.columns @ amplitudes


def sample_uniform_state(basis: SubspaceBasis, rng: np.random.Generator) -> PureState:
    """One Haar-uniform pure state from the span of the basis."""
    vec = sample_uniform_columns(basis, 1, rng)[:, 0]
    return PureState(vec, space=basis.space)


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


class _CompensatedSum:
    """Neumaier compensated elementwise accumulator.

    The running compensation makes the final value independent of the order in
    which partial sums are merged, far below the 1e-13 contract.
    """

    def __init__(self, shape: tuple[int, ...], dtype) -> None:
        self.total = np.zeros(shape, dtype=dtype)
        self.residue = np.zeros(shape, dtype=dtype)

    def add(self, value: np.ndarray) -> None:
        new_total = self.total + value
        swapped = np.abs(self.total) >= np.abs(value)
        self.residue = self.residue + np.where(
            swapped, (self.total - new_total) + value, (value - new_total) + self.total
        )
        self.total = new_total

    def merge(self, other: "_CompensatedSum") -> None:
        self.add(other.total)
        self.residue = self.residue + other.residue

    @property
    def value(self) -> np.ndarray:
        return self.total + self.residue


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


def monte_carlo_average(functional: Callable[[Any], Any],
                        sampler: Callable[[np.random.Generator], Any],
                        n_samples: int, seed: int,
                        n_streams: int = 1) -> MonteCarloEstimate:
    """Mean and standard error of ``functional(sampler(rng))`` over seeded draws.

    Parameters
    ----------
    functional : maps a sample to a float or a fixed-shape complex/real array.
    sampler : maps an rng stream to one sample.
    n_samples, seed, n_streams : the determinism contract; identical values
        give bit-identical estimates.

    Raises
    ------
    ValidationError : if the functional returns a non-finite value (with the
        offending stream and sample index in the message).
    """
    if n_samples < 2:
        raise ValidationError(f"need at least 2 samples, got {n_samples}")
    counts = split_counts(n_samples, n_streams)
    streams = stream_generators(seed, n_streams)

    partial_sums: list[_CompensatedSum] = []
    partial_sq: list[_CompensatedSum] = []
    shape: tuple[int, ...] | None = None
    is_complex = False

    for stream_idx, (rng, count) in enumerate(zip(streams, counts)):
        acc = acc_sq = None
        for k in range(count):
            value = np.asarray(functional(sampler(rng)))
            if not np.all(np.isfinite(value)):
                raise ValidationError(
                    f"functional returned a non-finite value at stream {stream_idx}, "
                    f"sample {k}"
                )
            if shape is None:
                shape = value.shape
                is_complex = np.iscomplexobj(value)
            elif value.shape != shape:
                raise ValidationError(
                    f"functional changed shape: {value.shape} vs {shape}"
                )
            if acc is None:
                dtype = np.complex128 if is_complex else np.float64
                acc = _CompensatedSum(shape, dtype)
                acc_sq = _CompensatedSum(shape, np.float64)
            acc.add(value.astype(acc.total.dtype, copy=False))
            acc_sq.add(np.abs(value) ** 2)
        if acc is not None:
            partial_sums.append(acc)
            partial_sq.append(acc_sq)

    merged = partial_sums[0]
    merged_sq = partial_sq[0]
    for acc, acc_sq in zip(partial_sums[1:], partial_sq[1:]):
        merged.merge(acc)
        merged_sq.merge(acc_sq)

    mean = merged.value / n_samples
    # complex variance E|X|^2 - |EX|^2, elementwise
    var = (merged_sq.value - n_samples * np.abs(mean) ** 2) / (n_samples - 1)
    se = np.sqrt(np.maximum(var, 0.0) / n_samples)

    if shape == ():
        mean = complex(mean) if is_complex else float(mean)
        se = float(se)
    return MonteCarloEstimate(mean=mean, standard_error=se, n_samples=n_samples,
                              seed=seed, n_streams=n_streams)
