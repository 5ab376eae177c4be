"""Core linear algebra for system-bath problems: states, reductions, distances.

Layout convention shared by the whole package: the composite space is
``S (x) B`` with the system index slow, so a composite basis label splits as
``idx = i_system * dim_bath + i_bath``.  Tracing out the bath is then a
contiguous block trace, and ``vec.reshape(dim_system, dim_bath)`` puts the
system index on the rows.  The package traces out the bath only from the
eigenvectors, so that trace lives with them, in ``spectral.SpectralData``.

Distances use the unhalved trace norm ``sum |eig|`` of the Hermitian
difference, so two orthogonal pure states are at distance 2, and for qubits
the distance equals the Euclidean distance of the Bloch vectors.

The state statistics ``purities`` (tr rho^2) and ``batched_bloch_vectors``
are the one formula of each, on stacks; a single state is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

VALID_SPACES = ("system", "bath", "composite")

# Invariants of the value types, fixed rather than configurable.
STATE_NORM_TOL = 1e-12      # |norm(psi) - 1|
HERMITICITY_TOL = 1e-12     # max |M - M^dagger| for density matrices
TRACE_TOL = 1e-12           # |tr(rho) - 1|
EIGENVALUE_FLOOR = 1e-10    # allowed negative slack on density eigenvalues
TRACE_NORM_ASYMMETRY = 1e-8  # max |M - M^dagger| of a trace_norm argument

DENSE_BLOCK = 256  # rows, columns, times or matrices per block of a blocked pass


def dense_blocks(n: int, size: int = DENSE_BLOCK) -> list[slice]:
    """[0, n) cut into consecutive slices of ``size`` indices (the last shorter)."""
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def blocked_max(block_max: Callable[[slice], float], n: int) -> float:
    """Max of ``block_max`` over ``dense_blocks(n)``, 0 for n = 0; np.max keeps a NaN."""
    return float(np.max([block_max(rows) for rows in dense_blocks(n)], initial=0.0))


@dataclass(frozen=True)
class SpaceLayout:
    """System and bath factor dimensions; the composite dimension is their product."""

    dim_system: int
    dim_bath: int

    def __post_init__(self) -> None:
        if int(self.dim_system) != self.dim_system or int(self.dim_bath) != self.dim_bath:
            raise ValidationError("layout dimensions must be integers")
        object.__setattr__(self, "dim_system", int(self.dim_system))
        object.__setattr__(self, "dim_bath", int(self.dim_bath))
        if self.dim_system < 2:
            raise ValidationError(f"system dimension must be at least 2, got {self.dim_system}")
        if self.dim_bath < 1:
            raise ValidationError(f"bath dimension must be at least 1, got {self.dim_bath}")

    @property
    def dim_total(self) -> int:
        return self.dim_system * self.dim_bath


@dataclass(frozen=True)
class PureState:
    """Unit vector tagged with the factor space it lives in."""

    amplitudes: np.ndarray
    space: str = "composite"

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex, copy=True)
        if amps.ndim != 1 or amps.size == 0:
            raise ValidationError(f"amplitudes must be a nonempty vector, got shape {amps.shape}")
        if self.space not in VALID_SPACES:
            raise ValidationError(f"unknown space tag {self.space!r}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValidationError(
                f"state norm {norm:.15g} deviates from 1 by more than {STATE_NORM_TOL}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def check_density_stack(name: str, mats: np.ndarray, positive: bool = True) -> None:
    """Refuse an (n, k, k) stack ``name`` unless each matrix is Hermitian with
    unit trace and, if ``positive``, PSD.  The checks read DENSE_BLOCK matrices
    at a time (``blocked_max``), so their temporaries do not grow with n."""
    asym = blocked_max(lambda b: np.abs(mats[b] - mats[b].conj().swapaxes(1, 2)).max(), len(mats))
    if not asym <= HERMITICITY_TOL:  # a NaN entry fails too
        raise ValidationError(f"{name} not Hermitian: max asymmetry {asym:.3e}")
    trace_err = blocked_max(lambda b: np.abs(np.einsum("nii->n", mats[b]) - 1).max(), len(mats))
    if not trace_err <= TRACE_TOL:
        raise ValidationError(f"{name} trace deviates from 1 by {trace_err:.3e}")
    if positive:  # min(lowest, 0): exact wherever the check fails
        lowest = -blocked_max(lambda b: -np.linalg.eigvalsh(mats[b]).min(), len(mats))
        if not lowest >= -EIGENVALUE_FLOOR:
            raise ValidationError(f"{name} not positive semidefinite: "
                                  f"lowest eigenvalue {lowest:.3e}")


def _as_matrix(arg) -> np.ndarray:
    """``arg`` as a complex array, refused unless it is a square matrix."""
    mat = np.asarray(arg, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def tensor_product(psi: PureState, phi: PureState) -> PureState:
    """Compose a system state with a bath state, system index slow.

    The amplitude at composite label ``i * dim_bath + b`` is
    ``psi[i] * phi[b]``, bit-exact (plain products, no renormalization).
    """
    if psi.space != "system" or phi.space != "bath":
        raise ValidationError(
            f"tensor_product takes (system, bath) states, got ({psi.space}, {phi.space})"
        )
    return PureState(np.kron(psi.amplitudes, phi.amplitudes), space="composite")


def trace_norm(mat) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    m = _as_matrix(mat)
    asym = float(np.abs(m - m.conj().T).max())
    if asym > TRACE_NORM_ASYMMETRY:
        raise ValidationError(f"trace_norm expects a Hermitian matrix, asymmetry {asym:.3e}")
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def trace_distance(rho1, rho2) -> float:
    """Trace norm of the difference; 2 for orthogonal pure states.

    For a pair of qubit states this equals the Euclidean distance between
    their Bloch vectors.
    """
    a = _as_matrix(rho1)
    b = _as_matrix(rho2)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    difference = a - b
    # Canonicalize the overall sign so the result is exactly symmetric in its
    # arguments (eigensolvers do not promise bitwise spectrum(-M) = -spectrum(M)).
    parts = np.concatenate([difference.real.ravel(), difference.imag.ravel()])
    nonzero = parts[parts != 0.0]
    if nonzero.size and nonzero[0] < 0.0:
        difference = -difference
    return trace_norm(difference)


def batched_trace_distances(states: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Trace distances of an (n, k, k) stack of unit-trace states to one reference.

    Qubit distances are the Euclidean distances of the Bloch vectors, so no
    eigensolver runs; larger systems take a batched ``eigvalsh``.  The stack
    is read DENSE_BLOCK matrices at a time, so temporaries do not grow with n.
    """
    states, reference = np.asarray(states, dtype=complex), _as_matrix(reference)
    distances = np.empty(len(states))
    for block in dense_blocks(len(states)):
        difference = states[block] - reference
        if difference.shape[1:] == (2, 2):
            distances[block] = np.linalg.norm(batched_bloch_vectors(difference), axis=1)
        else:
            distances[block] = np.abs(np.linalg.eigvalsh(difference)).sum(axis=1)
    return distances


def weighted_sum(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_n weights[..., n] stack[n] for real weights and a complex (n, k, k)
    stack; shape (..., k, k).  It sums over the stack's float view: the sums
    of a complex einsum, at a quarter of its multiplications."""
    size, k, _ = stack.shape
    flat = np.ascontiguousarray(stack).view(np.float64).reshape(size, 2 * k * k)
    summed = np.einsum("...n,nm->...m", weights, flat)
    return summed.view(complex).reshape(*summed.shape[:-1], k, k)


def purities(mats: np.ndarray) -> np.ndarray:
    """tr(rho^2) of each matrix of an (n, k, k) stack: 1 for a pure state, 1/k
    for the maximally mixed state."""
    return np.einsum("nij,nji->n", mats, mats).real


def batched_bloch_vectors(mats: np.ndarray) -> np.ndarray:
    """(n, 2, 2) stack of qubit matrices -> (n, 3) real polarization vectors."""
    stack = np.asarray(mats, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (2, 2):
        raise ValidationError(f"expected an (n, 2, 2) stack, got shape {stack.shape}")
    return np.einsum("nij,aji->na", stack, PAULI).real
