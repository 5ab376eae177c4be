"""Core linear algebra for system-bath problems: states, reductions, distances.

Layout convention shared by the whole package: the composite space is
``S (x) B`` with the system index slow, so a composite basis label splits as
``idx = i_system * dim_bath + i_bath``.  Tracing out the bath is then a
contiguous block trace, and ``vec.reshape(dim_system, dim_bath)`` puts the
system index on the rows.

Distances use the unhalved trace norm ``sum |eig|`` of the Hermitian
difference, so two orthogonal pure states are at distance 2, and for qubits
the distance equals the Euclidean distance of the Bloch vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tolerances import DEFAULT

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

VALID_SPACES = ("system", "bath", "composite")


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
        if abs(norm - 1.0) > DEFAULT.state_norm:
            raise ValidationError(
                f"state norm {norm:.15g} deviates from 1 by more than {DEFAULT.state_norm}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> np.ndarray:
        """|psi><psi| as a plain array."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with a space tag.

    Positivity is enforced up to a small negative slack
    (``Tolerances.eigenvalue_floor``) to absorb round-off from partial traces
    of numerically evolved states.
    """

    matrix: np.ndarray
    space: str = "system"

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise ValidationError(f"density matrix must be square, got shape {mat.shape}")
        if self.space not in VALID_SPACES:
            raise ValidationError(f"unknown space tag {self.space!r}")
        asym = float(np.abs(mat - mat.conj().T).max())
        if asym > DEFAULT.hermiticity:
            raise ValidationError(f"matrix not Hermitian: max asymmetry {asym:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > DEFAULT.trace:
            raise ValidationError(f"trace {tr:.15g} deviates from 1 beyond {DEFAULT.trace}")
        lowest = float(np.linalg.eigvalsh(mat).min())
        if lowest < -DEFAULT.eigenvalue_floor:
            raise ValidationError(f"matrix not positive semidefinite: lowest eigenvalue {lowest:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BlochVector:
    """Polarization vector of a qubit state, rho = (1 + p.sigma)/2."""

    px: float
    py: float
    pz: float

    def __post_init__(self) -> None:
        comps = (self.px, self.py, self.pz)
        if not all(np.isfinite(comps)):
            raise ValidationError(f"Bloch components must be finite, got {comps}")
        norm = float(np.sqrt(self.px**2 + self.py**2 + self.pz**2))
        if norm > 1.0 + DEFAULT.bloch_excess:
            raise ValidationError(f"Bloch vector length {norm:.15g} exceeds 1")

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.px**2 + self.py**2 + self.pz**2))

    def as_array(self) -> np.ndarray:
        return np.array([self.px, self.py, self.pz])


def _as_matrix(arg) -> np.ndarray:
    """Accept a DensityMatrix or a plain square array."""
    if isinstance(arg, DensityMatrix):
        return arg.matrix
    mat = np.asarray(arg, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _as_vector(arg) -> np.ndarray:
    if isinstance(arg, PureState):
        return arg.amplitudes
    vec = np.asarray(arg, dtype=complex)
    if vec.ndim != 1:
        raise ValidationError(f"expected a vector, got shape {vec.shape}")
    return vec


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


def _check_composite(dim: int, layout: SpaceLayout) -> None:
    if dim != layout.dim_total:
        raise ValidationError(
            f"composite dimension {dim} does not match layout "
            f"{layout.dim_system}x{layout.dim_bath}"
        )


def partial_trace_bath(state, layout: SpaceLayout) -> DensityMatrix:
    """Reduce a composite pure state or density matrix to the system factor."""
    if isinstance(state, PureState) or (not isinstance(state, DensityMatrix)
                                        and np.asarray(state).ndim == 1):
        vec = _as_vector(state)
        _check_composite(vec.size, layout)
        block = vec.reshape(layout.dim_system, layout.dim_bath)
        return DensityMatrix(block @ block.conj().T, space="system")
    mat = _as_matrix(state)
    _check_composite(mat.shape[0], layout)
    t = mat.reshape(layout.dim_system, layout.dim_bath, layout.dim_system, layout.dim_bath)
    return DensityMatrix(np.einsum("ibjb->ij", t), space="system")


def partial_trace_system(state, layout: SpaceLayout) -> DensityMatrix:
    """Reduce a composite pure state or density matrix to the bath factor."""
    if isinstance(state, PureState) or (not isinstance(state, DensityMatrix)
                                        and np.asarray(state).ndim == 1):
        vec = _as_vector(state)
        _check_composite(vec.size, layout)
        block = vec.reshape(layout.dim_system, layout.dim_bath)
        return DensityMatrix(block.T @ block.conj(), space="bath")
    mat = _as_matrix(state)
    _check_composite(mat.shape[0], layout)
    t = mat.reshape(layout.dim_system, layout.dim_bath, layout.dim_system, layout.dim_bath)
    return DensityMatrix(np.einsum("aiaj->ij", t), space="bath")


def batched_partial_trace_bath(columns: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """System reductions of many composite column vectors at once.

    Parameters
    ----------
    columns : (d, n) complex array, one composite vector per column.

    Returns
    -------
    (n, dim_system, dim_system) array of unnormalized reductions
    (unit trace when the columns are unit vectors).  No DensityMatrix
    wrapping; this is the hot-loop kernel.
    """
    cols = np.asarray(columns, dtype=complex)
    if cols.ndim != 2:
        raise ValidationError(f"expected a (d, n) array, got shape {cols.shape}")
    _check_composite(cols.shape[0], layout)
    blocks = cols.reshape(layout.dim_system, layout.dim_bath, cols.shape[1])
    return np.einsum("ibn,jbn->nij", blocks, blocks.conj())


def trace_norm(mat) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    m = _as_matrix(mat)
    asym = float(np.abs(m - m.conj().T).max())
    if asym > 1e-8:
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


def purity(rho) -> float:
    """tr(rho^2); 1 for pure states, 1/dim for the maximally mixed state."""
    m = _as_matrix(rho)
    return float(np.vdot(m, m).real)


def bloch_vector(rho) -> BlochVector:
    """Polarization vector of a 2x2 density matrix, p_a = tr(rho sigma_a)."""
    m = _as_matrix(rho)
    if m.shape != (2, 2):
        raise ValidationError(f"bloch_vector needs a 2x2 matrix, got {m.shape}")
    p = np.einsum("ij,aji->a", m, PAULI).real
    return BlochVector(float(p[0]), float(p[1]), float(p[2]))


def batched_bloch_vectors(mats: np.ndarray) -> np.ndarray:
    """(n, 2, 2) stack of qubit matrices -> (n, 3) real polarization vectors."""
    stack = np.asarray(mats, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (2, 2):
        raise ValidationError(f"expected an (n, 2, 2) stack, got shape {stack.shape}")
    return np.einsum("nij,aji->na", stack, PAULI).real


def density_from_bloch(p) -> DensityMatrix:
    """Inverse of bloch_vector: rho = (1 + p.sigma)/2."""
    if isinstance(p, BlochVector):
        arr = p.as_array()
    else:
        arr = np.asarray(p, dtype=float)
        if arr.shape != (3,):
            raise ValidationError(f"Bloch vector must have 3 components, got shape {arr.shape}")
        if np.linalg.norm(arr) > 1.0 + DEFAULT.bloch_excess:
            raise ValidationError(f"Bloch vector length {np.linalg.norm(arr):.15g} exceeds 1")
    mat = 0.5 * (np.eye(2, dtype=complex) + np.einsum("a,aij->ij", arr, PAULI))
    return DensityMatrix(mat, space="system")


def maximally_mixed(dim: int, space: str = "system") -> DensityMatrix:
    """I/dim."""
    if dim < 1:
        raise ValidationError(f"dimension must be positive, got {dim}")
    return DensityMatrix(np.eye(dim, dtype=complex) / dim, space=space)
