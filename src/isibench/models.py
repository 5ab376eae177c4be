"""Benchmark Hamiltonians: commuting spin-bath models and random contrast models.

The commuting family couples a single spin to a bath through operators that
are all diagonal in one common bath basis and commute with the bath
self-Hamiltonian.  Its eigenvectors factorize into (spin eigenvector of a
2x2 block) (x) (bath basis vector), which makes the eigensystem available in
closed form and every eigenstate reduction pure.  ``analytic_eigensystem``
returns it as ``SpectralData`` with one 2x2 sector per bath level (g = 1),
so no d x d array is built.  That structure is exactly what breaks
initial-state independence of the spin, so this family is the positive
control of the test bench; Gaussian random Hamiltonians are the negative
control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hilbert import SpaceLayout, dense_blocks
from .spectral import CompositeHamiltonian, SpectralData, assemble


@dataclass(frozen=True)
class CommutingModelSpec:
    """Parameters of the commuting spin-bath family.

    ``couplings`` holds one row (v_x, v_y, v_z) per bath level: the
    simultaneous eigenvalues of the three coupling operators on that level.
    ``bath_energies`` holds the bath self-energies on the same levels.  At
    least one transverse column (x or y) must be nontrivial, otherwise the
    spin energy would be conserved and nothing relaxes.
    """

    level_splitting: float
    couplings: np.ndarray
    bath_energies: np.ndarray

    def __post_init__(self) -> None:
        coup = np.array(self.couplings, dtype=float, copy=True)
        energies = np.array(self.bath_energies, dtype=float, copy=True)
        if coup.ndim != 2 or coup.shape[1] != 3 or coup.shape[0] < 1:
            raise ValidationError(f"couplings must be (dim_bath, 3), got shape {coup.shape}")
        if energies.shape != (coup.shape[0],):
            raise ValidationError(
                f"bath_energies shape {energies.shape} does not match {coup.shape[0]} levels"
            )
        if not (np.isfinite(coup).all() and np.isfinite(energies).all()
                and np.isfinite(self.level_splitting)):
            raise ValidationError("model parameters must be finite")
        if np.abs(coup[:, :2]).max() == 0.0:
            raise ValidationError("at least one transverse coupling (x or y column) "
                                  "must be nonzero")
        for name, value in (("couplings", coup), ("bath_energies", energies)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim_bath(self) -> int:
        return self.bath_energies.size

    @property
    def layout(self) -> SpaceLayout:
        return SpaceLayout(2, self.dim_bath)


def commuting_norms(spec: CommutingModelSpec) -> tuple[float, float, float, float, float]:
    """Spectral norms of H_S, H_B, H_SB, [H_S x 1, H_SB] and [1 x H_B, H_SB].

    On bath level l the interaction is (1/2) v_l.sigma, and its commutator
    with H_S = (w/2) sigma_z is (i w/2)(v_lx sigma_y - v_ly sigma_x), so the
    norms are |w|/2, max |E_l|, max |v_l|/2 and (|w|/2) max sqrt(v_lx^2 +
    v_ly^2).  Every bath-side operator is diagonal in the same basis, so the
    last commutator vanishes.
    """
    half_splitting = 0.5 * abs(spec.level_splitting)
    transverse = np.hypot(spec.couplings[:, 0], spec.couplings[:, 1])
    return (half_splitting, float(np.abs(spec.bath_energies).max()),
            0.5 * float(np.linalg.norm(spec.couplings, axis=1).max()),
            half_splitting * float(transverse.max()), 0.0)


def analytic_eigensystem(spec: CommutingModelSpec) -> SpectralData:
    """Closed-form eigensystem of the commuting model, one sector per bath level.

    Per bath level l the spin block is E_l + (1/2)[(w + v_lz) sigma_z
    + v_lx sigma_x + v_ly sigma_y]; its eigenvectors tensored with the l-th
    bath basis vector are composite eigenvectors, with energies
    E_l -/+ r_l/2 where r_l = sqrt((w + v_lz)^2 + v_lx^2 + v_ly^2).  The
    result holds the (dB, 2, 2) stack of spin eigenvectors, sorted and
    phase-fixed as the dense path would be; no d x d array is built.
    """
    w = spec.level_splitting
    vx, vy, vz = spec.couplings.T

    # Each level's terms are scaled by a power of two, which is exact: r_l
    # keeps the bits of the plain formula and is finite wherever r_l is.
    with np.errstate(over="ignore", invalid="ignore"):
        parts = np.stack([w + vz, vx, vy])
        scale = np.ldexp(1.0, np.frexp(np.abs(parts).max(axis=0))[1] - 1)
        a, b, c = parts / scale
        radius = scale * np.sqrt(a**2 + b**2 + c**2)
        energies = spec.bath_energies[:, None] + np.multiply.outer(radius, [-0.5, 0.5])
        span = energies.max() - energies.min()
    if not np.isfinite(span):
        raise ValidationError(f"the energy range E_max - E_min = {span} is not finite")

    blocks = np.empty((spec.dim_bath, 2, 2), dtype=complex)
    blocks[:, 0, 0] = w + vz
    blocks[:, 1, 1] = -(w + vz)
    blocks[:, 0, 1] = vx - 1j * vy
    blocks[:, 1, 0] = vx + 1j * vy
    _, spin_vecs = np.linalg.eigh(blocks)  # ascending, so column 0 is the lower branch
    return SpectralData.from_sectors(energies, spin_vecs)


def bit_signs(n_spins: int) -> np.ndarray:
    """(2^n, n) matrix of +/-1: s[l, k] = 1 - 2*bit_k(l), highest bit first.

    Level l = 0 is all spins up (+1 everywhere).
    """
    if n_spins < 1:
        raise ValidationError(f"need at least one bath spin, got {n_spins}")
    labels = np.arange(2**n_spins)
    shifts = n_spins - 1 - np.arange(n_spins)
    return 1 - 2 * ((labels[:, None] >> shifts[None, :]) & 1)


def build_cucchietti_bath(n_spins: int, couplings, bath_fields,
                          level_splitting: float) -> CommutingModelSpec:
    """Bath of independent spins coupled to the central spin along one axis.

    The coupling operator is sum_k g_k sigma_z^(k) acting as the x-coupling,
    and the bath Hamiltonian is sum_k eps_k sigma_z^(k); both are diagonal in
    the product sigma_z basis, so per level l: v_lx = sum_k g_k s_k(l) and
    E_l = sum_k eps_k s_k(l) with s_k(l) the spin signs of the bit pattern l.
    """
    g = np.asarray(couplings, dtype=float)
    eps = np.asarray(bath_fields, dtype=float)
    if g.shape != (n_spins,) or eps.shape != (n_spins,):
        raise ValidationError(
            f"need {n_spins} couplings and fields, got shapes {g.shape}, {eps.shape}"
        )
    signs = bit_signs(n_spins)
    vx = signs @ g
    coup = np.zeros((2**n_spins, 3))
    coup[:, 0] = vx
    return CommutingModelSpec(level_splitting=level_splitting, couplings=coup,
                              bath_energies=signs @ eps)


def sample_commuting_spec(dim_bath: int, level_splitting: float, coupling_scale: float,
                          energy_scale: float, rng: np.random.Generator) -> CommutingModelSpec:
    """Random commuting spec: couplings and bath energies i.i.d. uniform.

    Each coupling component is uniform on [-coupling_scale, +coupling_scale]
    and each bath energy uniform on [-energy_scale, +energy_scale]; with
    continuous draws the spectrum and gap structure are nondegenerate almost
    surely.
    """
    if dim_bath < 1:
        raise ValidationError(f"dim_bath must be positive, got {dim_bath}")
    if coupling_scale <= 0:
        raise ValidationError("coupling_scale must be positive (transverse coupling "
                              "is required)")
    couplings = rng.uniform(-coupling_scale, coupling_scale, size=(dim_bath, 3))
    energies = rng.uniform(-energy_scale, energy_scale, size=dim_bath)
    return CommutingModelSpec(level_splitting=level_splitting, couplings=couplings,
                              bath_energies=energies)


def sample_cucchietti_spec(n_spins: int, level_splitting: float, coupling_scale: float,
                           field_scale: float, rng: np.random.Generator) -> CommutingModelSpec:
    """Random spin-bath draw: g_k and eps_k i.i.d. uniform on symmetric intervals."""
    g = rng.uniform(-coupling_scale, coupling_scale, size=n_spins)
    eps = rng.uniform(-field_scale, field_scale, size=n_spins)
    return build_cucchietti_bath(n_spins, g, eps, level_splitting)


def gaussian_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian matrix with entry variance 1/dim (spectral radius about 2).

    H = (X + X^H) / (2 sqrt(dim)) for X = A + iB with A, then B, drawn
    i.i.d. standard normal in row-major order.  The one d x d array is filled
    in blocks of DENSE_BLOCK rows; each entry is computed as in that
    expression, so it has the same bits.
    """
    mat = np.empty((dim, dim), dtype=complex)
    for part in (mat.real, mat.imag):
        for rows in dense_blocks(dim):
            part[rows] = rng.standard_normal(part[rows].shape)
    for rows in dense_blocks(dim):  # the block row and the block column below it
        upper = mat[rows, rows.start:] + mat[rows.start:, rows].conj().T
        below = slice(rows.stop, None)
        lower = mat[below, rows] + mat[rows, below].conj().T
        mat[rows, rows.start:] = upper
        mat[below, rows] = lower
    mat /= 2.0 * np.sqrt(dim)
    return mat


def build_random_model(dim_system: int, dim_bath: int, interaction_strength: float,
                       rng: np.random.Generator) -> CompositeHamiltonian:
    """Generic contrast model: independent Gaussian Hermitian parts.

    Every part has entry variance 1/(dim_system*dim_bath), so the interaction
    keeps an O(1) spectral norm across sizes while the lifted system and bath
    terms stay subdominant; the interaction is additionally scaled by
    ``interaction_strength`` (0 gives an uncoupled, product-eigenstate model).
    Draw order: system, bath, interaction.
    """
    layout = SpaceLayout(dim_system, dim_bath)
    dim_total = layout.dim_total
    hs = gaussian_hermitian(dim_system, rng) * np.sqrt(dim_system / dim_total)
    hb = gaussian_hermitian(dim_bath, rng) * np.sqrt(dim_bath / dim_total)
    hsb = gaussian_hermitian(dim_total, rng)
    np.multiply(interaction_strength, hsb, out=hsb)
    return assemble(hs, hb, hsb)
