"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive: index loops, dense propagators,
closed forms in plain numpy, and high-precision arithmetic. None of it
shares code with the package.
"""

from types import SimpleNamespace

import mpmath
import numpy as np
import scipy.linalg

SIGMA = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))


def ptrace_bath_loop(matrix, dim_system, dim_bath):
    """Partial trace over the bath by explicit index summation."""
    out = np.zeros((dim_system, dim_system), dtype=complex)
    for i in range(dim_system):
        for j in range(dim_system):
            for b in range(dim_bath):
                out[i, j] += matrix[i * dim_bath + b, j * dim_bath + b]
    return out


def ptrace_system_loop(matrix, dim_system, dim_bath):
    out = np.zeros((dim_bath, dim_bath), dtype=complex)
    for a in range(dim_bath):
        for b in range(dim_bath):
            for i in range(dim_system):
                out[a, b] += matrix[i * dim_bath + a, i * dim_bath + b]
    return out


def partial_trace_system(state, dim_system, dim_bath):
    """Reduce a composite vector or matrix to the bath factor by one contraction."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        block = state.reshape(dim_system, dim_bath)
        return block.T @ block.conj()
    return np.einsum("aiaj->ij", state.reshape(dim_system, dim_bath, dim_system, dim_bath))


def maximally_mixed(dim):
    return np.eye(dim, dtype=complex) / dim


def density_from_bloch(p):
    """(1 + p.sigma)/2 for a 3-vector p = (p_x, p_y, p_z)."""
    x, y, z = p
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def reconstruct(energies, vectors):
    """sum_n E_n |v_n><v_n|."""
    return (vectors * energies[None, :]) @ vectors.conj().T


def bath_averaged_equilibrium(psi, reductions, dim_bath):
    """(1/dB) sum_n <psi|rho_n|psi> rho_n: the equilibrium state of psi (x) phi
    averaged over Haar-uniform bath states phi."""
    weights = np.einsum("i,nij,j->n", psi.conj(), reductions, psi).real
    return np.einsum("n,nij->ij", weights, reductions) / dim_bath


def subspace_averaged_equilibrium(projection, reductions):
    """sum_n w_n rho_n with w_n = sum_r |W_rn|^2 / dR: the equilibrium state
    averaged over Haar-uniform states of the subspace whose projection is W."""
    matrix = projection_matrix(projection, len(reductions))
    weights = (np.abs(matrix) ** 2).sum(axis=0) / matrix.shape[0]
    return np.einsum("n,nij->ij", weights, reductions)


def finite_time_average(coefficients, energies, vectors, dim_system, dim_bath, horizon):
    """Reduced state averaged over [0, horizon], in closed form.

    The average of exp(-i (E_n - E_m) t) over [0, T] is exp(-i x/2) sinc(x/2)
    at x = (E_n - E_m) T; np.sinc makes the equal-energy limit exact.
    """
    x = (energies[:, None] - energies[None, :]) * horizon
    kernel = np.exp(-0.5j * x) * np.sinc(x / (2.0 * np.pi))
    weighted = vectors * coefficients[None, :]
    return ptrace_bath_loop(weighted @ kernel @ weighted.conj().T, dim_system, dim_bath)


def reduced_state_loop(coefficients, energies, vectors, dim_system, dim_bath, t):
    """Reduced state at time t from the eigenbasis, one scalar sum per entry."""
    dim = energies.size
    psi_t = np.zeros(dim, dtype=complex)
    for n in range(dim):
        psi_t += coefficients[n] * np.exp(-1j * energies[n] * t) * vectors[:, n]
    return ptrace_bath_loop(np.outer(psi_t, psi_t.conj()), dim_system, dim_bath)


def expm_propagate(hamiltonian, psi0, t):
    """Dense matrix-exponential propagation, independent of any eigenbasis."""
    return scipy.linalg.expm(-1j * t * np.asarray(hamiltonian)) @ np.asarray(psi0)


def mp_concentration_tail(dim_restricted, epsilon):
    """2 exp(-c dR eps^2) with c = 1/(18 pi^3) at 50 decimal digits."""
    with mpmath.workdps(50):
        c = 1 / (18 * mpmath.pi**3)
        return float(2 * mpmath.e**(-c * dim_restricted * mpmath.mpf(epsilon)**2))


def mp_epsilon_prime(epsilon, dim_system, dim_restricted, p):
    with mpmath.workdps(50):
        if p == 0:
            return float("inf")
        c = 1 / (18 * mpmath.pi**3)
        dr = mpmath.mpf(dim_restricted)
        value = (mpmath.mpf(epsilon)
                 + 2 * mpmath.sqrt(mpmath.mpf(dim_system) / dr)
                 + 2 / dr**(mpmath.mpf(1) / 3)
                 + (8 / mpmath.mpf(p)) * mpmath.e**(-c * dr**(mpmath.mpf(1) / 3)))
        return float(value)


def mp_theorem0_strong(dim_system, dim_restricted, delta_value):
    with mpmath.workdps(50):
        return float(mpmath.sqrt(mpmath.mpf(dim_system) * mpmath.mpf(delta_value)
                                 / dim_restricted))


def ks_uniform_statistic(samples):
    """Kolmogorov-Smirnov distance of samples from the uniform law on [0, 1]."""
    data = np.sort(np.asarray(samples))
    n = data.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.abs(grid_hi - data).max(), np.abs(data - grid_lo).max()))


def random_density(dim, rng):
    """Valid density matrix from a Wishart draw."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = raw @ raw.conj().T
    return mat / np.trace(mat).real


def random_hermitian(dim, rng):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0


def random_density_factor(dim, rng):
    """Columns F of a Wishart draw, scaled so that F F^H is a density matrix."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return raw / np.linalg.norm(raw)


def random_state(dim, rng):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def eigenstate_reductions_loop(vectors, dim_system, dim_bath):
    """Bath-traced projector of every eigenvector (column), one at a time."""
    return [ptrace_bath_loop(np.outer(v, v.conj()), dim_system, dim_bath)
            for v in np.asarray(vectors).T]


def haar_vector(dim):
    """One Haar-uniform unit vector of C^dim per call: 2*dim normals, normalised."""
    def bind(rng):
        def one():
            normals = rng.standard_normal((dim, 2))
            vec = normals[:, 0] + 1j * normals[:, 1]
            return vec / np.linalg.norm(vec)
        return one
    return bind


def dirichlet_vector(dim):
    """The populations of one Haar-uniform unit vector of C^dim per call: dim
    standard exponentials, normalised."""
    def bind(rng):
        def one():
            exponentials = rng.standard_exponential(dim)
            return exponentials / exponentials.sum()
        return one
    return bind


def induced_state(dim_system, dim_bath):
    """One reduced state of a Haar-uniform vector of C^dS (x) C^dB per call.

    For dB >= dS it is L L^H / tr(L L^H) for the Bartlett factor L: the
    first child of the stream draws the diagonal, |L_ii|^2 ~ Gamma(dB - i),
    the second the complex normals below it, row by row.  For dB < dS the
    stream draws a dS x dB complex Gaussian G and the state is G G^H / tr.
    """
    def bind(rng):
        if dim_bath < dim_system:
            def direct():
                normals = rng.standard_normal((dim_system, dim_bath, 2))
                gauss = normals[..., 0] + 1j * normals[..., 1]
                gram = gauss @ gauss.conj().T
                return gram / np.trace(gram).real
            return direct

        diagonal, lower = rng.spawn(2)

        def bartlett():
            gammas = diagonal.standard_gamma(dim_bath - np.arange(dim_system, dtype=float))
            normals = lower.standard_normal((dim_system * (dim_system - 1) // 2, 2))
            factor = np.zeros((dim_system, dim_system), dtype=complex)
            k = 0
            for i in range(dim_system):
                factor[i, i] = np.sqrt(gammas[i])
                for j in range(i):
                    factor[i, j] = complex(normals[k, 0] * np.sqrt(0.5),
                                           normals[k, 1] * np.sqrt(0.5))
                    k += 1
            gram = factor @ factor.conj().T
            return gram / np.trace(gram).real
        return bartlett
    return bind


def stream_generators(seed, n_streams):
    """Philox generators on the first n_streams children of the seed; stream i
    is reproducible in isolation, and stream 0 is the one a seed draws from."""
    children = np.random.SeedSequence(seed).spawn(n_streams)
    return [np.random.Generator(np.random.Philox(child)) for child in children]


def mean_and_standard_error(values):
    """The mean over the first axis of (n, ...) real or complex values, and
    the standard error of each component, sqrt(sum |x - mean|^2 / ((n - 1) n))."""
    values = np.asarray(values)
    n = len(values)
    mean = values.mean(axis=0)
    return mean, np.sqrt((np.abs(values - mean) ** 2).sum(axis=0) / (n - 1) / n)


def naive_distance_estimate(state_of, reference, draw, n_samples, seed, threshold=None):
    """Mean and standard error of the trace distance of state_of(sample) to reference.

    The samples come one at a time from ``draw`` (haar_vector, dirichlet_vector
    or induced_state) bound to the first Philox child of the seed.  With a
    threshold each sample counts 1 when its distance exceeds it and 0
    otherwise.
    """
    one = draw(stream_generators(seed, 1)[0])
    values = []
    for _ in range(n_samples):
        distance = float(np.abs(np.linalg.eigvalsh(state_of(one()) - reference)).sum())
        values.append(distance if threshold is None else float(distance > threshold))
    total = 0.0
    for value in values:
        total += value
    mean = total / n_samples
    spread = 0.0
    for value in values:
        spread += (value - mean) ** 2
    return mean, float(np.sqrt(spread / (n_samples - 1) / n_samples))


def necessary_lhs_coordinate_ascent(matrices, dim_bath, n_starts, seed, step_floor=1e-8):
    """sup over psi of ||(1/dB) sum_n <psi|rho_n|psi> rho_n - I/dS||_1 by coordinate ascent.

    The starts are Haar-uniform vectors drawn one at a time from the Philox
    child of the seed.  From each, one amplitude at a time moves by +/- step
    or +/- i step while that raises the objective; when no move does, the
    step halves, down to step_floor.
    """
    mats = np.asarray(matrices)
    dim_system = mats.shape[1]
    quad = np.einsum("nij,nkl->ijkl", mats, mats) / dim_bath
    mixed = np.eye(dim_system) / dim_system

    def objective(psi):
        averaged = np.einsum("ijkl,k,l->ij", quad, psi.conj(), psi)
        return float(np.abs(np.linalg.eigvalsh(averaged - mixed)).sum())

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed).spawn(1)[0]))
    best = 0.0
    for _ in range(n_starts):
        normals = rng.standard_normal((dim_system, 2))
        psi = normals[:, 0] + 1j * normals[:, 1]
        psi = psi / np.linalg.norm(psi)
        value = objective(psi)
        step = 0.5
        while step > step_floor:
            improved = False
            for j in range(dim_system):
                for direction in (1.0, -1.0, 1.0j, -1.0j):
                    trial = psi.copy()
                    trial[j] += step * direction
                    trial /= np.linalg.norm(trial)
                    trial_value = objective(trial)
                    if trial_value > value:
                        value, psi, improved = trial_value, trial, True
            if not improved:
                step *= 0.5
        best = max(best, value)
    return best


def necessary_lhs_alternating(matrices, dim_bath, n_starts, seed):
    """The same supremum by alternating maximisation, one start at a time.

    The starts are those of necessary_lhs_coordinate_ascent.  A step sets
    O = sign(X) for X = (1/dB) sum_n <psi|rho_n|psi> rho_n - I/dS, then psi
    to the top eigenvector of sum_n tr(O rho_n) rho_n; a start stops when the
    objective no longer strictly increases.
    """
    mats = np.asarray(matrices)
    dim_system = mats.shape[1]
    mixed = np.eye(dim_system) / dim_system
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed).spawn(1)[0]))
    best = 0.0
    for _ in range(n_starts):
        normals = rng.standard_normal((dim_system, 2))
        psi = normals[:, 0] + 1j * normals[:, 1]
        psi = psi / np.linalg.norm(psi)
        value = -np.inf
        while True:
            weights = np.einsum("i,nij,j->n", psi.conj(), mats, psi).real
            levels, vectors = np.linalg.eigh(
                np.einsum("n,nij->ij", weights, mats) / dim_bath - mixed)
            objective = float(np.abs(levels).sum())
            if not objective > value:
                break
            value = objective
            sign = (vectors * np.sign(levels)) @ vectors.conj().T
            scores = np.einsum("ij,nji->n", sign, mats).real
            psi = np.linalg.eigh(np.einsum("n,nij->ij", scores, mats))[1][:, -1]
        best = max(best, value)
    return best


def kron_basis(dim_total, psi=None, dim_prefix=None):
    """Orthonormal columns of a subspace of the composite space, built densely.

    psi=None gives the identity (the whole space); otherwise the columns are
    psi (x) |b> for the first dim_prefix bath levels b (all by default).
    """
    if psi is None:
        return np.eye(dim_total, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    dim_bath = dim_total // psi.size
    bath = np.eye(dim_bath, dtype=complex)[:, :dim_prefix or dim_bath]
    return np.kron(psi[:, None], bath)


def kron_projection(vectors, psi=None, dim_prefix=None):
    """B^H V for the kron_basis B: the subspace projection as one dense product."""
    vectors = np.asarray(vectors)
    return kron_basis(vectors.shape[0], psi, dim_prefix).conj().T @ vectors


def build_commuting_model(spec):
    """Dense parts of a commuting spin-bath spec, the couplings diagonal in the bath basis.

    H_S = (w/2) sigma_z, H_B = diag(E_l) and H_SB = (1/2) sum_a sigma_a (x)
    diag(v_la); ``total`` is H_S (x) 1 + 1 (x) H_B + H_SB.
    """
    dim_bath = spec.bath_energies.size
    system = 0.5 * spec.level_splitting * SIGMA[2]
    bath = np.diag(spec.bath_energies).astype(complex)
    interaction = sum(0.5 * np.kron(SIGMA[a], np.diag(spec.couplings[:, a])) for a in range(3))
    total = np.kron(system, np.eye(dim_bath)) + np.kron(np.eye(2), bath) + interaction
    return SimpleNamespace(system=system, bath=bath, interaction=interaction, total=total)


def part_norms(parts):
    """|H_S|, |H_B|, |H_SB|, |[H_S (x) 1, H_SB]| and |[1 (x) H_B, H_SB]| by eigvalsh."""
    def norm(mat):
        return float(np.abs(np.linalg.eigvalsh(mat)).max())

    dim_system, dim_bath = parts.system.shape[0], parts.bath.shape[0]
    lifted_s = np.kron(parts.system, np.eye(dim_bath))
    lifted_b = np.kron(np.eye(dim_system), parts.bath)
    hsb = parts.interaction
    return (norm(parts.system), norm(parts.bath), norm(hsb),
            norm(1j * (lifted_s @ hsb - hsb @ lifted_s)),
            norm(1j * (lifted_b @ hsb - hsb @ lifted_b)))


def expand_sectors(spectral, layout):
    """The dense (d, d) eigenvector matrix of a SpectralData in any sector form.

    Column r is the eigenvector labelled order[r] = c*m + k, column k of
    sectors[c] (m = dS*g): row s*g + j of that column is the amplitude on
    |s> (x) |c*g + j>, entry s*dB + c*g + j of the composite vector.
    """
    dim_system, dim_bath = layout.dim_system, layout.dim_bath
    n_sec, m, _ = spectral.sectors.shape
    g = m // dim_system
    vectors = np.zeros((spectral.dim, spectral.dim), dtype=complex)
    for rank, label in enumerate(spectral.order):
        c, k = divmod(int(label), m)
        for s in range(dim_system):
            for j in range(g):
                vectors[s * dim_bath + c * g + j, rank] = spectral.sectors[c, s * g + j, k]
    return vectors


def batched_partial_trace_bath(columns, layout):
    """(n, dS, dS) bath traces |x><x| of the (d, n) composite columns x, by one
    einsum over the (dS, dB, n) blocks."""
    blocks = np.asarray(columns, dtype=complex).reshape(layout.dim_system, layout.dim_bath, -1)
    return np.einsum("ibn,jbn->nij", blocks, blocks.conj())


def block_evolution_one_shot(spectral, values, times):
    """(n_times, dS, dS) reductions of sum_n values_n exp(-i E_n t) |n> for a
    SpectralData of one-level sectors (g = 1), from one (n_times, F) table
    of the phases exp(-i w t) at the Bohr frequencies w = E_lk' - E_lk
    (k < k') of each bath level, times the (F, dS^2) table of the
    M = c_lk' conj(c_lk) u_lk' u_lk^H, plus the time average
    sum_lk |c_lk|^2 u_lk u_lk^H.
    """
    dim_bath, dim_system, _ = spectral.sectors.shape
    by_label = np.empty(spectral.dim, dtype=complex)
    by_label[spectral.order] = values
    energy_by_label = np.empty(spectral.dim)
    energy_by_label[spectral.order] = spectral.eigenvalues
    static = np.zeros((dim_system, dim_system), dtype=complex)
    frequencies, moving = [], []
    for level in range(dim_bath):
        labels = level * dim_system + np.arange(dim_system)
        weighted = spectral.sectors[level] * by_label[labels]
        static += weighted @ weighted.conj().T
        for k in range(dim_system):
            for k2 in range(k + 1, dim_system):
                frequencies.append(energy_by_label[labels[k2]] - energy_by_label[labels[k]])
                moving.append(np.outer(weighted[:, k2], weighted[:, k].conj()).ravel())
    phases = np.exp(np.multiply.outer(times, np.array(frequencies)) * -1j)
    oscillating = (phases @ np.array(moving)).reshape(len(times), dim_system, dim_system)
    return static + oscillating + oscillating.conj().transpose(0, 2, 1)


def projection_matrix(projection, dim):
    """The dense (dR, dim) matrix W of a subspace projection in either form;
    a grouped projection keeps only the magnitudes |W_rn|."""
    if hasattr(projection, "matrix"):
        return projection.matrix
    if projection.members is None:
        return np.eye(dim)
    matrix = np.zeros((projection.dim, dim))
    for r in range(projection.dim):
        for member, share in zip(projection.members[r], projection.shares[r]):
            matrix[r, member] = np.sqrt(share)
    return matrix
