import math
import tracemalloc

import numpy as np
import pytest

from isibench import (PureState, SpaceLayout, SpectralData, ValidationError,
                      batched_bloch_vectors, purities, tensor_product, trace_distance)
from isibench.hilbert import (SIGMA_X, SIGMA_Y, SIGMA_Z, batched_trace_distances,
                              check_density_stack)

from _oracles import (batched_partial_trace_bath, density_from_bloch, maximally_mixed,
                      partial_trace_system, ptrace_bath_loop, ptrace_system_loop,
                      random_density, random_density_factor, random_hermitian,
                      random_state)


def _check_density(mat):
    """The check of a single density matrix, as time_averaged_state runs it."""
    check_density_stack("density matrix", np.asarray(mat, dtype=complex)[None])


class TestLayout:
    def test_dimensions(self):
        layout = SpaceLayout(2, 8)
        assert layout.dim_total == 16

    def test_rejects_small_system(self):
        with pytest.raises(ValidationError):
            SpaceLayout(1, 8)

    def test_rejects_empty_bath(self):
        with pytest.raises(ValidationError):
            SpaceLayout(2, 0)


class TestStates:
    def test_pure_state_requires_normalization(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 1.0]), space="system")

    def test_density_requires_unit_trace(self):
        with pytest.raises(ValidationError):
            _check_density(np.eye(2))

    def test_density_requires_hermitian(self):
        with pytest.raises(ValidationError):
            _check_density(np.array([[0.5, 0.5], [-0.5, 0.5]]))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            _check_density(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 1)])
    def test_density_stack_with_a_nan_entry_is_refused(self, cell):
        stack = np.stack([np.eye(2, dtype=complex) / 2] * 3)
        stack[1][cell] = np.nan
        with pytest.raises(ValidationError):
            check_density_stack("stack", stack, positive=False)
        with pytest.raises(ValidationError):
            _check_density(stack[1])

    def test_density_stack_check_holds_one_block_of_temporaries(self):
        """(2^18, 2, 2) states, 16 MiB: the checks work through the stack in
        blocks, so their temporaries stay below a quarter of it."""
        stack = np.zeros((2**18, 2, 2), dtype=complex)
        stack[:, 0, 0] = stack[:, 1, 1] = 0.5
        tracemalloc.start()
        try:
            check_density_stack("stack", stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * stack.nbytes, f"peak {peak / stack.nbytes:.2f} stacks"

    def test_a_nan_in_a_late_block_is_refused(self):
        stack = np.stack([np.eye(2, dtype=complex) / 2] * 10000)
        stack[9000, 0, 1] = np.nan
        with pytest.raises(ValidationError, match="not Hermitian"):
            check_density_stack("stack", stack)


class TestTensorProduct:
    def test_basis_product(self):
        psi = PureState(np.array([1.0, 0.0]), space="system")
        phi = PureState(np.array([1.0, 0.0]), space="bath")
        out = tensor_product(psi, phi)
        assert np.allclose(out.amplitudes, [1, 0, 0, 0])

    def test_layout_convention_system_slow(self):
        psi = PureState(np.array([1.0, 0.0]), space="system")
        phi = PureState(np.array([0.0, 1.0]), space="bath")
        out = tensor_product(psi, phi)
        assert np.allclose(out.amplitudes, [0, 1, 0, 0])

    def test_hand_expanded_kronecker(self):
        psi = PureState(np.array([1.0, 1.0]) / math.sqrt(2), space="system")
        phi = PureState(np.array([1.0, 1.0j]) / math.sqrt(2), space="bath")
        out = tensor_product(psi, phi)
        assert np.allclose(out.amplitudes, np.array([1, 1j, 1, 1j]) / 2)


class TestPartialTraces:
    def test_bell_state_reduces_to_mixed(self):
        layout = SpaceLayout(2, 2)
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.allclose(batched_partial_trace_bath(bell[:, None], layout)[0],
                           np.eye(2) / 2)
        assert np.allclose(partial_trace_system(bell, 2, 2), np.eye(2) / 2)

    def test_product_state_reduces_to_factors(self):
        layout = SpaceLayout(2, 3)
        rng = np.random.default_rng(11)
        psi = PureState(random_state(2, rng), space="system")
        phi = PureState(random_state(3, rng), space="bath")
        joint = tensor_product(psi, phi)
        assert np.allclose(batched_partial_trace_bath(joint.amplitudes[:, None], layout)[0],
                           np.outer(psi.amplitudes, psi.amplitudes.conj()),
                           atol=1e-12)
        assert np.allclose(partial_trace_system(joint.amplitudes, 2, 3),
                           np.outer(phi.amplitudes, phi.amplitudes.conj()),
                           atol=1e-12)

    def test_matches_index_loop_oracle(self):
        layout = SpaceLayout(2, 4)
        rng = np.random.default_rng(5)
        psi = random_state(8, rng)
        projector = np.outer(psi, psi.conj())
        assert np.abs(batched_partial_trace_bath(psi[:, None], layout)[0]
                      - ptrace_bath_loop(projector, 2, 4)).max() < 1e-12
        assert np.abs(partial_trace_system(psi, 2, 4)
                      - ptrace_system_loop(projector, 2, 4)).max() < 1e-12

    def test_density_matrix_input_matches_oracle(self):
        # A density matrix F F^H reduces to the sum of its columns' reductions.
        layout = SpaceLayout(3, 4)
        rng = np.random.default_rng(17)
        for _ in range(20):
            factor = random_density_factor(12, rng)
            reduced = batched_partial_trace_bath(factor, layout).sum(axis=0)
            assert np.abs(reduced - ptrace_bath_loop(factor @ factor.conj().T, 3, 4)
                          ).max() < 1e-12

    def test_trace_preserved(self):
        layout = SpaceLayout(2, 5)
        rng = np.random.default_rng(23)
        for _ in range(10):
            reduced = batched_partial_trace_bath(random_density_factor(10, rng), layout)
            assert abs(np.einsum("nii->", reduced).real - 1.0) < 1e-12
        # the same contraction preserves the trace of arbitrary Hermitian input
        for _ in range(10):
            x = random_hermitian(10, rng)
            t = x.reshape(2, 5, 2, 5)
            assert abs(np.trace(np.einsum("ibjb->ij", t)) - np.trace(x)) < 1e-12

    def test_reductions_are_valid_densities(self):
        layout = SpaceLayout(2, 6)
        rng = np.random.default_rng(29)
        for _ in range(10):
            factor = random_density_factor(12, rng)
            _check_density(batched_partial_trace_bath(factor, layout).sum(axis=0))
            _check_density(partial_trace_system(factor @ factor.conj().T, 2, 6))

    def test_rejects_columns_of_another_dimension(self):
        # the package traces out the bath only from eigenvectors of the layout's d
        with pytest.raises(ValidationError, match="2x4"):
            SpectralData(np.arange(6.0), np.eye(6, dtype=complex)[None], SpaceLayout(2, 4))


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        a, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert trace_distance(a, b) == pytest.approx(2.0)

    def test_identical_states(self):
        rho = random_density(4, np.random.default_rng(3))
        assert trace_distance(rho, rho) == 0.0

    def test_bloch_axes_give_sqrt_two(self):
        x = density_from_bloch((1.0, 0.0, 0.0))
        y = density_from_bloch((0.0, 1.0, 0.0))
        assert trace_distance(x, y) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a, b, c = (random_density(3, rng) for _ in range(3))
            assert trace_distance(a, b) == trace_distance(b, a)
            assert (trace_distance(a, c)
                    <= trace_distance(a, b) + trace_distance(b, c) + 1e-10)

    def test_qubit_distance_is_bloch_distance(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            p1 = rng.uniform(-1, 1, 3)
            p1 *= rng.uniform(0, 1) / np.linalg.norm(p1)
            p2 = rng.uniform(-1, 1, 3)
            p2 *= rng.uniform(0, 1) / np.linalg.norm(p2)
            dist = trace_distance(density_from_bloch(p1), density_from_bloch(p2))
            assert dist == pytest.approx(np.linalg.norm(p1 - p2), abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            trace_distance(np.eye(2) / 2, np.eye(3) / 3)

    @pytest.mark.parametrize("k, count", [(2, 2**18), (3, 2**17)])
    def test_batched_distances_hold_one_block_of_temporaries(self, k, count):
        """A 16-18 MiB stack of Hermitian matrices: the distances are taken a
        block of matrices at a time, so the temporaries beside the count
        distances stay below a quarter of the stack, and each distance keeps
        the bits it has alone."""
        rng = np.random.default_rng(k)
        raw = rng.standard_normal((count, k, k)) + 1j * rng.standard_normal((count, k, k))
        stack = np.eye(k) / k + 0.1 * (raw + raw.conj().swapaxes(1, 2))
        del raw
        reference = random_density(k, rng)
        tracemalloc.start()
        try:
            distances = batched_trace_distances(stack, reference)
            peak = tracemalloc.get_traced_memory()[1] - distances.nbytes
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * stack.nbytes, f"peak {peak / stack.nbytes:.2f} stacks"
        for n in (0, 255, 256, count - 1):
            assert batched_trace_distances(stack[n:n + 1], reference)[0] == distances[n]


class TestPurity:
    def test_pure_state(self):
        psi = random_state(4, np.random.default_rng(7))
        assert purities(np.outer(psi, psi.conj())[None])[0] == pytest.approx(1.0)

    def test_maximally_mixed(self):
        for dim in (2, 3, 5):
            assert purities(maximally_mixed(dim)[None])[0] == pytest.approx(1.0 / dim)

    def test_qubit_polarization_formula(self):
        rho = density_from_bloch((0.6, 0.0, 0.0))
        assert purities(rho[None])[0] == pytest.approx(0.68)

    def test_stack_gives_each_matrix_its_own_bits(self):
        rng = np.random.default_rng(59)
        stack = np.stack([random_density(3, rng) for _ in range(5)])
        values = purities(stack)
        assert values.shape == (5,)
        for n, rho in enumerate(stack):
            assert purities(rho[None])[0] == values[n]
            assert values[n] == pytest.approx(np.trace(rho @ rho).real, abs=1e-14)


def _bloch(rho):
    return batched_bloch_vectors(np.asarray(rho)[None])[0]


class TestBloch:
    def test_maximally_mixed_is_origin(self):
        assert tuple(_bloch(maximally_mixed(2))) == (0.0, 0.0, 0.0)

    def test_z_convention(self):
        assert tuple(_bloch(np.diag([1.0, 0.0]))) == \
            pytest.approx((0.0, 0.0, 1.0))

    def test_round_trip_fixed_vector(self):
        q = _bloch(density_from_bloch((0.3, -0.4, 0.5)))
        assert tuple(q) == pytest.approx((0.3, -0.4, 0.5), abs=1e-14)

    def test_round_trip_random_states(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            rho = random_density(2, rng)
            _check_density(rho)
            back = density_from_bloch(_bloch(rho))
            assert np.abs(back - rho).max() < 1e-12

    def test_rejects_vector_outside_sphere(self):
        # |p| <= 1 is the positivity of (1 + p.sigma)/2
        with pytest.raises(ValidationError, match="positive semidefinite"):
            _check_density(density_from_bloch((1.0, 1.0, 0.0)))

    def test_pauli_expectations(self):
        rho = density_from_bloch((0.2, 0.3, -0.1))
        for component, sigma in ((0.2, SIGMA_X), (0.3, SIGMA_Y), (-0.1, SIGMA_Z)):
            assert np.trace(rho @ sigma).real == pytest.approx(component)

    def test_stack_shape_is_checked(self):
        with pytest.raises(ValidationError, match=r"\(n, 2, 2\)"):
            batched_bloch_vectors(maximally_mixed(3)[None])
