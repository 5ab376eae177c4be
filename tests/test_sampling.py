import math

import numpy as np
import pytest
import scipy.stats

from isibench import (PureState, SpaceLayout, SubspaceBasis, ValidationError,
                      bath_prefix_basis, full_basis, monte_carlo_average,
                      partial_trace_bath, product_subspace,
                      sample_uniform_state, split_counts, stream_generators)
from isibench.sampling import _CompensatedSum, sample_uniform_columns

from _oracles import ks_uniform_statistic, random_state


class TestSubspaceBasis:
    def test_rejects_non_orthonormal_columns(self):
        cols = np.ones((4, 2), dtype=complex) / 2.0
        with pytest.raises(ValidationError):
            SubspaceBasis(cols)

    def test_projector_is_idempotent(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        q, _ = np.linalg.qr(raw)
        basis = SubspaceBasis(q)
        proj = basis.projector()
        assert np.abs(proj @ proj - proj).max() < 1e-12
        assert np.trace(proj).real == pytest.approx(3.0)

    def test_prefix_basis_lifts_to_product(self):
        layout = SpaceLayout(2, 4)
        psi = PureState(np.array([0.0, 1.0]), space="system")
        sub = product_subspace(psi, bath_prefix_basis(layout, 2), layout)
        assert sub.dim_subspace == 2
        # second system level, first two bath levels
        expected = np.zeros((8, 2), dtype=complex)
        expected[4, 0] = 1.0
        expected[5, 1] = 1.0
        assert np.abs(sub.columns - expected).max() < 1e-12


class TestUniformSampling:
    def test_one_dimensional_subspace_returns_the_state(self):
        rng = np.random.default_rng(3)
        phi = random_state(5, rng)
        basis = SubspaceBasis(phi.reshape(-1, 1))
        out = sample_uniform_state(basis, rng)
        assert abs(abs(np.vdot(phi, out.amplitudes)) - 1.0) < 1e-12

    def test_qubit_population_is_uniform(self):
        rng = stream_generators(90, 1)[0]
        cols = sample_uniform_columns(full_basis(2), 100_000, rng)
        populations = np.abs(cols[0]) ** 2
        assert ks_uniform_statistic(populations) < 0.01

    def test_mean_population_is_one_over_dim(self):
        rng = stream_generators(91, 1)[0]
        cols = sample_uniform_columns(full_basis(8), 4000, rng)
        populations = np.abs(cols) ** 2
        for level in range(8):
            mean = populations[level].mean()
            se = populations[level].std(ddof=1) / math.sqrt(cols.shape[1])
            assert abs(mean - 1.0 / 8.0) < 3 * se

    def test_unitary_invariance(self):
        rng = np.random.default_rng(92)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        unitary, _ = np.linalg.qr(raw)
        plain = full_basis(4)
        rotated = SubspaceBasis(plain.columns @ unitary)
        a = np.abs(sample_uniform_columns(plain, 10_000,
                                          stream_generators(93, 1)[0])[0]) ** 2
        b = np.abs(sample_uniform_columns(rotated, 10_000,
                                          stream_generators(94, 1)[0])[0]) ** 2
        assert scipy.stats.ks_2samp(a, b).statistic < 0.02


class TestProductSampling:
    def test_single_dimension_factors_are_deterministic(self):
        rng = np.random.default_rng(4)
        psi = random_state(2, rng)
        phi = random_state(3, rng)
        bath_basis = SubspaceBasis(phi.reshape(-1, 1), space="bath")
        sub = product_subspace(PureState(psi, space="system"), bath_basis,
                               SpaceLayout(2, 3))
        out = sample_uniform_state(sub, rng)
        assert abs(abs(np.vdot(np.kron(psi, phi), out.amplitudes)) - 1.0) < 1e-12

    def test_fixed_system_reduction_is_pure(self):
        layout = SpaceLayout(2, 8)
        rng = np.random.default_rng(5)
        psi = PureState(random_state(2, rng), space="system")
        sub = product_subspace(psi, None, layout)
        target = np.outer(psi.amplitudes, psi.amplitudes.conj())
        for _ in range(25):
            draw = sample_uniform_state(sub, rng)
            reduced = partial_trace_bath(draw, layout).matrix
            assert np.abs(reduced - target).max() < 1e-10


class TestMonteCarlo:
    def test_constant_functional(self):
        est = monte_carlo_average(lambda s: 1.0,
                                  lambda rng: rng.standard_normal(), 100, seed=1)
        assert est.mean == 1.0
        assert est.standard_error == 0.0
        assert est.n_samples == 100

    def test_reduction_over_full_space_is_maximally_mixed(self):
        layout = SpaceLayout(2, 8)
        basis = full_basis(16)

        def functional(state):
            return partial_trace_bath(state, layout).matrix

        est = monte_carlo_average(functional,
                                  lambda rng: sample_uniform_state(basis, rng),
                                  2000, seed=8)
        deviation = np.abs(est.mean - np.eye(2) / 2)
        assert (deviation <= 3 * est.standard_error + 1e-12).all()

    def test_amplitude_second_moment(self):
        basis = full_basis(8)

        def functional(state):
            return abs(state.amplitudes[0]) ** 2

        est = monte_carlo_average(functional,
                                  lambda rng: sample_uniform_state(basis, rng),
                                  4000, seed=9)
        assert abs(est.mean - 1.0 / 8.0) < 3 * est.standard_error

    def test_requires_two_samples(self):
        with pytest.raises(ValidationError):
            monte_carlo_average(lambda s: s, lambda rng: 1.0, 1, seed=0)

    def test_non_finite_value_aborts_with_diagnostic(self):
        def functional(sample):
            return math.nan

        with pytest.raises(ValidationError, match="stream"):
            monte_carlo_average(functional, lambda rng: 0.0, 10, seed=0)

    def test_reproducible_across_runs(self):
        basis = full_basis(4)

        def functional(state):
            return abs(state.amplitudes[1]) ** 2

        def run():
            return monte_carlo_average(functional,
                                       lambda rng: sample_uniform_state(basis, rng),
                                       500, seed=77, n_streams=4)

        first, second = run(), run()
        assert first.mean == second.mean
        assert first.standard_error == second.standard_error

    def test_stream_count_changes_partition_not_statistics(self):
        basis = full_basis(4)

        def functional(state):
            return abs(state.amplitudes[0]) ** 2

        one = monte_carlo_average(functional,
                                  lambda rng: sample_uniform_state(basis, rng),
                                  3000, seed=10, n_streams=1)
        four = monte_carlo_average(functional,
                                   lambda rng: sample_uniform_state(basis, rng),
                                   3000, seed=10, n_streams=4)
        assert abs(one.mean - 0.25) < 3 * one.standard_error
        assert abs(four.mean - 0.25) < 3 * four.standard_error


class TestAccumulation:
    def test_split_counts_partitions_total(self):
        for n, k in ((10, 3), (7, 7), (100, 8), (5, 1)):
            counts = split_counts(n, k)
            assert sum(counts) == n
            assert max(counts) - min(counts) <= 1

    def test_compensated_merge_order_stability(self):
        rng = np.random.default_rng(11)
        values = np.concatenate([rng.uniform(0, 1, 5000) * 10.0 ** rng.integers(
            -8, 8, 5000), np.ones(5000) * 1e-12])
        partials = []
        for chunk in np.array_split(values, 8):
            acc = _CompensatedSum((), float)
            for v in chunk:
                acc.add(float(v))
            partials.append(acc)

        def merged(order):
            total = _CompensatedSum((), float)
            for index in order:
                total.merge(partials[index])
            return float(total.value)

        forward = merged(range(8))
        backward = merged(reversed(range(8)))
        scale = max(1.0, abs(forward))
        assert abs(forward - backward) / scale < 1e-13

    def test_stream_generators_are_deterministic(self):
        a = stream_generators(123, 3)
        b = stream_generators(123, 3)
        for ga, gb in zip(a, b):
            assert ga.standard_normal() == gb.standard_normal()
