import math

import numpy as np
import pytest

from isibench import (PureState, SpaceLayout, ValidationError, monte_carlo_average,
                      partial_trace_bath, sample_amplitudes, split_counts,
                      stream_generators)

from _oracles import ks_uniform_statistic


def _haar_state(dim):
    """A sampler of Haar-uniform composite states of C^dim."""
    return lambda rng: PureState(sample_amplitudes(dim, 1, rng)[:, 0], space="composite")


class TestUniformSampling:
    def test_qubit_population_is_uniform(self):
        rng = stream_generators(90, 1)[0]
        cols = sample_amplitudes(2, 100_000, rng)
        populations = np.abs(cols[0]) ** 2
        assert ks_uniform_statistic(populations) < 0.01

    def test_mean_population_is_one_over_dim(self):
        rng = stream_generators(91, 1)[0]
        cols = sample_amplitudes(8, 4000, rng)
        populations = np.abs(cols) ** 2
        for level in range(8):
            mean = populations[level].mean()
            se = populations[level].std(ddof=1) / math.sqrt(cols.shape[1])
            assert abs(mean - 1.0 / 8.0) < 3 * se

    def test_one_batch_draws_what_single_draws_do(self):
        batch = sample_amplitudes(37, 50, stream_generators(95, 1)[0])
        rng = stream_generators(95, 1)[0]
        singles = np.hstack([sample_amplitudes(37, 1, rng) for _ in range(50)])
        assert np.array_equal(batch, singles)


class TestMonteCarlo:
    def test_constant_functional(self):
        est = monte_carlo_average(lambda s: 1.0,
                                  lambda rng: rng.standard_normal(), 100, seed=1)
        assert est.mean == 1.0
        assert est.standard_error == 0.0
        assert est.n_samples == 100

    def test_reduction_over_full_space_is_maximally_mixed(self):
        layout = SpaceLayout(2, 8)

        def functional(state):
            return partial_trace_bath(state, layout).matrix

        est = monte_carlo_average(functional, _haar_state(16), 2000, seed=8)
        deviation = np.abs(est.mean - np.eye(2) / 2)
        assert (deviation <= 3 * est.standard_error + 1e-12).all()

    def test_amplitude_second_moment(self):
        def functional(state):
            return abs(state.amplitudes[0]) ** 2

        est = monte_carlo_average(functional, _haar_state(8), 4000, seed=9)
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
        def functional(state):
            return abs(state.amplitudes[1]) ** 2

        def run():
            return monte_carlo_average(functional, _haar_state(4), 500, seed=77,
                                       n_streams=4)

        first, second = run(), run()
        assert first.mean == second.mean
        assert first.standard_error == second.standard_error

    def test_stream_count_changes_partition_not_statistics(self):
        def functional(state):
            return abs(state.amplitudes[0]) ** 2

        one = monte_carlo_average(functional, _haar_state(4), 3000, seed=10, n_streams=1)
        four = monte_carlo_average(functional, _haar_state(4), 3000, seed=10, n_streams=4)
        assert abs(one.mean - 0.25) < 3 * one.standard_error
        assert abs(four.mean - 0.25) < 3 * four.standard_error


class TestAccumulation:
    def test_split_counts_partitions_total(self):
        for n, k in ((10, 3), (7, 7), (100, 8), (5, 1)):
            counts = split_counts(n, k)
            assert sum(counts) == n
            assert max(counts) - min(counts) <= 1

    def test_stream_generators_are_deterministic(self):
        a = stream_generators(123, 3)
        b = stream_generators(123, 3)
        for ga, gb in zip(a, b):
            assert ga.standard_normal() == gb.standard_normal()
