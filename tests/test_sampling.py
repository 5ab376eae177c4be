import math

import numpy as np
import pytest

from isibench import (SpaceLayout, ValidationError, batched_monte_carlo,
                      batched_partial_trace_bath, sample_amplitudes, split_counts,
                      stream_generators)

from _oracles import ks_uniform_statistic


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


def _population(level):
    """The batched functional |a_level|^2 of amplitude columns."""
    return lambda amplitudes: np.abs(amplitudes[level]) ** 2


def _constant(value):
    return lambda amplitudes: np.full(amplitudes.shape[1], value)


class TestMonteCarlo:
    def test_constant_functional(self):
        est = batched_monte_carlo(_constant(1.0), dim=1, width=1, n_samples=100, seed=1)
        assert est.mean == 1.0
        assert est.standard_error == 0.0
        assert est.n_samples == 100

    def test_reduction_over_full_space_is_maximally_mixed(self):
        layout = SpaceLayout(2, 8)

        def reductions(amplitudes):
            return batched_partial_trace_bath(amplitudes, layout)

        est = batched_monte_carlo(reductions, dim=16, width=16, n_samples=2000, seed=8)
        deviation = np.abs(est.mean - np.eye(2) / 2)
        assert (deviation <= 3 * est.standard_error + 1e-12).all()

    def test_amplitude_second_moment(self):
        est = batched_monte_carlo(_population(0), dim=8, width=8, n_samples=4000, seed=9)
        assert abs(est.mean - 1.0 / 8.0) < 3 * est.standard_error

    def test_requires_two_samples(self):
        with pytest.raises(ValidationError):
            batched_monte_carlo(_constant(1.0), dim=1, width=1, n_samples=1, seed=0)

    def test_non_finite_value_aborts_with_diagnostic(self):
        with pytest.raises(ValidationError, match="stream"):
            batched_monte_carlo(_constant(math.nan), dim=1, width=1, n_samples=10, seed=0)

    def test_reproducible_across_runs(self):
        def run():
            return batched_monte_carlo(_population(1), dim=4, width=4, n_samples=500,
                                       seed=77, n_streams=4)

        first, second = run(), run()
        assert first.mean == second.mean
        assert first.standard_error == second.standard_error

    def test_stream_count_changes_partition_not_statistics(self):
        one = batched_monte_carlo(_population(0), dim=4, width=4, n_samples=3000,
                                  seed=10, n_streams=1)
        four = batched_monte_carlo(_population(0), dim=4, width=4, n_samples=3000,
                                   seed=10, n_streams=4)
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
