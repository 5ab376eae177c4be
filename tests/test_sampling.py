import math

import numpy as np
import pytest

from isibench import (SpaceLayout, ValidationError, batched_monte_carlo, dirichlet_weights,
                      generator, haar_amplitudes, induced_states, sample_amplitudes)
from isibench.hilbert import batched_trace_distances

from _oracles import batched_partial_trace_bath, ks_uniform_statistic, stream_generators


class TestUniformSampling:
    def test_qubit_population_is_uniform(self):
        rng = generator(90)
        cols = sample_amplitudes(2, 100_000, rng)
        populations = np.abs(cols[0]) ** 2
        assert ks_uniform_statistic(populations) < 0.01

    def test_mean_population_is_one_over_dim(self):
        rng = generator(91)
        cols = sample_amplitudes(8, 4000, rng)
        populations = np.abs(cols) ** 2
        for level in range(8):
            mean = populations[level].mean()
            se = populations[level].std(ddof=1) / math.sqrt(cols.shape[1])
            assert abs(mean - 1.0 / 8.0) < 3 * se

    def test_one_batch_draws_what_single_draws_do(self):
        batch = sample_amplitudes(37, 50, generator(95))
        rng = generator(95)
        singles = np.hstack([sample_amplitudes(37, 1, rng) for _ in range(50)])
        assert np.array_equal(batch, singles)


def _population(level):
    """The batched functional |a_level|^2 of amplitude columns."""
    return lambda amplitudes: np.abs(amplitudes[level]) ** 2


def _constant(value):
    return lambda amplitudes: np.full(amplitudes.shape[1], value)


class TestMonteCarlo:
    def test_constant_functional(self):
        est = batched_monte_carlo(_constant(1.0), draw=haar_amplitudes(1), width=1,
                                  n_samples=100, seed=1)
        assert est.mean == 1.0
        assert est.standard_error == 0.0
        assert est.n_samples == 100

    def test_reduction_over_full_space_is_maximally_mixed(self):
        layout = SpaceLayout(2, 8)

        def reductions(amplitudes):
            return batched_partial_trace_bath(amplitudes, layout)

        est = batched_monte_carlo(reductions, draw=haar_amplitudes(16), width=16,
                                  n_samples=2000, seed=8)
        deviation = np.abs(est.mean - np.eye(2) / 2)
        assert (deviation <= 3 * est.standard_error + 1e-12).all()

    def test_amplitude_second_moment(self):
        est = batched_monte_carlo(_population(0), draw=haar_amplitudes(8), width=8,
                                  n_samples=4000, seed=9)
        assert abs(est.mean - 1.0 / 8.0) < 3 * est.standard_error

    def test_requires_two_samples(self):
        with pytest.raises(ValidationError):
            batched_monte_carlo(_constant(1.0), draw=haar_amplitudes(1), width=1,
                                n_samples=1, seed=0)

    def test_non_finite_value_aborts_with_diagnostic(self):
        with pytest.raises(ValidationError, match="sample 0"):
            batched_monte_carlo(_constant(math.nan), draw=haar_amplitudes(1), width=1,
                                n_samples=10, seed=0)

    def test_reproducible_across_runs(self):
        def run():
            return batched_monte_carlo(_population(1), draw=haar_amplitudes(4), width=4,
                                       n_samples=500, seed=77)

        first, second = run(), run()
        assert first.mean == second.mean
        assert first.standard_error == second.standard_error


class TestAccumulation:
    def test_generator_is_the_first_stream_of_its_seed(self):
        # the draws of every estimate keep the bits of the first of n streams
        first = stream_generators(123, 3)[0].standard_normal(8)
        assert np.array_equal(generator(123).standard_normal(8), first)
        assert np.array_equal(generator(123).standard_normal(8), first)


def _agree_within_3_se(first, second):
    """Each component of two independent estimates within 3 combined SE."""
    spread = np.hypot(first.standard_error, second.standard_error)
    return np.abs(np.asarray(first.mean) - second.mean) <= 3.0 * spread


class TestLaws:
    def test_dirichlet_weights_are_haar_populations(self):
        def moments(populations):
            return np.stack([populations[:, 0], populations[:, 0] ** 2,
                             populations[:, 0] * populations[:, 1]], axis=1)

        weights = batched_monte_carlo(moments, dirichlet_weights(5), 5, 20_000, seed=3)
        haar = batched_monte_carlo(lambda a: moments(np.abs(a.T) ** 2), haar_amplitudes(5),
                                   5, 20_000, seed=4)
        # E w = 1/n, E w^2 = 2/(n(n+1)), E w_1 w_2 = 1/(n(n+1))
        assert np.all(_agree_within_3_se(weights, haar))
        exact = [1 / 5, 2 / 30, 1 / 30]
        assert np.all(np.abs(weights.mean - exact) <= 3.0 * weights.standard_error)

    @pytest.mark.parametrize("ds, db", [(2, 8), (3, 5), (4, 16), (4, 2)])
    def test_induced_states_are_haar_reductions(self, ds, db):
        # Bartlett factors for dB >= dS, a direct Gaussian G for dB < dS,
        # against the partial traces of Haar-uniform composite vectors
        layout = SpaceLayout(ds, db)
        mixed = np.eye(ds) / ds
        threshold = 0.8 * math.sqrt(ds / db)

        def statistics(states):
            distances = batched_trace_distances(states, mixed)
            purities = np.einsum("nij,nji->n", states, states).real
            return np.stack([distances, purities, distances > threshold], axis=1)

        induced = batched_monte_carlo(statistics, induced_states(ds, db), ds * ds,
                                      20_000, seed=5)
        direct = batched_monte_carlo(
            lambda amplitudes: statistics(batched_partial_trace_bath(amplitudes, layout)),
            haar_amplitudes(ds * db), ds * db, 20_000, seed=6)
        assert 0.05 < induced.mean[2] < 0.95
        assert np.all(_agree_within_3_se(induced, direct))
        # E tr rho^2 = (dS + dB) / (dS dB + 1) for the induced measure
        exact_purity = (ds + db) / (ds * db + 1)
        assert abs(induced.mean[1] - exact_purity) <= 3.0 * induced.standard_error[1]

    @pytest.mark.parametrize("ds, db", [(2, 8), (4, 2)])
    def test_chunked_induced_draws_are_the_one_sample_draws(self, ds, db):
        whole = induced_states(ds, db)(generator(7))(40)
        one = induced_states(ds, db)(generator(7))
        singles = np.concatenate([one(1) for _ in range(40)])
        assert np.array_equal(whole, singles)
