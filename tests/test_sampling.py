import math

import numpy as np
import pytest

from isibench import (SpaceLayout, ValidationError, dirichlet_weights, generator,
                      induced_states, sample_amplitudes, sampled_distances, sampling)
from isibench.hilbert import batched_trace_distances

from _oracles import (batched_partial_trace_bath, ks_uniform_statistic,
                      mean_and_standard_error, stream_generators)


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


def _handing_out(stack):
    """states_of that hands out the rows of a fixed stack in order."""
    taken = [0]

    def states_of(count):
        taken[0] += count
        return stack[taken[0] - count:taken[0]]
    return states_of


MIXED = np.eye(2) / 2


class TestMonteCarlo:
    def test_constant_functional(self):
        # states at the reference: distance 0, every one beyond a negative threshold
        states = np.broadcast_to(MIXED, (100, 2, 2))
        mean, se = sampled_distances(_handing_out(states), 4, MIXED, -1.0, 100)
        assert mean.tolist() == [0.0, 1.0]
        assert se.tolist() == [0.0, 0.0]

    def test_reduction_over_full_space_is_maximally_mixed(self):
        reductions = batched_partial_trace_bath(sample_amplitudes(16, 2000, generator(8)),
                                                SpaceLayout(2, 8))
        mean, se = mean_and_standard_error(reductions)
        deviation = np.abs(mean - np.eye(2) / 2)
        assert (deviation <= 3 * se + 1e-12).all()

    def test_amplitude_second_moment(self):
        populations = np.abs(sample_amplitudes(8, 4000, generator(9))[0]) ** 2
        mean, se = mean_and_standard_error(populations)
        assert abs(mean - 1.0 / 8.0) < 3 * se

    def test_requires_two_samples(self):
        with pytest.raises(ValidationError, match="need at least 2 samples, got 1"):
            sampled_distances(_handing_out(np.broadcast_to(MIXED, (1, 2, 2))), 4, MIXED,
                              0.5, 1)

    def test_non_finite_value_aborts_with_diagnostic(self, monkeypatch):
        # chunks of two samples: the index counts across chunks
        monkeypatch.setattr(sampling, "MONTE_CARLO_ELEMENT_CAP", 8)
        states = induced_states(2, 4, generator(0))(10)
        states[5, 0, 0] = math.nan
        with pytest.raises(ValidationError, match="non-finite value at sample 5$"):
            sampled_distances(_handing_out(states), 4, MIXED, 0.5, 10)

    def test_an_overflowing_standard_error_is_refused(self):
        far = np.broadcast_to(np.diag([4e153, -4e153]), (4, 2, 2))  # D^2 = 6.4e307
        with pytest.raises(ValidationError, match="standard errors must be finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            sampled_distances(_handing_out(far), 4, MIXED, 0.5, 4)

    def test_reproducible_across_runs(self):
        def run():
            return sampled_distances(induced_states(2, 8, generator(77)), 4, MIXED, 0.3, 500)

        (first_mean, first_se), (second_mean, second_se) = run(), run()
        assert 0.0 < first_mean[1] < 1.0
        assert np.array_equal(first_mean, second_mean)
        assert np.array_equal(first_se, second_se)


class TestAccumulation:
    def test_generator_is_the_first_stream_of_its_seed(self):
        # the draws of every estimate keep the bits of the first of n streams
        first = stream_generators(123, 3)[0].standard_normal(8)
        assert np.array_equal(generator(123).standard_normal(8), first)
        assert np.array_equal(generator(123).standard_normal(8), first)


def _agree_within_3_se(first, second):
    """Each component of two independent (mean, SE) estimates within 3 combined SE."""
    (first_mean, first_se), (second_mean, second_se) = first, second
    spread = np.hypot(first_se, second_se)
    return np.abs(np.asarray(first_mean) - second_mean) <= 3.0 * spread


class TestLaws:
    def test_dirichlet_weights_are_haar_populations(self):
        def moments(populations):
            return np.stack([populations[:, 0], populations[:, 0] ** 2,
                             populations[:, 0] * populations[:, 1]], axis=1)

        weights = mean_and_standard_error(moments(dirichlet_weights(5, 20_000, generator(3))))
        haar = mean_and_standard_error(
            moments(np.abs(sample_amplitudes(5, 20_000, generator(4)).T) ** 2))
        # E w = 1/n, E w^2 = 2/(n(n+1)), E w_1 w_2 = 1/(n(n+1))
        assert np.all(_agree_within_3_se(weights, haar))
        exact = [1 / 5, 2 / 30, 1 / 30]
        weights_mean, weights_se = weights
        assert np.all(np.abs(weights_mean - exact) <= 3.0 * weights_se)

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

        induced = mean_and_standard_error(statistics(induced_states(ds, db, generator(5))(20_000)))
        direct = mean_and_standard_error(statistics(batched_partial_trace_bath(
            sample_amplitudes(ds * db, 20_000, generator(6)), layout)))
        induced_mean, induced_se = induced
        assert 0.05 < induced_mean[2] < 0.95
        assert np.all(_agree_within_3_se(induced, direct))
        # E tr rho^2 = (dS + dB) / (dS dB + 1) for the induced measure
        exact_purity = (ds + db) / (ds * db + 1)
        assert abs(induced_mean[1] - exact_purity) <= 3.0 * induced_se[1]

    @pytest.mark.parametrize("ds, db", [(2, 8), (4, 2)])
    def test_chunked_induced_draws_are_the_one_sample_draws(self, ds, db):
        whole = induced_states(ds, db, generator(7))(40)
        one = induced_states(ds, db, generator(7))
        singles = np.concatenate([one(1) for _ in range(40)])
        assert np.array_equal(whole, singles)
