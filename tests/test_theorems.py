import json
import math
import re

import numpy as np
import pytest

from isibench import (CONCENTRATION_RATE, THEOREM_IDS, PureState, SpaceLayout,
                      TheoremReport, ValidationError, assign_verdict,
                      concentration_tail, eigendecompose,
                      epsilon_prime, necessary_condition_lhs,
                      necessary_condition_reports, popescu_report,
                      read_report, recompute_rhs, subspace_projection,
                      sufficient_condition_report, theorem0_reports,
                      theorem0_rhs, theorem2_lhs, theorem2_reports,
                      write_report)
from isibench import sampling
from isibench.theorems import THEOREMS
from isibench.equilibrium import EigenstateReductions
from isibench.models import analytic_eigensystem, sample_commuting_spec
from isibench.spectral import DenseProjection, SpectralData

from _oracles import (dirichlet_vector, eigenstate_reductions_loop, expand_sectors,
                      haar_vector, induced_state, kron_basis, mp_concentration_tail,
                      mp_epsilon_prime, mp_theorem0_strong, naive_distance_estimate,
                      necessary_lhs_alternating, necessary_lhs_coordinate_ascent,
                      ptrace_bath_loop,
                      random_hermitian, random_state)


def _commuting_problem(db, seed):
    rng = np.random.default_rng(seed)
    spec = sample_commuting_spec(db, 1.0, 1.0, 1.0, rng)
    spectral = analytic_eigensystem(spec)
    return spec, spectral, EigenstateReductions(spectral.reductions(spec.layout)), rng


def _random_problem(ds, db, seed):
    rng = np.random.default_rng(seed)
    layout = SpaceLayout(ds, db)
    spectral = eigendecompose(random_hermitian(layout.dim_total, rng))
    return layout, spectral, EigenstateReductions(spectral.reductions(layout)), rng


def _aligned_reductions():
    """d=4 reductions polarized along +/- z: completeness holds, G/d has
    largest eigenvalue exactly 1."""
    layout = SpaceLayout(2, 2)
    spectral = SpectralData(np.array([0.0, 1.0, 2.0, 4.0]),
                            np.eye(4, dtype=complex)[None])
    return spectral, EigenstateReductions(spectral.reductions(layout))


def _mixed_reductions():
    """d=4 reductions that are all I/2."""
    mats = np.broadcast_to(np.eye(2, dtype=complex) / 2, (4, 2, 2)).copy()
    return EigenstateReductions(matrices=mats)


def _axis_pair_reductions():
    """d=6 unit polarizations along +/- x, +/- y, +/- z: G = 2 I."""
    bloch = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0],
                      [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]])
    paulis = np.stack([np.array([[0, 1], [1, 0]], dtype=complex),
                       np.array([[0, -1j], [1j, 0]]),
                       np.array([[1, 0], [0, -1]], dtype=complex)])
    mats = 0.5 * (np.eye(2)[None] + np.einsum("na,aij->nij", bloch, paulis))
    return EigenstateReductions(matrices=mats)


class TestClosedFormBounds:
    def test_concentration_rate_constant(self):
        assert CONCENTRATION_RATE == pytest.approx(1.0 / 558.1129802453967, rel=1e-14)

    def test_concentration_tail_frozen_values(self):
        assert concentration_tail(256, 0.3) == pytest.approx(1.9191170615338322, rel=1e-14)
        assert concentration_tail(4096, 0.5) == pytest.approx(0.3193055561732363, rel=1e-14)

    def test_concentration_tail_is_two_at_zero_epsilon_and_refuses_a_negative_one(self):
        # the T0 pair builds T0ii even where only T0i is listed at epsilon = 0
        assert concentration_tail(64, 0.0) == 2.0
        with pytest.raises(ValidationError, match="epsilon must be >= 0"):
            concentration_tail(64, -1e-3)

    def test_concentration_tail_against_high_precision(self):
        for dr, eps in ((16, 0.05), (256, 0.3), (4096, 0.5), (10**9, 0.01)):
            assert concentration_tail(dr, eps) == pytest.approx(
                mp_concentration_tail(dr, eps), rel=1e-12)

    def test_theorem0_rhs_frozen_values(self):
        strong, weak = theorem0_rhs(2, 4, 1.0)
        assert strong == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert theorem0_rhs(2, 2, 1.0)[0] == pytest.approx(1.0, rel=1e-14)
        assert theorem0_rhs(2, 1024, 1.0)[1] == pytest.approx(0.04419417382415922,
                                                              rel=1e-14)

    def test_theorem0_rhs_against_high_precision(self):
        for ds, dr, dv in ((2, 64, 0.5), (3, 1000, 1.0), (2, 7, 0.9)):
            assert theorem0_rhs(ds, dr, dv)[0] == pytest.approx(
                mp_theorem0_strong(ds, dr, dv), rel=1e-12)

    def test_theorem0_rhs_rejects_bad_delta(self):
        with pytest.raises(ValidationError):
            theorem0_rhs(2, 4, 0.2)

    def test_epsilon_prime_frozen_values(self):
        assert epsilon_prime(0.0, 2, 1024, 1.0) == pytest.approx(8.143632454972153,
                                                                 rel=1e-13)
        assert epsilon_prime(0.01, 2, 10**12, 1.0) == pytest.approx(
            0.010202960742495984, rel=1e-13)

    def test_epsilon_prime_against_high_precision(self):
        for eps, ds, dr, p in ((0.0, 2, 1024, 1.0), (0.05, 2, 10**6, 0.5),
                               (0.1, 4, 12345, 0.01)):
            assert epsilon_prime(eps, ds, dr, p) == pytest.approx(
                mp_epsilon_prime(eps, ds, dr, p), rel=1e-12)

    def test_epsilon_prime_zero_measure_diverges(self):
        assert epsilon_prime(0.05, 2, 64, 0.0) == math.inf

    def test_epsilon_prime_monotone_in_dimension(self):
        grid = [2, 8, 64, 512, 4096, 10**6, 10**9, 10**12]
        values = [epsilon_prime(0.05, 2, dr, 1.0) for dr in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_epsilon_prime_monotone_in_epsilon_and_measure(self):
        eps_values = [epsilon_prime(e, 2, 64, 0.5) for e in (0.0, 0.1, 0.2, 0.5)]
        assert all(a < b for a, b in zip(eps_values, eps_values[1:]))
        p_values = [epsilon_prime(0.1, 2, 64, p) for p in (0.1, 0.5, 1.0)]
        assert all(a > b for a, b in zip(p_values, p_values[1:]))

    def test_popescu_report_frozen_bounds(self):
        report = popescu_report(SpaceLayout(2, 512), 0.1, n_samples=2, seed=0)
        assert report.parameters["distance_threshold"] == pytest.approx(0.1625, rel=1e-14)
        assert report.rhs == pytest.approx(1.9817363617038426, rel=1e-13)

    def test_popescu_report_tail_shrinks_with_epsilon(self):
        tails = [popescu_report(SpaceLayout(2, 4096), e, n_samples=2, seed=0).rhs
                 for e in (0.1, 0.3, 0.5, 1.0)]
        assert all(a > b for a, b in zip(tails, tails[1:]))


class TestTheorem0Sampling:
    def test_single_state_subspace_has_zero_spread(self):
        layout, spectral, reductions, rng = _random_problem(2, 4, 3)
        vectors = expand_sectors(spectral, layout)
        column = vectors @ random_state(8, rng)
        projection = DenseProjection(column.conj()[None, :] @ vectors)
        report = theorem0_reports(projection, spectral, reductions,
                                  0.05, n_samples=16, seed=5)[0]
        assert report.lhs < 1e-12

    def test_commuting_subspace_mean_respects_bound(self):
        spec, spectral, reductions, rng = _commuting_problem(64, 7)
        psi = PureState(np.array([1.0, 1.0]) / math.sqrt(2), space="system")
        projection = subspace_projection(spectral, spec.layout, psi)
        report = theorem0_reports(
            projection, spectral, reductions, 0.05, n_samples=400, seed=11)[0]
        strong, _ = theorem0_rhs(2, 64, 1.0)
        assert report.lhs <= strong + 3.0 * report.parameters["lhs_standard_error"]

    def test_random_model_full_space_mean_respects_bound(self):
        layout, spectral, reductions, rng = _random_problem(2, 16, 13)
        projection = subspace_projection(spectral, layout)
        from isibench import delta as delta_fn
        delta_value = delta_fn(reductions, projection)
        strong, _ = theorem0_rhs(2, 32, delta_value)
        report = theorem0_reports(
            projection, spectral, reductions, 0.05, n_samples=400, seed=17)[0]
        assert report.lhs <= strong + 3.0 * report.parameters["lhs_standard_error"]

    def test_tail_frequency_zero_beyond_range(self):
        layout, spectral, reductions, _ = _random_problem(2, 8, 19)
        report = theorem0_reports(
            subspace_projection(spectral, layout), spectral, reductions, epsilon=2.0,
            n_samples=64, seed=23)[1]
        assert report.lhs == 0.0
        assert report.rhs == pytest.approx(concentration_tail(16, 2.0))

    def test_tail_respects_nonvacuous_bound(self):
        layout, spectral, reductions, _ = _random_problem(2, 128, 29)
        report = theorem0_reports(
            subspace_projection(spectral, layout), spectral, reductions, epsilon=1.5,
            n_samples=200, seed=31)[1]
        assert report.rhs < 1.0
        assert report.lhs <= report.rhs


class TestNecessaryCondition:
    def test_all_mixed_reductions_give_zero(self):
        assert necessary_condition_lhs(_mixed_reductions()) == 0.0

    def test_aligned_reductions_give_one(self):
        _, reductions = _aligned_reductions()
        assert necessary_condition_lhs(reductions) == pytest.approx(1.0, abs=1e-12)

    def test_commuting_model_exceeds_one_third(self):
        spec, spectral, reductions, _ = _commuting_problem(64, 37)
        assert necessary_condition_lhs(reductions) >= 1.0 / 3.0 - 1e-10

    def test_qubit_value_is_gram_top_eigenvalue(self):
        spec, spectral, reductions, _ = _commuting_problem(16, 41)
        gram = reductions.bloch.T @ reductions.bloch / reductions.dim
        assert necessary_condition_lhs(reductions) == pytest.approx(
            float(np.linalg.eigvalsh(gram)[-1]), abs=1e-14)

    def test_search_path_on_flat_qutrit_reductions(self):
        mats = np.broadcast_to(np.eye(3, dtype=complex) / 3, (6, 3, 3)).copy()
        reductions = EigenstateReductions(matrices=mats)
        assert reductions.layout == SpaceLayout(3, 2)
        assert necessary_condition_lhs(reductions, n_starts=4, seed=1) < 1e-12

    def test_search_path_finds_dephasing_supremum(self):
        # computational-basis eigenvectors: the bath average dephases psi, and
        # sup_psi ||diag(|psi|^2) - I/3||_1 = 4/3, attained at a basis state
        layout = SpaceLayout(3, 2)
        spectral = SpectralData(np.arange(6.0), np.eye(6, dtype=complex)[None])
        reductions = EigenstateReductions(spectral.reductions(layout))
        value = necessary_condition_lhs(reductions, n_starts=16, seed=3)
        assert value <= 4.0 / 3.0 + 1e-9
        assert value >= 4.0 / 3.0 - 1e-3

    @pytest.mark.parametrize("ds, db, seed", [(3, 8, 5), (3, 32, 7), (4, 8, 11), (4, 16, 13)])
    def test_search_matches_the_coordinate_ascent_oracle(self, ds, db, seed):
        layout, spectral, reductions, _ = _random_problem(ds, db, seed)
        value = necessary_condition_lhs(reductions, n_starts=8, seed=seed)
        oracle = necessary_lhs_coordinate_ascent(reductions.matrices, db, 8, seed)
        assert value >= oracle - 1e-12 * max(1.0, abs(oracle))
        assert abs(value - oracle) <= 1e-10

    @pytest.mark.parametrize("n_starts", [1, 8, 64])
    @pytest.mark.parametrize("ds, db, seed", [(3, 16, 71), (4, 8, 73), (6, 4, 79)])
    def test_batched_search_matches_the_per_start_loop(self, ds, db, seed, n_starts):
        layout, spectral, reductions, _ = _random_problem(ds, db, seed)
        value = necessary_condition_lhs(reductions, n_starts=n_starts, seed=seed)
        oracle = necessary_lhs_alternating(reductions.matrices, db, n_starts, seed)
        assert abs(value - oracle) <= 1e-12 * max(1.0, abs(oracle))


class TestTheorem2:
    def test_commuting_model_mean_squared_polarization_is_one(self):
        spec, spectral, reductions, _ = _commuting_problem(64, 43)
        lhs_i, lhs_ii = theorem2_lhs(reductions)
        assert lhs_ii == pytest.approx(1.0, abs=1e-10)
        assert 1.0 / math.sqrt(3.0) - 1e-10 <= lhs_i <= 1.0 + 1e-10

    def test_mixed_reductions_give_zero(self):
        assert theorem2_lhs(_mixed_reductions()) == (0.0, 0.0)

    def test_axis_pairs_hit_isotropic_values(self):
        lhs_i, lhs_ii = theorem2_lhs(_axis_pair_reductions())
        assert lhs_i == pytest.approx(math.sqrt(3.0) / 3.0, rel=1e-14)
        assert lhs_ii == pytest.approx(1.0, rel=1e-14)

    def test_chain_of_estimates(self):
        for seed in (47, 53):
            spec, spectral, reductions, _ = _commuting_problem(32, seed)
            lhs_i, lhs_ii = theorem2_lhs(reductions)
            necessary = necessary_condition_lhs(reductions)
            assert necessary >= lhs_i / math.sqrt(3.0) - 1e-10
            assert lhs_i >= lhs_ii / math.sqrt(3.0) - 1e-10
        layout, spectral, reductions, _ = _random_problem(2, 32, 59)
        lhs_i, lhs_ii = theorem2_lhs(reductions)
        necessary = necessary_condition_lhs(reductions)
        assert necessary >= lhs_i / math.sqrt(3.0) - 1e-10
        assert lhs_i >= lhs_ii / math.sqrt(3.0) - 1e-10

    def test_alignment_inequality_on_random_polarization_sets(self):
        rng = np.random.default_rng(61)
        for _ in range(1000):
            d = int(rng.integers(2, 65))
            raw = rng.standard_normal((d, 3))
            radii = rng.uniform(size=d) ** (1.0 / 3.0)
            points = raw / np.linalg.norm(raw, axis=1, keepdims=True) * radii[:, None]
            gram = points.T @ points
            top = float(np.linalg.eigvalsh(gram)[-1])
            assert top - math.sqrt(float(np.trace(gram @ gram)) / 3.0) >= -1e-10
            assert math.sqrt(float(np.trace(gram @ gram))) \
                - float(np.trace(gram)) / math.sqrt(3.0) >= -1e-10


class TestPopescuSampling:
    def test_tail_frequency_stays_under_bound(self):
        layout = SpaceLayout(2, 16)
        report = popescu_report(layout, epsilon=0.5, n_samples=400, seed=67)
        assert report.rhs == concentration_tail(16, 0.5)
        assert report.lhs <= report.rhs
        assert report.lhs < 0.05

    def test_estimates_are_reproducible(self):
        layout = SpaceLayout(2, 8)
        first = popescu_report(layout, epsilon=0.3, n_samples=200, seed=71)
        second = popescu_report(layout, epsilon=0.3, n_samples=200, seed=71)
        assert first.lhs == second.lhs


# (dS, dB, subspace): the qubit subspaces take the Bloch-vector distances,
# the dS = 3 full space the batched eigvalsh.
_BATCHED_CASES = [(2, 16, "product_bath"), (2, 16, "bath_prefix:5"), (3, 8, "full")]
_EPSILON = 0.02


def _batched_problem(ds, db, subspace):
    """(layout, spectral, reductions, projection) and the kron basis of the subspace."""
    layout, spectral, reductions, rng = _random_problem(ds, db, 41)
    psi = None if subspace == "full" else random_state(ds, rng)
    prefix = 5 if subspace.startswith("bath_prefix") else None
    state = None if psi is None else PureState(psi, space="system")
    projection = subspace_projection(spectral, layout, state, prefix)
    return (layout, spectral, reductions, projection), kron_basis(layout.dim_total, psi,
                                                                  prefix)


def _batched_estimates(layout, spectral, reductions, projection):
    """(lhs, standard error) of the T0i, T0ii and Popescu reports."""
    reports = (*theorem0_reports(projection, spectral, reductions, _EPSILON, 60, 3),
               popescu_report(layout, _EPSILON, 60, 7))
    return [(r.lhs, r.parameters["lhs_standard_error"]) for r in reports]


class TestBatchedEstimates:
    @pytest.mark.parametrize("ds, db, subspace", _BATCHED_CASES)
    def test_reports_match_the_per_sample_oracle(self, ds, db, subspace):
        problem, columns = _batched_problem(ds, db, subspace)
        estimates = _batched_estimates(*problem)

        spectral = problem[1]
        vectors = expand_sectors(spectral, SpaceLayout(ds, db)).T
        rhos = eigenstate_reductions_loop(vectors.T, ds, db)
        dim_r = columns.shape[1]
        weights = [np.linalg.norm(columns.conj().T @ v) ** 2 / dim_r for v in vectors]
        average = sum(w * rho for w, rho in zip(weights, rhos))
        delta_value = sum(w * np.trace(rho @ rho).real for w, rho in zip(weights, rhos))

        if subspace == "full":
            # the whole space draws the Dirichlet populations of the eigenbasis
            draw = dirichlet_vector(dim_r)

            def equilibrium(populations):
                return sum(p * rho for p, rho in zip(populations, rhos))
        else:
            draw = haar_vector(dim_r)

            def equilibrium(vec):
                column = columns @ vec
                return sum(abs(np.vdot(v, column)) ** 2 * rho
                           for v, rho in zip(vectors, rhos))

        t0_threshold = math.sqrt(ds * delta_value / dim_r) + _EPSILON
        expected = [
            naive_distance_estimate(equilibrium, average, draw, 60, 3),
            naive_distance_estimate(equilibrium, average, draw, 60, 3, t0_threshold),
            naive_distance_estimate(lambda rho: rho, np.eye(ds) / ds, induced_state(ds, db),
                                    60, 7, math.sqrt(ds / db) + _EPSILON)]
        for (mean, se), (ref_mean, ref_se) in zip(estimates, expected):
            assert mean == pytest.approx(ref_mean, rel=1e-12, abs=0.0)
            assert se == pytest.approx(ref_se, rel=1e-12, abs=0.0)
        # No draw reaches the T0ii threshold of these models, but Popescu's
        # frequency lies strictly inside (0, 1), so draws fall on both sides.
        assert 0.0 < expected[2][0] < 1.0

    @pytest.mark.parametrize("ds, db, subspace", _BATCHED_CASES)
    def test_chunking_leaves_the_estimates_bit_identical(self, monkeypatch, ds, db,
                                                         subspace):
        problem, _ = _batched_problem(ds, db, subspace)
        whole = _batched_estimates(*problem)
        monkeypatch.setattr(sampling, "MONTE_CARLO_ELEMENT_CAP", 1)
        assert _batched_estimates(*problem) == whole


class TestVerdictPolicy:
    def test_max_lhs_values(self):
        assert THEOREMS["T0i"].max_lhs({}) == 2.0
        assert THEOREMS["T0ii"].max_lhs({}) == 1.0
        assert THEOREMS["T2i"].max_lhs({}) == 1.0
        assert THEOREMS["SufficientISI"].max_lhs({}) == 1.0
        assert THEOREMS["T1"].max_lhs({"dS": 2}) == 1.0
        assert THEOREMS["T1prime"].max_lhs({"dS": 3}) == pytest.approx(4.0 / 3.0)
        with pytest.raises(ValidationError, match="unknown theorem id 'T9'"):
            assign_verdict("T9", 0.0, 0.0, {})

    def test_vacuous_takes_precedence(self):
        verdict = assign_verdict("T2ii", 0.9, 1.0, {})
        assert verdict == "vacuous"

    @pytest.mark.parametrize("key", ["verdict_boundary", "lhs_standard_error"])
    def test_a_vacuous_bound_still_reads_the_noise_parameters(self, key):
        with pytest.raises(ValueError):
            assign_verdict("T2ii", 0.9, 1.0, {key: "abc"})

    def test_indeterminate_inside_sampling_noise(self):
        params = {"lhs_standard_error": 0.05}
        assert assign_verdict("T0ii", 0.5, 0.58, params) == "indeterminate"
        assert assign_verdict("T0ii", 0.72, 0.5, params) == "violated"
        assert assign_verdict("T0ii", 0.3, 0.72, params) == "satisfied"

    def test_boundary_window(self):
        assert assign_verdict("SufficientISI", 0.1 + 5e-10, 0.1, {}) == "indeterminate"
        assert assign_verdict("SufficientISI", 0.1 + 5e-9, 0.1, {}) == "violated"

    def test_a_recorded_boundary_still_decides_a_loaded_report(self):
        # reports written while the boundary was a config key record it
        text = json.dumps({"schema_version": 1, "theorem_id": "SufficientISI", "lhs": 1.0,
                           "rhs": 0.9, "verdict": "indeterminate",
                           "parameters": {"delta": 1.0, "threshold": 0.9,
                                          "verdict_boundary": 0.5}})
        report = TheoremReport.from_json(text)
        assert report.verdict == "indeterminate"
        assert assign_verdict("SufficientISI", 1.0, 0.9, {}) == "violated"

    def test_recompute_rhs_covers_every_theorem(self):
        cases = {
            "SufficientISI": ({"threshold": 0.1}, 0.1),
            "T0i": ({"dS": 2, "dR": 4, "delta": 1.0}, math.sqrt(0.5)),
            "T0ii": ({"dR": 256, "epsilon": 0.3}, 1.9191170615338322),
            "T1": ({"epsilon": 0.0, "dS": 2, "dR": 1024, "p": 1.0},
                   8.143632454972153),
            "T2i": ({"epsilon": 0.05, "dS": 2, "dR": 64, "p": 1.0},
                    math.sqrt(3.0) * 0.05),
            "T2ii": ({"epsilon": 0.05, "dS": 2, "dR": 64, "p": 1.0}, 3.0 * 0.05),
            "Popescu": ({"dB": 512, "epsilon": 0.1}, 1.9817363617038426),
        }
        for theorem_id, (params, expected) in cases.items():
            assert recompute_rhs(theorem_id, params) == pytest.approx(expected,
                                                                      rel=1e-12)

    def test_recompute_rhs_names_missing_parameter(self):
        with pytest.raises(ValidationError, match="epsilon"):
            recompute_rhs("T0ii", {"dR": 16})


class TestSufficientConditionReport:
    def test_boundary_delta_is_indeterminate(self):
        report = sufficient_condition_report(0.01)
        assert report.lhs == pytest.approx(0.1, rel=1e-14)
        assert report.verdict == "indeterminate"

    def test_small_delta_satisfied(self):
        report = sufficient_condition_report(0.0025)
        assert report.lhs == pytest.approx(0.05, rel=1e-14)
        assert report.verdict == "satisfied"

    def test_saturated_delta_violated(self):
        report = sufficient_condition_report(1.0)
        assert report.lhs == pytest.approx(1.0, rel=1e-14)
        assert report.verdict == "violated"

    def test_qubit_floor_is_always_violated(self):
        report = sufficient_condition_report(0.5)
        assert report.lhs == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert report.verdict == "violated"

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValidationError):
            sufficient_condition_report(0.0)


class TestReports:
    def test_theorem2_reports_on_commuting_model(self):
        spec, spectral, reductions, _ = _commuting_problem(64, 83)
        r2i, r2ii = theorem2_reports(reductions, epsilon=0.05, dim_restricted=64)
        assert r2ii.lhs == pytest.approx(1.0, abs=1e-10)
        assert r2ii.rhs == pytest.approx(0.15, rel=1e-14)
        assert r2ii.verdict == "violated"
        assert r2i.verdict == "violated"
        assert "bound_mode" not in r2ii.parameters
        assert r2ii.parameters["epsilon_prime"] == pytest.approx(
            epsilon_prime(0.05, 2, 64, 1.0), rel=1e-13)

    def test_necessary_report_with_zero_measure_is_vacuous(self):
        spec, spectral, reductions, _ = _commuting_problem(8, 97)
        report = necessary_condition_reports(reductions, epsilon=0.05, dim_restricted=8,
                                             p=0.0)[0]
        assert report.rhs == math.inf
        assert report.verdict == "vacuous"

    @pytest.mark.parametrize("dim_restricted", [0, 9, 10**23])
    def test_restricted_dimension_outside_the_bath_is_refused(self, dim_restricted):
        """dR counts bath dimensions, 1 <= dR <= dB = 8: T1 with T1prime and
        the T2 pair refuse any other, and record none."""
        _, _, reductions, _ = _commuting_problem(8, 97)
        message = re.escape(f"dR must lie in [1, dB = 8], got {dim_restricted}")
        with pytest.raises(ValidationError, match=message):
            necessary_condition_reports(reductions, 0.05, dim_restricted, 1.0)
        with pytest.raises(ValidationError, match=message):
            theorem2_reports(reductions, 0.05, dim_restricted)

    def test_necessary_report_round_trips_infinity(self, tmp_path):
        spec, spectral, reductions, _ = _commuting_problem(8, 101)
        report = necessary_condition_reports(reductions, epsilon=0.05, dim_restricted=8,
                                             p=0.0)[0]
        path = tmp_path / "report_T1.json"
        write_report(path, report)
        back = read_report(path)
        assert back == report

    def test_report_recording_a_stream_count_still_loads(self, tmp_path):
        # reports written while estimates could split over streams record
        # "n_streams"; the audit reads it as one more parameter
        layout, spectral, reductions, _ = _random_problem(2, 8, 107)
        report = theorem0_reports(
            subspace_projection(spectral, layout), spectral, reductions, 0.05,
            n_samples=20, seed=7)[0]
        assert "n_streams" not in report.parameters
        payload = json.loads(report.to_json())
        payload["parameters"]["n_streams"] = 1
        path = tmp_path / "report_T0i.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        back = read_report(path)
        assert back.parameters == {**report.parameters, "n_streams": 1}
        assert (back.lhs, back.rhs, back.verdict) == (report.lhs, report.rhs,
                                                      report.verdict)

    def test_mean_report_parameters_reproduce_rhs(self):
        layout, spectral, reductions, _ = _random_problem(2, 16, 103)
        report = theorem0_reports(
            subspace_projection(spectral, layout), spectral, reductions, 0.05,
            n_samples=100, seed=7)[0]
        assert report.theorem_id == "T0i"
        assert recompute_rhs("T0i", report.parameters) == pytest.approx(report.rhs,
                                                                        rel=1e-12)
        assert report.parameters["n_samples"] == 100
        assert "lhs_standard_error" in report.parameters

    def test_tail_report_is_vacuous_at_small_dimension(self):
        layout, spectral, reductions, _ = _random_problem(2, 8, 107)
        report = theorem0_reports(
            subspace_projection(spectral, layout), spectral, reductions, epsilon=0.1,
            n_samples=64, seed=9)[1]
        assert report.verdict == "vacuous"
        assert report.rhs > 1.0

    def test_popescu_report_honest_about_vacuity(self):
        report = popescu_report(SpaceLayout(2, 8), epsilon=0.3, n_samples=100,
                                seed=11)
        assert report.verdict == "vacuous"

    def test_json_round_trip_and_file_io(self, tmp_path):
        spec, spectral, reductions, _ = _commuting_problem(32, 109)
        _, report = theorem2_reports(reductions, epsilon=0.05, dim_restricted=32)
        recovered = TheoremReport.from_json(report.to_json())
        assert recovered == report
        path = tmp_path / "report_T2ii.json"
        write_report(path, report)
        assert read_report(path) == report

    def test_tampered_rhs_is_rejected(self):
        spec, spectral, reductions, _ = _commuting_problem(16, 113)
        _, report = theorem2_reports(reductions, epsilon=0.05, dim_restricted=16)
        payload = json.loads(report.to_json())
        payload["rhs"] = payload["rhs"] * 2.0
        with pytest.raises(ValidationError, match="not reproducible"):
            TheoremReport.from_json(json.dumps(payload))

    def test_formula_mode_t2_report_no_longer_reproduces(self, tmp_path):
        # A T2 report that compared against 3 epsilon' instead of 3 epsilon.
        spec, spectral, reductions, _ = _commuting_problem(16, 89)
        _, report = theorem2_reports(reductions, epsilon=0.05, dim_restricted=16)
        payload = json.loads(report.to_json())
        payload["parameters"]["bound_mode"] = "formula"
        payload["rhs"] = 3.0 * epsilon_prime(0.05, 2, 16, 1.0)
        payload["verdict"] = "vacuous"
        path = tmp_path / "report_T2ii.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="not reproducible"):
            read_report(path)

    def test_tampered_verdict_is_rejected(self):
        spec, spectral, reductions, _ = _commuting_problem(16, 127)
        _, report = theorem2_reports(reductions, epsilon=0.05, dim_restricted=16)
        payload = json.loads(report.to_json())
        payload["verdict"] = "satisfied"
        with pytest.raises(ValidationError, match="contradicts the policy"):
            TheoremReport.from_json(json.dumps(payload))

    def test_unsupported_schema_version_is_rejected(self):
        spec, spectral, reductions, _ = _commuting_problem(16, 131)
        _, report = theorem2_reports(reductions, epsilon=0.05, dim_restricted=16)
        payload = json.loads(report.to_json())
        payload["schema_version"] = 2
        with pytest.raises(ValidationError, match="unsupported schema version 2"):
            TheoremReport.from_json(json.dumps(payload))

    @pytest.mark.parametrize("field, value, message", [
        ("schema_version", "x", "unsupported schema version 'x'"),
        ("schema_version", None, "unsupported schema version None"),
        ("schema_version", True, "unsupported schema version True"),
        ("lhs", "abc", "lhs must be finite, got 'abc'"),
        ("lhs", None, "lhs must be finite, got None"),
        ("parameters", [], "parameters must be a mapping"),
        ("parameters", None, "parameters must be a mapping"),
        ("dS", "abc", "malformed parameter"),
        ("dR", "inf", "malformed parameter"),
    ])
    def test_malformed_field_is_a_validation_error(self, field, value, message):
        _, _, reductions, _ = _commuting_problem(16, 137)
        report = necessary_condition_reports(reductions, epsilon=0.05, dim_restricted=16,
                                             p=1.0)[0]
        payload = json.loads(report.to_json())
        if field in payload:
            payload[field] = value
        else:
            payload["parameters"][field] = value
        with pytest.raises(ValidationError, match=re.escape(message)):
            TheoremReport.from_json(json.dumps(payload))

    def test_numpy_parameters_become_plain_scalars(self):
        parameters = {"epsilon": np.float64(0.05), "dS": np.int64(2), "dR": np.int32(8),
                      "p": 1.0, "lhs_is_lower_bound": True, "note": "x"}
        report = TheoremReport("T1", np.float64(0.5), parameters)
        assert report.parameters == {"epsilon": 0.05, "dS": 2, "dR": 8, "p": 1.0,
                                     "lhs_is_lower_bound": True, "note": "x"}
        assert [type(value) for value in report.parameters.values()] == \
            [float, int, int, float, bool, str]
        assert report.to_json() == TheoremReport(
            "T1", 0.5, {"epsilon": 0.05, "dS": 2, "dR": 8, "p": 1.0,
                        "lhs_is_lower_bound": True, "note": "x"}).to_json()
        for bad in (np.bool_(True), np.array([1.0]), None):
            with pytest.raises(ValidationError, match="not a scalar"):
                TheoremReport("T1", 0.5, {**parameters, "extra": bad})

    def test_bound_and_verdict_are_derived_on_construction(self):
        report = TheoremReport("T2ii", 1.0, {"epsilon": 0.05})
        assert (report.rhs, report.verdict) == (3.0 * 0.05, "violated")
        assert TheoremReport("T1", 0.5, {"epsilon": 0.05, "dS": 2, "dR": 8,
                                         "p": 0.0}).rhs == math.inf

    def test_missing_parameter_is_named(self):
        with pytest.raises(ValidationError, match="'epsilon'"):
            TheoremReport("T0ii", 0.0, {"dR": 64})

    def test_unknown_theorem_id_rejected(self):
        with pytest.raises(ValidationError):
            TheoremReport("T3", 0.0, {})

    def test_theorem_id_registry(self):
        assert THEOREM_IDS == ("SufficientISI", "T0i", "T0ii", "T1", "T1prime",
                               "T2i", "T2ii", "Popescu")
