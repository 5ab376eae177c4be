import math
import re

import numpy as np
import pytest

from isibench import (CapExceededError, CompositeHamiltonian, EigenstateReductions,
                      PureState, SpaceLayout, ValidationError, eigendecompose,
                      evolve_reduced, purities, stratified_times,
                      time_averaged_state, trace_distance, tensor_product,
                      write_trajectory_csv)
from isibench.hilbert import SIGMA_Z, batched_bloch_vectors, batched_trace_distances
from isibench import spectral as spectral_module
from isibench.models import analytic_eigensystem, sample_commuting_spec
from isibench.spectral import STACK_ELEMENT_CAP

from _oracles import (expand_sectors, expm_propagate, finite_time_average,
                      ptrace_bath_loop, random_hermitian, random_state, reduced_state_loop)


def _evolution_problem(ds, db, seed):
    rng = np.random.default_rng(seed)
    layout = SpaceLayout(ds, db)
    ham = random_hermitian(layout.dim_total, rng)
    spectral = eigendecompose(ham)
    state = PureState(random_state(layout.dim_total, rng), space="composite")
    coeffs = spectral.coefficients(state, layout)
    return ham, layout, spectral, state, coeffs, rng


def _equilibration_metric(coeffs, spectral, layout, horizon, n_times, rng):
    """Mean trace distance to the infinite-time average on a stratified grid,
    computed as the dynamics stage does."""
    reductions = EigenstateReductions(spectral.reductions(layout))
    equilibrium = time_averaged_state(coeffs, reductions, spectral)
    times = stratified_times(horizon, n_times, rng)
    states = evolve_reduced(coeffs, spectral, layout, times)
    return float(batched_trace_distances(states, equilibrium).mean())


def _window_average(coeffs, spectral, layout, horizon):
    """The oracle's closed-form average of the reduced state over [0, horizon]."""
    return finite_time_average(coeffs, spectral.eigenvalues,
                               expand_sectors(spectral, layout), layout.dim_system,
                               layout.dim_bath, horizon)


class TestEvolveReduced:
    def test_time_zero_returns_initial_reduction(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 4, 3)
        states = evolve_reduced(coeffs, spectral, layout, np.array([0.0]))
        expected = ptrace_bath_loop(np.outer(state.amplitudes, state.amplitudes.conj()),
                                    layout.dim_system, layout.dim_bath)
        assert np.abs(states[0] - expected).max() < 1e-12

    def test_matches_eigenbasis_loop_oracle(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 4, 5)
        times = np.array([0.3, 1.7, 4.1])
        states = evolve_reduced(coeffs, spectral, layout, times)
        for k, t in enumerate(times):
            expected = reduced_state_loop(coeffs, spectral.eigenvalues,
                                          expand_sectors(spectral, layout), 2, 4, t)
            assert np.abs(states[k] - expected).max() < 1e-12

    def test_matches_expm_oracle(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 3, 7)
        t = 2.31
        states = evolve_reduced(coeffs, spectral, layout, np.array([t]))
        evolved = expm_propagate(ham, state.amplitudes, t)
        expected = ptrace_bath_loop(np.outer(evolved, evolved.conj()), 2, 3)
        assert np.abs(states[0] - expected).max() < 1e-10

    def test_trace_and_hermiticity_along_trajectory(self):
        ham, layout, spectral, state, coeffs, rng = _evolution_problem(2, 8, 11)
        times = stratified_times(50.0, 64, rng)
        states = evolve_reduced(coeffs, spectral, layout, times)
        traces = np.einsum("tii->t", states)
        assert np.abs(traces - 1.0).max() < 1e-12
        herm = np.abs(states - states.conj().transpose(0, 2, 1))
        assert herm.max() < 1e-12

    def test_uncoupled_qubit_precesses_about_z(self):
        omega = 1.3
        ham = CompositeHamiltonian(0.5 * omega * SIGMA_Z, np.zeros((1, 1)), np.zeros((2, 2)))
        spectral = eigendecompose(ham)
        psi = PureState(np.array([1.0, 1.0]) / math.sqrt(2), space="system")
        phi = PureState(np.array([1.0]), space="bath")
        coeffs = spectral.coefficients(tensor_product(psi, phi), ham.layout)
        times = np.linspace(0.0, 10.0, 40)
        bloch = batched_bloch_vectors(evolve_reduced(coeffs, spectral, ham.layout, times))
        assert np.abs(bloch[:, 2]).max() < 1e-12
        assert np.abs(bloch[:, 0] - np.cos(omega * times)).max() < 1e-10
        assert np.abs(bloch[:, 1] - np.sin(omega * times)).max() < 1e-10

    def test_commuting_model_purity_dips_and_revisits(self):
        rng = np.random.default_rng(13)
        spec = sample_commuting_spec(16, 1.0, 1.0, 1.0, rng)
        spectral = analytic_eigensystem(spec)
        psi = PureState(np.array([1.0, 1.0]) / math.sqrt(2), space="system")
        phi = PureState(random_state(16, rng), space="bath")
        coeffs = spectral.coefficients(tensor_product(psi, phi), spec.layout)
        times = np.linspace(0.0, 200.0, 400)
        states = evolve_reduced(coeffs, spectral, spec.layout, times)
        values = purities(states)
        assert values[0] == pytest.approx(1.0, abs=1e-10)
        assert values.min() < 0.9
        assert values[1:].max() > values.min() + 0.05

    @staticmethod
    def _commuting_problem(dim_bath, n_times):
        rng = np.random.default_rng(23)
        spec = sample_commuting_spec(dim_bath, 1.0, 1.0, 1.0, rng)
        spectral = analytic_eigensystem(spec)
        psi = PureState(np.array([1.0, 1.0]) / math.sqrt(2), space="system")
        phi = PureState(random_state(dim_bath, rng), space="bath")
        coeffs = spectral.coefficients(tensor_product(psi, phi), spec.layout)
        return coeffs, spectral, spec.layout, stratified_times(50.0, n_times, rng)

    # 300 times make blocks of 128, 128 and 44 rows at F = 512 Bohr
    # frequencies; F = 70,000 puts one time in each block
    @pytest.mark.parametrize("dim_bath, n_times", [(512, 300), (70_000, 7)])
    def test_every_worker_count_gives_the_same_bytes(self, monkeypatch, dim_bath, n_times):
        problem = self._commuting_problem(dim_bath, n_times)
        states = []  # kept, so that no result reuses the memory of another
        for workers in (1, 2, 3, n_times + 1):  # the last exceeds the blocks
            monkeypatch.setattr(spectral_module, "_evolution_threads", workers)
            states.append(evolve_reduced(*problem))
        assert [s.tobytes() for s in states[1:]] == [states[0].tobytes()] * 3

    def test_a_helper_threads_error_reaches_the_caller(self, monkeypatch):
        # of two blocks of 128 times, only the helper's second one overflows,
        # and the caller's errstate holds in the helper
        coeffs, spectral, layout, times = self._commuting_problem(512, 256)
        times[128:] = 1e308
        monkeypatch.setattr(spectral_module, "_evolution_threads", 2)
        states = None
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            states = evolve_reduced(coeffs, spectral, layout, times)
        assert states is None

    def test_element_cap(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(3, 4, 17)
        with pytest.raises(CapExceededError):
            evolve_reduced(coeffs, spectral, layout, np.zeros(STACK_ELEMENT_CAP // 9 + 1))

    def test_times_that_overflow_the_phases_are_refused(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 4, 19)
        assert not math.isfinite(spectral.spectral_norm * 1e308)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValidationError, match="trajectory states"):
            evolve_reduced(coeffs, spectral, layout, np.array([0.0, 1e308]))

    def test_the_states_are_a_read_only_array(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 4, 83)
        states = evolve_reduced(coeffs, spectral, layout, np.array([0.0, 1.5]))
        assert type(states) is np.ndarray and states.shape == (2, 2, 2)
        assert not states.flags.writeable

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_grid_that_is_not_finite_is_refused_before_any_evolution(self, monkeypatch,
                                                                        bad):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 4, 89)

        def evolved(*args):
            raise AssertionError("the grid was evolved")

        monkeypatch.setattr(spectral_module.SpectralData, "evolved_reductions", evolved)
        with pytest.raises(ValidationError, match="finite vector"):
            evolve_reduced(coeffs, spectral, layout, np.array([0.0, bad]))


@pytest.mark.parametrize("stage", ["time_averaged_state", "evolve_reduced"])
@pytest.mark.parametrize("bad", ["norm", "row", "short"])
def test_overlaps_that_are_no_unit_vector_are_refused(stage, bad):
    _, layout, spectral, _, coeffs, _ = _evolution_problem(2, 4, 41)
    given = {"norm": 1.01 * coeffs, "row": coeffs[None],
             "short": coeffs[1:] / np.linalg.norm(coeffs[1:])}[bad]
    reductions = EigenstateReductions(spectral.reductions(layout))
    with pytest.raises(ValidationError):
        if stage == "time_averaged_state":
            time_averaged_state(given, reductions, spectral)
        else:
            evolve_reduced(given, spectral, layout, np.array([0.0, 1.5]))


class TestStratifiedTimes:
    def test_one_point_per_stratum(self):
        rng = np.random.default_rng(19)
        times = stratified_times(10.0, 20, rng)
        assert times.shape == (20,)
        strata = np.floor(times / 0.5).astype(int)
        assert np.array_equal(strata, np.arange(20))

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValidationError):
            stratified_times(0.0, 4, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            stratified_times(math.inf, 4, np.random.default_rng(0))


class TestEquilibrationMetric:
    def test_zero_for_an_energy_eigenstate(self):
        ham, layout, spectral, _, _, rng = _evolution_problem(2, 4, 23)
        coeffs = spectral.coefficients(PureState(expand_sectors(spectral, layout)[:, 2],
                                                 space="composite"), layout)
        value = _equilibration_metric(coeffs, spectral, layout, horizon=25.0,
                                      n_times=64, rng=rng)
        assert value < 1e-12

    def test_positive_and_small_for_generic_state(self):
        ham, layout, spectral, state, coeffs, rng = _evolution_problem(2, 16, 29)
        value = _equilibration_metric(coeffs, spectral, layout,
                                      horizon=2000.0 / np.diff(spectral.eigenvalues).min(),
                                      n_times=400, rng=rng)
        assert 0.0 < value < 0.5

    def test_matches_direct_computation(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 4, 31)
        reductions = EigenstateReductions(spectral.reductions(layout))
        horizon, n_times = 40.0, 32
        value = _equilibration_metric(coeffs, spectral, layout, horizon=horizon,
                                      n_times=n_times, rng=np.random.default_rng(5))
        equilibrium = time_averaged_state(coeffs, reductions, spectral)
        times = stratified_times(horizon, n_times, np.random.default_rng(5))
        states = evolve_reduced(coeffs, spectral, layout, times)
        distances = [trace_distance(states[k], equilibrium)
                     for k in range(n_times)]
        assert value == pytest.approx(np.mean(distances), abs=1e-12)


class TestFiniteTimeAverage:
    def test_trajectory_mean(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 4, 37)
        times = np.linspace(0.0, 30.0, 16)
        states = evolve_reduced(coeffs, spectral, layout, times)
        rho = np.mean([reduced_state_loop(coeffs, spectral.eigenvalues,
                                          expand_sectors(spectral, layout), 2, 4, t)
                       for t in times], axis=0)
        assert np.abs(rho - states.mean(axis=0)).max() < 1e-14

    def test_eigenstate_average_is_stationary(self):
        ham, layout, spectral, _, _, _ = _evolution_problem(2, 4, 41)
        k = 3
        coeffs = spectral.coefficients(PureState(expand_sectors(spectral, layout)[:, k],
                                                 space="composite"), layout)
        reductions = EigenstateReductions(spectral.reductions(layout))
        rho = _window_average(coeffs, spectral, layout, horizon=7.7)
        assert np.abs(rho - reductions.matrices[k]).max() < 1e-12

    def test_kernel_path_matches_dense_time_sampling(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 6, 43)
        horizon = 35.0
        closed = _window_average(coeffs, spectral, layout, horizon=horizon)
        times = np.linspace(0.0, horizon, 20001)
        states = evolve_reduced(coeffs, spectral, layout, times)
        from scipy.integrate import simpson
        sampled = simpson(states, x=times, axis=0) / horizon
        assert np.abs(closed - sampled).max() < 1e-6

    def test_long_horizon_approaches_infinite_time_average(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 2, 47)
        reductions = EigenstateReductions(spectral.reductions(layout))
        equilibrium = time_averaged_state(coeffs, reductions, spectral)
        horizon = 1e4 / np.diff(spectral.eigenvalues).min()
        rho = _window_average(coeffs, spectral, layout, horizon=horizon)
        assert trace_distance(rho, equilibrium) < 5e-3

    def test_residual_decays_like_one_over_horizon(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 4, 53)
        reductions = EigenstateReductions(spectral.reductions(layout))
        equilibrium = time_averaged_state(coeffs, reductions, spectral)
        horizons = np.array([1e2, 1e3, 1e4, 1e5]) / np.diff(spectral.eigenvalues).min()
        residuals = [trace_distance(_window_average(coeffs, spectral, layout, horizon=h),
                                    equilibrium)
                     for h in horizons]
        slope = np.polyfit(np.log(horizons), np.log(residuals), 1)[0]
        assert abs(slope + 1.0) < 0.2

    def test_sampled_path_agrees_with_kernel_at_scale(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 8, 59)
        horizon = 200.0
        closed = _window_average(coeffs, spectral, layout, horizon=horizon)
        times = stratified_times(horizon, 40000, np.random.default_rng(61))
        sampled = evolve_reduced(coeffs, spectral, layout, times).mean(axis=0)
        assert trace_distance(closed, sampled) < 5e-3

    def test_evolution_cap_names_the_largest_n_times(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 4, 67)
        with pytest.raises(CapExceededError, match="n_times") as caught:
            evolve_reduced(coeffs, spectral, layout,
                           np.zeros(STACK_ELEMENT_CAP // 4 + 1))
        largest = int(re.search(r"dynamics\.n_times to at most (\d+)",
                                str(caught.value)).group(1))
        # the trajectory holds n_times * dS^2 = 4 n_times entries, whatever d is
        assert 4 * largest <= STACK_ELEMENT_CAP < 4 * (largest + 1)

    def test_evolution_needs_a_time_vector(self):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 2, 71)
        with pytest.raises(ValidationError):
            evolve_reduced(coeffs, spectral, layout, np.array([[0.0, 1.0]]))


class TestTrajectoryCsv:
    def test_qubit_columns_and_values(self, tmp_path):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(2, 3, 73)
        times = np.array([0.0, 0.5, 1.0])
        states = evolve_reduced(coeffs, spectral, layout, times)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, times, states)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema_version 1"
        assert lines[1] == "t,purity,p_x,p_y,p_z"
        assert len(lines) == 2 + 3
        row = lines[3].split(",")
        assert float(row[0]) == 0.5
        assert float(row[1]) == pytest.approx(purities(states)[1])

    def test_qutrit_drops_bloch_columns(self, tmp_path):
        ham, layout, spectral, state, coeffs, _ = _evolution_problem(3, 2, 79)
        times = np.array([0.0])
        states = evolve_reduced(coeffs, spectral, layout, times)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, times, states)
        assert path.read_text().splitlines()[1] == "t,purity"
        with pytest.raises(ValidationError, match=r"\(n, 2, 2\) stack"):
            batched_bloch_vectors(states)

