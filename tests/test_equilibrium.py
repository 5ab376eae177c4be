import math

import numpy as np
import pytest

from isibench import (DegenerateSpectrumError, DensityMatrix, PureState,
                      SpaceLayout, SubspaceBasis, ValidationError, assemble,
                      bath_averaged_equilibrium, bath_prefix_basis, delta,
                      eigendecompose, eigenstate_reductions, full_basis,
                      maximally_mixed, monte_carlo_average, overlaps, product_subspace,
                      sample_commuting_spec,
                      sample_uniform_state, subspace_averaged_equilibrium,
                      subspace_weights, time_averaged_state, trace_distance,
                      write_reductions_csv)
from isibench.models import analytic_eigensystem, build_commuting_model
from isibench.spectral import SpectralData

from _oracles import ptrace_bath_loop, random_hermitian, random_state


def _random_problem(ds, db, seed):
    rng = np.random.default_rng(seed)
    layout = SpaceLayout(ds, db)
    ham = random_hermitian(layout.dim_total, rng)
    spectral = eigendecompose(ham)
    return layout, spectral, eigenstate_reductions(spectral, layout), rng


class TestOverlaps:
    def test_single_eigenvector(self):
        layout, spectral, _, _ = _random_problem(2, 4, 3)
        state = PureState(spectral.eigenvectors[:, 3], space="composite")
        pops = overlaps(spectral, state).populations
        assert pops[3] == pytest.approx(1.0, abs=1e-12)
        assert pops.sum() == pytest.approx(1.0, abs=1e-12)

    def test_equal_superposition_of_two(self):
        layout, spectral, _, _ = _random_problem(2, 4, 5)
        vec = (spectral.eigenvectors[:, 1] + spectral.eigenvectors[:, 2]) / math.sqrt(2)
        pops = overlaps(spectral, PureState(vec, space="composite")).populations
        assert pops[1] == pytest.approx(0.5, abs=1e-12)
        assert pops[2] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_factor_space_state(self):
        layout, spectral, _, _ = _random_problem(2, 2, 7)
        with pytest.raises(ValidationError):
            overlaps(spectral, PureState(np.array([1.0, 0.0]), space="system"))


class TestEigenstateReductions:
    def test_trivial_bath_gives_system_projectors(self):
        rng = np.random.default_rng(11)
        hs = random_hermitian(2, rng)
        ham = assemble(hs, np.zeros((1, 1)), None)
        reductions = eigenstate_reductions(eigendecompose(ham), ham.layout)
        system = eigendecompose(hs)
        for n in range(2):
            v = system.eigenvectors[:, n]
            assert np.abs(reductions.matrices[n] - np.outer(v, v.conj())).max() < 1e-12

    def test_matches_loop_oracle(self):
        layout, spectral, reductions, _ = _random_problem(3, 4, 13)
        for n in range(layout.dim_total):
            v = spectral.eigenvectors[:, n]
            expected = ptrace_bath_loop(np.outer(v, v.conj()), 3, 4)
            assert np.abs(reductions.matrices[n] - expected).max() < 1e-12

    def test_completeness(self):
        layout, spectral, reductions, _ = _random_problem(2, 8, 17)
        mean = reductions.matrices.mean(axis=0)
        assert np.abs(mean - np.eye(2) / 2).max() < 1e-10

    def test_commuting_model_reductions_are_pure_unit_bloch(self):
        rng = np.random.default_rng(19)
        spec = sample_commuting_spec(32, 1.0, 1.0, 1.0, rng)
        reductions = eigenstate_reductions(analytic_eigensystem(spec), spec.layout)
        assert np.abs(reductions.purities - 1.0).max() < 1e-10
        radii = np.linalg.norm(reductions.bloch, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-10
        assert reductions.mean_squared_polarization == pytest.approx(1.0, abs=1e-10)

    def test_mean_squared_polarization_needs_qubit(self):
        layout, spectral, reductions, _ = _random_problem(3, 2, 23)
        with pytest.raises(ValidationError):
            reductions.mean_squared_polarization


class TestTimeAveragedState:
    def test_eigenvector_input_returns_its_reduction(self):
        layout, spectral, reductions, _ = _random_problem(2, 6, 29)
        k = 5
        coeffs = overlaps(spectral, PureState(spectral.eigenvectors[:, k],
                                              space="composite"))
        rho = time_averaged_state(coeffs, reductions, spectral)
        assert trace_distance(rho, DensityMatrix(reductions.matrices[k],
                                                 space="system")) < 1e-12

    def test_uniform_coefficients_give_maximally_mixed(self):
        layout, spectral, reductions, _ = _random_problem(2, 8, 31)
        d = layout.dim_total
        vec = spectral.eigenvectors.sum(axis=1) / math.sqrt(d)
        coeffs = overlaps(spectral, PureState(vec, space="composite"))
        rho = time_averaged_state(coeffs, reductions, spectral)
        assert trace_distance(rho, maximally_mixed(2)) < 1e-10

    def test_degenerate_spectrum_is_refused_with_level_pairs(self):
        layout = SpaceLayout(2, 2)
        spectral = SpectralData(np.array([1.0, 1.0, 2.0, 3.0]),
                                np.eye(4, dtype=complex), min_level_spacing=0.0)
        reductions = eigenstate_reductions(spectral, layout)
        state = PureState(random_state(4, np.random.default_rng(37)), space="composite")
        coeffs = overlaps(spectral, state)
        with pytest.raises(DegenerateSpectrumError, match=r"\(0, 1\)"):
            time_averaged_state(coeffs, reductions, spectral)

    def test_degenerate_block_average_matches_surviving_terms(self):
        # exact degeneracy in the computational basis: the infinite-time
        # average keeps exactly the terms with equal energies, and the
        # off-diagonal survivor (0,1) here has orthogonal bath factors,
        # so the block result is the diagonal of the populations
        layout = SpaceLayout(2, 2)
        spectral = SpectralData(np.array([1.0, 1.0, 2.0, 3.0]),
                                np.eye(4, dtype=complex), min_level_spacing=0.0)
        reductions = eigenstate_reductions(spectral, layout)
        amps = random_state(4, np.random.default_rng(41))
        coeffs = overlaps(spectral, PureState(amps, space="composite"))
        rho = time_averaged_state(coeffs, reductions, spectral, allow_degenerate=True)
        pops = np.abs(amps) ** 2
        expected = np.diag([pops[0] + pops[1], pops[2] + pops[3]])
        assert np.abs(rho.matrix - expected).max() < 1e-12

    def test_allow_degenerate_is_inert_on_clean_spectra(self):
        layout, spectral, reductions, rng = _random_problem(2, 4, 43)
        state = PureState(random_state(8, rng), space="composite")
        coeffs = overlaps(spectral, state)
        plain = time_averaged_state(coeffs, reductions, spectral)
        tolerant = time_averaged_state(coeffs, reductions, spectral,
                                       allow_degenerate=True)
        assert np.array_equal(plain.matrix, tolerant.matrix)


class TestDelta:
    def test_single_state_subspace_gives_that_purity(self):
        layout, spectral, reductions, _ = _random_problem(2, 6, 47)
        k = 2
        basis = SubspaceBasis(spectral.eigenvectors[:, k].reshape(-1, 1))
        value = delta(reductions, basis, spectral)
        assert value == pytest.approx(reductions.purities[k], abs=1e-12)

    def test_full_space_averages_purities(self):
        layout, spectral, reductions, _ = _random_problem(2, 6, 53)
        value = delta(reductions, full_basis(12), spectral)
        assert value == pytest.approx(reductions.purities.mean(), abs=1e-12)

    def test_lower_bound_attained_by_mixed_reductions(self):
        # hand-built reductions that are all I/2: delta hits its floor 1/dS
        layout = SpaceLayout(2, 2)
        spectral = SpectralData(np.array([0.0, 1.0, 2.0, 4.0]),
                                np.eye(4, dtype=complex), min_level_spacing=1.0)
        from isibench.equilibrium import EigenstateReductions
        mats = np.broadcast_to(np.eye(2, dtype=complex) / 2, (4, 2, 2)).copy()
        reductions = EigenstateReductions(matrices=mats,
                                          purities=np.full(4, 0.5),
                                          bloch=np.zeros((4, 3)), layout=layout)
        assert delta(reductions, full_basis(4), spectral) == pytest.approx(0.5, abs=1e-15)

    def test_commuting_model_saturates_upper_bound(self):
        rng = np.random.default_rng(59)
        spec = sample_commuting_spec(16, 1.0, 1.0, 1.0, rng)
        spectral = analytic_eigensystem(spec)
        reductions = eigenstate_reductions(spectral, spec.layout)
        psi = PureState(np.array([1.0, 1.0]) / math.sqrt(2), space="system")
        basis = product_subspace(psi, None, spec.layout)
        assert delta(reductions, basis, spectral) == pytest.approx(1.0, abs=1e-10)

    def test_range_on_random_draws(self):
        for seed in (61, 67, 71):
            layout, spectral, reductions, rng = _random_problem(2, 8, seed)
            psi = PureState(random_state(2, rng), space="system")
            basis = product_subspace(psi, None, layout)
            value = delta(reductions, basis, spectral)
            assert 0.5 - 1e-12 <= value <= 1.0 + 1e-12

    def test_weights_are_a_distribution(self):
        layout, spectral, _, rng = _random_problem(2, 8, 73)
        psi = PureState(random_state(2, rng), space="system")
        w = subspace_weights(spectral,
                             product_subspace(psi, bath_prefix_basis(layout, 3), layout))
        assert np.all(w >= -1e-15)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)


class TestBathAveragedEquilibrium:
    def test_trivial_bath_dephases_the_system_state(self):
        rng = np.random.default_rng(79)
        hs = random_hermitian(2, rng)
        ham = assemble(hs, np.zeros((1, 1)), None)
        reductions = eigenstate_reductions(eigendecompose(ham), ham.layout)
        psi = PureState(random_state(2, rng), space="system")
        rho = bath_averaged_equilibrium(psi, reductions)
        system = eigendecompose(hs)
        expected = np.zeros((2, 2), dtype=complex)
        for n in range(2):
            v = system.eigenvectors[:, n]
            expected += abs(v.conj() @ psi.amplitudes) ** 2 * np.outer(v, v.conj())
        assert np.abs(rho.matrix - expected).max() < 1e-12

    def test_agrees_with_product_subspace_average(self):
        layout, spectral, reductions, rng = _random_problem(2, 8, 83)
        psi = PureState(random_state(2, rng), space="system")
        closed = bath_averaged_equilibrium(psi, reductions)
        via_weights = subspace_averaged_equilibrium(product_subspace(psi, None, layout),
                                                    reductions, spectral)
        assert np.abs(closed.matrix - via_weights.matrix).max() < 1e-12

    def test_system_basis_average_recovers_maximally_mixed(self):
        layout, spectral, reductions, _ = _random_problem(2, 8, 89)
        accum = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            accum += bath_averaged_equilibrium(PureState(e, space="system"),
                                               reductions).matrix
        assert np.abs(accum / 2 - np.eye(2) / 2).max() < 1e-10

    def test_monte_carlo_over_bath_states_matches_closed_form(self):
        layout, spectral, reductions, rng = _random_problem(2, 8, 97)
        psi = PureState(random_state(2, rng), space="system")
        sub = product_subspace(psi, None, layout)

        def functional(state):
            coeffs = overlaps(spectral, state)
            return time_averaged_state(coeffs, reductions, spectral).matrix

        est = monte_carlo_average(functional,
                                  lambda gen: sample_uniform_state(sub, gen),
                                  n_samples=4000, seed=101, n_streams=2)
        closed = bath_averaged_equilibrium(psi, reductions)
        gap = np.abs(est.mean - closed.matrix)
        assert np.all(gap <= 3.0 * est.standard_error + 1e-12)

    def test_product_overlap_identity(self):
        # summing |<n|psi x phi_l>|^2 over any orthonormal bath basis gives
        # the quadratic form <psi|rho_n|psi>, the bridge between subspace
        # weights and the closed-form bath average
        layout, spectral, reductions, rng = _random_problem(2, 6, 103)
        psi = PureState(random_state(2, rng), space="system")
        raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        unitary, _ = np.linalg.qr(raw)
        lifted = np.stack([np.kron(psi.amplitudes, unitary[:, l]) for l in range(6)])
        quad = np.einsum("i,nij,j->n", psi.amplitudes.conj(), reductions.matrices,
                         psi.amplitudes).real
        per_level = np.abs(lifted.conj() @ spectral.eigenvectors) ** 2
        assert np.abs(per_level.sum(axis=0) - quad).max() < 1e-12

    def test_monte_carlo_error_decays_as_root_n(self):
        layout, spectral, reductions, rng = _random_problem(2, 8, 107)
        psi = PureState(random_state(2, rng), space="system")
        sub = product_subspace(psi, None, layout)
        closed = bath_averaged_equilibrium(psi, reductions)

        def functional(state):
            coeffs = overlaps(spectral, state)
            return time_averaged_state(coeffs, reductions, spectral).matrix

        sizes = (256, 2048, 16384)
        mean_errors = []
        for size in sizes:
            errors = [
                trace_distance(
                    monte_carlo_average(functional,
                                        lambda gen: sample_uniform_state(sub, gen),
                                        n_samples=size, seed=1000 * size + rep).mean,
                    closed.matrix)
                for rep in range(6)
            ]
            mean_errors.append(np.mean(errors))
        slope = np.polyfit(np.log(sizes), np.log(mean_errors), 1)[0]
        assert abs(slope + 0.5) < 0.12


class TestFullAverage:
    def test_full_average_is_maximally_mixed(self):
        # completeness of the eigenbasis makes the full-space average I/dS
        _, spectral, reductions, _ = _random_problem(3, 5, 131)
        rho = subspace_averaged_equilibrium(full_basis(15), reductions, spectral)
        assert np.abs(rho.matrix - np.eye(3) / 3).max() < 1e-12

    def test_full_subspace_average_matches(self):
        layout, spectral, reductions, _ = _random_problem(2, 8, 137)
        rho = subspace_averaged_equilibrium(full_basis(16), reductions, spectral)
        assert trace_distance(rho, maximally_mixed(layout.dim_system)) < 1e-10


class TestReductionsCsv:
    def test_format_and_round_trip(self, tmp_path):
        layout, spectral, reductions, _ = _random_problem(2, 4, 139)
        path = tmp_path / "reductions.csv"
        write_reductions_csv(path, spectral, reductions)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema_version 1"
        assert lines[1] == "n,energy,purity,p_x,p_y,p_z"
        assert len(lines) == 2 + 8
        first = lines[2].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == spectral.eigenvalues[0]
        assert float(first[2]) == reductions.purities[0]

    def test_no_bloch_columns_above_qubit(self, tmp_path):
        layout, spectral, reductions, _ = _random_problem(3, 3, 149)
        path = tmp_path / "reductions.csv"
        write_reductions_csv(path, spectral, reductions)
        assert path.read_text().splitlines()[1] == "n,energy,purity"
