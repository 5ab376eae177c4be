import math

import numpy as np
import pytest

from isibench import (DegenerateSpectrumError, DensityMatrix, PureState,
                      SpaceLayout, ValidationError, assemble, batched_monte_carlo,
                      delta, eigendecompose, eigenstate_reductions, haar_amplitudes,
                      overlaps,
                      sample_commuting_spec, subspace_projection, time_averaged_state,
                      trace_distance, write_reductions_csv)
from isibench.equilibrium import EigenstateReductions, weighted_reduction
from isibench.models import analytic_eigensystem
from isibench.spectral import DenseProjection, SpectralData

from _oracles import (bath_averaged_equilibrium, expand_sectors, kron_projection,
                      maximally_mixed, projection_matrix, ptrace_bath_loop, random_hermitian,
                      random_state, subspace_averaged_equilibrium)


def _random_problem(ds, db, seed):
    rng = np.random.default_rng(seed)
    layout = SpaceLayout(ds, db)
    ham = random_hermitian(layout.dim_total, rng)
    spectral = eigendecompose(ham)
    return layout, spectral, eigenstate_reductions(spectral, layout), rng


def _product_equilibria(psi, spectral, reductions):
    """The batched functional mapping (dB, count) bath states phi to the
    (count, dS, dS) equilibrium states of psi (x) phi."""
    def values(phis):
        columns = np.kron(psi.amplitudes[:, None], phis)
        vectors = expand_sectors(spectral, reductions.layout)
        populations = np.abs(vectors.conj().T @ columns) ** 2
        return weighted_reduction(populations.T, reductions)
    return values


class TestOverlaps:
    def test_single_eigenvector(self):
        layout, spectral, _, _ = _random_problem(2, 4, 3)
        state = PureState(expand_sectors(spectral, layout)[:, 3], space="composite")
        pops = overlaps(spectral, state, layout).populations
        assert pops[3] == pytest.approx(1.0, abs=1e-12)
        assert pops.sum() == pytest.approx(1.0, abs=1e-12)

    def test_equal_superposition_of_two(self):
        layout, spectral, _, _ = _random_problem(2, 4, 5)
        vectors = expand_sectors(spectral, layout)
        vec = (vectors[:, 1] + vectors[:, 2]) / math.sqrt(2)
        pops = overlaps(spectral, PureState(vec, space="composite"), layout).populations
        assert pops[1] == pytest.approx(0.5, abs=1e-12)
        assert pops[2] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_factor_space_state(self):
        layout, spectral, _, _ = _random_problem(2, 2, 7)
        with pytest.raises(ValidationError):
            overlaps(spectral, PureState(np.array([1.0, 0.0]), space="system"), layout)


class TestEigenstateReductions:
    def test_trivial_bath_gives_system_projectors(self):
        rng = np.random.default_rng(11)
        hs = random_hermitian(2, rng)
        ham = assemble(hs, np.zeros((1, 1)), None)
        reductions = eigenstate_reductions(eigendecompose(ham), ham.layout)
        system = eigendecompose(hs)
        for n in range(2):
            v = expand_sectors(system, SpaceLayout(2, 1))[:, n]
            assert np.abs(reductions.matrices[n] - np.outer(v, v.conj())).max() < 1e-12

    def test_matches_loop_oracle(self):
        layout, spectral, reductions, _ = _random_problem(3, 4, 13)
        for n in range(layout.dim_total):
            v = expand_sectors(spectral, layout)[:, n]
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

    def test_layout_is_read_from_the_stack(self):
        layout, spectral, reductions, _ = _random_problem(3, 4, 29)
        assert reductions.layout == layout

    @pytest.mark.parametrize("shape", [(6, 2, 3), (5, 2, 2), (4, 2), (4, 0, 0), (0, 2, 2)])
    def test_stack_of_another_form_is_refused(self, shape):
        # (n, k, k) with k dividing n and n >= k >= 2: dS = k, dB = n / k
        mats = np.zeros(shape, dtype=complex)
        with pytest.raises(ValidationError):
            EigenstateReductions(mats)


class TestTimeAveragedState:
    def test_eigenvector_input_returns_its_reduction(self):
        layout, spectral, reductions, _ = _random_problem(2, 6, 29)
        k = 5
        coeffs = overlaps(spectral, PureState(expand_sectors(spectral, layout)[:, k],
                                              space="composite"), layout)
        rho = time_averaged_state(coeffs, reductions, spectral)
        assert trace_distance(rho, DensityMatrix(reductions.matrices[k],
                                                 space="system")) < 1e-12

    def test_uniform_coefficients_give_maximally_mixed(self):
        layout, spectral, reductions, _ = _random_problem(2, 8, 31)
        d = layout.dim_total
        vec = expand_sectors(spectral, layout).sum(axis=1) / math.sqrt(d)
        coeffs = overlaps(spectral, PureState(vec, space="composite"), layout)
        rho = time_averaged_state(coeffs, reductions, spectral)
        assert trace_distance(rho, maximally_mixed(2)) < 1e-10

    def test_degenerate_spectrum_is_refused_with_level_pairs(self):
        layout = SpaceLayout(2, 2)
        spectral = SpectralData(np.array([1.0, 1.0, 2.0, 3.0]),
                                np.eye(4, dtype=complex)[None])
        reductions = eigenstate_reductions(spectral, layout)
        state = PureState(random_state(4, np.random.default_rng(37)), space="composite")
        coeffs = overlaps(spectral, state, layout)
        with pytest.raises(DegenerateSpectrumError, match=r"\(0, 1\)"):
            time_averaged_state(coeffs, reductions, spectral)

    def test_degenerate_block_average_matches_surviving_terms(self):
        # exact degeneracy in the computational basis: the infinite-time
        # average keeps exactly the terms with equal energies, and the
        # off-diagonal survivor (0,1) here has orthogonal bath factors,
        # so the block result is the diagonal of the populations
        layout = SpaceLayout(2, 2)
        spectral = SpectralData(np.array([1.0, 1.0, 2.0, 3.0]),
                                np.eye(4, dtype=complex)[None])
        reductions = eigenstate_reductions(spectral, layout)
        amps = random_state(4, np.random.default_rng(41))
        coeffs = overlaps(spectral, PureState(amps, space="composite"), layout)
        rho = time_averaged_state(coeffs, reductions, spectral, allow_degenerate=True)
        pops = np.abs(amps) ** 2
        expected = np.diag([pops[0] + pops[1], pops[2] + pops[3]])
        assert np.abs(rho.matrix - expected).max() < 1e-12

    def test_allow_degenerate_is_inert_on_clean_spectra(self):
        layout, spectral, reductions, rng = _random_problem(2, 4, 43)
        state = PureState(random_state(8, rng), space="composite")
        coeffs = overlaps(spectral, state, layout)
        plain = time_averaged_state(coeffs, reductions, spectral)
        tolerant = time_averaged_state(coeffs, reductions, spectral,
                                       allow_degenerate=True)
        assert np.array_equal(plain.matrix, tolerant.matrix)


class TestSubspaceProjection:
    @pytest.mark.parametrize("subspace", ["full", "product_bath", "bath_prefix:3"])
    @pytest.mark.parametrize("ds", [2, 3, 4])
    def test_matches_the_kron_oracle(self, ds, subspace):
        layout, spectral, _, rng = _random_problem(ds, 6, 151 + ds)
        # the qubit takes the bundled configs' plus state, larger systems a
        # random complex one
        psi = np.array([1.0, 1.0]) / math.sqrt(2) if ds == 2 else random_state(ds, rng)
        prefix = 3 if subspace.startswith("bath_prefix") else None
        if subspace == "full":
            # grouped in the eigenbasis B = V, where W = V^H V, kept as |W|
            projection = projection_matrix(subspace_projection(spectral, layout),
                                           layout.dim_total)
            vectors = expand_sectors(spectral, layout)
            expected = np.abs(vectors.conj().T @ vectors)
        else:
            projection = projection_matrix(
                subspace_projection(spectral, layout, PureState(psi, space="system"),
                                    prefix), layout.dim_total)
            expected = kron_projection(expand_sectors(spectral, layout), psi, prefix)
        assert projection.shape == expected.shape
        assert np.abs(projection - expected).max() <= 1e-14

    def test_rejects_a_bad_factor_or_prefix(self):
        layout, spectral, _, _ = _random_problem(2, 4, 157)
        qutrit = PureState(np.array([1.0, 0.0, 0.0]), space="system")
        plus = PureState(np.array([1.0, 1.0]) / math.sqrt(2), space="system")
        with pytest.raises(ValidationError):
            subspace_projection(spectral, layout, qutrit)
        for prefix in (0, 5):
            with pytest.raises(ValidationError):
                subspace_projection(spectral, layout, plus, prefix)


class TestDelta:
    def test_single_state_subspace_gives_that_purity(self):
        layout, spectral, reductions, _ = _random_problem(2, 6, 47)
        k = 2
        vectors = expand_sectors(spectral, layout)
        value = delta(reductions, DenseProjection(vectors[:, k].conj()[None, :] @ vectors))
        assert value == pytest.approx(reductions.purities[k], abs=1e-12)

    def test_full_space_averages_purities(self):
        layout, spectral, reductions, _ = _random_problem(2, 6, 53)
        value = delta(reductions, subspace_projection(spectral, layout))
        assert value == pytest.approx(reductions.purities.mean(), abs=1e-12)

    def test_lower_bound_attained_by_mixed_reductions(self):
        # hand-built reductions that are all I/2: delta hits its floor 1/dS
        layout = SpaceLayout(2, 2)
        spectral = SpectralData(np.array([0.0, 1.0, 2.0, 4.0]),
                                np.eye(4, dtype=complex)[None])
        mats = np.broadcast_to(np.eye(2, dtype=complex) / 2, (4, 2, 2)).copy()
        reductions = EigenstateReductions(matrices=mats)
        projection = subspace_projection(spectral, layout)
        assert delta(reductions, projection) == pytest.approx(0.5, abs=1e-15)

    def test_commuting_model_saturates_upper_bound(self):
        rng = np.random.default_rng(59)
        spec = sample_commuting_spec(16, 1.0, 1.0, 1.0, rng)
        spectral = analytic_eigensystem(spec)
        reductions = eigenstate_reductions(spectral, spec.layout)
        psi = PureState(np.array([1.0, 1.0]) / math.sqrt(2), space="system")
        projection = subspace_projection(spectral, spec.layout, psi)
        assert delta(reductions, projection) == pytest.approx(1.0, abs=1e-10)

    def test_range_on_random_draws(self):
        for seed in (61, 67, 71):
            layout, spectral, reductions, rng = _random_problem(2, 8, seed)
            psi = PureState(random_state(2, rng), space="system")
            value = delta(reductions, subspace_projection(spectral, layout, psi))
            assert 0.5 - 1e-12 <= value <= 1.0 + 1e-12

    def test_weights_are_a_distribution(self):
        layout, spectral, _, rng = _random_problem(2, 8, 73)
        psi = PureState(random_state(2, rng), space="system")
        w = subspace_projection(spectral, layout, psi, 3).weights
        assert np.all(w >= -1e-15)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)


class TestBathAveragedEquilibrium:
    def test_trivial_bath_dephases_the_system_state(self):
        rng = np.random.default_rng(79)
        hs = random_hermitian(2, rng)
        ham = assemble(hs, np.zeros((1, 1)), None)
        reductions = eigenstate_reductions(eigendecompose(ham), ham.layout)
        psi = PureState(random_state(2, rng), space="system")
        rho = bath_averaged_equilibrium(psi.amplitudes, reductions.matrices, 1)
        system = eigendecompose(hs)
        expected = np.zeros((2, 2), dtype=complex)
        for n in range(2):
            v = expand_sectors(system, SpaceLayout(2, 1))[:, n]
            expected += abs(v.conj() @ psi.amplitudes) ** 2 * np.outer(v, v.conj())
        assert np.abs(rho - expected).max() < 1e-12

    def test_agrees_with_product_subspace_average(self):
        layout, spectral, reductions, rng = _random_problem(2, 8, 83)
        psi = PureState(random_state(2, rng), space="system")
        closed = bath_averaged_equilibrium(psi.amplitudes, reductions.matrices,
                                           layout.dim_bath)
        via_weights = subspace_averaged_equilibrium(subspace_projection(spectral, layout, psi),
                                                    reductions.matrices)
        assert np.abs(closed - via_weights).max() < 1e-12

    def test_system_basis_average_recovers_maximally_mixed(self):
        layout, spectral, reductions, _ = _random_problem(2, 8, 89)
        accum = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            accum += bath_averaged_equilibrium(e, reductions.matrices, layout.dim_bath)
        assert np.abs(accum / 2 - np.eye(2) / 2).max() < 1e-10

    def test_monte_carlo_over_bath_states_matches_closed_form(self):
        layout, spectral, reductions, rng = _random_problem(2, 8, 97)
        psi = PureState(random_state(2, rng), space="system")

        est = batched_monte_carlo(_product_equilibria(psi, spectral, reductions),
                                  draw=haar_amplitudes(8), width=16, n_samples=4000,
                                  seed=101)
        closed = bath_averaged_equilibrium(psi.amplitudes, reductions.matrices, 8)
        gap = np.abs(est.mean - closed)
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
        per_level = np.abs(lifted.conj() @ expand_sectors(spectral, layout)) ** 2
        assert np.abs(per_level.sum(axis=0) - quad).max() < 1e-12

    def test_monte_carlo_error_decays_as_root_n(self):
        layout, spectral, reductions, rng = _random_problem(2, 8, 107)
        psi = PureState(random_state(2, rng), space="system")
        closed = bath_averaged_equilibrium(psi.amplitudes, reductions.matrices, 8)
        functional = _product_equilibria(psi, spectral, reductions)

        sizes = (256, 2048, 16384)
        mean_errors = []
        for size in sizes:
            errors = [
                trace_distance(
                    batched_monte_carlo(functional, draw=haar_amplitudes(8), width=16,
                                        n_samples=size, seed=1000 * size + rep).mean,
                    closed)
                for rep in range(6)
            ]
            mean_errors.append(np.mean(errors))
        slope = np.polyfit(np.log(sizes), np.log(mean_errors), 1)[0]
        assert abs(slope + 0.5) < 0.12


class TestFullAverage:
    def test_full_average_is_maximally_mixed(self):
        # completeness of the eigenbasis makes the full-space average I/dS
        layout, spectral, reductions, _ = _random_problem(3, 5, 131)
        rho = subspace_averaged_equilibrium(subspace_projection(spectral, layout),
                                            reductions.matrices)
        assert np.abs(rho - np.eye(3) / 3).max() < 1e-12

    def test_full_subspace_average_matches(self):
        layout, spectral, reductions, _ = _random_problem(2, 8, 137)
        rho = subspace_averaged_equilibrium(subspace_projection(spectral, layout),
                                            reductions.matrices)
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
