import math

import numpy as np
import pytest

from isibench import (CommutingModelSpec, ValidationError, analytic_eigensystem,
                      bit_signs, build_cucchietti_bath, build_random_model,
                      commuting_norms, degenerate_level_pairs, eigendecompose,
                      gaussian_hermitian, purities, sample_commuting_spec,
                      sample_cucchietti_spec)
from isibench.hilbert import SIGMA_X, SIGMA_Z

from _oracles import (batched_partial_trace_bath, build_commuting_model, expand_sectors,
                      part_norms)


def _spec(level_splitting, couplings, bath_energies):
    return CommutingModelSpec(level_splitting=level_splitting,
                              couplings=np.asarray(couplings, dtype=float),
                              bath_energies=np.asarray(bath_energies, dtype=float))


class TestCommutingSpec:
    def test_rejects_purely_longitudinal_coupling(self):
        with pytest.raises(ValidationError, match="transverse"):
            _spec(1.0, [[0.0, 0.0, 1.0]], [0.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            _spec(1.0, [[1.0, 0.0, 0.0]], [0.0, 0.0])

    def test_layout(self):
        spec = _spec(1.0, [[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]], [0.0, 1.0])
        assert spec.dim_bath == 2
        assert spec.layout.dim_total == 4


class TestBuildCommuting:
    def test_single_level_bath(self):
        spec = _spec(1.0, [[1.0, 0.0, 0.0]], [0.0])
        ham = build_commuting_model(spec)
        assert np.abs(ham.total - 0.5 * (SIGMA_Z + SIGMA_X)).max() < 1e-15
        evals = eigendecompose(ham.total).eigenvalues
        root_half = math.sqrt(2.0) / 2.0
        assert np.allclose(evals, [-root_half, root_half])

    def test_bath_side_operators_commute_exactly(self):
        rng = np.random.default_rng(5)
        spec = sample_commuting_spec(8, 1.0, 1.0, 1.0, rng)
        diagonals = [np.diag(spec.couplings[:, a]) for a in range(3)]
        diagonals.append(np.diag(spec.bath_energies))
        for i, a in enumerate(diagonals):
            for b in diagonals[i + 1:]:
                assert np.abs(a @ b - b @ a).max() == 0.0

    def test_interaction_commutes_with_bath_part(self):
        rng = np.random.default_rng(7)
        spec = sample_commuting_spec(6, 1.0, 1.0, 1.0, rng)
        ham = build_commuting_model(spec)
        lifted_bath = np.kron(np.eye(2), ham.bath)
        commutator = ham.interaction @ lifted_bath - lifted_bath @ ham.interaction
        assert np.abs(commutator).max() == 0.0

    def test_interaction_does_not_commute_with_system_part(self):
        spec = _spec(1.0, [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]], [0.0, 0.3])
        ham = build_commuting_model(spec)
        lifted_system = np.kron(ham.system, np.eye(2))
        commutator = ham.interaction @ lifted_system - lifted_system @ ham.interaction
        assert np.abs(commutator).max() > 0.1


class TestCommutingNorms:
    @pytest.mark.parametrize("kind", ["commuting", "cucchietti"])
    def test_closed_forms_match_the_dense_parts(self, kind):
        rng = np.random.default_rng(23)
        for level_splitting in (1.0, -2.5, 0.0):
            if kind == "commuting":
                spec = sample_commuting_spec(12, level_splitting, 1.0, 1.0, rng)
            else:
                spec = sample_cucchietti_spec(4, level_splitting, 1.0, 1.0, rng)
            closed = commuting_norms(spec)
            dense = part_norms(build_commuting_model(spec))
            assert closed[4] == dense[4] == 0.0
            assert np.abs(np.subtract(closed, dense)).max() < 1e-12


class TestAnalyticEigensystem:
    def test_nearly_decoupled_limit(self):
        spec = _spec(1.0, [[1e-12, 0.0, 0.0]], [0.0])
        data = analytic_eigensystem(spec)
        vectors = expand_sectors(data, spec.layout)
        assert np.allclose(data.eigenvalues, [-0.5, 0.5], atol=1e-12)
        assert abs(abs(vectors[1, 0]) - 1.0) < 1e-10
        assert abs(abs(vectors[0, 1]) - 1.0) < 1e-10

    def test_shifted_single_level(self):
        spec = _spec(1.0, [[1.0, 0.0, 0.0]], [2.0])
        data = analytic_eigensystem(spec)
        assert np.allclose(data.eigenvalues,
                           [2.0 - math.sqrt(2.0) / 2.0, 2.0 + math.sqrt(2.0) / 2.0])

    def test_agrees_with_dense_path(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            spec = sample_commuting_spec(12, 1.0, 1.0, 1.0, rng)
            analytic = analytic_eigensystem(spec)
            dense = eigendecompose(build_commuting_model(spec).total)
            norm = dense.spectral_norm
            assert np.abs(analytic.eigenvalues - dense.eigenvalues).max() < 1e-10 * norm
            vectors = expand_sectors(analytic, spec.layout)
            dense_vectors = expand_sectors(dense, spec.layout)
            for n in range(analytic.dim):
                va = vectors[:, n]
                vd = dense_vectors[:, n]
                projector_gap = np.abs(np.outer(va, va.conj()) - np.outer(vd, vd.conj()))
                assert projector_gap.max() < 1e-8

    def test_eigenvectors_factor_into_products(self):
        rng = np.random.default_rng(13)
        spec = sample_commuting_spec(16, 1.0, 1.0, 1.0, rng)
        data = analytic_eigensystem(spec)
        vectors = expand_sectors(data, spec.layout)
        for n in range(data.dim):
            column = vectors[:, n].reshape(2, spec.dim_bath)
            populated = np.nonzero(np.abs(column).max(axis=0) > 1e-14)[0]
            assert populated.size == 1

    def test_every_eigenstate_reduction_is_pure(self):
        rng = np.random.default_rng(17)
        spec = sample_commuting_spec(16, 1.0, 1.0, 1.0, rng)
        data = analytic_eigensystem(spec)
        vectors = expand_sectors(data, spec.layout)
        for reduced in batched_partial_trace_bath(vectors, spec.layout):
            assert purities(reduced[None])[0] == pytest.approx(1.0, abs=1e-10)

    def test_min_level_spacing_field(self):
        # the printed spacing is the smallest gap inside a bath level, r_l
        rng = np.random.default_rng(19)
        spec = sample_commuting_spec(8, 1.0, 1.0, 1.0, rng)
        data = analytic_eigensystem(spec)
        w = spec.level_splitting
        vx, vy, vz = spec.couplings.T
        radius = np.sqrt((w + vz) ** 2 + vx**2 + vy**2)
        assert data.min_sector_spacing == pytest.approx(radius.min())


class TestCucchiettiBath:
    def test_bit_signs_single_spin(self):
        assert np.array_equal(bit_signs(1), [[1], [-1]])

    def test_bit_signs_two_spins_highest_bit_first(self):
        assert np.array_equal(bit_signs(2), [[1, 1], [1, -1], [-1, 1], [-1, -1]])

    def test_single_spin_bath(self):
        spec = build_cucchietti_bath(1, [1.0], [0.0], level_splitting=1.0)
        assert np.array_equal(spec.couplings, [[1.0, 0, 0], [-1.0, 0, 0]])
        assert np.array_equal(spec.bath_energies, [0.0, 0.0])

    def test_two_spin_couplings(self):
        spec = build_cucchietti_bath(2, [1.0, 2.0], [0.1, 0.2], level_splitting=1.0)
        assert np.array_equal(spec.couplings[:, 0], [3.0, -1.0, 1.0, -3.0])
        assert np.abs(spec.couplings[:, 1:]).max() == 0.0
        assert np.allclose(spec.bath_energies, [0.3, -0.1, 0.1, -0.3])

    def test_rejects_wrong_count(self):
        with pytest.raises(ValidationError):
            build_cucchietti_bath(2, [1.0], [0.0, 0.0], level_splitting=1.0)

    def test_sampled_spec_shape(self):
        rng = np.random.default_rng(23)
        spec = sample_cucchietti_spec(3, 1.0, 0.5, 0.25, rng)
        assert spec.dim_bath == 8
        assert np.abs(spec.couplings[:, 0]).max() <= 3 * 0.5
        assert np.abs(spec.bath_energies).max() <= 3 * 0.25


class TestRandomModel:
    def test_parts_are_hermitian_and_order_one(self):
        rng = np.random.default_rng(29)
        mat = gaussian_hermitian(64, rng)
        assert np.array_equal(mat, mat.conj().T)
        norm = np.abs(np.linalg.eigvalsh(mat)).max()
        assert 1.5 < norm < 2.5

    @pytest.mark.parametrize("dim", [64, 300])
    def test_in_place_draw_has_the_bits_of_the_one_shot_expression(self, dim):
        """300 ends in a partial block of rows."""
        rng = np.random.default_rng(61)
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        one_shot = (raw + raw.conj().T) / (2.0 * np.sqrt(dim))
        mat = gaussian_hermitian(dim, np.random.default_rng(61))
        assert mat.tobytes() == one_shot.tobytes()

    def test_parts_have_the_bits_of_the_one_shot_expressions(self):
        rng = np.random.default_rng(67)
        ds, db, strength = 3, 100, 0.7
        dim = ds * db
        expected = [gaussian_hermitian(ds, rng) * np.sqrt(ds / dim),
                    gaussian_hermitian(db, rng) * np.sqrt(db / dim),
                    strength * gaussian_hermitian(dim, rng)]
        ham = build_random_model(ds, db, strength, np.random.default_rng(67))
        for part, value in zip((ham.system, ham.bath, ham.interaction), expected):
            assert part.tobytes() == value.tobytes()

    def test_interaction_scales_linearly(self):
        builds = [build_random_model(2, 8, s, np.random.default_rng(31)) for s in (0.0, 1.0, 2.0)]
        assert np.abs(builds[0].interaction).max() == 0.0
        assert np.array_equal(builds[2].interaction, 2.0 * builds[1].interaction)
        assert np.array_equal(builds[0].system, builds[1].system)
        assert np.array_equal(builds[1].bath, builds[2].bath)

    def test_uncoupled_limit_has_product_eigenstates(self):
        rng = np.random.default_rng(37)
        ham = build_random_model(2, 8, 0.0, rng)
        data = eigendecompose(ham.total(), ham.layout)
        part_sums = np.add.outer(np.linalg.eigvalsh(ham.system),
                                 np.linalg.eigvalsh(ham.bath)).ravel()
        assert np.allclose(np.sort(part_sums), data.eigenvalues, atol=1e-12)
        for reduced in batched_partial_trace_bath(expand_sectors(data, ham.layout),
                                                  ham.layout):
            assert purities(reduced[None])[0] == pytest.approx(1.0, abs=1e-10)

    def test_generic_draws_are_nondegenerate(self):
        for seed in (41, 43, 47):
            ham = build_random_model(2, 16, 1.0, np.random.default_rng(seed))
            assert degenerate_level_pairs(eigendecompose(ham.total(), ham.layout)) == []

    def test_interaction_norm_stays_order_one_as_bath_grows(self):
        norms = []
        for db in (8, 16, 32):
            ham = build_random_model(2, db, 1.0, np.random.default_rng(53))
            norms.append(np.abs(np.linalg.eigvalsh(ham.interaction)).max())
        assert all(1.0 < n < 3.0 for n in norms)
