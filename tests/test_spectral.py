import csv
import io
import math
import tracemalloc

import numpy as np
import pytest

from isibench import (CapExceededError, ConfigError, PureState, SpaceLayout, ValidationError,
                      degenerate_level_pairs, eigendecompose, read_matrix, read_matrix_header,
                      write_matrix)
from isibench import spectral
from isibench.hilbert import SIGMA_X, SIGMA_Z, blocked_max, dense_blocks
from isibench.models import build_random_model
from isibench.sampling import generator
from isibench.spectral import CompositeHamiltonian, SpectralData

from _oracles import (batched_partial_trace_bath, expand_sectors, random_hermitian,
                      reconstruct)


class TestAssemble:
    def test_lone_system_term(self):
        ham = CompositeHamiltonian(0.5 * SIGMA_Z, np.zeros((1, 1)), np.zeros((2, 2)))
        assert np.allclose(ham.total(), np.diag([0.5, -0.5]))

    def test_system_slow_layout(self):
        ham = CompositeHamiltonian(np.zeros((2, 2)), np.diag([0.0, 1.0]), np.zeros((4, 4)))
        assert np.allclose(ham.total(), np.diag([0.0, 1.0, 0.0, 1.0]))

    def test_matches_hand_assembled_two_level_bath(self):
        omega = 1.0
        couplings = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6]])
        bath_energies = np.array([0.7, -0.9])
        interaction = 0.5 * sum(
            np.kron(sigma, np.diag(couplings[:, alpha]))
            for alpha, sigma in enumerate((SIGMA_X,
                                           np.array([[0, -1j], [1j, 0]]),
                                           SIGMA_Z)))
        ham = CompositeHamiltonian(0.5 * omega * SIGMA_Z, np.diag(bath_energies), interaction)
        by_hand = (np.kron(0.5 * omega * SIGMA_Z, np.eye(2))
                   + np.kron(np.eye(2), np.diag(bath_energies))
                   + interaction)
        assert np.abs(ham.total() - by_hand).max() < 1e-12

    def test_rejects_non_hermitian_part(self):
        with pytest.raises(ValidationError):
            CompositeHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)),
                                 np.zeros((4, 4)))

    def test_nan_entry_fails_the_hermiticity_check(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            CompositeHamiltonian(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros((2, 2)),
                                 np.zeros((4, 4)))

    def test_an_asymmetric_interaction_is_refused_where_h_is_solved(self):
        # the parts keep their Hermiticity scans; the interaction's is the scan of H
        interaction = np.zeros((4, 4))
        interaction[3, 0] = 1e-6
        ham = CompositeHamiltonian(0.5 * SIGMA_Z, np.diag([0.0, 1.0]), interaction)
        with pytest.raises(ValidationError, match="hamiltonian not Hermitian"):
            eigendecompose(ham.total(), ham.layout)

    def test_an_interaction_of_another_shape_is_refused(self):
        with pytest.raises(ValidationError, match="interaction part must be 4x4"):
            CompositeHamiltonian(0.5 * SIGMA_Z, np.diag([0.0, 1.0]), np.zeros((4, 3)))


# A dimension that is not a multiple of the block width, and an index pair
# inside its last block: every blocked check must see a fault placed there.
BLOCKED_DIM = 3 * 100
LAST = (BLOCKED_DIM - 1, BLOCKED_DIM - 3)
assert BLOCKED_DIM % spectral.DENSE_BLOCK and min(LAST) >= spectral.DENSE_BLOCK


def _blocked_parts():
    rng = np.random.default_rng(53)
    return (random_hermitian(3, rng), random_hermitian(100, rng),
            random_hermitian(BLOCKED_DIM, rng), SpaceLayout(3, 100))


class TestBlockedChecks:
    def test_assembly_has_the_bits_of_the_kron_sum(self):
        hs, hb, hsb, layout = _blocked_parts()
        total = np.kron(hs, np.eye(100)) + np.kron(np.eye(3), hb) + hsb
        ham = CompositeHamiltonian(hs, hb, hsb)
        assert ham.layout == layout
        assert ham.total().tobytes() == total.tobytes()

    @pytest.mark.parametrize("ds, db, strength", [(2, 768, 1.0), (3, 100, 0.0), (2, 300, 1.0)])
    def test_random_model_assembly_has_the_bits_of_the_kron_sum(self, ds, db, strength):
        # an uncoupled model's zeros carry signs, which the bits keep too
        ham = build_random_model(ds, db, strength, np.random.default_rng(ds * db))
        total = (np.kron(ham.system, np.eye(db)) + np.kron(np.eye(ds), ham.bath)
                 + ham.interaction)
        assert np.array_equal(ham.total().view(np.uint64), total.view(np.uint64))

    @pytest.mark.parametrize("fault", [math.nan, 1e-6])
    def test_hermiticity_check_sees_the_last_block(self, fault):
        mat = _blocked_parts()[2]
        mat[LAST] += fault
        with pytest.raises(ValidationError, match="not Hermitian"):
            eigendecompose(mat)

    @pytest.mark.parametrize("entry", [LAST, LAST[::-1], (LAST[0], 0), (0, LAST[0])],
                             ids=["below", "above", "below_far", "above_far"])
    def test_hermiticity_check_reads_from_the_diagonal_rightward(self, monkeypatch, entry):
        """Each block of columns of A - A^H is formed from its diagonal down,
        against its mirror, the block of rows from the diagonal rightward.
        |D_ji| = |D_ij| to the bit, so an asymmetry on either side of the
        diagonal, in the diagonal block or far from it, is refused with the
        value that the full matrix gives."""
        seen = []
        monkeypatch.setattr(spectral, "blocked_max",
                            lambda block_max, n: seen.append(blocked_max(block_max, n))
                            or seen[-1])
        mat = _blocked_parts()[2]
        mat[entry] += 1e-6 - 3e-7j
        with pytest.raises(ValidationError, match="not Hermitian"):
            spectral._require_hermitian("hamiltonian", mat)
        assert seen == [np.abs(mat - mat.conj().T).max()] and seen[0] > 1e-6

    def test_hermiticity_check_refuses_a_nan_below_the_diagonal(self):
        mat = _blocked_parts()[2]
        mat[LAST[0], 0] = math.nan
        with pytest.raises(ValidationError, match="max asymmetry nan"):
            spectral._require_hermitian("hamiltonian", mat)

    @pytest.mark.parametrize("check, fault, message", [
        ("residual", math.nan, "eigenpair residual"),
        ("residual", 1e-3, "eigenpair residual"),
        ("unitarity", 1e-6, "not unitary"),
    ])
    def test_eigenpair_checks_see_the_last_block(self, monkeypatch, check, fault, message):
        """The eigensolver's eigenvector LAST[0] is corrupted: an entry moved
        (or NaN) breaks the residual; the column scaled by 1 + fault leaves it
        an eigenvector but breaks unitarity."""
        eigh = spectral._eigh

        def corrupted(mat, mirrored):
            evals, evecs = eigh(mat, mirrored)
            if check == "residual":
                evecs[0, LAST[0]] += fault
            else:
                evecs[:, LAST[0]] *= 1.0 + fault
            return evals, evecs

        mat = _blocked_parts()[2]
        eigendecompose(mat)
        monkeypatch.setattr(spectral, "_eigh", corrupted)
        with pytest.raises(ValidationError, match=message), np.errstate(invalid="ignore"):
            eigendecompose(mat)  # a NaN column's phase is NaN / NaN

    def test_unitarity_check_reads_the_gram_from_its_diagonal(self):
        """Each block of rows of V^H V is formed from its diagonal rightward.
        The Gram is Hermitian, so a coherence planted in the lower triangle is
        seen at its mirror; a NaN in the last column, which every block
        reads, fails the check."""
        rng = np.random.default_rng(61)
        shape = (BLOCKED_DIM, BLOCKED_DIM)
        vecs = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
        vecs[:, LAST[0]] += 1e-6 * vecs[:, 0]  # (V^H V)[LAST[0], 0] = 1e-6

        def error(vecs):
            return blocked_max(lambda rows: spectral._unitarity_error(vecs, rows), BLOCKED_DIM)

        assert error(vecs) == pytest.approx(1e-6, rel=1e-6)
        vecs[:, -1] = math.nan
        assert math.isnan(error(vecs))

    def test_dense_readers_match_their_one_shot_forms(self):
        layout = _blocked_parts()[3]
        data = eigendecompose(_blocked_parts()[2], layout)
        vecs = expand_sectors(data, layout)
        rng = np.random.default_rng(59)
        amplitudes = rng.standard_normal(BLOCKED_DIM) + 1j * rng.standard_normal(BLOCKED_DIM)
        assert np.array_equal(data.reductions(),
                              batched_partial_trace_bath(vecs, layout))
        times = np.linspace(0.0, 50.0, 2 * spectral.DENSE_BLOCK + 7)
        one_shot = batched_partial_trace_bath(
            vecs @ (amplitudes[:, None] * np.exp(-1j * data.eigenvalues[:, None] * times)),
            layout)
        evolved = data.evolved_reductions(amplitudes, times)
        assert np.abs(evolved - one_shot).max() < 1e-12 * np.abs(one_shot).max()


class TestEigendecompose:
    def test_sorts_diagonal_input(self):
        data = eigendecompose(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(data.eigenvalues, [1.0, 2.0, 3.0])
        permutation = np.abs(data.sectors[0])
        assert np.allclose(permutation, np.eye(3)[:, [1, 2, 0]])

    def test_sigma_x(self):
        data = eigendecompose(SIGMA_X)
        assert np.allclose(data.eigenvalues, [-1.0, 1.0])
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(np.abs(data.sectors[0]), [[s, s], [s, s]])

    def test_residual_and_unitarity(self):
        rng = np.random.default_rng(31)
        h = random_hermitian(32, rng)
        data = eigendecompose(h)
        norm = np.abs(data.eigenvalues).max()
        residual = h @ data.sectors[0] - data.sectors[0] * data.eigenvalues
        assert np.abs(residual).max() < 1e-9 * norm
        gram = data.sectors[0].conj().T @ data.sectors[0]
        assert np.abs(gram - np.eye(32)).max() < 1e-10

    def test_the_same_input_gives_the_same_bits(self):
        rng = np.random.default_rng(37)
        h = random_hermitian(8, rng)
        first = eigendecompose(h).sectors[0]
        second = eigendecompose(h.copy()).sectors[0]
        assert np.array_equal(first, second)

    def test_reconstruction(self):
        rng = np.random.default_rng(41)
        h = random_hermitian(16, rng)
        data = eigendecompose(h)
        norm = np.abs(data.eigenvalues).max()
        rebuilt = reconstruct(data.eigenvalues, data.sectors[0])
        assert np.abs(rebuilt - h).max() < 1e-9 * norm

    def test_bath_basis_change_leaves_eigenvalues(self):
        rng = np.random.default_rng(43)
        hs = random_hermitian(2, rng)
        hb = random_hermitian(4, rng)
        hsb = random_hermitian(8, rng)
        ham = CompositeHamiltonian(hs, hb, hsb)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        unitary, _ = np.linalg.qr(raw)
        lifted = np.kron(np.eye(2), unitary)
        rotated = lifted.conj().T @ ham.total() @ lifted
        before = eigendecompose(ham.total()).eigenvalues
        after = eigendecompose(rotated).eigenvalues
        assert np.abs(before - after).max() < 1e-10

    def test_dimension_cap(self, monkeypatch):
        # the shape is refused before the input is copied or checked
        def no_check(name, mat):
            pytest.fail("the input was checked before its shape")

        monkeypatch.setattr(spectral, "DECOMPOSE_DIM_CAP", 4)
        monkeypatch.setattr(spectral, "_require_hermitian", no_check)
        with pytest.raises(CapExceededError, match="dimension 8 exceeds .* cap 4"):
            eigendecompose(np.eye(8))


class TestDenseSolver:
    """``_eigh``: numpy's eigh below MRRR_MIN_DIM and where LAPACKE's zheevr
    is missing, zheevr (column-major eigenvectors) from MRRR_MIN_DIM on, on
    H's own buffer only for an H that the scan finds to be its own mirror."""

    @staticmethod
    def _hermitian(d):
        return random_hermitian(d, np.random.default_rng(d))

    @staticmethod
    def _require_mrrr():
        if spectral._zheevr() is None:
            pytest.skip("this numpy build ships no LAPACKE zheevr")

    @staticmethod
    def _mirrored(mat) -> bool:
        """The scan's answer: is each entry below the diagonal the bitwise
        ``_mirror`` of its mirror above?"""
        return spectral._require_hermitian("hamiltonian", mat)[1]

    @pytest.mark.parametrize("d, found", [(spectral.MRRR_MIN_DIM - 1, True),
                                          (spectral.MRRR_MIN_DIM + 8, False)])
    def test_numpy_eigh_below_the_crossover_or_without_the_solver(self, monkeypatch,
                                                                  d, found):
        if not found:
            monkeypatch.setattr(spectral, "_zheevr", lambda: None)
        mat = self._hermitian(d)
        ours, numpys = spectral._eigh(mat, self._mirrored(mat)), np.linalg.eigh(mat)
        for mine, theirs in zip(ours, numpys):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)

    def test_mrrr_eigenvalues_match_numpy_eigh(self):
        self._require_mrrr()
        mat = self._hermitian(spectral.MRRR_MIN_DIM + 8)
        evals, evecs = spectral._eigh(mat, self._mirrored(mat))
        reference = np.linalg.eigh(mat)[0]
        assert evecs.flags.f_contiguous and not evecs.flags.c_contiguous
        assert np.abs(evals - reference).max() <= 1e-12 * np.abs(reference).max()
        assert np.array_equal(eigendecompose(mat).eigenvalues, evals)

    @pytest.mark.parametrize("solver, status, change", [
        ("stub", 2, None), ("zheevr", -6, None), ("stub", 2, "real"), ("stub", 2, "-0.0j")],
        ids=["stub-2", "zheevr--6", "stub-2-real", "stub-2--0.0j"])
    def test_a_nonzero_status_raises_linalg_error(self, monkeypatch, solver, status, change):
        """A stub solver's status 2, or LAPACKE's -6 for a NaN in H, its
        argument 6, which LAPACKE checks before zheevr runs; H, its NaN
        included, comes back bit for bit either way, and so does a real H or
        one with a -0.0 imaginary part below the diagonal (``_asymmetric``).
        The scan refuses a NaN, which is no entry's mirror, so that H is
        handed over as not mirrored."""
        mat = self._asymmetric(self._hermitian(spectral.MRRR_MIN_DIM), change)
        mirrored = self._mirrored(mat)
        if solver == "stub":
            monkeypatch.setattr(spectral, "_zheevr", lambda: lambda *args: status)
        else:
            self._require_mrrr()
            mat[5, 3], mirrored = math.nan, False  # below the diagonal, the triangle it reads
        before = mat.view(np.uint64).copy()
        with pytest.raises(np.linalg.LinAlgError, match=f"status {status}$"):
            spectral._eigh(mat, mirrored)
        assert np.array_equal(mat.view(np.uint64), before)

    @staticmethod
    def _spied_buffers(monkeypatch, status=None) -> list[int]:
        """The addresses of the buffers zheevr is handed from now on; with a
        ``status``, a stub that returns it stands in for the solver."""
        solver, buffers = spectral._zheevr(), []

        def spy(*args):
            buffers.append(args[5])
            return solver(*args) if status is None else status

        monkeypatch.setattr(spectral, "_zheevr", lambda: spy)
        return buffers

    @staticmethod
    def _asymmetric(mat, change):
        """``mat`` changed in place: its real part alone, whose zero imaginary
        parts are +0.0 on both sides of the diagonal, or with one entry below
        the diagonal no longer the bitwise conjugate of its mirror: moved by
        1e-12, a pair of zeros whose lower one has a real or an imaginary
        part of -0.0, or a NaN."""
        if change == "real":
            mat.imag = 0.0
        elif change == "1e-12":
            mat[5, 3] += 1e-12
        elif change == "-0.0":
            mat[3, 5], mat[5, 3] = 0.0, complex(-0.0, 0.0)
        elif change == "-0.0j":
            mat[3, 5], mat[5, 3] = 0.0, complex(0.0, -0.0)
        elif change == "nan":
            mat[5, 3] = math.nan
        return mat

    @pytest.mark.parametrize("change, mirrored", [(None, True), ("real", True),
                                                  ("1e-12", False), ("-0.0", False),
                                                  ("-0.0j", False)])
    def test_a_block_is_mirrored_when_its_lower_part_can_be_rebuilt(self, change, mirrored):
        """A real-valued H holds +0.0 imaginary parts on both sides of the
        diagonal, so the scan finds it mirrored and the solve works in place;
        a -0.0 below the diagonal is not rebuilt from the +0.0 above it, so
        that H is not."""
        mat = self._asymmetric(self._hermitian(spectral.MRRR_MIN_DIM + 8), change)
        assert self._mirrored(mat) is mirrored

    @pytest.mark.parametrize("change", [None, "real", "1e-12", "-0.0", "-0.0j"])
    def test_mrrr_works_in_place_and_hands_the_input_back_bit_for_bit(self, monkeypatch,
                                                                      change):
        self._require_mrrr()
        mat = self._asymmetric(self._hermitian(spectral.MRRR_MIN_DIM + 8), change)
        before, copy, mirrored = mat.view(np.uint64).copy(), mat.copy(), self._mirrored(mat)
        expected = spectral._eigh(copy, mirrored)
        buffers = self._spied_buffers(monkeypatch)
        evals, evecs = spectral._eigh(mat, mirrored)
        if mirrored:
            assert buffers == [mat.ctypes.data]
        assert np.array_equal(mat.view(np.uint64), before)
        assert np.array_equal(evals, expected[0]) and np.array_equal(evecs, expected[1])

    @pytest.mark.parametrize("change", ["1e-12", "-0.0", "-0.0j", "nan"])
    def test_an_input_that_is_not_its_own_mirror_is_solved_on_a_copy(self, monkeypatch,
                                                                     change):
        """The copy comes back bit for bit, and the eigenpairs (for the NaN,
        LAPACKE's refusal) are those of a solve of a copy.  eigendecompose
        refuses the NaN before the solve, so ``_eigh`` is handed it as the
        scan would answer: not mirrored."""
        self._require_mrrr()
        mat = self._asymmetric(self._hermitian(spectral.MRRR_MIN_DIM + 8), change)
        before = mat.view(np.uint64).copy()

        def solve(h):
            try:
                return spectral._eigh(h, False if change == "nan" else self._mirrored(h))
            except np.linalg.LinAlgError as err:
                return str(err)

        expected = solve(mat.copy())
        buffers = self._spied_buffers(monkeypatch)
        solved = solve(mat)
        assert len(buffers) == 1
        assert not mat.ctypes.data <= buffers[0] < mat.ctypes.data + mat.nbytes
        assert np.array_equal(mat.view(np.uint64), before)
        if change == "nan":
            assert solved == expected == "zheevr failed with status -6"
        else:
            assert np.array_equal(solved[0], expected[0])
            assert np.array_equal(solved[1], expected[1])

    @pytest.mark.parametrize("kind", ["1e-12", "-0.0", "read-only", "F-ordered"])
    def test_a_copy_is_dropped_as_the_solve_left_it(self, monkeypatch, kind):
        """eigendecompose of an H it solves on a copy reads H's tiles in the
        scan alone: the copy that zheevr overwrote is not rebuilt."""
        self._require_mrrr()
        mat = self._hermitian(spectral.MRRR_MIN_DIM + 8)
        if kind == "read-only":
            mat.setflags(write=False)
        elif kind == "F-ordered":
            mat = np.asfortranarray(mat)
        else:
            mat = self._asymmetric(mat, kind)
        calls, tiles, solver = [], spectral._mirror_tiles, spectral._zheevr()

        def tiles_spy(*args):
            calls.append("tiles")
            return tiles(*args)

        def solver_spy(*args):
            calls.append("solve")
            return solver(*args)

        monkeypatch.setattr(spectral, "_mirror_tiles", tiles_spy)
        monkeypatch.setattr(spectral, "_zheevr", lambda: solver_spy)
        eigendecompose(mat)
        assert "tiles" in calls and calls[calls.index("solve"):] == ["solve"]

    @pytest.mark.parametrize("dim_system, dim_bath, strength", [
        (2, 768, 1.0), (3, 64, 1.0), (3, 128, 1.0), (2, 300, -0.5), (3, 200, 0.0),
        (2, 300, 0.0)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_models_are_solved_on_their_own_buffer(self, monkeypatch, dim_system,
                                                          dim_bath, strength, seed):
        """Every random model, the uncoupled ones included, is its own bitwise
        mirror, so eigendecompose hands zheevr H's own buffer.  A stub that
        fails stands in for the solve, which the rule does not depend on."""
        mat = build_random_model(dim_system, dim_bath, strength,
                                 generator(seed)).total()
        before = mat.view(np.uint64).copy()
        assert self._mirrored(mat)
        buffers = self._spied_buffers(monkeypatch, status=1)
        with pytest.raises(np.linalg.LinAlgError, match="status 1$"):
            eigendecompose(mat)
        assert buffers == [mat.ctypes.data]
        assert np.array_equal(mat.view(np.uint64), before)

    @pytest.mark.parametrize("dim_system, dim_bath", [(2, 300), (3, 200)])
    def test_an_uncoupled_solve_holds_no_more_than_a_coupled_one(self, monkeypatch,
                                                                dim_system, dim_bath):
        """d = 600: what eigendecompose holds above H when zheevr starts
        (numpy's traced allocations; LAPACK's workspace is not among them) is
        the same without the coupling as with it, seeds 0-2.  A saved block of
        H would hold at least 1 MiB; the slack covers the interpreter's own."""
        self._require_mrrr()
        solver, held = spectral._zheevr(), []

        def spy(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return solver(*args)

        monkeypatch.setattr(spectral, "_zheevr", lambda: spy)
        for seed in range(3):
            extra = []
            for strength in (1.0, 0.0):
                mat = build_random_model(dim_system, dim_bath, strength,
                                         generator(seed)).total()
                tracemalloc.start()
                try:
                    start = tracemalloc.get_traced_memory()[0]
                    eigendecompose(mat)
                    extra.append(held[-1] - start)
                finally:
                    tracemalloc.stop()
            coupled, uncoupled = extra
            assert uncoupled <= coupled + 2**16, (seed, uncoupled, coupled)

    @pytest.mark.parametrize("kind", ["read-only", "F-ordered"])
    def test_an_input_it_may_not_write_is_copied(self, monkeypatch, kind):
        """The copy is C-ordered, whatever the input's order, so the solve
        reads H and not its transpose conj(H): the eigenpairs are those of
        the writeable C-ordered H."""
        self._require_mrrr()
        mat = self._hermitian(spectral.MRRR_MIN_DIM + 8)
        expected = eigendecompose(mat.copy())
        if kind == "read-only":
            mat.setflags(write=False)
        else:
            mat = np.asfortranarray(mat)
        before = mat.tobytes(order="A")
        buffers = self._spied_buffers(monkeypatch)
        solved = eigendecompose(mat)
        assert len(buffers) == 1
        assert not mat.ctypes.data <= buffers[0] < mat.ctypes.data + mat.nbytes
        assert mat.tobytes(order="A") == before
        assert np.array_equal(solved.eigenvalues, expected.eigenvalues)
        assert np.array_equal(solved.sectors, expected.sectors)

    def test_the_checks_read_the_input_as_it_was_given(self, monkeypatch):
        """eigendecompose of an H within the asymmetry tolerance reports the
        residual of that H, which the solve read from a copy."""
        self._require_mrrr()
        mat = self._asymmetric(self._hermitian(spectral.MRRR_MIN_DIM + 8), "1e-12")
        evals, evecs = spectral._eigh(mat.copy(), False)
        residual = blocked_max(lambda cols: np.abs(
            mat @ evecs[:, cols] - evecs[:, cols] * evals[cols]).max(), len(mat))
        monkeypatch.setattr(spectral, "RESIDUAL", 0.0)
        with pytest.raises(ValidationError, match=f"residual {residual:.3e} exceeds"):
            eigendecompose(mat)


class TestEnergiesOutOfOrder:
    def test_one_sector_matches_its_sorted_twin(self):
        """One sector whose energies are given out of order (ties included)
        is the same eigensystem as its columns sorted by energy."""
        rng = np.random.default_rng(71)
        layout = SpaceLayout(2, 3)
        solved = eigendecompose(random_hermitian(6, rng))
        shuffle = np.array([4, 1, 5, 0, 3, 2])
        energies = solved.eigenvalues[shuffle]
        energies[4] = energies[0]  # labels 0 and 4 tie: the stable order keeps 0 first
        data = SpectralData(energies, solved.sectors[:, :, shuffle], layout)
        twin = SpectralData(np.sort(energies), data.sectors[:, :, data.order], layout)
        assert np.array_equal(data.order, np.argsort(energies, kind="stable"))
        assert np.array_equal(data.eigenvalues, twin.eigenvalues)
        assert np.all(np.diff(data.eigenvalues) >= 0)
        amplitudes = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        state = PureState(amplitudes / np.linalg.norm(amplitudes))
        times = np.linspace(0.0, 20.0, 9)
        assert np.abs(data.coefficients(state) - twin.coefficients(state)).max() < 1e-15
        assert np.array_equal(data.reductions(), twin.reductions())
        assert np.abs(data.evolved_reductions(amplitudes, times)
                      - twin.evolved_reductions(amplitudes, times)).max() < 1e-14


# Each eigenvector reader of SpectralData, called with valid values for d = 4.
READERS = {
    "coefficients": lambda data: data.coefficients(PureState(np.eye(4)[0])),
    "reductions": lambda data: data.reductions(),
    "projection": lambda data: data.projection(),
    "dephased_reduction": lambda data: data.dephased_reduction(np.eye(4)[0]),
    "evolved_reductions": lambda data: data.evolved_reductions(np.eye(4)[0], np.zeros(1)),
}


class TestLayout:
    @pytest.mark.parametrize("layout", [SpaceLayout(2, 3), SpaceLayout(4, 1)],
                             ids=["another_d", "ds_not_dividing_m"])
    def test_a_layout_that_does_not_fit_is_refused_on_construction(self, layout):
        # two sectors of m = 2: d = 4, and dS must divide m
        with pytest.raises(ValidationError, match=f"layout {layout.dim_system}x"
                                                  f"{layout.dim_bath} does not match the "
                                                  "spectral data \\(d=4\\)"):
            SpectralData(np.arange(4.0), np.stack([np.eye(2, dtype=complex)] * 2), layout)

    @pytest.mark.parametrize("reader", READERS)
    def test_data_without_a_layout_has_its_spectrum_and_no_reader(self, reader):
        data = eigendecompose(np.diag([3.0, 1.0, 2.0, 0.0]))
        assert data.layout is None
        assert np.array_equal(data.eigenvalues, [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(data.levels, [[0, 1, 2, 3]])
        assert np.array_equal(data.gaps, [[1.0, 1.0, 1.0]]) and not data.degenerate.any()
        with pytest.raises(ValidationError, match="has no system/bath layout"):
            READERS[reader](data)
        READERS[reader](eigendecompose(np.diag([3.0, 1.0, 2.0, 0.0]), SpaceLayout(2, 2)))


class TestDegeneracyChecks:
    def _data(self, eigenvalues):
        return SpectralData(np.asarray(eigenvalues, dtype=float),
                            np.eye(len(eigenvalues), dtype=complex)[None], None)

    @staticmethod
    def _sectors(energies):
        """Sectors of two levels with the given (n_sec, 2) energies."""
        return SpectralData(np.array(energies),
                            np.stack([np.eye(2, dtype=complex)] * len(energies)),
                            SpaceLayout(2, len(energies)))

    def test_spaced_spectrum_passes(self):
        data = self._data([0.0, 1.0, 2.0])
        assert degenerate_level_pairs(data) == []
        assert data.min_sector_spacing == pytest.approx(1.0)

    def test_collision_fails(self):
        data = self._data([0.0, 0.0, 1.0])
        assert data.min_sector_spacing == 0.0
        assert degenerate_level_pairs(data) == [(0, 1)]

    def test_min_level_spacing_is_derived_from_the_eigenvalues(self):
        # the spacing the commands print as "min level spacing"
        assert self._data([0.0, 1.0, 2.5, 4.0]).min_sector_spacing == pytest.approx(1.0)
        assert self._data([3.0]).min_sector_spacing == math.inf
        assert degenerate_level_pairs(self._data([3.0])) == []

    def test_min_sector_spacing_of_one_sector_is_the_level_spacing(self):
        data = eigendecompose(random_hermitian(64, np.random.default_rng(67)))
        assert data.min_sector_spacing == np.diff(data.eigenvalues).min()
        assert self._data([3.0]).min_sector_spacing == math.inf

    def test_min_sector_spacing_ignores_collisions_across_sectors(self):
        # three sectors of two levels, listed out of order in sector 1; levels
        # of sectors 1 and 2 lie 1e-9 apart, the closest pair inside one
        # sector is sector 0's, 0.75 apart
        data = self._sectors([[0.0, 0.75], [2.0, 0.5], [0.5 + 1e-9, 3.0]])
        assert np.diff(data.eigenvalues).min() == pytest.approx(1e-9, rel=1e-6)
        assert data.min_sector_spacing == 0.75

    def test_a_collision_across_sectors_is_no_pair(self):
        # levels of different sectors never interfere in a reduced state
        data = self._sectors([[0.0, 0.75], [2.0, 0.5], [0.5, 3.0]])
        assert degenerate_level_pairs(data) == []

    def test_a_collision_inside_a_sector_is_the_one_pair(self):
        # sector 1 repeats 2.0 to within 1e-12 (threshold 3e-10), and a level of
        # sector 2 lies between the two: the pair is named by its indices 2 and 4
        data = self._sectors([[0.0, 0.75], [2.0 + 1e-12, 2.0], [2.0 + 5e-13, 3.0]])
        assert data.eigenvalues[[2, 4]].tolist() == [2.0, 2.0 + 1e-12]
        assert degenerate_level_pairs(data) == [(2, 4)]
        assert data.min_sector_spacing == pytest.approx(1e-12, rel=1e-3)

    def test_threshold_is_relative_to_the_spectral_norm(self):
        # threshold = 1e-10 * max|E_n|: a spacing of 5e-11 of the norm is
        # degenerate at any overall scale, one of 2e-10 is not.
        for scale in (1e-6, 1.0, 1e6):
            assert degenerate_level_pairs(
                self._data(scale * np.array([0.0, 5e-11, 1.0]))) == [(0, 1)]
            data = self._data(scale * np.array([-1.0, -1.0 + 2e-10, 1.0]))
            assert degenerate_level_pairs(data) == []
            assert data.min_sector_spacing == pytest.approx(2e-10 * scale)


class TestMatrixFiles:
    def test_round_trip_with_layout(self, tmp_path):
        rng = np.random.default_rng(47)
        matrix = random_hermitian(6, rng)
        path = tmp_path / "ham.mat"
        write_matrix(path, matrix, SpaceLayout(2, 3))
        back, layout = read_matrix(path)
        assert np.array_equal(back, matrix)
        assert (layout.dim_system, layout.dim_bath) == (2, 3)

    def test_round_trip_keeps_every_bit(self, tmp_path):
        """Signed zeros in either part, a subnormal and the largest doubles
        of either sign come back with their bits."""
        tiny, big = 5e-324, np.finfo(float).max
        matrix = np.array([[1.0, complex(-0.0, -0.0), complex(tiny, -big)],
                           [complex(-0.0, 0.0), complex(2.0, -0.0), complex(big, 0.0)],
                           [complex(-tiny, big), complex(-big, -tiny), complex(0.0, -0.0)]])
        path = tmp_path / "bits.mat"
        write_matrix(path, matrix)
        back, _ = read_matrix(path)
        assert np.array_equal(back.view(np.uint64), matrix.view(np.uint64))

    def test_round_trip_without_layout(self, tmp_path):
        matrix = np.diag([0.0, 1.0, 2.0]).astype(complex)
        path = tmp_path / "diag.mat"
        write_matrix(path, matrix)
        back, layout = read_matrix(path)
        assert np.array_equal(back, matrix)
        assert layout is None

    def test_malformed_file_names_line(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("isibench-matrix 1\n2 2 0 0\n1 0 2 0\n3 0 oops 0\n")
        with pytest.raises(ConfigError, match="line"):
            read_matrix(path)

    def test_a_row_is_named_by_its_line_blank_lines_counted(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("isibench-matrix 1\n2 2 0 0\n\n\n1 0 0 0\n0 0 x 0\n")
        with pytest.raises(ConfigError, match=f"{path}: line 6: bad number"):
            read_matrix(path)
        path.write_text("isibench-matrix 1\n2 2 0 0\n\n1 0 0 0\n\n0 0 0\n")
        with pytest.raises(ConfigError, match="line 6: expected 4 numbers, found 3"):
            read_matrix(path)

    def test_the_rows_are_read_one_line_at_a_time(self, tmp_path):
        # the text, its lines and its rows are never held beside the matrix
        path = tmp_path / "big.mat"
        matrix = random_hermitian(512, np.random.default_rng(5))
        write_matrix(path, matrix, SpaceLayout(2, 256))
        tracemalloc.start()
        try:
            back, _ = read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, matrix)
        assert peak < 1.5 * matrix.nbytes, f"peak {peak / matrix.nbytes:.2f} matrices"

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "alien.mat"
        path.write_text("something-else 9\n")
        with pytest.raises(ConfigError):
            read_matrix(path)

    def test_dim_system_splits_an_untagged_matrix_and_must_match_a_tag(self, tmp_path):
        path = tmp_path / "plain.mat"
        write_matrix(path, np.diag(np.arange(6.0)))
        assert read_matrix(path, 3)[1] == SpaceLayout(3, 2)
        with pytest.raises(ConfigError, match="matrix dimension 6 is not divisible by "
                                              "dim_system 4"):
            read_matrix(path, 4)
        write_matrix(path, np.diag(np.arange(6.0)), SpaceLayout(2, 3))
        assert read_matrix(path, 2)[1] == SpaceLayout(2, 3)
        with pytest.raises(ConfigError, match="model.dim_system 3 contradicts the file's "
                                              "layout tag dS=2"):
            read_matrix(path, 3)

    @pytest.mark.parametrize("tag, dim_system", [("0 0", 2), ("0 0", None), ("2 2", None)],
                             ids=["untagged_split", "untagged", "tagged"])
    def test_a_matrix_that_is_not_square_is_refused_by_its_header(self, tmp_path, tag,
                                                                  dim_system):
        # four well-formed rows of two entries each: only line 2 refuses them
        path = tmp_path / "wide.mat"
        path.write_text(f"isibench-matrix 1\n4 2 {tag}\n" + "1 0 0 0\n" * 4, encoding="utf-8")
        with pytest.raises(ConfigError, match=r"line 2: invalid dimensions 4x2 \(need d x d"):
            read_matrix(path, dim_system)

    @pytest.mark.parametrize("layout", [SpaceLayout(2, 2), None], ids=["tagged", "untagged"])
    def test_a_matrix_that_is_not_square_is_not_written(self, tmp_path, layout):
        path = tmp_path / "wide.mat"
        with pytest.raises(ValidationError, match=r"only square matrices .* \(4, 3\)"):
            write_matrix(path, np.ones((4, 3)), layout)
        assert not path.exists()

    def test_the_header_is_read_without_the_rows(self, tmp_path):
        # a blank line, then rows that do not parse and a byte that is not UTF-8
        path = tmp_path / "header.mat"
        path.write_bytes(b"isibench-matrix 1\n\n6 6 3 2\nnot a row\n\xff\n")
        assert read_matrix_header(path) == (6, SpaceLayout(3, 2))
        assert read_matrix_header(path, 3) == (6, SpaceLayout(3, 2))
        with pytest.raises(ConfigError, match=r"not UTF-8 text \(byte 37\)"):
            read_matrix(path)
        # the lines are those of str.splitlines: \r and \f break them too
        path.write_bytes(b"isibench-matrix 1\r6 6 3 2\x0c" + b"0 0 " * 6 + b"\n")
        assert read_matrix_header(path) == (6, SpaceLayout(3, 2))
        with pytest.raises(ConfigError, match="expected 6 data lines, found 1"):
            read_matrix(path)

    @pytest.mark.parametrize("data, message", [
        (b"isibench-matrix 1\n\xff 6 3 2\n", r"not UTF-8 text \(byte 18\)"),
        (None, "cannot read")], ids=["not_utf8", "missing"])
    def test_a_header_that_cannot_be_read_is_named_as_the_text_would_be(self, tmp_path,
                                                                        data, message):
        path = tmp_path / "header.mat"
        if data is not None:
            path.write_bytes(data)
        for read in (read_matrix_header, read_matrix):
            with pytest.raises(ConfigError, match=f"{path}: {message}"):
                read(path)

    def test_the_split_is_capped_before_any_row_is_parsed(self, tmp_path, monkeypatch):
        # 4096 rows fit at dS = 1 but hold 4096 * 64^2 reduction entries at dS = 64;
        # no data line follows the header
        monkeypatch.setattr(spectral, "STACK_ELEMENT_CAP", 4096 * 32)
        path = tmp_path / "header.mat"
        path.write_text("isibench-matrix 1\n4096 4096 0 0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="expected 4096 data lines"):
            read_matrix(path)
        with pytest.raises(CapExceededError, match="d \\* dS\\^2"):
            read_matrix(path, 64)


def _csv_module_file(header, rows):
    """The data file as the csv module writes it, one f-string per number."""
    buffer = io.StringIO()
    buffer.write("# schema_version 1\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([v if isinstance(v, str) else f"{v:.17g}" for v in row]
                     for row in rows)
    return buffer.getvalue()


class TestCsvFiles:
    @pytest.mark.parametrize("chunk_rows", [1, 3, 65536])
    def test_templates_write_what_the_csv_module_writes(self, tmp_path, monkeypatch,
                                                        chunk_rows):
        monkeypatch.setattr(spectral, "CSV_CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6),
                                 [0.1, -0.0, math.nan, math.inf, -math.inf, 2.0**53 + 1]])
        names = ["dim_bath", "a,b", 'say "x"', "two\nlines", "", " padded "]
        rows = [(names[k % len(names)], k, np.int64(k) * 3, value, float(value))
                for k, value in enumerate(values)]
        header = ["name", "n", "m", "numpy", "float"]
        path = tmp_path / "data.csv"
        spectral.write_csv(path, header, iter(rows))
        assert path.read_bytes() == _csv_module_file(header, rows).encode("utf-8")

    def test_no_rows_leaves_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        spectral.write_csv(path, ["t", "purity"], [])
        assert path.read_text(encoding="utf-8") == "# schema_version 1\nt,purity\n"
