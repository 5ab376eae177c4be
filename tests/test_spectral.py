import csv
import io
import math

import numpy as np
import pytest

from isibench import (CapExceededError, ConfigError, SpaceLayout, ValidationError,
                      degenerate_level_pairs, eigendecompose, read_matrix,
                      write_matrix)
from isibench import spectral
from isibench.hilbert import SIGMA_X, SIGMA_Z, blocked_max
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

    @pytest.mark.parametrize("fault", [math.nan, 1e-6])
    def test_hermiticity_check_sees_the_last_block(self, fault):
        mat = _blocked_parts()[2]
        mat[LAST] += fault
        with pytest.raises(ValidationError, match="not Hermitian"):
            eigendecompose(mat)

    @pytest.mark.parametrize("entry", [LAST, LAST[::-1], (LAST[0], 0), (0, LAST[0])],
                             ids=["below", "above", "below_far", "above_far"])
    def test_hermiticity_check_reads_from_the_diagonal_rightward(self, monkeypatch, entry):
        """Each block of rows of A - A^H is formed from its diagonal rightward.
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

        def corrupted(mat):
            evals, evecs = eigh(mat)
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
        data = eigendecompose(_blocked_parts()[2])
        vecs = expand_sectors(data, layout)
        rng = np.random.default_rng(59)
        amplitudes = rng.standard_normal(BLOCKED_DIM) + 1j * rng.standard_normal(BLOCKED_DIM)
        assert np.array_equal(data.reductions(layout),
                              batched_partial_trace_bath(vecs, layout))
        times = np.linspace(0.0, 50.0, 2 * spectral.DENSE_BLOCK + 7)
        one_shot = batched_partial_trace_bath(
            vecs @ (amplitudes[:, None] * np.exp(-1j * data.eigenvalues[:, None] * times)),
            layout)
        evolved = data.evolved_reductions(amplitudes, times, layout)
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
        # phase convention: the dominant component of each column is positive
        assert data.sectors[0][0, 0].real > 0
        assert data.sectors[0][0, 1].real > 0

    def test_residual_and_unitarity(self):
        rng = np.random.default_rng(31)
        h = random_hermitian(32, rng)
        data = eigendecompose(h)
        norm = np.abs(data.eigenvalues).max()
        residual = h @ data.sectors[0] - data.sectors[0] * data.eigenvalues
        assert np.abs(residual).max() < 1e-9 * norm
        gram = data.sectors[0].conj().T @ data.sectors[0]
        assert np.abs(gram - np.eye(32)).max() < 1e-10

    def test_phase_convention_is_deterministic(self):
        rng = np.random.default_rng(37)
        h = random_hermitian(8, rng)
        first = eigendecompose(h).sectors[0]
        second = eigendecompose(h.copy()).sectors[0]
        assert np.array_equal(first, second)
        for column in first.T:
            dominant = column[np.abs(column).argmax()]
            assert dominant.real > 0
            assert abs(dominant.imag) < 1e-12 * abs(dominant)

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
    is missing, zheevr (column-major eigenvectors) from MRRR_MIN_DIM on."""

    @staticmethod
    def _hermitian(d):
        return random_hermitian(d, np.random.default_rng(d))

    @staticmethod
    def _require_mrrr():
        if spectral._zheevr() is None:
            pytest.skip("this numpy build ships no LAPACKE zheevr")

    @pytest.mark.parametrize("d, found", [(spectral.MRRR_MIN_DIM - 1, True),
                                          (spectral.MRRR_MIN_DIM + 8, False)])
    def test_numpy_eigh_below_the_crossover_or_without_the_solver(self, monkeypatch,
                                                                  d, found):
        if not found:
            monkeypatch.setattr(spectral, "_zheevr", lambda: None)
        mat = self._hermitian(d)
        ours, numpys = spectral._eigh(mat), np.linalg.eigh(mat)
        for mine, theirs in zip(ours, numpys):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)

    def test_mrrr_eigenvalues_match_numpy_eigh(self):
        self._require_mrrr()
        mat = self._hermitian(spectral.MRRR_MIN_DIM + 8)
        evals, evecs = spectral._eigh(mat)
        reference = np.linalg.eigh(mat)[0]
        assert evecs.flags.f_contiguous and not evecs.flags.c_contiguous
        assert np.abs(evals - reference).max() <= 1e-12 * np.abs(reference).max()
        assert np.array_equal(eigendecompose(mat).eigenvalues, evals)

    @pytest.mark.parametrize("solver, status", [("stub", 2), ("zheevr", -6)])
    def test_a_nonzero_status_raises_linalg_error(self, monkeypatch, solver, status):
        """A stub solver's status 2, or LAPACKE's -6 for a NaN in H, its
        argument 6, which LAPACKE checks before zheevr runs."""
        mat = self._hermitian(spectral.MRRR_MIN_DIM)
        if solver == "stub":
            monkeypatch.setattr(spectral, "_zheevr", lambda: lambda *args: status)
        else:
            self._require_mrrr()
            mat[5, 3] = math.nan  # below the diagonal, the triangle it reads
        with pytest.raises(np.linalg.LinAlgError, match=f"status {status}$"):
            spectral._eigh(mat)


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
        data = SpectralData(energies, solved.sectors[:, :, shuffle])
        twin = SpectralData(np.sort(energies), data.sectors[:, :, data.order])
        assert np.array_equal(data.order, np.argsort(energies, kind="stable"))
        assert np.array_equal(data.eigenvalues, twin.eigenvalues)
        assert np.all(np.diff(data.eigenvalues) >= 0)
        amplitudes = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        times = np.linspace(0.0, 20.0, 9)
        assert np.abs(data.coefficients(amplitudes, layout)
                      - twin.coefficients(amplitudes, layout)).max() < 1e-15
        assert np.array_equal(data.reductions(layout), twin.reductions(layout))
        assert np.abs(data.evolved_reductions(amplitudes, times, layout)
                      - twin.evolved_reductions(amplitudes, times, layout)).max() < 1e-14


class TestDegeneracyChecks:
    def _data(self, eigenvalues):
        return SpectralData(np.asarray(eigenvalues, dtype=float),
                            np.eye(len(eigenvalues), dtype=complex)[None])

    @staticmethod
    def _sectors(energies):
        """Sectors of two levels with the given (n_sec, 2) energies."""
        return SpectralData.from_sectors(np.array(energies),
                                         np.stack([np.eye(2, dtype=complex)] * len(energies)))

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

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "alien.mat"
        path.write_text("something-else 9\n")
        with pytest.raises(ConfigError):
            read_matrix(path)


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
