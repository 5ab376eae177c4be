"""Basis-free invariants across the eigenvector paths.

Everything the ISI test reads depends on the eigenvectors through |n><n| and
c_n |n> only, so it must not change when the basis does:

- a gauge: each eigenvector times a unit phase.  Every reader of
  ``SpectralData`` gives the same output within 1e-13 of max(1, |x|);
- a bath unitary U, H -> (1 (x) U) H (1 (x) U)^H and phi -> U phi: the
  reductions (in ascending order of energy), rho_bar, delta on the full
  space, the T1, T1prime and T2 left-hand sides and the trajectory are
  unchanged;
- a system unitary u, H -> (u (x) 1) H (u (x) 1)^H and psi -> u psi: the
  reductions, rho_bar and the trajectory turn by u, the Bloch vectors by its
  rotation R(u), and every left-hand side is unchanged;
- an energy scale s > 0, H -> s H with t -> t / s: the trajectory and every
  degeneracy verdict are unchanged.

Each holds within 1e-12 of max(1, |x|) on each eigenvector path: the dense
solver on both sides of ``MRRR_MIN_DIM`` (kind ``random``), the closed-form
sectors of g = 1 (kinds ``commuting`` and ``cucchietti``, against
``eigendecompose`` of their rotated dense H), and a matrix file (kind
``file``, through the command line).  The models are small and their levels
at least 1e-3 |H| apart, so that the solver's eigenvectors are within a few
2^-52 |H| / gap of exact and meet the bounds.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from isibench import cli, spectral
from isibench.dynamics import evolve_reduced
from isibench.hilbert import PAULI, PureState, SpaceLayout, tensor_product
from isibench.models import CommutingModelSpec, analytic_eigensystem
from isibench.sampling import generator, sample_amplitudes
from isibench.spectral import SpectralData, degenerate_level_pairs, eigendecompose, write_matrix

from _oracles import build_commuting_model

TOL = 1e-12
GAUGE_TOL = 1e-13
LHS = ("T1", "T1prime", "T2i", "T2ii")

# Each path's model: the config that draws it, and whether the path is the
# dense solver (else the closed form, checked against the dense solver).
CASES = {
    "random-numpy-eigh": (cli.ExperimentConfig(kind="random", dim_system=2, dim_bath=48,
                                               seed=5), True),
    "random-mrrr": (cli.ExperimentConfig(kind="random", dim_system=2, dim_bath=112,
                                         seed=7), True),
    "commuting": (cli.ExperimentConfig(kind="commuting", dim_bath=24, seed=14), False),
    "cucchietti": (cli.ExperimentConfig(kind="cucchietti", n_spins=4, seed=9), False),
}


def _close(actual, expected, tol=TOL) -> bool:
    actual, expected = np.asarray(actual), np.asarray(expected)
    return bool(np.all(np.abs(actual - expected) <= tol * np.maximum(1.0, np.abs(expected))))


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random n x n unitary: Q of a complex Ginibre matrix, R's phases moved to Q."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _rotated(ham: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """W H W^H, made exactly Hermitian."""
    turned = unitary @ ham @ unitary.conj().T
    return (turned + turned.conj().T) / 2.0


def _scaled(spec: CommutingModelSpec, scale: float) -> CommutingModelSpec:
    """The commuting model of H -> scale * H."""
    return CommutingModelSpec(scale * spec.level_splitting, scale * spec.couplings,
                              scale * spec.bath_energies)


def _bloch_rotation(u: np.ndarray) -> np.ndarray:
    """R(u)_ab = tr(sigma_a u sigma_b u^H) / 2: u rho u^H has Bloch vector R(u) p."""
    return np.array([[0.5 * np.trace(a @ u @ b @ u.conj().T).real for b in PAULI]
                     for a in PAULI])


class Model:
    """One drawn model of a case: its config, the path's spectral data, the
    dense H, and the two initial factor states of the config."""

    def __init__(self, case: str):
        self.config, self.dense = CASES[case]
        pipe = cli.Pipeline(self.config)
        self.layout, self.psi, self.phi = pipe.layout, pipe.psi, pipe.phi
        self.spectral = pipe.spectral
        parts = pipe.parts()
        self.hamiltonian = (parts.total() if self.dense
                            else build_commuting_model(parts).total)
        self.spec = None if self.dense else parts
        gaps = np.diff(self.spectral.eigenvalues)
        assert gaps.min() > 1e-3 * self.spectral.spectral_norm, "levels too close"
        self.times = np.linspace(0.0, 50.0 / self.spectral.spectral_norm, 17)


@pytest.fixture(scope="module", params=list(CASES))
def model(request):
    return Model(request.param)


def _readings(model: Model, data: SpectralData, psi=None, phi=None, times=None) -> dict:
    """What the pipeline reads of ``data`` for the initial state psi (x) phi
    (the config's by default): delta on the config's subspace, product_bath,
    and on the full space, and the trajectory at ``times``."""
    pipes = [cli.Pipeline(config) for config in (model.config,
                                                 replace(model.config, subspace="full"))]
    for pipe in pipes:
        pipe.__dict__.update(spectral=data, psi=psi or model.psi, phi=phi or model.phi)
    pipe = pipes[0]
    (t1, t1prime), (t2i, t2ii) = pipe.necessary, pipe.theorem2
    times = model.times if times is None else times
    return {"reductions": pipe.reductions.matrices, "bloch": pipe.reductions.bloch,
            "rho_bar": pipe.rho_bar, "delta": pipe.delta, "delta full": pipes[1].delta,
            "T1": t1.lhs, "T1prime": t1prime.lhs, "T2i": t2i.lhs, "T2ii": t2ii.lhs,
            "trajectory": evolve_reduced(pipe.coeffs, data, times)}


def test_the_cases_cover_both_dense_solvers():
    small, large = (CASES[case][0] for case in ("random-numpy-eigh", "random-mrrr"))
    assert 2 * small.dim_bath < spectral.MRRR_MIN_DIM <= 2 * large.dim_bath


class TestGauge:
    """Each column of the sectors times a seeded unit phase."""

    @staticmethod
    def _gauged(data: SpectralData, seed: int) -> SpectralData:
        n_sec, m, _ = data.sectors.shape
        phases = np.exp(2j * np.pi * generator(seed).random((n_sec, 1, m)))
        return SpectralData(data.energies, data.sectors * phases, data.layout)

    def test_every_reader_ignores_the_phases(self, model):
        data, gauged = model.spectral, self._gauged(model.spectral, 41)
        state = tensor_product(model.psi, model.phi)
        assert not np.allclose(data.sectors, gauged.sectors)
        assert _close(gauged.reductions(), data.reductions(), GAUGE_TOL)
        coefficients = [d.coefficients(state) for d in (data, gauged)]
        assert _close(np.abs(coefficients[1]) ** 2, np.abs(coefficients[0]) ** 2, GAUGE_TOL)
        # each reader is given the coefficients of its own basis: values_n |n>
        # is the same vector in both
        for name, read in (("dephased", lambda d, c: d.dephased_reduction(c)),
                           ("evolved", lambda d, c: d.evolved_reductions(c, model.times))):
            assert _close(read(gauged, coefficients[1]), read(data, coefficients[0]),
                          GAUGE_TOL), name
        matrices = data.reductions()
        prefix = max(1, model.layout.dim_bath // 3)
        for psi, k in ((None, None), (model.psi, None), (model.psi, prefix)):
            ours, theirs = (d.projection(psi, k) for d in (data, gauged))
            assert _close(theirs.weights, ours.weights, GAUGE_TOL), k
            if hasattr(ours, "populations"):
                amplitudes = sample_amplitudes(ours.dim, 8, generator(3))
                assert _close(theirs.populations(amplitudes), ours.populations(amplitudes),
                              GAUGE_TOL), k
            draws = [p.sampler(matrices, generator(9))[1](8) for p in (ours, theirs)]
            assert _close(draws[1], draws[0], GAUGE_TOL), k

    def test_the_pipeline_ignores_the_phases(self, model):
        ours = _readings(model, model.spectral)
        theirs = _readings(model, self._gauged(model.spectral, 43))
        for name in ("rho_bar", "delta", "delta full", *LHS):
            assert _close(theirs[name], ours[name], GAUGE_TOL), name


class TestBathUnitary:
    def test_the_readings_do_not_change(self, model):
        db = model.layout.dim_bath
        unitary = _haar(db, generator(11))
        lifted = np.kron(np.eye(model.layout.dim_system), unitary)
        turned = eigendecompose(_rotated(model.hamiltonian, lifted), model.layout)
        phi = PureState(unitary @ model.phi.amplitudes, space="bath")
        ours, theirs = _readings(model, model.spectral), _readings(model, turned, phi=phi)
        for name, value in ours.items():
            assert _close(theirs[name], value), name


class TestSystemUnitary:
    def test_the_states_turn_and_no_lhs_changes(self, model):
        u = _haar(2, generator(13))
        lifted = np.kron(u, np.eye(model.layout.dim_bath))
        turned = eigendecompose(_rotated(model.hamiltonian, lifted), model.layout)
        psi = PureState(u @ model.psi.amplitudes, space="system")
        ours, theirs = _readings(model, model.spectral), _readings(model, turned, psi=psi)
        assert _close(theirs["bloch"], ours["bloch"] @ _bloch_rotation(u).T)
        for name in ("reductions", "rho_bar", "trajectory"):
            assert _close(theirs[name], u @ ours[name] @ u.conj().T), name
        for name in ("delta", "delta full", *LHS):
            assert _close(theirs[name], ours[name]), name


class TestEnergyScale:
    @pytest.mark.parametrize("scale", [0.01, 37.0])
    def test_the_trajectory_and_the_verdicts_do_not_change(self, model, scale):
        scaled = (eigendecompose(scale * model.hamiltonian, model.layout) if model.dense
                  else analytic_eigensystem(_scaled(model.spec, scale)))
        assert _close(scaled.eigenvalues, scale * model.spectral.eigenvalues)
        ours = _readings(model, model.spectral)
        theirs = _readings(model, scaled, times=model.times / scale)
        for name, value in ours.items():
            assert _close(theirs[name], value), name
        assert np.array_equal(scaled.degenerate, model.spectral.degenerate)

    @pytest.mark.parametrize("scale", [0.01, 37.0])
    def test_a_degenerate_spectrum_keeps_its_pairs(self, scale):
        # field_scale = 0 pairs every bath level with its bit complement: the
        # closed form holds the pairs in different sectors, the dense solver
        # in one, where they are degenerate
        config = cli.ExperimentConfig(kind="cucchietti", n_spins=4, field_scale=0.0, seed=2)
        pipe = cli.Pipeline(config)
        spec, layout = pipe.parts(), pipe.layout
        ham = build_commuting_model(spec).total
        dense = eigendecompose(ham, layout)
        assert not degenerate_level_pairs(pipe.spectral)
        assert len(degenerate_level_pairs(dense)) >= layout.dim_bath // 2
        for unscaled, scaled in ((pipe.spectral, analytic_eigensystem(_scaled(spec, scale))),
                                 (dense, eigendecompose(scale * ham, layout))):
            assert degenerate_level_pairs(scaled) == degenerate_level_pairs(unscaled)
            assert np.array_equal(scaled.degenerate, unscaled.degenerate)


class TestMatrixFile:
    """Kind ``file`` through the command line: a matrix and its rotations,
    each written by ``write_matrix``, run with the same config."""

    LAYOUT = SpaceLayout(2, 48)

    @staticmethod
    def _run(tmp_path, name: str, ham: np.ndarray, layout: SpaceLayout, capsys) -> dict:
        path, out = tmp_path / f"{name}.mat", tmp_path / name
        write_matrix(path, ham, layout)
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"[model]\nkind = file\npath = {path}\n"
                       "[analysis]\ntheorems = T1, T1prime, T2i, T2ii, SufficientISI\n"
                       "subspace = full\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        lhs = {tid: json.loads((out / f"report_{tid}.json").read_text())["lhs"]
               for tid in (*LHS, "SufficientISI")}
        table = np.loadtxt(out / "reductions.csv", delimiter=",", skiprows=2)
        return {"lhs": lhs, "energy": table[:, 1], "purity": table[:, 2],
                "bloch": table[:, 3:]}

    def test_a_rotated_matrix_file_gives_the_same_readings(self, tmp_path, capsys):
        layout, rng = self.LAYOUT, generator(17)
        pipe = cli.Pipeline(cli.ExperimentConfig(kind="random", dim_system=2,
                                                 dim_bath=layout.dim_bath, seed=8))
        ham = pipe.parts().total()
        u, unitary = _haar(2, rng), _haar(layout.dim_bath, rng)
        runs = {name: self._run(tmp_path, name, turned, layout, capsys)
                for name, turned in (
                    ("plain", ham),
                    ("bath", _rotated(ham, np.kron(np.eye(2), unitary))),
                    ("system", _rotated(ham, np.kron(u, np.eye(layout.dim_bath)))))}
        plain = runs["plain"]
        for name, run in runs.items():
            for tid, value in plain["lhs"].items():
                assert _close(run["lhs"][tid], value), (name, tid)
            for column in ("energy", "purity"):
                assert _close(run[column], plain[column]), (name, column)
        assert _close(runs["bath"]["bloch"], plain["bloch"])
        assert _close(runs["system"]["bloch"], plain["bloch"] @ _bloch_rotation(u).T)
