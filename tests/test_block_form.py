"""The block form of the commuting models against the dense path.

Each model is built three times: in block form by ``analytic_eigensystem``;
densely with the same eigenvectors, expanded from the blocks by the oracle,
which is the dense path the commuting models took before the block form;
and densely from the oracle's Hamiltonian through ``eigendecompose``.  Every
stage output must agree with the first dense form within 1e-12 (the
trajectory at long times only up to the rounding of its phases,
max|E| t 2^-52), and with the second within 1e-12 too, except where an
output is first order in the eigenvectors: there eigh's own error, a few
2^-52 |H| / gap for an eigenvector whose nearest level is ``gap`` away,
sets the bound.  Hand-built qudit blocks (dS > 2) and sectors of two bath
levels (g = 2) must match their dense expansion the same way, degenerate
levels included.  The block form builds no d x d array on the way, its
evolution holds one block of phases at a time, the dense path holds each
d x d array once, and neither the spectral data nor the trajectory copies
the arrays it is given (the tracemalloc tests); the eigenvector matrix
that LAPACK writes, which tracemalloc does not see, is bounded by the peak
RSS of a fresh process.
"""

import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import isibench.spectral
from isibench import cli
from isibench.dynamics import evolve_reduced, stratified_times
from isibench.equilibrium import EigenstateReductions, delta, time_averaged_state
from isibench.hilbert import DENSE_BLOCK, PureState, SpaceLayout, tensor_product, weighted_sum
from isibench.models import (analytic_eigensystem, build_random_model, gaussian_hermitian,
                             sample_commuting_spec, sample_cucchietti_spec)
from isibench.sampling import generator, sample_amplitudes, sampled_distances
from isibench.spectral import SpectralData, degenerate_level_pairs, eigendecompose
from isibench.theorems import necessary_condition_lhs, theorem0_reports

from _oracles import (block_evolution_one_shot, build_commuting_model, expand_sectors,
                      kron_projection)

TOL = 1e-12
PLUS = PureState(np.array([1.0, 1.0]) / math.sqrt(2.0), space="system")
CASES = [("commuting", 1), ("commuting", 2), ("commuting", 7), ("commuting", 64),
         ("commuting", 1024), ("cucchietti", 1), ("cucchietti", 4), ("cucchietti", 10)]


def _spec(kind, size, field_scale=1.0, seed=None):
    rng = np.random.default_rng(900 + size if seed is None else seed)
    if kind == "commuting":
        return sample_commuting_spec(size, 1.0, 1.0, 1.0, rng)
    return sample_cucchietti_spec(size, 1.0, 1.0, field_scale, rng)


def _equilibrium_states(projection, reductions, amplitudes):
    """Equilibrium states of the (dR, count) amplitude columns a, the
    coordinates of states of R in the basis of the projection: sum_r |a_r|^2
    M_r for a grouped projection, sum_n |(a^H W)_n|^2 rho_n for a dense one."""
    if hasattr(projection, "matrix"):
        return weighted_sum(projection.populations(amplitudes), reductions.matrices)
    return weighted_sum(np.abs(amplitudes.T) ** 2, projection.stack(reductions.matrices))


def _stages(spectral, layout, initial, psi, horizon):
    """Every stage output that reads the eigenvectors, by name, for the
    subspaces built on the system state ``psi``; the trajectory is also
    sampled on 64 times of [0, horizon)."""
    reductions = EigenstateReductions(spectral.reductions())
    coeffs = spectral.coefficients(initial)
    out = {"overlaps": coeffs, "reductions": reductions.matrices,
           "purities": reductions.purities,
           "rho_bar": time_averaged_state(coeffs, reductions, spectral)}
    if reductions.bloch is not None:
        out["bloch"] = reductions.bloch
    prefix = max(1, layout.dim_bath // 3)
    for label, factor, k in (("full", None, None), ("product_bath", psi, None),
                             (f"bath_prefix:{prefix}", psi, prefix)):
        projection = spectral.projection(factor, k)
        draws = sample_amplitudes(projection.dim, 12, generator(7))
        out[f"{label} weights"] = projection.weights
        out[f"{label} delta"] = delta(reductions, projection)
        out[f"{label} equilibrium states"] = _equilibrium_states(projection,
                                                                 reductions, draws)
    # every form draws the whole space's Dirichlet populations of the
    # eigenbasis; the product subspaces draw them in the block form only,
    # so there the draws agree in law (test_dirichlet_draws_match_haar_draws_in_law)
    mean_report, tail_report = theorem0_reports(spectral.projection(),
                                                spectral, reductions, 0.02, 64, 11)
    out["T0i lhs"] = mean_report.lhs
    out["T0ii lhs"] = tail_report.lhs
    # max|E| t <= 1e3 keeps the phases of both paths within 1e-13
    short = np.linspace(0.0, 1e3 / spectral.spectral_norm, 41)
    out["trajectory"] = evolve_reduced(coeffs, spectral, short)
    long = stratified_times(horizon, 64, generator(3))
    out["trajectory at the horizon"] = evolve_reduced(coeffs, spectral, long)
    out["phase rounding"] = spectral.spectral_norm * long.max() * 2.0**-52
    return out


@pytest.fixture(scope="module", params=CASES, ids=[f"{k}-{n}" for k, n in CASES])
def built(request):
    """(spec, block form and its stages, expanded, eigendecomposed) of one model."""
    spec = _spec(*request.param)
    rng = generator(request.param[1])
    phi = PureState(sample_amplitudes(spec.dim_bath, 1, rng)[:, 0], space="bath")
    initial = tensor_product(PLUS, phi)
    block = analytic_eigensystem(spec)
    expanded = _dense(block, spec.layout)
    solved = eigendecompose(build_commuting_model(spec).total, spec.layout)
    # the run's horizon, from the closed-form level spacing for every form
    horizon = 1e3 / np.diff(block.eigenvalues).min()
    return (spec, block, *(_stages(s, spec.layout, initial, PLUS, horizon)
                           for s in (block, expanded, solved)), solved)


def _dense(spectral, layout):
    """The same eigensystem as one dense sector, expanded by the oracle."""
    return SpectralData(spectral.eigenvalues, expand_sectors(spectral, layout)[None], layout)


def _gap(a, b):
    return np.abs(np.asarray(a) - np.asarray(b))


def test_block_form_holds_no_dense_matrix(built):
    spec, block = built[:2]
    assert block.sectors.shape == (spec.dim_bath, 2, 2)


def test_every_stage_matches_the_dense_path(built):
    ours, theirs = built[2], built[3]
    for name, value in ours.items():
        bound = ours["phase rounding"] if name == "trajectory at the horizon" else TOL
        assert _gap(value, theirs[name]).max() <= max(bound, TOL), name


def test_every_stage_matches_eigendecompose(built):
    spec, block, ours, _, theirs, solved = built
    assert _gap(block.eigenvalues, solved.eigenvalues).max() <= TOL
    # eigh rotates eigenvectors whose levels lie `gap` apart by up to a few
    # 2^-52 |H| / gap; overlaps and populations feel that to first order
    spacing = np.diff(block.eigenvalues)
    gap = np.minimum(np.r_[np.inf, spacing], np.r_[spacing, np.inf])
    rotation = 4.0 * 2.0**-52 * block.spectral_norm / gap
    for name, value in ours.items():
        bound, other = TOL, theirs[name]
        if name == "overlaps":  # each eigenvector's phase is its solver's: compare |c_n|^2
            value, other = np.abs(value) ** 2, np.abs(other) ** 2
            bound = TOL + 2.0 * rotation
        elif name.endswith("equilibrium states"):
            # populations summing to one, each moved by at most 2 rotation
            bound = TOL + 2.0 * rotation.max()
        elif name == "trajectory at the horizon":
            bound = max(TOL, ours["phase rounding"])
        assert np.all(_gap(value, other) <= bound), name


def test_stack_reproduces_the_dense_populations(built):
    """sum_r |a_r|^2 M_r = sum_n |(x^H W)_n|^2 rho_n for fixed amplitudes a:
    x = B a with B the kron basis of a product subspace, where W = B^H V, and
    with B = V for the whole space, where the oracle takes W = V and x = V a."""
    spec, block = built[:2]
    layout = spec.layout
    vectors = expand_sectors(block, layout)
    reductions = EigenstateReductions(block.reductions())
    prefix = max(1, layout.dim_bath // 3)
    for state, k in ((None, None), (PLUS, None), (PLUS, prefix)):
        projection = block.projection(state, k)
        amplitudes = sample_amplitudes(projection.dim, 12, generator(17))
        if state is None:
            columns, matrix = vectors @ amplitudes, vectors
        else:
            columns, matrix = amplitudes, kron_projection(vectors, state.amplitudes, k)
        populations = np.abs(columns.conj().T @ matrix) ** 2
        expected = np.einsum("cn,nij->cij", populations, reductions.matrices)
        states = _equilibrium_states(projection, reductions, amplitudes)
        assert _gap(states, expected).max() <= TOL, (state, k)


@pytest.mark.parametrize("kind, size, prefix", [("commuting", 64, None),
                                                ("commuting", 64, 21),
                                                ("cucchietti", 5, None)])
def test_dirichlet_draws_match_haar_draws_in_law(kind, size, prefix):
    """The T0 distances of a product subspace from the Dirichlet weights of
    the block form and from the Haar amplitudes of its dense expansion: the
    mean, and the frequency beyond the block form's mean, within 3 SE."""
    spec = _spec(kind, size)
    block = analytic_eigensystem(spec)
    expanded = _dense(block, spec.layout)
    estimates, threshold = [], None
    for spectral, seed in ((block, 21), (expanded, 22)):
        reductions = EigenstateReductions(spectral.reductions())
        projection = spectral.projection(PLUS, prefix)
        assert hasattr(projection, "matrix") == (spectral is expanded)
        reference = np.einsum("n,nij->ij", projection.weights, reductions.matrices)
        if threshold is None:
            width, states_of = projection.sampler(reductions.matrices, generator(20))
            threshold = sampled_distances(states_of, width, reference, 0.0, 4000)[0][0]
        width, states_of = projection.sampler(reductions.matrices, generator(seed))
        estimates.append(sampled_distances(states_of, width, reference, threshold, 20_000))
    (dirichlet_mean, dirichlet_se), (haar_mean, haar_se) = estimates
    assert 0.2 < dirichlet_mean[1] < 0.8
    spread = np.hypot(dirichlet_se, haar_se)
    assert np.all(np.abs(dirichlet_mean - haar_mean) <= 3.0 * spread)


def test_degenerate_block_average_agrees():
    # field_scale = 0 leaves every bath level degenerate with its bit
    # complement, so the levels E = -/+ r_l/2 come in exactly equal pairs.
    # They lie in different sectors, so the block form has no pair to
    # average over, while eigh mixes each pair and the dense form has them
    spec = _spec("cucchietti", 6, field_scale=0.0, seed=5)
    block = analytic_eigensystem(spec)
    dense = eigendecompose(build_commuting_model(spec).total, spec.layout)
    assert degenerate_level_pairs(block) == []
    assert len(degenerate_level_pairs(dense)) >= spec.dim_bath // 2
    phi = PureState(sample_amplitudes(spec.dim_bath, 1, generator(5))[:, 0],
                    space="bath")
    initial = tensor_product(PLUS, phi)
    averages = [time_averaged_state(s.coefficients(initial),
                                    EigenstateReductions(s.reductions()), s,
                                    allow_degenerate=True) for s in (block, dense)]
    assert _gap(*averages).max() <= TOL


def _qudit_blocks(ds, db, seed, degenerate=False):
    """Block form of a system qudit on a commuting bath: random unitary
    blocks and level energies; ``degenerate`` repeats one energy inside
    every level."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((db, ds, ds)) + 1j * rng.standard_normal((db, ds, ds))
    unitaries = np.linalg.qr(raw)[0]
    energies = rng.uniform(-1.0, 1.0, size=(db, ds))
    if degenerate:
        energies[:, 1] = energies[:, 0]
    return SpectralData(energies, unitaries, SpaceLayout(ds, db))


@pytest.mark.parametrize("ds, db", [(3, 5), (4, 16)])
def test_qudit_blocks_match_their_dense_expansion(ds, db):
    block = _qudit_blocks(ds, db, 40 + ds)
    layout = SpaceLayout(ds, db)
    expanded = _dense(block, layout)
    rng = generator(ds)
    initial = PureState(sample_amplitudes(ds * db, 1, rng)[:, 0], space="composite")
    psi = PureState(sample_amplitudes(ds, 1, rng)[:, 0], space="system")
    horizon = 1e3 / np.diff(block.eigenvalues).min()
    ours, theirs = (_stages(s, layout, initial, psi, horizon) for s in (block, expanded))
    for name, value in ours.items():
        bound = ours["phase rounding"] if name == "trajectory at the horizon" else TOL
        assert _gap(value, theirs[name]).max() <= max(bound, TOL), name


def test_degenerate_levels_inside_a_block_keep_their_coherence():
    # two equal energies on every bath level: the infinite-time average keeps
    # the coherence of each pair, which the block form reads from the pairs
    # that share a level
    ds, db = 3, 6
    block = _qudit_blocks(ds, db, 47, degenerate=True)
    layout = SpaceLayout(ds, db)
    expanded = _dense(block, layout)
    assert len(degenerate_level_pairs(block)) == db
    initial = PureState(sample_amplitudes(ds * db, 1, generator(9))[:, 0],
                        space="composite")
    averages = [time_averaged_state(s.coefficients(initial),
                                    EigenstateReductions(s.reductions()), s,
                                    allow_degenerate=True)
                for s in (block, expanded)]
    assert _gap(*averages).max() <= TOL
    populations = np.abs(block.coefficients(initial)) ** 2
    plain = np.einsum("n,nij->ij", populations,
                      EigenstateReductions(block.reductions()).matrices)
    assert _gap(averages[0], plain).max() > 1e-3
    times = np.linspace(0.0, 50.0, 9)
    paths = [evolve_reduced(s.coefficients(initial), s, times)
             for s in (block, expanded)]
    assert _gap(*paths).max() <= TOL


@pytest.mark.parametrize("ds", [3, 4, 6])
def test_pure_reductions_in_one_basis_reach_the_largest_necessary_lhs(ds):
    # identity blocks: every eigenstate reduction is a basis projector, so the
    # bath average dephases psi and the supremum 2(1 - 1/dS) sits at a basis state
    db = 5
    energies = np.arange(db * ds, dtype=float).reshape(db, ds) * 0.37
    spectral = SpectralData(energies, np.broadcast_to(np.eye(ds), (db, ds, ds)),
                            SpaceLayout(ds, db))
    reductions = EigenstateReductions(spectral.reductions())
    assert _gap(reductions.purities, 1.0).max() <= TOL
    value = necessary_condition_lhs(reductions, n_starts=16, seed=3)
    assert abs(value - 2.0 * (1.0 - 1.0 / ds)) <= TOL


def test_cucchietti_pipeline_allocates_no_dense_matrix():
    """d = 4096: one complex d x d array would be 268 MB; the stages stay under 128 MB."""
    config = cli.ExperimentConfig(kind="cucchietti", n_spins=11,
                                  theorems=("T0i", "T0ii", "Popescu"),
                                  dynamics_enabled=True, n_times=500)
    tracemalloc.start()
    try:
        pipe = cli.Pipeline(config).prepare()
        _ = pipe.reports, pipe.rho_bar, pipe.dynamics
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pipe.spectral.dim == 4096
    assert set(pipe.reports[0]) == {"T0i", "T0ii", "Popescu"}
    assert peak < 128 * 2**20, f"peak {peak / 2**20:.0f} MB"


def test_a_run_computes_the_level_table_once(tmp_path, monkeypatch, capsys):
    """d = 2^17: the gate, the verdict, the margin, the T0 reports and the
    dynamics all read the table that the spectral data derived once."""
    levels, calls = SpectralData._sector_levels, []

    def counted(self):
        calls.append(self.dim)
        return levels(self)

    monkeypatch.setattr(SpectralData, "_sector_levels", counted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nkind = cucchietti\nn_spins = 16\n[analysis]\ntheorems = "
                   "SufficientISI, T0i, T0ii, T1prime, T2i, T2ii, Popescu\nn_samples = 64\n"
                   "[dynamics]\nenabled = true\nn_times = 16\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "nondegenerate spectrum: true" in capsys.readouterr().out
    assert calls == [2**17]


def test_dephased_average_holds_no_list_of_pairs():
    """d = 2^17 with every bath level's two levels paired (65,536 pairs): the
    dephased average reads the mask; a list of the pairs alone holds 8 MiB."""
    config = cli.ExperimentConfig(kind="cucchietti", n_spins=16, field_scale=1e12,
                                  allow_degenerate=True)
    pipe = cli.Pipeline(config)
    _ = pipe.coeffs, pipe.reductions
    assert len(degenerate_level_pairs(pipe.spectral)) == 2**16
    tracemalloc.start()
    try:
        _ = pipe.rho_bar
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_dense_pipeline_holds_each_dense_array_once(monkeypatch):
    """d = 1024, one complex d x d array being 16 MiB: when the eigensolver
    starts only H is alive, and the stages stay under 6 such arrays (numpy's
    traced allocations; LAPACK's workspace is not among them)."""
    array = 1024**2 * 16
    eigh, at_eigh = isibench.spectral._eigh, []

    def spy(mat, mirrored):
        at_eigh.append(tracemalloc.get_traced_memory()[0])
        return eigh(mat, mirrored)

    monkeypatch.setattr(isibench.spectral, "_eigh", spy)
    config = cli.ExperimentConfig(kind="random", dim_system=2, dim_bath=512,
                                  dynamics_enabled=True, n_times=2000)
    tracemalloc.start()
    try:
        pipe = cli.Pipeline(config).prepare()
        _ = pipe.reports, pipe.rho_bar, pipe.dynamics
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pipe.spectral.dim == 1024
    assert set(pipe.reports[0]) == {"SufficientISI", "T2i", "T2ii"}
    assert len(at_eigh) == 1 and at_eigh[0] < 1.25 * array, \
        f"{at_eigh[0] / array:.2f} arrays alive when eigh starts"
    assert peak < 6 * array, f"peak {peak / 2**20:.0f} MiB"


@pytest.mark.parametrize("n_times", [1, 255, 256, 257, 700])
@pytest.mark.parametrize("ds", [2, 3, 4])
def test_blocked_evolution_matches_the_one_shot_phase_table(ds, n_times):
    # the times are worked through 256 at a time; each block's rows must be
    # those of one table of every phase, to the rounding of the contraction.
    # Sectors of m <= 3 eigenvectors (dS = 2, 3) use that table themselves;
    # dS = 4 evolves the amplitudes, whose phases E t round differently from
    # the Bohr phases w t, by up to max|E| t 2^-52
    spectral = _qudit_blocks(ds, 40, 60 + ds)
    rng = np.random.default_rng(n_times)
    values = sample_amplitudes(spectral.dim, 1, rng)[:, 0]
    times = np.sort(rng.uniform(0.0, 1e3, size=n_times))
    ours = spectral.evolved_reductions(values, times)
    oracle = block_evolution_one_shot(spectral, values, times)
    assert ours.shape == (n_times, ds, ds)
    if ds <= 3:
        assert ours.flags.c_contiguous
        assert np.abs(ours - oracle).max() <= 1e-15 * np.abs(oracle).max()
    else:
        assert np.abs(ours - oracle).max() <= spectral.spectral_norm * times.max() * 2.0**-52


def test_block_evolution_holds_one_block_of_phases():
    """dB = 4096 and 2000 times: the whole (2000, 4096) phase table would be
    125 MiB; one block of 256 times is 16 MiB."""
    ds, db = 2, 4096
    spectral = _qudit_blocks(ds, db, 71)
    values = sample_amplitudes(spectral.dim, 1, generator(73))[:, 0]
    times = stratified_times(1e3, 2000, generator(79))
    tracemalloc.start()
    try:
        states = spectral.evolved_reductions(values, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.shape == (2000, ds, ds)
    assert peak < 48 * 2**20, f"peak {peak / 2**20:.0f} MiB"


def test_phase_table_holds_at_most_a_square_block_of_entries():
    """dB = 10,000 Bohr frequencies and 600 times: the phase table holds
    256^2 // 10,000 = 6 times (960 KiB, not the 39 MiB of 256), and every
    row keeps the bits it has when evolved alone."""
    ds, db = 2, 10_000
    spectral = _qudit_blocks(ds, db, 83)
    values = sample_amplitudes(spectral.dim, 1, generator(89))[:, 0]
    times = stratified_times(1e3, 600, generator(97))
    tracemalloc.start()
    try:
        states = spectral.evolved_reductions(values, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    for row in (0, 5, 6, 599):
        alone = spectral.evolved_reductions(values, times[row:row + 1])
        assert np.array_equal(alone[0], states[row])


def _two_level_sectors(ds, seed):
    """g = 2: a dS-level system on dB = 8 bath levels in n_sec = 4 sectors of
    two levels, with random unitary sector blocks.  Two energies repeat: one
    inside sector 0 and one across sectors 1 and 2."""
    n_sec, m = 4, 2 * ds
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_sec, m, m)) + 1j * rng.standard_normal((n_sec, m, m))
    energies = rng.uniform(-1.0, 1.0, size=(n_sec, m))
    energies[0, 1] = energies[0, 0]
    energies[2, 0] = energies[1, 0]
    layout = SpaceLayout(ds, 8)
    return SpectralData(energies, np.linalg.qr(raw)[0], layout), layout


@pytest.mark.parametrize("ds", [2, 3])
def test_sectors_of_two_levels_match_their_dense_expansion(ds):
    sectors, layout = _two_level_sectors(ds, 80 + ds)
    dense = _dense(sectors, layout)
    assert sectors.sectors.shape == (4, 2 * ds, 2 * ds)
    rng = generator(ds)
    values = sample_amplitudes(layout.dim_total, 1, rng)[:, 0]
    psi = PureState(sample_amplitudes(ds, 1, rng)[:, 0], space="system")
    state = PureState(values)
    # the repeat across sectors 1 and 2 is no pair: only the one inside sector 0
    assert len(degenerate_level_pairs(sectors)) == 1
    times = np.linspace(0.0, 50.0, 300)
    readers = {
        "coefficients": lambda s: s.coefficients(state),
        "reductions": lambda s: s.reductions(),
        "whole space": lambda s: s.projection().weights,
        "dephased_reduction": lambda s: s.dephased_reduction(values),
        "evolved_reductions": lambda s: s.evolved_reductions(values, times),
    }
    for k in (None, 1, 3, 8):
        readers[f"product subspace {k}"] = lambda s, k=k: s.projection(psi, k).matrix
    for name, read in readers.items():
        assert _gap(read(sectors), read(dense)).max() <= TOL, name
    # the pair inside sector 0 keeps its coherence
    plain = np.einsum("n,nij->ij", np.abs(sectors.coefficients(state)) ** 2,
                      sectors.reductions())
    assert _gap(readers["dephased_reduction"](sectors), plain).max() > 1e-3


@pytest.mark.parametrize("kind", ["commuting", "dense"])
def test_product_subspace_without_a_prefix_takes_every_bath_level(kind):
    spec = sample_commuting_spec(8, 1.0, 1.0, 1.0, np.random.default_rng(5))
    spectral = analytic_eigensystem(spec)
    if kind == "dense":
        spectral = _dense(spectral, spec.layout)
    whole = spectral.projection(PLUS)
    prefix = spectral.projection(PLUS, spec.dim_bath)
    assert whole.dim == spec.dim_bath
    assert np.array_equal(whole.weights, prefix.weights)


def test_eigendecompose_keeps_the_eigenvectors_it_checks():
    """d = 1024: above H, the call holds the eigenvector matrix, eigh's
    output, once, and the checks' slabs; SpectralData takes it without a
    copy (numpy's traced allocations; LAPACK's workspace is not among them)."""
    array = 1024**2 * 16
    mat = gaussian_hermitian(1024, generator(3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spectral = eigendecompose(mat)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert not spectral.sectors.flags.writeable
    assert peak <= 1.6 * array, f"peak {peak / array:.2f} arrays above H"


def test_eigendecompose_raises_the_peak_rss_by_one_and_a_fifth_arrays_at_most():
    """d = 1024, in a fresh process: the solver works on H's own buffer, so
    the eigenvector matrix, which LAPACK writes and tracemalloc does not
    see, raises the peak RSS by at most 1.2 complex d x d arrays above H (a
    copy of H for the solver took 1.6, numpy's eigh about 4).  The peak is
    the process's own VmHWM: ru_maxrss keeps the peak of the process that
    spawned it.  A d = 256 solve first maps the BLAS buffers."""
    if not Path("/proc/self/status").is_file():
        pytest.skip("no /proc/self/status to read the peak RSS from")
    probe = ("from isibench.models import gaussian_hermitian\n"
             "from isibench.sampling import generator\n"
             "from isibench.spectral import eigendecompose\n"
             "def peak():\n"
             "    with open('/proc/self/status') as status:\n"
             "        return next(int(line.split()[1]) * 1024 for line in status\n"
             "                    if line.startswith('VmHWM:'))\n"
             "eigendecompose(gaussian_hermitian(256, generator(1)))\n"
             "mat = gaussian_hermitian(1024, generator(3))\n"
             "before = peak()\n"
             "eigendecompose(mat)\n"
             "print((peak() - before) / mat.nbytes)\n")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    arrays = float(result.stdout)
    assert arrays <= 1.2, f"peak RSS up {arrays:.2f} arrays"


def test_assembly_holds_slabs_of_bath_width():
    """dS = 2, dB = 512: total() writes each block of 256 rows in place, so
    its temporaries besides H stay under 1.5 slabs of (256, d) complex
    entries (whole slabs of each lifted term took about 2.8)."""
    ham = build_random_model(2, 512, 1.0, generator(13))
    slab = DENSE_BLOCK * ham.layout.dim_total * 16
    tracemalloc.start()
    try:
        total = ham.total()
        temporaries = tracemalloc.get_traced_memory()[1] - total.nbytes
    finally:
        tracemalloc.stop()
    assert temporaries <= 1.5 * slab, f"temporaries {temporaries / slab:.2f} slabs"


def test_one_sector_coefficients_conjugate_the_vector_not_the_eigenvectors():
    """d = 1024: <n|x> for the one sector of the dense path holds no d x d
    temporary, under a quarter of one (numpy's traced allocations)."""
    array = 1024**2 * 16
    layout = SpaceLayout(2, 512)
    spectral = eigendecompose(gaussian_hermitian(layout.dim_total, generator(9)), layout)
    values = sample_amplitudes(layout.dim_total, 1, generator(11))[:, 0]
    state = PureState(values)
    tracemalloc.start()
    try:
        coefficients = spectral.coefficients(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vectors = spectral.sectors[0]
    assert np.abs(coefficients - (vectors.conj().T @ values)[spectral.order]).max() < 1e-14
    assert peak < 0.25 * array, f"peak {peak / array:.3f} arrays"


def test_dense_product_projection_is_written_in_place():
    """dS = 3, dB = 128: each sector's einsum writes its own rows of W, so the
    call holds W once (the one sector of the dense path) and W keeps the bits
    of one einsum over the eigenvector matrix."""
    layout = SpaceLayout(3, 128)
    spectral = eigendecompose(gaussian_hermitian(layout.dim_total, generator(5)), layout)
    psi = sample_amplitudes(3, 1, generator(7))[:, 0]
    state = PureState(psi, space="system")
    tracemalloc.start()
    try:
        matrix = spectral.projection(state).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_einsum = np.einsum("s,sjn->jn", psi.conj(),
                           spectral.sectors[0].reshape(3, 128, layout.dim_total))
    assert np.array_equal(matrix, one_einsum)
    assert peak <= 1.25 * matrix.nbytes, f"peak {peak / matrix.nbytes:.2f} W"


def test_dynamics_stage_keeps_the_evolved_trajectory():
    """The commuting model of sec5_violation at dB = 16 with 500,000 times:
    the trajectory is 30.5 MiB, and the stage holds it once (no copy),
    besides the 3.8 MiB of times, the 3.8 MiB of distances and one block of
    the checks' and distances' temporaries."""
    config = cli.ExperimentConfig(kind="commuting", dim_bath=16, dynamics_enabled=True,
                                  n_times=500_000)
    pipe = cli.Pipeline(config)
    _ = pipe.coeffs, pipe.rho_bar
    tracemalloc.start()
    try:
        states = pipe.dynamics[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not states.flags.writeable
    assert peak <= 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"
