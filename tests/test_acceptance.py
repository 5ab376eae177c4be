"""Acceptance checklist for the testbench's headline guarantees.

One test per criterion, in order; each prints a single PASS/FAIL line to the
real terminal (outside pytest's capture) so a ``pytest -v`` run doubles as a
signed checklist.  Criteria with a runtime budget assert it too.
"""

import math
import time

import numpy as np
from mpmath import mp, mpf

from isibench import cli
from isibench.dynamics import evolve_reduced, stratified_times
from isibench.equilibrium import EigenstateReductions, delta, time_averaged_state
from isibench.hilbert import (PureState, SpaceLayout, batched_trace_distances,
                              tensor_product, trace_distance)
from isibench.models import analytic_eigensystem, build_random_model, sample_commuting_spec
from isibench.sampling import generator, sample_amplitudes
from isibench.spectral import eigendecompose
from isibench.theorems import (CONCENTRATION_RATE, concentration_tail,
                               THEOREMS, epsilon_prime,
                               necessary_condition_lhs, necessary_condition_reports,
                               popescu_report,
                               sufficient_condition_report, theorem0_reports,
                               theorem0_rhs,
                               theorem2_lhs,
                               theorem2_reports)

from _oracles import (batched_partial_trace_bath, bath_averaged_equilibrium,
                      build_commuting_model, expand_sectors,
                      finite_time_average, mean_and_standard_error,
                      mp_concentration_tail, mp_epsilon_prime,
                      mp_theorem0_strong, partial_trace_system, ptrace_bath_loop,
                      ptrace_system_loop, random_density_factor, random_state,
                      stream_generators)

PLUS = PureState(np.array([1.0, 1.0]) / math.sqrt(2.0), space="system")


def _finish(capsys, number, label, start, budget, failures):
    elapsed = time.perf_counter() - start
    over = budget is not None and elapsed > budget
    status = "FAIL" if failures or over else "PASS"
    with capsys.disabled():
        print(f"{status} criterion {number}: {label} [{elapsed:.1f}s]")
    assert not failures, f"criterion {number}: " + "; ".join(failures)
    if budget is not None:
        assert elapsed <= budget, (f"criterion {number} took {elapsed:.1f}s, "
                                   f"budget {budget:.0f}s")


def _rel_gap(value, reference):
    reference = float(reference)
    return abs(value - reference) / max(1.0, abs(reference))


def test_criterion_1_commuting_model_violation(tmp_path, capsys):
    start = time.perf_counter()
    failures = []

    rng = np.random.default_rng(20260819)
    spec = sample_commuting_spec(256, 1.0, 1.0, 1.0, rng)
    spectral = analytic_eigensystem(spec)
    reductions = EigenstateReductions(spectral.reductions())

    radii = np.linalg.norm(reductions.bloch, axis=1)
    if not np.allclose(radii, 1.0, atol=1e-10, rtol=0.0):
        failures.append(f"polarization radii off unit by {np.abs(radii - 1).max():.2e}")

    lhs_ii = theorem2_lhs(reductions)[1]
    if abs(lhs_ii - 1.0) > 1e-10:
        failures.append(f"mean squared polarization {lhs_ii!r} != 1")

    delta_value = delta(reductions, spectral.projection(PLUS))
    if abs(delta_value - 1.0) > 1e-10:
        failures.append(f"delta {delta_value!r} != 1")

    out_dir = tmp_path / "run"
    code = cli.main(["run", "--config", "sec5_violation", "--out", str(out_dir)])
    capsys.readouterr()
    if code != 0:
        failures.append(f"bundled run exited {code}")
    else:
        summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
        wanted = "system ISI cannot hold with accuracy better than ≈ 1/3"
        if wanted not in summary:
            failures.append("summary lacks the accuracy-1/3 conclusion")

    _finish(capsys, 1, "pure commuting reductions force the necessary-condition "
            "violation at dS=2, dB=256", start, 30.0, failures)


def test_criterion_2_analytic_matches_dense(capsys):
    start = time.perf_counter()
    failures = []

    baths = [4, 6, 8, 12, 16, 24, 32, 48, 64, 96,
             128, 128, 192, 256, 256, 320, 384, 448, 512, 512]
    rng = np.random.default_rng(77)
    worst = worst_reduction = 0.0
    for db in baths:
        spec = sample_commuting_spec(db, 1.0, 1.0, 1.0, rng)
        analytic = analytic_eigensystem(spec)
        dense = eigendecompose(build_commuting_model(spec).total, spec.layout)
        gap = float(np.abs(analytic.eigenvalues - dense.eigenvalues).max())
        worst = max(worst, gap / dense.spectral_norm)
        if gap > 1e-10 * dense.spectral_norm:
            failures.append(f"dB={db}: energy gap {gap:.2e} exceeds "
                            f"1e-10 * {dense.spectral_norm:.3g}")
        # every other stage is compared in tests/test_block_form.py
        reduction_gap = float(np.abs(
            EigenstateReductions(analytic.reductions()).matrices
            - EigenstateReductions(dense.reductions()).matrices).max())
        worst_reduction = max(worst_reduction, reduction_gap)
        if reduction_gap > 1e-12:
            failures.append(f"dB={db}: block and dense eigenstate reductions differ "
                            f"by {reduction_gap:.2e}")

    _finish(capsys, 2, f"closed-form energies and block-form reductions match the "
            f"dense solver over 20 specs (worst relative energy gap {worst:.1e}, "
            f"worst reduction gap {worst_reduction:.1e})", start, 120.0, failures)


def _equilibrated_fraction(spectral, layout, n_draws, seed):
    reductions = EigenstateReductions(spectral.reductions())
    horizon = 1.0e3 / spectral.min_sector_spacing  # the horizon rule of `run`
    bound = 2.0 * layout.dim_system / math.sqrt(layout.dim_bath)
    draw_rng, time_rng = stream_generators(seed, 2)
    hits = 0
    for _ in range(n_draws):
        phi = PureState(sample_amplitudes(layout.dim_bath, 1, draw_rng)[:, 0], space="bath")
        coeffs = spectral.coefficients(tensor_product(PLUS, phi))
        equilibrium = time_averaged_state(coeffs, reductions, spectral)
        times = stratified_times(horizon, 2000, time_rng)
        states = evolve_reduced(coeffs, spectral, times)
        metric = float(batched_trace_distances(states, equilibrium).mean())
        hits += metric <= bound
    return hits / n_draws


def test_criterion_3_equilibration_bound(capsys):
    start = time.perf_counter()
    failures = []

    spec = sample_commuting_spec(256, 1.0, 1.0, 1.0, np.random.default_rng(31))
    commuting_fraction = _equilibrated_fraction(analytic_eigensystem(spec),
                                                spec.layout, 200, 311)
    if commuting_fraction < 0.99:
        failures.append(f"commuting model: only {commuting_fraction:.1%} of draws "
                        "stayed within 0.25")

    layout = SpaceLayout(2, 256)
    ham = build_random_model(2, 256, 1.0, np.random.default_rng(32))
    random_fraction = _equilibrated_fraction(eigendecompose(ham.total(), layout), layout,
                                             200, 321)
    if random_fraction < 0.99:
        failures.append(f"random model: only {random_fraction:.1%} of draws "
                        "stayed within 0.25")

    _finish(capsys, 3, "time-averaged distance to equilibrium is below "
            f"2 dS / sqrt(dR) = 0.25 for {commuting_fraction:.1%} (commuting) and "
            f"{random_fraction:.1%} (random) of 200 bath draws", start, 600.0,
            failures)


def test_criterion_4_averaged_equilibrium_closed_forms(capsys):
    start = time.perf_counter()
    failures = []

    layout = SpaceLayout(2, 16)
    ham = build_random_model(2, 16, 1.0, np.random.default_rng(41))
    spectral = eigendecompose(ham.total(), layout)
    reductions = EigenstateReductions(spectral.reductions())
    eigenvectors = expand_sectors(spectral, layout)
    matrices = reductions.matrices

    def rho_bar(system, bath):
        """Equilibrium states of the product columns system (x) bath."""
        columns = (system[:, None, :] * bath[None, :, :]).reshape(32, -1)
        populations = np.abs(eigenvectors.conj().T @ columns) ** 2
        return np.einsum("nc,nij->cij", populations, matrices)

    closed = bath_averaged_equilibrium(PLUS.amplitudes, matrices, 16)
    plus = PLUS.amplitudes[:, None]
    mean, se = mean_and_standard_error(rho_bar(plus, sample_amplitudes(16, 10_000,
                                                                      generator(42))))
    gap = np.abs(mean - closed)
    if not np.all(gap <= 3.0 * se + 1e-15):
        failures.append(f"bath average misses the closed form by "
                        f"{(gap / (se + 1e-300)).max():.1f} SE")

    def joint_product(columns):
        # one draw of C^18 is the draws of C^2 and C^16 in turn; each factor
        # is renormalised on its own
        system, bath = columns[:2], columns[2:]
        return rho_bar(system / np.linalg.norm(system, axis=0),
                       bath / np.linalg.norm(bath, axis=0))

    mean, se = mean_and_standard_error(joint_product(sample_amplitudes(18, 10_000,
                                                                       generator(43))))
    gap = np.abs(mean - np.eye(2) / 2.0)
    if not np.all(gap <= 3.0 * se + 1e-15):
        failures.append(f"joint average misses I/2 by "
                        f"{(gap / (se + 1e-300)).max():.1f} SE")

    _finish(capsys, 4, "Monte Carlo averaged equilibrium states match the two "
            "closed forms within 3 SE elementwise (10^4 draws each)", start, 300.0,
            failures)


def test_criterion_5_polarization_inequalities(capsys):
    start = time.perf_counter()
    failures = []

    rng = np.random.default_rng(51)
    margins = np.empty((10_000, 3))
    for k in range(10_000):
        d = int(rng.integers(2, 65))
        directions = rng.normal(size=(d, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        vectors = directions * rng.uniform(size=(d, 1)) ** (1.0 / 3.0)
        gram = vectors.T @ vectors
        tr = float(np.trace(gram))
        tr_sq = float((gram * gram).sum())
        top = float(np.linalg.eigvalsh(gram)[-1])
        margins[k] = (tr_sq - tr**2 / 3.0,
                      top - math.sqrt(tr_sq / 3.0),
                      math.sqrt(tr_sq) - tr / math.sqrt(3.0))
    names = ("pairwise-alignment inequality", "top-eigenvalue chain link",
             "trace chain link")
    for name, margin in zip(names, margins.min(axis=0)):
        if margin < -1e-10:
            failures.append(f"{name} dips to {margin:.2e}")

    # The same statistics through the reduction-based evaluators, on sign
    # paired sets so the eigenbasis-completeness identity holds.
    for k in range(100):
        m = int(rng.integers(1, 33))
        directions = rng.normal(size=(m, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        vectors = directions * rng.uniform(size=(m, 1)) ** (1.0 / 3.0)
        paired = np.concatenate([vectors, -vectors])
        mats = 0.5 * (np.eye(2)[None, :, :]
                      + np.einsum("na,aij->nij", paired,
                                  np.array([[[0, 1], [1, 0]],
                                            [[0, -1j], [1j, 0]],
                                            [[1, 0], [0, -1]]])))
        reductions = EigenstateReductions(matrices=mats)
        d = 2 * m
        gram = paired.T @ paired
        lhs_i, lhs_ii = theorem2_lhs(reductions)
        top = necessary_condition_lhs(reductions)
        checks = (
            abs(lhs_i - math.sqrt((gram * gram).sum()) / d),
            abs(lhs_ii - float(np.trace(gram)) / d),
            abs(top - float(np.linalg.eigvalsh(gram)[-1]) / d),
        )
        if max(checks) > 1e-12:
            failures.append(f"set {k}: evaluators drift {max(checks):.2e} "
                            "from the Gram-matrix formulas")
            break
        if not (top + 1e-10 >= lhs_i / math.sqrt(3.0)
                and lhs_i + 1e-10 >= lhs_ii / math.sqrt(3.0)):
            failures.append(f"set {k}: evaluator chain ordering broken")
            break

    _finish(capsys, 5, "polarization Gram inequalities hold on 10^4 random "
            "vector sets and the evaluator chain on every instance", start, 60.0,
            failures)


def test_criterion_6_concentration_bound_honesty(capsys):
    start = time.perf_counter()
    failures = []

    # Arithmetic against 60-digit evaluation.
    worst = 0.0
    for dim in (4, 64, 256, 4096, 10**6, 10**9):
        for eps in (0.05, 0.3, 1.0, 1.5):
            if CONCENTRATION_RATE * dim * eps**2 > 600.0:
                continue
            worst = max(worst, _rel_gap(concentration_tail(dim, eps),
                                        mp_concentration_tail(dim, eps)))
    for dim in (16, 1024, 10**6, 10**12):
        for eps in (0.0, 0.01, 0.1):
            for ds in (2, 3):
                for p in (0.5, 1.0):
                    worst = max(worst, _rel_gap(epsilon_prime(eps, ds, dim, p),
                                                mp_epsilon_prime(eps, ds, dim, p)))
    for dim in (4, 256, 65536):
        for delta_value in (0.5, 1.0):
            strong, weak = theorem0_rhs(2, dim, delta_value)
            worst = max(worst, _rel_gap(strong, mp_theorem0_strong(2, dim,
                                                                   delta_value)))
            worst = max(worst, _rel_gap(weak, mp.sqrt(mpf(2) / dim)))
    for db in (16, 512, 4096):
        for eps in (0.1, 0.5):
            report = popescu_report(SpaceLayout(2, db), eps, 2, 0)
            worst = max(worst, _rel_gap(report.parameters["distance_threshold"],
                                        mp.sqrt(mpf(2) / db) + mpf(eps)))
            worst = max(worst, _rel_gap(report.rhs, mp_concentration_tail(db, eps)))
    if worst > 1e-12:
        failures.append(f"closed-form arithmetic drifts {worst:.2e} from "
                        "the high-precision oracle")

    # Vacuity flags across a desk-scale batch of reports, then one-sided
    # empirical containment for the non-vacuous tail bounds.
    reports = []
    spec = sample_commuting_spec(16, 1.0, 1.0, 1.0, np.random.default_rng(61))
    spectral = analytic_eigensystem(spec)
    reductions = EigenstateReductions(spectral.reductions())
    small = spectral.projection(PLUS)
    delta_small = delta(reductions, small)
    reports.append(sufficient_condition_report(delta_small))
    reports.extend(theorem0_reports(small, spectral, reductions, 0.05, 400, 62))
    reports.append(theorem0_reports(small, spectral, reductions, 0.5, 400, 63)[1])
    reports.append(necessary_condition_reports(reductions, 0.05, 16, 1.0, 8, 64)[1])
    reports.extend(theorem2_reports(reductions, 0.05))
    reports.append(popescu_report(spec.layout, 0.05, 400, 65))

    wide_spec = sample_commuting_spec(128, 1.0, 1.0, 1.0, np.random.default_rng(66))
    wide_spectral = analytic_eigensystem(wide_spec)
    wide_reductions = EigenstateReductions(wide_spectral.reductions())
    wide = wide_spectral.projection()
    reports.append(theorem0_reports(wide, wide_spectral, wide_reductions, 1.5, 10_000, 67)[1])

    deep_spec = sample_commuting_spec(256, 1.0, 1.0, 1.0, np.random.default_rng(68))
    deep_spectral = analytic_eigensystem(deep_spec)
    deep_reductions = EigenstateReductions(deep_spectral.reductions())
    deep = deep_spectral.projection(PLUS)
    reports.append(theorem0_reports(deep, deep_spectral, deep_reductions, 1.5, 10_000, 69)[1])

    reports.append(popescu_report(SpaceLayout(2, 4096), 0.5, 10_000, 70))

    tail_ids = {"T0ii", "Popescu"}
    n_nonvacuous_tails = 0
    for report in reports:
        flagged = report.verdict == "vacuous"
        out_of_range = report.rhs >= THEOREMS[report.theorem_id].max_lhs(report.parameters)
        if flagged != out_of_range:
            failures.append(f"{report.theorem_id}: vacuous flag {flagged} but "
                            f"rhs {report.rhs:.3g} vs range cap")
        if report.theorem_id in tail_ids and not flagged:
            n_nonvacuous_tails += 1
            if report.lhs > report.rhs:
                failures.append(f"{report.theorem_id}: empirical tail {report.lhs} "
                                f"exceeds the bound {report.rhs:.3g}")
    if n_nonvacuous_tails < 3:
        failures.append(f"only {n_nonvacuous_tails} non-vacuous tail bounds "
                        "were exercised")

    _finish(capsys, 6, f"vacuity flags track the metric ranges across "
            f"{len(reports)} reports and every non-vacuous tail bound contains "
            "its 10^4-sample frequency", start, None, failures)


def test_criterion_7_average_and_trace_oracles(capsys):
    start = time.perf_counter()
    failures = []

    layout = SpaceLayout(2, 8)
    worst_distance = 0.0
    for k in range(10):
        rng = np.random.default_rng(700 + k)
        spectral = eigendecompose(build_random_model(2, 8, 1.0, rng).total(), layout)
        reductions = EigenstateReductions(spectral.reductions())
        initial = PureState(sample_amplitudes(16, 1, rng)[:, 0], space="composite")
        coeffs = spectral.coefficients(initial)
        exact = time_averaged_state(coeffs, reductions, spectral)
        horizon = 1.0e4 / np.diff(spectral.eigenvalues).min()
        windowed = finite_time_average(coeffs, spectral.eigenvalues,
                                       expand_sectors(spectral, layout), 2, 8, horizon)
        worst_distance = max(worst_distance, trace_distance(exact, windowed))
    if worst_distance > 5e-3:
        failures.append(f"finite-horizon average drifts {worst_distance:.2e} "
                        "from the infinite-time state")

    shapes = ((2, 3), (3, 2), (2, 8), (4, 4), (3, 5))
    rng = np.random.default_rng(71)
    worst_trace = 0.0
    for k in range(100):
        ds, db = shapes[k % len(shapes)]
        # One column, or many whose reductions sum to that of F F^H.
        if k % 2:
            columns = random_density_factor(ds * db, rng)
        else:
            columns = random_state(ds * db, rng)[:, None]
        rho = columns @ columns.conj().T
        reduced = batched_partial_trace_bath(columns, SpaceLayout(ds, db)).sum(axis=0)
        worst_trace = max(
            worst_trace,
            float(np.abs(reduced - ptrace_bath_loop(rho, ds, db)).max()),
            float(np.abs(partial_trace_system(rho, ds, db)
                         - ptrace_system_loop(rho, ds, db)).max()))
    if worst_trace > 1e-12:
        failures.append(f"partial traces drift {worst_trace:.2e} from the "
                        "index-loop oracle")

    _finish(capsys, 7, "finite-horizon averages and partial traces agree with "
            f"their oracles (worst {worst_distance:.1e} / {worst_trace:.1e})",
            start, 300.0, failures)


def test_criterion_8_polarization_decays_with_bath_size(capsys):
    start = time.perf_counter()
    failures = []

    sizes = (16, 32, 64, 128)
    means = []
    for db in sizes:
        values = []
        for k in range(20):
            rng = np.random.default_rng(800 + k)
            spectral = eigendecompose(build_random_model(2, db, 1.0, rng).total(),
                                      SpaceLayout(2, db))
            reductions = EigenstateReductions(spectral.reductions())
            values.append(theorem2_lhs(reductions)[1])
        means.append(float(np.mean(values)))
    for smaller, larger, db in zip(means, means[1:], sizes[1:]):
        if larger >= smaller:
            failures.append(f"mean squared polarization rose at dB={db}: "
                            f"{smaller:.4g} -> {larger:.4g}")

    trend = " > ".join(f"{value:.4f}" for value in means)
    _finish(capsys, 8, "random-model mean squared polarization decreases as the "
            f"bath doubles ({trend})", start, 600.0, failures)


def test_criterion_9_bundled_config_determinism(tmp_path, capsys):
    start = time.perf_counter()
    failures = []

    for name in cli.bundled_config_names():
        first, second = tmp_path / name / "a", tmp_path / name / "b"
        for out in (first, second):
            code = cli.main(["run", "--config", name, "--out", str(out)])
            if code != 0:
                failures.append(f"{name}: run exited {code}")
        capsys.readouterr()
        if failures:
            break
        names_a = sorted(p.name for p in first.iterdir())
        if names_a != sorted(p.name for p in second.iterdir()):
            failures.append(f"{name}: reruns wrote different file sets")
            continue
        for file_name in names_a:
            blob_a = (first / file_name).read_bytes()
            blob_b = (second / file_name).read_bytes()
            if file_name == "summary.txt":
                blob_a = blob_a.split(b"\n", 1)[1]
                blob_b = blob_b.split(b"\n", 1)[1]
            if blob_a != blob_b:
                failures.append(f"{name}: {file_name} differs between reruns")

    _finish(capsys, 9, "every bundled config reruns to byte-identical data files",
            start, None, failures)
