"""End-to-end tests for the command-line front end.

Most cases call ``main(argv)`` in process and inspect stdout/stderr through
capsys; one smoke test goes through ``python -m isibench.cli`` to cover the
module entry point.
"""

import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from importlib import resources

import numpy as np
import pytest

import isibench
from isibench import cli, spectral, theorems
from isibench.errors import ValidationError
from isibench.hilbert import SpaceLayout
from isibench.models import build_random_model
from isibench.sampling import generator
from isibench.spectral import write_matrix
from isibench.theorems import THEOREM_IDS, TheoremReport, read_report


def _write_cfg(tmp_path, text, name="experiment.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


COMMUTING_SMALL = """\
[model]
kind = commuting
seed = 7
dim_bath = 16

[analysis]
theorems = SufficientISI, T0i, T2i, T2ii
n_samples = 50

[dynamics]
enabled = true
horizon_over_min_gap = 100.0
n_times = 200
"""

RANDOM_SWEEP = """\
[model]
kind = random
seed = 11
dim_system = 2
dim_bath = 8

[sweep]
parameter = dim_bath
values = 64, 8
draws = 2
metrics = mean_squared_polarization, delta
"""


class TestConfigErrors:
    def test_unparseable_config_exits_2_with_line_info(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "kind = commuting\n")
        assert cli.main(["spectrum", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config parse failure")
        assert "line" in err.lower()

    def test_unknown_section_is_rejected(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[modell]\nkind = random\n")
        assert cli.main(["spectrum", "--config", cfg]) == 2
        assert "[modell]" in capsys.readouterr().err

    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = random\nbogus = 1\n")
        assert cli.main(["spectrum", "--config", cfg]) == 2
        assert "model.bogus" in capsys.readouterr().err

    def test_key_from_another_model_kind_is_rejected(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = random\nlevel_splitting = 2.0\n")
        assert cli.main(["spectrum", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "model.level_splitting" in err
        assert "random" in err

    def test_unknown_bundled_name_lists_the_real_ones(self, capsys):
        assert cli.main(["run", "--config", "no_such_config"]) == 2
        err = capsys.readouterr().err
        assert "neither a file nor a bundled config" in err
        assert "sec5_violation" in err

    def test_unknown_theorem_id(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 4\n")
        code = cli.main(["bounds", "--config", cfg,
                         "--override", "analysis.theorems=T9"])
        assert code == 2
        assert "unknown theorem 'T9'" in capsys.readouterr().err

    def test_malformed_override_argument(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 4\n")
        assert cli.main(["spectrum", "--config", cfg, "--override", "nonsense"]) == 2
        assert "section.key=value" in capsys.readouterr().err

    def test_unknown_tolerance_field(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 4\n"
                                   "[tolerances]\nnope = 1\n")
        out_dir = tmp_path / "out"
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == "error: unknown config section [tolerances]\n"
        assert not out_dir.exists()

    def test_file_kind_requires_a_path(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = file\n")
        assert cli.main(["spectrum", "--config", cfg]) == 2
        assert "model.path" in capsys.readouterr().err

    def test_untagged_matrix_needs_dim_system_for_equilibrium(self, tmp_path, capsys):
        matrix_path = tmp_path / "plain.mat"
        write_matrix(matrix_path, np.diag([0.0, 1.0, 2.0, 4.0]))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        assert cli.main(["equilibrium", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 2
        assert "system/bath split" in capsys.readouterr().err

    def test_dim_system_contradicting_the_layout_tag(self, tmp_path, capsys):
        matrix_path = tmp_path / "tagged.mat"
        write_matrix(matrix_path, np.diag([0.0, 1.0, 2.0, 4.0]), SpaceLayout(2, 2))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n"
                                   "dim_system = 4\n")
        assert cli.main(["equilibrium", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 2
        assert "contradicts" in capsys.readouterr().err

    def test_stream_count_is_an_unknown_key(self, tmp_path, capsys):
        # every estimate draws from one stream of its seed
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 8\n"
                                   "[analysis]\ntheorems = SufficientISI, T0i\n"
                                   "n_samples = 4\nn_streams = 2\n")
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == "error: unknown key analysis.n_streams\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, override, message", [
        ("bounds", "analysis.theorems=T2i,T2i", "analysis.theorems lists a theorem twice"),
        ("sweep", "sweep.values=8,8.0", "sweep.values lists a value twice"),
        ("sweep", "sweep.metrics=delta,delta", "sweep.metrics lists a metric twice")])
    def test_a_list_naming_an_entry_twice_exits_2(self, tmp_path, capsys, command,
                                                  override, message):
        out_dir = tmp_path / "out"
        assert cli.main([command, "--config", _write_cfg(tmp_path, RANDOM_SWEEP),
                         "--out", str(out_dir), "--override", override]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_unknown_initial_state_name(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 4\n"
                                   "[initial_state]\nsystem = sideways\n")
        assert cli.main(["equilibrium", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 2
        assert "sideways" in capsys.readouterr().err


class TestErrorExitCodes:
    def test_dimension_cap_exits_3(self, tmp_path, capsys):
        # one sector of m = d = 8194, above the dense eigensolver cap
        cfg = _write_cfg(tmp_path, "[model]\nkind = random\ndim_bath = 4097\n")
        out_dir = tmp_path / "out"
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "8194" in err and "8192" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, model", [
        ("spectrum", "kind = commuting\ndim_bath = 8192"),
        ("model-info", "kind = cucchietti\nn_spins = 13"),
    ], ids=["commuting", "cucchietti"])
    def test_closed_form_models_run_past_the_eigensolver_cap(self, tmp_path, capsys,
                                                             command, model):
        # d = 16384: dB sectors of two levels, and no eigensolver call
        cfg = _write_cfg(tmp_path, f"[model]\n{model}\n")
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "dimension: 16384" in capsys.readouterr().out

    def test_matrix_file_above_the_cap_exits_3_by_its_dimension_line(self, tmp_path,
                                                                     capsys):
        matrix_path = tmp_path / "huge.mat"
        matrix_path.write_text("isibench-matrix 1\n8193 8193 0 0\n", encoding="utf-8")
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        out_dir = tmp_path / "out"
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "8193" in err and "8192" in err
        assert not out_dir.exists()

    def test_tagged_matrix_file_whose_reductions_exceed_the_cap_exits_3(
            self, tmp_path, capsys, monkeypatch):
        # d = 8 and dS = 4: the reductions hold 8 * 16 = 128 entries
        monkeypatch.setattr(spectral, "STACK_ELEMENT_CAP", 127)
        matrix_path = tmp_path / "tagged.mat"
        write_matrix(matrix_path, np.diag(np.arange(8.0)), SpaceLayout(4, 2))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        assert cli.main(["spectrum", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 3
        assert "d * dS^2 = 128 entries, above the cap 127" in capsys.readouterr().err

    def test_degenerate_spectrum_exits_4_from_equilibrium(self, tmp_path, capsys):
        matrix_path = tmp_path / "degenerate.mat"
        write_matrix(matrix_path, np.diag([1.0, 1.0, 2.0, 3.0]), SpaceLayout(2, 2))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        assert cli.main(["equilibrium", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "degenerate" in err
        assert "analysis.allow_degenerate = true" in err

    @pytest.mark.parametrize("command, extra", [
        ("spectrum", []), ("run", []),
        ("sweep", ["--override", "sweep.parameter=dim_bath", "--override", "sweep.values=4"]),
    ], ids=["spectrum", "run", "sweep"])
    def test_output_directory_under_a_file_exits_2_before_any_stage(
            self, tmp_path, capsys, monkeypatch, command, extra):
        def no_stage(spec):
            pytest.fail("a stage ran before the output directory was checked")

        monkeypatch.setattr(cli, "analytic_eigensystem", no_stage)
        blocker = tmp_path / "plain.txt"
        blocker.write_text("kept\n")
        out = blocker / "sub"
        assert cli.main([command, "--config", "sec5_violation", "--override",
                         "model.dim_bath=4", "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: output directory ")
        assert str(blocker) in err
        assert blocker.read_text() == "kept\n"

    def test_a_failing_stage_leaves_no_output_directory(self, tmp_path, capsys):
        matrix_path = tmp_path / "degenerate.mat"
        write_matrix(matrix_path, np.diag([1.0, 1.0, 2.0, 3.0]), SpaceLayout(2, 2))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        t0 = ["--override", "analysis.theorems=SufficientISI,T0i"]
        for command, extra in (("equilibrium", []), ("run", []), ("dynamics", []),
                               ("bounds", t0)):
            assert cli.main([command, "--config", cfg, *extra,
                             "--out", str(tmp_path / "new" / "out")]) == 4
            assert capsys.readouterr().err.startswith("error: spectrum has 1 degenerate")
            assert not (tmp_path / "new").exists()

    def test_degenerate_spectrum_exits_4_from_dynamics(self, tmp_path, capsys):
        # The horizon is horizon_over_min_gap / min_sector_spacing, so not even
        # analysis.allow_degenerate lets the evolution run.
        matrix_path = tmp_path / "degenerate.mat"
        write_matrix(matrix_path, np.diag([1.0, 1.0, 2.0, 3.0]), SpaceLayout(2, 2))
        for allow in ("false", "true"):
            cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n"
                                       f"[analysis]\nallow_degenerate = {allow}\n")
            assert cli.main(["dynamics", "--config", cfg,
                             "--out", str(tmp_path / "out")]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: spectrum has 1 degenerate level pair(s): (0, 1)")
            assert err.count("\n") == 1
            assert "the dynamics needs a nondegenerate spectrum" in err


class TestStageRunner:
    # Every command of the stage table prints its lines, then one ``wrote``
    # line per file it made; run names only its summary, which holds the rest.
    @pytest.mark.parametrize("command", ["spectrum", "equilibrium", "bounds", "dynamics",
                                         "run"])
    def test_wrote_lines_name_exactly_the_files_made(self, tmp_path, capsys, command):
        out_dir = tmp_path / "out"
        assert cli.main([command, "--config", _write_cfg(tmp_path, COMMUTING_SMALL),
                         "--out", str(out_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        wrote = [line for line in lines if line.startswith("wrote ")]
        assert lines[-len(wrote):] == wrote
        made = sorted(path.name for path in out_dir.iterdir())
        if command != "run":
            assert sorted(wrote) == [f"wrote {out_dir / name}" for name in made]
            return
        assert wrote == [f"wrote {out_dir / 'summary.txt'}"]
        assert made == ["reductions.csv", "report_SufficientISI.json", "report_T0i.json",
                        "report_T2i.json", "report_T2ii.json", "spectrum.csv",
                        "summary.txt", "trajectory.csv"]
        summary = (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert summary[0].startswith("# generated: ") and lines[0].startswith("# generated: ")
        assert summary[1:] == lines[1:-1]


class TestSpectrumCommand:
    def test_degenerate_file_is_reported_not_fatal(self, tmp_path, capsys):
        matrix_path = tmp_path / "degenerate.mat"
        write_matrix(matrix_path, np.diag([1.0, 1.0, 2.0, 3.0]))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        out_dir = tmp_path / "out"
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "nondegenerate spectrum: false" in out
        assert out.splitlines()[-2:] == [
            "note: spectrum is degenerate; the nondegeneracy hypothesis of the "
            "equilibrium formulas is violated", f"wrote {out_dir / 'spectrum.csv'}"]
        lines = (out_dir / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "# schema_version 1"
        assert lines[1] == "n,energy"
        assert len(lines) == 2 + 4

    def test_levels_meeting_across_bath_levels_are_nondegenerate(self, tmp_path, capsys):
        # two levels of this d = 1024 draw lie 1.1e-10 apart, within 1e-10 |H|
        # (2.2e-10), on different bath levels; the smallest gap inside one is 0.34
        assert cli.main(["spectrum", "--config", "sec5_violation",
                         "--override", "model.dim_bath=512", "--seed", "872939156",
                         "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "min level spacing: 0.335505" in lines
        assert "nondegenerate spectrum: true" in lines

    def test_equal_spacing_is_nondegenerate(self, tmp_path, capsys):
        matrix_path = tmp_path / "ladder.mat"
        write_matrix(matrix_path, np.diag([0.0, 1.0, 2.0]))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        assert cli.main(["spectrum", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "nondegenerate spectrum: true" in out


class TestProcessEntry:
    # python -m isibench.cli and the isibench script run process_main, which
    # freezes the collector before main; main itself leaves the collector alone.
    def test_the_collector_is_frozen_before_main_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
        with pytest.raises(SystemExit) as exit_info:
            cli.process_main()
        assert exit_info.value.code == 7
        assert calls == ["freeze", "main"]

    def test_main_in_process_freezes_nothing(self, tmp_path, capsys):
        frozen = gc.get_freeze_count()
        assert cli.main(["run", "--config", _write_cfg(tmp_path, COMMUTING_SMALL),
                         "--out", str(tmp_path / "out")]) == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("command, extra", [
        ("run", ["--override", "dynamics.enabled=true", "--override",
                 "analysis.theorems=SufficientISI,T0i,T0ii,T1prime,T2i,T2ii,Popescu"]),
        ("sweep", ["--jobs", "2", "--override", "sweep.parameter=dim_bath",
                   "--override", "sweep.values=4, 8", "--override", "sweep.draws=2",
                   "--override", "sweep.metrics=delta, necessary_lhs, equilibration_metric"]),
    ], ids=["run", "sweep"])
    def test_a_process_writes_the_bytes_of_main_in_process(self, tmp_path, capsys,
                                                           command, extra):
        argv = [command, "--config", "sec5_violation", "--override", "model.dim_bath=8",
                *extra]
        outputs = []
        for label in ("main", "process"):
            out_dir = tmp_path / label
            if label == "main":
                assert cli.main(argv + ["--out", str(out_dir)]) == 0
                printed = capsys.readouterr().out
            else:
                result = subprocess.run(
                    [sys.executable, "-m", "isibench.cli", *argv, "--out", str(out_dir)],
                    capture_output=True, text=True)
                assert result.returncode == 0 and result.stderr == "", result.stderr
                printed = result.stdout
            lines = [line for line in printed.replace(str(out_dir), "OUT").splitlines()
                     if not line.startswith("# generated: ")]
            files = {path.name: [line for line in path.read_bytes().splitlines()
                                 if not line.startswith(b"# generated: ")]
                     for path in out_dir.iterdir()}
            outputs.append((lines, files))
        assert outputs[0][1] and outputs[1] == outputs[0]


class TestModelInfo:
    def test_commuting_norms_and_exact_bath_commutation(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 8\n")
        assert cli.main(["model-info", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "model: commuting spin-bath (dS=2, dB=8" in out
        assert "layout: dS=2 dB=8 d=16" in out
        assert "part norms:" in out
        assert "[1xHB, HSB]=0" in out
        assert "ensemble:" not in out

    def test_bundled_name_with_override(self, capsys):
        code = cli.main(["model-info", "--config", "sec5_violation",
                         "--override", "model.dim_bath=8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "layout: dS=2 dB=8 d=16" in out

    def test_random_model_mentions_the_ensemble(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = random\ndim_system = 2\n"
                                   "dim_bath = 8\n")
        assert cli.main(["model-info", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "ensemble: independent Gaussian Hermitian parts" in out
        assert "commutator norms:" in out

    def test_random_model_norms_are_those_of_the_model_stream(self, tmp_path, capsys):
        """The pipeline releases the parts of a random model after eigh; model-info
        draws them again from the ``model`` seed and prints their norms."""
        cfg = _write_cfg(tmp_path, "[model]\nkind = random\nseed = 21\ndim_system = 3\n"
                                   "dim_bath = 5\ninteraction_strength = 0.7\n")
        assert cli.main(["model-info", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        shown = [float(value) for line in lines
                 if line.startswith(("part norms:", "commutator norms:"))
                 for value in re.findall(r"=(\S+)", line)]
        rng = generator(cli.derived_seed(21, *cli.RUN_SEEDS["model"]))
        norms = cli._dense_norms(build_random_model(3, 5, 0.7, rng))
        assert shown == [float(f"{norm:.6g}") for norm in norms]
        assert len(set(shown)) == 5

    def test_random_model_norms_hold_no_lifted_part(self):
        # HS (x) 1 and 1 (x) HB act through their factors: above the parts, at
        # most 3 d x d arrays at once (the commutator, a product, eigvalsh's copy)
        ham = build_random_model(2, 64, 1.0, generator(3))
        tracemalloc.start()
        try:
            cli._dense_norms(ham)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * ham.interaction.nbytes

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "isibench.cli", "model-info",
             "--config", "sec5_violation", "--override", "model.dim_bath=8"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "layout: dS=2 dB=8 d=16" in result.stdout

    def test_import_does_not_load_the_process_pool(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, isibench.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_import_does_not_load_numpy_random(self):
        # numpy loads numpy.random on first access; a start-up that touches
        # it at module level pays for the module on every command
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, isibench.cli; print('numpy.random' in sys.modules)"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


def _assert_close(first, second, bound, what):
    first, second = np.asarray(first, dtype=float), np.asarray(second, dtype=float)
    assert first.shape == second.shape, what
    assert np.all(np.abs(first - second) <= bound * np.maximum(1.0, np.abs(first))), what


class TestReproducibilityScope:
    def test_block_form_trajectory_keeps_its_bytes_across_blas_threads(self, tmp_path):
        # the block-form evolution contracts its phase table without BLAS, and
        # deals its blocks to one thread per CPU: one CPU evolves on one thread
        def one_cpu():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        written = []
        for threads, cpus in ((1, None), (2, None), (2, one_cpu)):
            out_dir = tmp_path / f"threads{threads}-{len(written)}"
            result = subprocess.run(
                [sys.executable, "-m", "isibench.cli", "dynamics", "--config",
                 "sec5_violation", "--out", str(out_dir)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads)),
                capture_output=True, text=True, preexec_fn=cpus)
            assert result.returncode == 0, result.stderr
            written.append((out_dir / "trajectory.csv").read_bytes())
        assert written[1:] == written[:1] * 2

    def test_blas_thread_count_moves_only_last_digits(self, tmp_path):
        # The README states these bounds; trajectory.csv gets the loose one.
        # Every bundled config is covered.
        for config in cli.bundled_config_names():
            outs = []
            for threads in (1, 2):
                out_dir = tmp_path / config / f"threads{threads}"
                result = subprocess.run(
                    [sys.executable, "-m", "isibench.cli", "run", "--config",
                     config, "--seed", "3", "--out", str(out_dir)],
                    env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads)),
                    capture_output=True, text=True)
                assert result.returncode == 0, result.stderr
                outs.append(out_dir)
            first, second = outs

            names = sorted(path.name for path in first.glob("report_*.json"))
            assert len(names) == 7, config
            assert names == sorted(path.name for path in second.glob("report_*.json"))
            for name in names:
                a, b = read_report(first / name), read_report(second / name)
                assert a.verdict == b.verdict, (config, name)
                _assert_close([a.lhs, a.rhs], [b.lhs, b.rhs], 1e-12, f"{config} {name}")
            for name, bound in (("spectrum.csv", 1e-12), ("reductions.csv", 1e-12),
                                ("trajectory.csv", 1e-6)):
                _assert_close(np.loadtxt(first / name, delimiter=",", skiprows=2),
                              np.loadtxt(second / name, delimiter=",", skiprows=2),
                              bound, f"{config} {name}")

    def test_blas_thread_timeout_moves_no_byte(self, tmp_path):
        # the timeout sets when idle BLAS threads sleep, not how sums are split
        written = []
        for timeout in (4, 28):
            out_dir = tmp_path / f"timeout{timeout}"
            result = subprocess.run(
                [sys.executable, "-m", "isibench.cli", "run", "--config",
                 "random_contrast", "--seed", "3", "--out", str(out_dir)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS="2",
                         OPENBLAS_THREAD_TIMEOUT=str(timeout)),
                capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            written.append({path.name: [line for line in path.read_bytes().splitlines()
                                        if not line.startswith(b"# generated: ")]
                            for path in out_dir.iterdir()})
        assert "spectrum.csv" in written[0] and "trajectory.csv" in written[0]
        assert written[0] == written[1]

    @pytest.mark.parametrize("preset", [None, "22"])
    def test_blas_thread_timeout_is_set_before_numpy_loads(self, preset):
        # OpenBLAS reads the variable once, when numpy loads it; a probe on the
        # import system records it at the first lookup of numpy
        probe = ("import os, sys\n"
                 "seen = []\n"
                 "class Probe:\n"
                 "    def find_spec(self, name, path=None, target=None):\n"
                 "        if name == 'numpy' and not seen:\n"
                 "            seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
                 "sys.meta_path.insert(0, Probe())\n"
                 "import isibench.cli\n"
                 "print(seen)\n")
        env = dict(os.environ)
        env.pop("OPENBLAS_THREAD_TIMEOUT", None)
        if preset is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = preset
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        expected = preset or str(isibench._BLAS_THREAD_TIMEOUT)
        assert result.stdout.strip() == repr([expected])


class TestBoundsCommand:
    def test_commuting_violation_and_conclusion(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = cli.main(["bounds", "--config", "sec5_violation",
                         "--out", str(out_dir),
                         "--override", "model.dim_bath=64",
                         "--override", "analysis.n_samples=50",
                         "--override", "analysis.n_starts=8"])
        assert code == 0
        out = capsys.readouterr().out

        match = re.search(r"T2ii: lhs=(\S+) rhs=(\S+) verdict=(\w+)", out)
        assert match is not None
        assert float(match.group(1)) == pytest.approx(1.0, abs=1e-6)
        assert float(match.group(2)) == pytest.approx(0.15, abs=1e-12)
        assert match.group(3) == "violated"
        assert re.search(r"T2i: lhs=\S+ rhs=\S+ verdict=violated", out)
        assert ("conclusion: system ISI cannot hold with accuracy better than "
                "≈ 1/3") in out

        report = read_report(out_dir / "report_T2ii.json")
        assert report.verdict == "violated"
        assert report.lhs == pytest.approx(1.0, abs=1e-10)

    def test_t1_and_t1prime_share_one_search(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main(["bounds", "--config", "random_contrast", "--seed", "5",
                         "--out", str(out_dir),
                         "--override", "model.dim_system=3",
                         "--override", "model.dim_bath=32",
                         "--override", "initial_state.system=random",
                         "--override", "analysis.theorems=T1,T1prime",
                         "--override", "analysis.n_starts=16"]) == 0
        capsys.readouterr()
        t1, t1prime = (read_report(out_dir / f"report_{tid}.json")
                       for tid in ("T1", "T1prime"))
        assert t1.parameters["lhs_is_lower_bound"] and t1prime.lhs == t1.lhs
        assert t1prime.parameters["seed"] == t1.parameters["seed"]
        assert t1prime.parameters["n_starts"] == t1.parameters["n_starts"] == 16

    def test_t0_runs_where_levels_of_different_bath_levels_meet(self, tmp_path, capsys):
        # this draw of 2^16 bath levels has two pairs of levels within
        # 1e-10 |H| of each other, each pair on two bath levels, which no
        # reduced state sees
        cfg = _write_cfg(tmp_path, "[model]\nkind = cucchietti\nn_spins = 16\n"
                                   "seed = 12345\n[analysis]\ntheorems = T0i, T0ii\n")
        out_dir = tmp_path / "out"
        assert cli.main(["bounds", "--config", cfg, "--out", str(out_dir)]) == 0
        assert "note:" not in capsys.readouterr().out
        assert sorted(p.name for p in out_dir.iterdir()) == ["report_T0i.json",
                                                             "report_T0ii.json"]

    def test_t0i_alone_runs_at_zero_epsilon(self, tmp_path, capsys):
        # the T0 pair is built whole, so T0ii's bound must accept epsilon = 0
        out_dir = tmp_path / "out"
        assert cli.main(["bounds", "--config", "sec5_violation", "--out", str(out_dir),
                         "--override", "model.dim_bath=16",
                         "--override", "analysis.theorems=T0i",
                         "--override", "analysis.epsilon=0"]) == 0
        assert "T0i: lhs=" in capsys.readouterr().out
        assert [p.name for p in out_dir.iterdir()] == ["report_T0i.json"]

    @pytest.mark.parametrize("command, extra", [
        ("bounds", ["--override", "analysis.theorems=T1"]),
        ("sweep", ["--override", "sweep.parameter=dim_bath", "--override", "sweep.values=8",
                   "--override", "sweep.draws=2", "--override", "sweep.metrics=necessary_lhs"]),
    ], ids=["bounds", "sweep"])
    def test_restricted_dimension_above_the_bath_exits_2(self, tmp_path, capsys,
                                                        command, extra):
        # T1's restricted family is a subspace of the bath: dR <= dB
        out_dir = tmp_path / "out"
        assert cli.main([command, "--config", "sec5_violation", "--out", str(out_dir),
                         "--override", "model.dim_bath=8",
                         "--override", "analysis.dim_restricted=100000000000000000000000",
                         *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: analysis.dim_restricted") and err.count("\n") == 1
        assert "dB = 8" in err
        assert not out_dir.exists()

    def test_restricted_dimension_of_the_whole_bath_is_accepted(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main(["bounds", "--config", "sec5_violation", "--out", str(out_dir),
                         "--override", "model.dim_bath=8",
                         "--override", "analysis.dim_restricted=8",
                         "--override", "analysis.theorems=T1"]) == 0
        assert read_report(out_dir / "report_T1.json").parameters["dR"] == 8
        capsys.readouterr()

    def test_conclusion_without_t2ii(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 8\n"
                                   "[analysis]\ntheorems = SufficientISI\n")
        assert cli.main(["bounds", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "conclusion: not evaluated" in out
        assert "SufficientISI:" in out


class TestQubitOnlyEntries:
    # The T2 reports and the polarization metrics are defined for dS = 2.
    QUTRIT = ["--config", "random_contrast", "--override", "model.dim_bath=16",
              "--override", "model.dim_system=3",
              "--override", "initial_state.system=random"]

    @pytest.mark.parametrize("command", ["bounds", "run"])
    def test_t2_reports_of_a_qutrit_exit_2_before_any_output(self, tmp_path, capsys,
                                                             monkeypatch, command):
        # the config fixes dS = 3, so the model is neither drawn nor diagonalized
        monkeypatch.setattr(cli, "build_random_model",
                            lambda *args: pytest.fail("the model was drawn"))
        monkeypatch.setattr(cli, "eigendecompose",
                            lambda *args: pytest.fail("the model was diagonalized"))
        out_dir = tmp_path / "out"
        assert cli.main([command, *self.QUTRIT, "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: analysis.theorems lists T2i, T2ii, defined for "
                                "qubit systems only; the model has dS = 3\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["bounds", "run"])
    def test_t2_report_of_a_tagged_qutrit_file_exits_2(self, tmp_path, capsys, command):
        # dS comes from the file's layout tag
        matrix_path = tmp_path / "tagged.mat"
        write_matrix(matrix_path, np.diag(np.arange(6.0) ** 2), SpaceLayout(3, 2))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n"
                                   "[initial_state]\nsystem = random\n"
                                   "[analysis]\ntheorems = SufficientISI, T2ii\n")
        out_dir = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == ("error: analysis.theorems lists T2ii, defined "
                                           "for qubit systems only; the model has dS = 3\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("overrides, listed, dim", [
        ([], "mean_squared_polarization", 3),  # the default metric
        (["--override", "sweep.metrics=delta, lhs_i"], "lhs_i", 3),
        (["--override", "model.dim_system=2", "--override", "sweep.parameter=dim_system",
          "--override", "sweep.values=2, 4"], "mean_squared_polarization", 4),
    ])
    def test_polarization_metrics_of_a_qutrit_exit_2_before_any_draw(
            self, tmp_path, capsys, monkeypatch, overrides, listed, dim):
        monkeypatch.setattr(cli, "_draw_metrics", lambda task: pytest.fail("a draw ran"))
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", *self.QUTRIT, "--out", str(out_dir),
                         "--override", "sweep.parameter=dim_bath",
                         "--override", "sweep.values=8, 16", *overrides]) == 2
        assert capsys.readouterr().err == (f"error: sweep.metrics lists {listed}, defined "
                                           f"for qubit systems only; the model has "
                                           f"dS = {dim}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["spectrum", "equilibrium", "dynamics"])
    def test_the_other_commands_run_on_a_qutrit(self, tmp_path, capsys, command):
        assert cli.main([command, *self.QUTRIT, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""


class TestSeedStreams:
    def test_every_stream_has_its_own_named_path(self):
        assert cli.RUN_SEEDS == {"model": (0,), "system": (1, 0), "bath": (1, 1),
                                 "theorem0": (2, 1), "search": (2, 3), "popescu": (2, 7),
                                 "dynamics": (3,)}
        assert cli._draw_seeds(0, 0) == {"model": (4, 0, 0, 0), "system": (4, 0, 0, 1),
                                         "search": (4, 0, 0, 2), "bath": (4, 0, 0, 3),
                                         "dynamics": (4, 0, 0, 4)}

    def test_each_report_records_the_seed_of_its_stream(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main(["bounds", "--config", "random_contrast", "--seed", "5",
                         "--out", str(out_dir),
                         "--override", "model.dim_system=3",
                         "--override", "model.dim_bath=16",
                         "--override", "initial_state.system=random",
                         "--override", "analysis.theorems=T0i,T0ii,T1,T1prime,Popescu",
                         "--override", "analysis.n_samples=20",
                         "--override", "analysis.n_starts=8"]) == 0
        capsys.readouterr()
        paths = {"T0i": (2, 1), "T0ii": (2, 1), "T1": (2, 3), "T1prime": (2, 3),
                 "Popescu": (2, 7)}
        for tid, path in paths.items():
            report = read_report(out_dir / f"report_{tid}.json")
            assert report.parameters["seed"] == cli.derived_seed(5, *path), tid


class TestRunCommand:
    def test_every_report_file_reads_back_to_its_bytes(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", "sec5_violation", "--out", str(out_dir),
                         "--override", "model.dim_bath=16",
                         "--override", "analysis.n_samples=20",
                         "--override", f"analysis.theorems={','.join(THEOREM_IDS)}",
                         "--override", "dynamics.n_times=50"]) == 0
        capsys.readouterr()
        paths = sorted(out_dir.glob("report_*.json"))
        assert [p.name for p in paths] == sorted(f"report_{t}.json" for t in THEOREM_IDS)
        for path in paths:
            assert read_report(path).to_json() == path.read_text(encoding="utf-8"), path

    @pytest.fixture(scope="class")
    def eight_reports(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("eight") / "out"
        assert cli.main(["run", "--config", "sec5_violation", "--seed", "7",
                         "--out", str(out_dir), "--override", "model.dim_bath=64",
                         "--override", f"analysis.theorems={','.join(THEOREM_IDS)}"]) == 0
        return out_dir

    # values that a bound or the verdict reads as numbers, given as a str or
    # a bool, on the reports of a run; T1's is vacuous, so the verdict decides
    # without the noise parameters, yet must refuse them
    @pytest.mark.parametrize("tid, key, value", [
        ("T1", "verdict_boundary", "abc"), ("T1", "lhs_standard_error", "abc"),
        ("T2ii", "dS", "2"), ("T0i", "dR", "64"), ("Popescu", "lhs_standard_error", "0.01"),
        ("T2i", "p", True)])
    def test_a_number_given_as_a_str_or_a_bool_is_refused(self, eight_reports, tid, key,
                                                          value):
        text = (eight_reports / f"report_{tid}.json").read_text(encoding="utf-8")
        assert TheoremReport.from_json(text).to_json() == text
        assert tid != "T1" or json.loads(text)["verdict"] == "vacuous"
        payload = json.loads(text)
        payload["parameters"][key] = value
        message = f"malformed parameter: '{key}' must be a number, got {value!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            TheoremReport.from_json(json.dumps(payload))

    def test_reruns_are_reproducible(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, COMMUTING_SMALL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(out_b)]) == 0
        capsys.readouterr()

        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        assert "spectrum.csv" in names
        assert "reductions.csv" in names
        assert "trajectory.csv" in names
        assert "summary.txt" in names
        assert "report_T2ii.json" in names

        for name in names:
            first, second = (out_a / name).read_bytes(), (out_b / name).read_bytes()
            if name == "summary.txt":
                first = first.split(b"\n", 1)[1]
                second = second.split(b"\n", 1)[1]
            assert first == second, name

    def test_summary_layout_and_content(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, COMMUTING_SMALL)
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
        capsys.readouterr()
        lines = (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines()

        assert lines[0].startswith("# generated: ")
        assert lines[1] == f"config: {cfg}"
        assert lines[2] == "seed: 7"
        assert lines[3].startswith("model: commuting spin-bath")
        assert lines[4] == "initial state: system=plus bath=random"
        text = "\n".join(lines)
        assert "dimension: 32" in text
        assert "subspace: product_bath (dR=16)" in text
        assert "sqrt(delta): 1" in text
        assert "time-averaged state purity:" in text
        assert "dynamics: horizon=" in text
        assert "mean distance to equilibrium:" in text
        assert "equilibration bound 2 dS / sqrt(dR): 1" in text
        assert "conclusion: system ISI cannot hold" in text

    @staticmethod
    def _run_and_pipeline(argv, capsys):
        """stdout of ``main(argv)`` and a fresh Pipeline of the same config."""
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        args = cli.build_parser().parse_args(argv)
        name, text = cli._load_raw_config(args.config)
        raw = cli._parse_sections(text, name)
        cli._apply_overrides(raw, args.override)
        return out, cli.Pipeline(cli._extract_config(raw, args))

    def test_block_form_horizon_divides_by_the_smallest_within_level_gap(self, tmp_path,
                                                                          capsys):
        # Tr_B removes the coherences between bath levels, so the horizon
        # reads the smallest gap inside a level (0.251 here), not the
        # smallest spacing of the whole spectrum (1.3e-5), and the phases
        # E t round by far less than a radian
        out, pipe = self._run_and_pipeline(
            ["run", "--config", "sec5_violation", "--out", str(tmp_path / "out")], capsys)
        spectral = pipe.spectral
        assert spectral.min_sector_spacing > 1000 * np.diff(spectral.eigenvalues).min()
        horizon = pipe.config.horizon_over_min_gap / spectral.min_sector_spacing
        assert f"dynamics: horizon={horizon:.6g} n_times=2000" in out.splitlines()
        assert spectral.spectral_norm * horizon * 2.0**-52 < 1e-9

    def test_dense_horizon_divides_by_the_smallest_level_spacing(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = random\nseed = 3\ndim_bath = 8\n"
                                   "[dynamics]\nenabled = true\n")
        out, pipe = self._run_and_pipeline(
            ["run", "--config", cfg, "--out", str(tmp_path / "out")], capsys)
        spacing = np.diff(pipe.spectral.eigenvalues).min()
        horizon = pipe.config.horizon_over_min_gap / spacing
        assert f"dynamics: horizon={horizon:.6g} n_times=2000" in out.splitlines()

    def test_seed_flag_changes_the_draws(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 8\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["spectrum", "--config", cfg, "--seed", "1",
                         "--out", str(out_a)]) == 0
        assert cli.main(["spectrum", "--config", cfg, "--seed", "2",
                         "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert (out_a / "spectrum.csv").read_bytes() != \
               (out_b / "spectrum.csv").read_bytes()


class _SerialPool:
    """A stand-in for ProcessPoolExecutor that runs each submitted draw at
    once, in this process, and starts no worker."""

    def __init__(self, max_workers, initializer):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, task):
        result = fn(task)
        return types.SimpleNamespace(result=lambda: result)


class TestSweepCommand:
    def test_polarization_decays_with_bath_size(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, RANDOM_SWEEP)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "sweep over dim_bath (2 points, 2 draws each)" in out

        lines = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# schema_version 1"
        header = lines[1].split(",")
        assert header == ["parameter", "value", "n_draws",
                          "mean_squared_polarization_mean",
                          "mean_squared_polarization_se",
                          "delta_mean", "delta_se"]
        rows = [line.split(",") for line in lines[2:]]
        assert [row[0] for row in rows] == ["dim_bath", "dim_bath"]
        assert [float(row[1]) for row in rows] == [8.0, 64.0]
        assert [row[2] for row in rows] == ["2", "2"]
        msp_small, msp_large = (float(row[3]) for row in rows)
        assert msp_small > 2.0 * msp_large
        delta_small, delta_large = (float(row[5]) for row in rows)
        assert delta_small > delta_large

    @pytest.mark.parametrize("kind", ["commuting", "random"])
    def test_mean_squared_polarization_is_the_t2ii_lhs(self, kind):
        # one formula: the sweep metric has the bits of the T2ii report's lhs
        pipe = cli.Pipeline(cli.ExperimentConfig(kind=kind, dim_bath=16))
        metric = cli._SWEEP_METRICS["mean_squared_polarization"](pipe)
        assert metric == pipe.theorem2[1].lhs
        assert 0.0 < metric <= 1.0 + 1e-12

    def test_parallel_jobs_match_the_serial_result(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, RANDOM_SWEEP)
        cases = [("2", []),
                 ("3", ["sweep.draws=3"]),   # 6 draws do not split evenly over 3 workers
                 ("8", []),                  # more workers than draws
                 ("2", ["sweep.values=8"])]  # one point
        for case, (jobs, overrides) in enumerate(cases):
            flags = [arg for item in overrides for arg in ("--override", item)]
            out_a, out_b = tmp_path / f"a{case}", tmp_path / f"b{case}"
            assert cli.main(["sweep", "--config", cfg, "--out", str(out_a), *flags]) == 0
            assert cli.main(["sweep", "--config", cfg, "--jobs", jobs,
                             "--out", str(out_b), *flags]) == 0
            capsys.readouterr()
            assert (out_a / "sweep.csv").read_bytes() == \
                   (out_b / "sweep.csv").read_bytes(), (jobs, overrides)

    def test_a_draw_failing_in_a_worker_exits_as_the_serial_sweep(self, tmp_path,
                                                                  capsys):
        # field_scale = 1e12 puts the two levels of every bath level within
        # 1e-10 |H| of each other, so the dynamics of the draws at that point
        # refuse the spectrum
        cfg = _write_cfg(tmp_path, "[model]\nkind = cucchietti\nn_spins = 3\n"
                                   "[sweep]\nparameter = field_scale\nvalues = 1, 1e12\n"
                                   "draws = 3\n"
                                   "metrics = min_level_spacing, equilibration_metric\n")
        results = []
        for jobs in ("1", "3"):
            code = cli.main(["sweep", "--config", cfg, "--jobs", jobs,
                             "--out", str(tmp_path / "out")])
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        code, err = results[0]
        assert code == 4
        assert err.startswith("error: spectrum has ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exits_2_before_any_draw(self, tmp_path, capsys, jobs):
        cfg = _write_cfg(tmp_path, RANDOM_SWEEP)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--jobs", jobs,
                         "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not (out_dir / "sweep.csv").exists()

    def test_workers_are_capped_at_the_cpus_the_process_may_run_on(self, tmp_path, capsys,
                                                                   monkeypatch):
        # the pool starts all its workers at the first task, so a large --jobs
        # must not ask for more than one per CPU; the recording pool runs the
        # draws here and starts no process
        import concurrent.futures

        requested = []

        class RecordingPool(_SerialPool):
            def __init__(self, max_workers, initializer):
                requested.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cpus = len(os.sched_getaffinity(0))
        cfg = _write_cfg(tmp_path, RANDOM_SWEEP)
        assert cli.main(["sweep", "--config", cfg, "--jobs", "100000",
                         "--override", f"sweep.draws={cpus}",  # 2 * cpus draws
                         "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert requested == ([cpus] if cpus > 1 else [])

    def test_the_pool_holds_at_most_two_tasks_per_worker(self, tmp_path, capsys,
                                                         monkeypatch):
        # 2 points x 50 draws over 2 workers: the draws are submitted as
        # results are taken, never more than 2 x 2 ahead, and the data file
        # is the one of --jobs 1
        import concurrent.futures

        pending, most = [], []

        class WindowPool(_SerialPool):
            def submit(self, fn, task):
                pending.append(task)
                most.append(len(pending))

                def result():
                    pending.remove(task)
                    return fn(task)

                return types.SimpleNamespace(result=result)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", WindowPool)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_draw_metrics",
                            lambda task: [task[1] + task[2] / 7.0, task[2] ** 0.5])
        cfg = _write_cfg(tmp_path, RANDOM_SWEEP)
        for jobs in ("1", "2"):
            assert cli.main(["sweep", "--config", cfg, "--jobs", jobs,
                             "--override", "sweep.draws=50",
                             "--out", str(tmp_path / jobs)]) == 0
        capsys.readouterr()
        assert len(most) == 100 and max(most) == 4 and not pending
        assert (tmp_path / "1" / "sweep.csv").read_bytes() == \
               (tmp_path / "2" / "sweep.csv").read_bytes()

    def test_a_sweep_holds_about_its_array(self, tmp_path, capsys, monkeypatch):
        # 4 points x 125,000 draws x 4 metrics of a stub draw: the sweep fills
        # its 15 MiB (points, metrics, draws) array as the draws arrive, with
        # neither a list of tasks nor one of results
        monkeypatch.setattr(cli, "_draw_metrics",
                            lambda task: [task[2] / 3.0, 1.0, task[1] * 0.5, 2.0])
        cfg = _write_cfg(tmp_path, RANDOM_SWEEP)
        array = 4 * 4 * 125_000 * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert cli.main(["sweep", "--config", cfg, "--jobs", "1",
                             "--override", "sweep.values=8, 16, 32, 64",
                             "--override", "sweep.draws=125000",
                             "--override", "sweep.metrics=delta, lhs_i, necessary_lhs, "
                                           "min_level_spacing",
                             "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 2 * array, f"peak {peak / array:.2f} arrays"

    def test_draws_above_the_cap_exit_3_before_any_draw(self, tmp_path, capsys,
                                                        monkeypatch):
        # the statistics are a (points, metrics, draws) array: 2 * 2 * draws
        # entries here, held to the cap before any task is built
        monkeypatch.setattr(cli, "STACK_ELEMENT_CAP", 40)
        cfg = _write_cfg(tmp_path, RANDOM_SWEEP)
        assert cli.main(["sweep", "--config", cfg, "--override", "sweep.draws=10",
                         "--out", str(tmp_path / "fits")]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_draw_metrics",
                            lambda task: pytest.fail("drawn before the cap was checked"))
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--override", "sweep.draws=11",
                         "--out", str(out_dir)]) == 3
        assert capsys.readouterr().err == (
            "error: sweep.draws * points * metrics = 11 * 4 exceeds 40; "
            "set sweep.draws to at most 10\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["run", "model-info", "bounds"])
    def test_jobs_is_an_option_of_sweep_alone(self, tmp_path, capsys, command):
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as refused:
            cli.main([command, "--config", "sec5_violation", "--jobs", "2",
                      "--out", str(out_dir)])
        assert refused.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unsweepable_parameter_is_rejected(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 8\n"
                                   "[sweep]\nparameter = dim_system\nvalues = 2\n")
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert "not sweepable" in capsys.readouterr().err


class TestInputHardening:
    def test_non_numeric_matrix_version_exits_2(self, tmp_path, capsys):
        matrix_path = tmp_path / "bad.mat"
        matrix_path.write_text("isibench-matrix x\n1 1 0 0\n0 0\n", encoding="utf-8")
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        assert cli.main(["spectrum", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "isibench-matrix <version>" in err

    # the [tolerances] section is gone: its entries name the unknown section
    @pytest.mark.parametrize("entry, field, section", [
        ("hermiticity = 1e-30", "hermiticity", "tolerances"),
        ("decompose_dim_cap = -1", "decompose_dim_cap", "tolerances"),
        ("gap_check_dim_cap = 1.5", "gap_check_dim_cap", "tolerances"),
        ("residual = 0", "residual", "tolerances"),
        ("verdict_boundary = inf", "verdict_boundary", "tolerances"),
        ("eth_search_tol = 1e-8", "eth_search_tol", "tolerances"),
        ("energy_scale = inf", "energy_scale", "model"),
        ("energy_scale = 1e308", "energy_scale", "model"),
        ("epsilon = -1", "epsilon", "analysis"),
        ("epsilon = nan", "epsilon", "analysis"),
        ("theorems = T0ii, Popescu\nepsilon = 0", "epsilon", "analysis"),
        ("theorems = T1\np = 2", "p", "analysis"),
        ("enabled = true\nhorizon_over_min_gap = inf", "horizon_over_min_gap", "dynamics"),
        ("parameter = coupling_scale\nvalues = nan, 1", "values", "sweep"),
        ("parameter = coupling_scale\nvalues = 1e308, 1", "values", "sweep"),
        ("level_splitting = 1.7e308\nenergy_scale = 8e307", "energy_scale", "model"),
        ("gap_degeneracy = 1e-9", "gap_degeneracy", "tolerances"),
        ("decompose_dim_cap = 1.5", "decompose_dim_cap", "tolerances"),
    ])
    def test_bad_tolerance_override_exits_2_naming_the_field(self, tmp_path, capsys,
                                                             entry, field, section):
        header = "" if section == "model" else f"[{section}]\n"
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 4\n"
                                   f"{header}{entry}\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert ("[tolerances]" if section == "tolerances" else f"{section}.{field}") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["spectrum", "run"])
    @pytest.mark.parametrize("cells", [{(0, 0): "nan"}, {(0, 1): "inf", (1, 0): "inf"},
                                       {(2, 2): "1e999"}], ids=["nan", "inf_pair", "1e999"])
    def test_non_finite_matrix_entry_exits_2_naming_the_line(self, tmp_path, capsys,
                                                             cells, command):
        matrix_path = tmp_path / "bad.mat"
        write_matrix(matrix_path, np.diag([1.0, 2.0, 3.0, 5.0]), SpaceLayout(2, 2))
        lines = matrix_path.read_text(encoding="utf-8").splitlines()
        for (row, col), token in cells.items():
            numbers = lines[2 + row].split()
            numbers[2 * col] = token  # the real part of the entry
            lines[2 + row] = " ".join(numbers)
        matrix_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        out_dir = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"line {3 + min(row for row, _ in cells)}: non-finite number" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("level_splitting", ["1e308", "1e200"])
    def test_huge_level_splitting_gives_one_error_line_without_warnings(
            self, tmp_path, level_splitting):
        # r_l = sqrt((w + v_z)^2 + v_x^2 + v_y^2) must not overflow: the
        # energies stay finite, and each branch collapses to one energy,
        # shared across the bath levels, so no two levels of one bath level
        # meet and the run ends with no error and no warning
        result = subprocess.run(
            [sys.executable, "-m", "isibench.cli", "run", "--config", "sec5_violation",
             "--override", "model.dim_bath=4",
             "--override", f"model.level_splitting={level_splitting}",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stderr == ""

    # The reductions of a qubit model hold 4 d entries, at most 20,000,000:
    # dB <= 2,500,000, n_spins <= 21.  A random model is one sector of m = d.
    @pytest.mark.parametrize("config, overrides, named", [
        ("cucchietti", ["model.n_spins=64"], "2^65"),
        ("cucchietti", ["model.n_spins=22"], "8388608"),
        ("sec5_violation", ["model.dim_bath=10000000000000"], "20000000000000"),
        ("sec5_violation", ["model.dim_bath=2500001"], "5000002"),
        ("random_contrast", ["model.dim_bath=1000000000"], "2000000000"),
        ("random_contrast", ["model.dim_system=50", "model.dim_bath=163"], "8150"),
    ], ids=["cucchietti", "cucchietti_22", "commuting", "commuting_2500001", "random",
            "random_reductions"])
    def test_oversized_model_exits_3_before_anything_is_drawn(
            self, tmp_path, capsys, monkeypatch, config, overrides, named):
        def no_draw(seed):
            pytest.fail("a generator was made before the cap was checked")

        monkeypatch.setattr(cli, "generator", no_draw)
        if config == "cucchietti":
            config = _write_cfg(tmp_path, "[model]\nkind = cucchietti\nn_spins = 4\n")
        out_dir = tmp_path / "out"
        argv = ["run", "--config", config, "--out", str(out_dir)]
        for item in overrides:
            argv += ["--override", item]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err and ("20000000" in err or "8192" in err)
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind, size", [("commuting", {"dim_bath": 2_500_000}),
                                            ("cucchietti", {"n_spins": 21})])
    def test_largest_closed_form_models_pass_the_check(self, kind, size):
        # d * dS^2 = 20,000,000 and 16,777,216 entries: at the cap and below it
        cli.Pipeline(cli.ExperimentConfig(kind=kind, **size))._check_dimension()

    # energy_scale = 1e12 puts the two levels of each of the 4 bath levels
    # within 1e-10 |H| of each other: 4 degenerate pairs
    @pytest.mark.parametrize("command", ["run", "equilibrium"])
    def test_degenerate_spectrum_exits_4_before_any_file(self, tmp_path, capsys, command):
        out_dir = tmp_path / "out"
        assert cli.main([command, "--config", "sec5_violation",
                         "--override", "model.dim_bath=4",
                         "--override", "model.energy_scale=1e12",
                         "--out", str(out_dir)]) == 4
        assert capsys.readouterr().err.startswith("error: spectrum has ")
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_degenerate_spectrum_leaves_bounds_a_note(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert cli.main(["bounds", "--config", "sec5_violation",
                         "--override", "model.dim_bath=4",
                         "--override", "model.energy_scale=1e12",
                         "--override", "analysis.theorems=SufficientISI,T2ii",
                         "--out", str(out_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # the note and the conclusion come before the files, as in every command
        assert lines[-4].startswith("note: spectrum is degenerate")
        assert lines[-3].startswith("conclusion: ")
        assert lines[-2:] == [f"wrote {out_dir / 'report_SufficientISI.json'}",
                              f"wrote {out_dir / 'report_T2ii.json'}"]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "report_SufficientISI.json", "report_T2ii.json"]

    @pytest.mark.parametrize("command", ["dynamics", "run"])
    def test_evolution_cap_exits_3_naming_n_times(self, tmp_path, capsys, command):
        # the cap bounds the n_times * dS^2 entries of the trajectory
        out_dir = tmp_path / "out"
        assert cli.main([command, "--config", "sec5_violation",
                         "--override", "dynamics.n_times=5000001",
                         "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "dynamics.n_times to at most 5000000" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("config", ["sec5_violation", "random_contrast"])
    def test_evolution_cap_does_not_depend_on_d(self, tmp_path, capsys, config):
        # both forms evolve 256 times at a time: d * n_times = 512 * 40000
        # measures no buffer, and the 40000 x 2 x 2 trajectory fits
        out_dir = tmp_path / "out"
        assert cli.main(["dynamics", "--config", config,
                         "--override", "dynamics.n_times=40000",
                         "--out", str(out_dir)]) == 0
        lines = (out_dir / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2 + 40000

    def test_evolution_cap_is_checked_before_the_time_grid_is_drawn(self, tmp_path,
                                                                    capsys):
        # A grid of 10^13 times would not fit in memory: the cap must refuse it
        # before it is drawn.
        out_dir = tmp_path / "out"
        assert cli.main(["dynamics", "--config", "sec5_violation",
                         "--override", "model.dim_bath=4",
                         "--override", "dynamics.n_times=10000000000000",
                         "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "dynamics.n_times to at most 5000000" in err
        assert not out_dir.exists()

    # The n_samples draws and the dS > 2 search's n_starts obey the same rule
    # as n_times: count * dS^2 entries at most the cap, checked before any draw.
    @pytest.mark.parametrize("theorem", ["T0i", "Popescu"])
    def test_sample_count_above_the_cap_exits_3_before_any_draw(
            self, tmp_path, capsys, monkeypatch, theorem):
        monkeypatch.setattr(spectral, "STACK_ELEMENT_CAP", 4000)  # d * dS^2 = 32 fits
        argv = ["bounds", "--config", "sec5_violation", "--override", "model.dim_bath=4",
                "--override", f"analysis.theorems={theorem}"]
        assert cli.main(argv + ["--override", "analysis.n_samples=1000",
                                "--out", str(tmp_path / "fits")]) == 0
        capsys.readouterr()

        def no_draw(*args):
            pytest.fail("samples were drawn before the cap was checked")

        monkeypatch.setattr(theorems, "sampled_distances", no_draw)
        out_dir = tmp_path / "out"
        assert cli.main(argv + ["--override", "analysis.n_samples=1001",
                                "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "analysis.n_samples to at most 1000" in err
        assert not out_dir.exists()

    def test_start_count_above_the_cap_exits_3_before_any_draw(self, tmp_path, capsys,
                                                               monkeypatch):
        def no_draw(*args):
            pytest.fail("starts were drawn before the cap was checked")

        monkeypatch.setattr(theorems, "sample_amplitudes", no_draw)
        out_dir = tmp_path / "out"
        assert cli.main(["bounds", "--config", "random_contrast",
                         "--override", "model.dim_system=3", "--override", "model.dim_bath=4",
                         "--override", "initial_state.system=random",
                         "--override", "analysis.theorems=T1",
                         "--override", "analysis.n_starts=1000000000000",
                         "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "analysis.n_starts to at most 2222222" in err  # 20,000,000 // 9
        assert not out_dir.exists()

    def test_a_qubit_draws_no_starts_whatever_n_starts_is(self, tmp_path, capsys):
        # the qubit supremum is exact: n_starts is never drawn, so never capped
        assert cli.main(["bounds", "--config", "sec5_violation",
                         "--override", "model.dim_bath=4",
                         "--override", "analysis.theorems=T1prime",
                         "--override", "analysis.n_starts=1000000000000",
                         "--out", str(tmp_path / "out")]) == 0

    # A dS that the config fixes (every model kind but file) decides both
    # counts before the model is drawn, as it decides the qubit-only reports.
    @pytest.mark.parametrize("config, builder, theorem, key, largest", [
        ("random_contrast", "build_random_model", "T0i", "n_samples", 5000000),
        ("sec5_violation", "sample_commuting_spec", "Popescu", "n_samples", 5000000),
        ("random_contrast", "build_random_model", "T1", "n_starts", 2222222),
    ], ids=["T0i", "Popescu", "T1"])
    def test_count_above_the_cap_exits_3_before_the_model_is_drawn(
            self, tmp_path, capsys, monkeypatch, config, builder, theorem, key, largest):
        monkeypatch.setattr(cli, builder, lambda *args: pytest.fail("the model was drawn"))
        qutrit = ["model.dim_system=3", "initial_state.system=random"] if key == "n_starts" \
            else []
        overrides = ["model.dim_bath=1024", f"analysis.theorems={theorem}",
                     f"analysis.{key}=1000000000000", *qutrit]
        out_dir = tmp_path / "out"
        assert cli.main(["bounds", "--config", config, "--out", str(out_dir),
                         *[arg for item in overrides for arg in ("--override", item)]]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: analysis.{key} * dS^2 = 1000000000000 * ")
        assert captured.err.endswith(f"set analysis.{key} to at most {largest}\n")
        assert not out_dir.exists()

    # The time count of the dynamics stage too, whichever command runs it.
    @pytest.mark.parametrize("command", ["run", "dynamics"])
    def test_time_count_above_the_cap_exits_3_before_the_model_is_drawn(
            self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "build_random_model",
                            lambda *args: pytest.fail("the model was drawn"))
        out_dir = tmp_path / "out"
        assert cli.main([command, "--config", "random_contrast", "--out", str(out_dir),
                         "--override", "model.dim_bath=1024",
                         "--override", "dynamics.n_times=6000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: dynamics.n_times * dS^2 = 6000000 * 4 exceeds "
                                "20000000; set dynamics.n_times to at most 5000000\n")
        assert not out_dir.exists()

    # A matrix file's dS is known once the file is read, so its counts are
    # refused where the draws start.
    @pytest.mark.parametrize("theorem, dim_system, key, draw, largest", [
        ("T0i", 2, "n_samples", "sampled_distances", 1000),
        ("Popescu", 2, "n_samples", "sampled_distances", 1000),
        ("T1", 3, "n_starts", "sample_amplitudes", 444),
    ], ids=["T0i", "Popescu", "T1"])
    def test_a_matrix_files_count_above_the_cap_exits_3_where_the_draws_start(
            self, tmp_path, capsys, monkeypatch, theorem, dim_system, key, draw, largest):
        monkeypatch.setattr(spectral, "STACK_ELEMENT_CAP", 4000)  # d * dS^2 <= 108 fits
        matrix_path = tmp_path / "tagged.mat"
        write_matrix(matrix_path, np.diag(np.arange(4.0 * dim_system)),
                     SpaceLayout(dim_system, 4))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n"
                                   "[initial_state]\nsystem = random\n"
                                   f"[analysis]\ntheorems = {theorem}\n{key} = 1000000\n")
        monkeypatch.setattr(theorems, draw,
                            lambda *args: pytest.fail("drawn before the cap was checked"))
        out_dir = tmp_path / "out"
        assert cli.main(["bounds", "--config", cfg, "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.endswith(f"set analysis.{key} to at most {largest}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, extra", [
        ("run", []), ("model-info", []),
        ("sweep", ["--override", "sweep.parameter=dim_bath", "--override", "sweep.values=4",
                   "--override", "sweep.draws=1", "--override", "sweep.metrics=delta"]),
    ], ids=["run", "model-info", "sweep"])
    def test_random_model_whose_energy_range_overflows_exits_2(self, tmp_path, capsys,
                                                               command, extra):
        out_dir = tmp_path / "out"
        assert cli.main([command, "--config", "random_contrast",
                         "--override", "model.dim_bath=4",
                         "--override", "model.interaction_strength=1e308",
                         "--out", str(out_dir), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the energy range") and err.count("\n") == 1
        assert "model.interaction_strength" in err
        assert not out_dir.exists()

    def test_horizon_overflow_exits_2_naming_the_largest_ratio(self, tmp_path, capsys):
        # 1e308 over a level spacing below 1 overflows the horizon; the error
        # names the entry and the largest ratio whose phases stay finite.
        out_dir = tmp_path / "out"
        argv = ["dynamics", "--config", "sec5_violation", "--out", str(out_dir)]
        assert cli.main(argv + ["--override", "dynamics.horizon_over_min_gap=1e308"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dynamics.horizon_over_min_gap") \
            and err.count("\n") == 1
        assert not out_dir.exists()
        largest = float(err.rsplit("at most ", 1)[1])
        above = math.nextafter(largest, math.inf)
        assert cli.main(argv + ["--override",
                                f"dynamics.horizon_over_min_gap={above!r}"]) == 2
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv + ["--override",
                                    f"dynamics.horizon_over_min_gap={largest!r}"]) == 0
        assert "mean distance to equilibrium: nan" not in capsys.readouterr().out

    @pytest.mark.parametrize("source", [["--seed", "-1"], ["--override", "model.seed=-7"]],
                             ids=["flag", "override"])
    def test_negative_seed_exits_2_before_any_write(self, tmp_path, capsys, source):
        out_dir = tmp_path / "out"
        assert cli.main(["spectrum", "--config", "sec5_violation", *source,
                         "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model.seed must be >= 0") and err.count("\n") == 1
        assert not out_dir.exists()


    @pytest.mark.parametrize("command", ["run", "model-info"])
    @pytest.mark.parametrize("entry", ["model.energy_scale=-1", "model.energy_scale=-0",
                                       "model.coupling_scale=-2.5"])
    def test_negative_scale_exits_2_before_any_write(self, tmp_path, capsys, command,
                                                     entry):
        # numpy's uniform(-s, s) refuses s < 0, and s = -0 too
        out_dir = tmp_path / "out"
        assert cli.main([command, "--config", "sec5_violation", "--override", entry,
                         "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad value for {entry.partition('=')[0]}: ")
        assert "nonnegative" in err and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["run", "model-info"])
    @pytest.mark.parametrize("kind", ["commuting", "cucchietti"])
    def test_zero_coupling_scale_exits_2_naming_the_key(self, tmp_path, capsys, command,
                                                        kind):
        size = "dim_bath = 8" if kind == "commuting" else "n_spins = 3"
        cfg = _write_cfg(tmp_path, f"[model]\nkind = {kind}\n{size}\n"
                                   "coupling_scale = 0\n")
        out_dir = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == "error: model.coupling_scale must be positive\n"
        assert not out_dir.exists()

    def test_zero_coupling_scale_in_a_sweep_exits_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 8\n"
                                   "[sweep]\nparameter = coupling_scale\nvalues = 1, 0\n"
                                   "draws = 2\n")
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            "error: sweep.values: model.coupling_scale must be positive\n"
        assert not (tmp_path / "out").exists()

    def test_negative_scale_in_a_sweep_exits_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = cucchietti\nn_spins = 3\n"
                                   "[sweep]\nparameter = field_scale\nvalues = 1, -0.5\n"
                                   "draws = 2\n")
        for jobs in ("1", "2"):
            assert cli.main(["sweep", "--config", cfg, "--jobs", jobs,
                             "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: sweep.values: bad value for model.field_scale")
            assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", ["initial_state.system=basis:\u00b2",
                                          "initial_state.bath=basis:\u00b3",
                                          "analysis.subspace=bath_prefix:\u00b2"])
    def test_non_ascii_digits_in_an_index_exit_2(self, tmp_path, capsys, override):
        # '\u00b2' (superscript two) passes str.isdigit but not int()
        out_dir = tmp_path / "out"
        assert cli.main(["equilibrium", "--config", "sec5_violation",
                         "--override", "model.dim_bath=4", "--override", override,
                         "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert override.partition(":")[2] in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("target", ["missing", "directory", "not_utf8"])
    def test_unreadable_matrix_file_exits_2_naming_it(self, tmp_path, capsys, target):
        matrix_path = tmp_path / target
        if target == "directory":
            matrix_path.mkdir()
        elif target == "not_utf8":
            matrix_path.write_bytes(b"isibench-matrix 1\n1 1 0 0\n\xff 0\n")
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {matrix_path}: ") and err.count("\n") == 1

    def test_config_file_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("[model]\nkind = commuting\n# na\u00efve\n".encode("latin-1"))
        assert cli.main(["spectrum", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: not UTF-8 text")

    @pytest.mark.parametrize("tag", ["4 4 1 4", "4 4 2 0", "4 4 -2 -2", "4 4 0 2",
                                     "4 4 2 4", "4 5 2 2"])
    def test_layout_tag_out_of_range_exits_2_naming_line_2(self, tmp_path, capsys, tag):
        matrix_path = tmp_path / "tagged.mat"
        write_matrix(matrix_path, np.diag([1.0, 2.0, 3.0, 5.0]))
        lines = matrix_path.read_text(encoding="utf-8").splitlines()
        lines[1] = tag
        matrix_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {matrix_path}: line 2: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["spectrum", "run"])
    def test_matrix_whose_energy_range_overflows_exits_2(self, tmp_path, capsys, command):
        matrix_path = tmp_path / "huge.mat"
        write_matrix(matrix_path, np.diag([1e308, 0.0, -1e308, 1.0]), SpaceLayout(2, 2))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--config", cfg, "--out", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {matrix_path}: the energy range "
                                           "E_max - E_min = inf is not finite\n")
        assert not out_dir.exists()

    def test_default_section_is_an_unknown_section(self, tmp_path, capsys):
        # configparser would merge [DEFAULT] into every section: seed = 3
        # would silently become model.seed
        cfg = _write_cfg(tmp_path, "[DEFAULT]\nseed = 3\n"
                                   "[model]\nkind = commuting\ndim_bath = 4\n")
        assert cli.main(["model-info", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: unknown config section [DEFAULT]\n"


def _exits_cleanly(argv: list[str], capsys, out_prefix: str):
    """None if ``main(argv)``, with warnings turned into errors, exits 0
    printing ``out_prefix`` first and nothing on stderr, or exits with the
    code of its error type printing one ``error:`` line; else (code, stderr)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    lines = err.splitlines()
    if code == 0:
        clean = not err and out.startswith(out_prefix)
    else:
        clean = (code in dict(cli._EXIT_CODES).values() and len(lines) == 1
                 and lines[0].startswith("error: "))
    return None if clean else (code, err)


# Override values that each config entry must survive: a refusal is one
# error line with the exit code of its error type, never a traceback.
_FUZZ_VALUES = ("-1", "-0", "0", "nan", "inf", "1e308", "", "x", "2.5")


class TestOverrideFuzz:
    @pytest.mark.parametrize("config", cli.bundled_config_names())
    def test_every_entry_and_value_exits_cleanly(self, config, capsys):
        failures = []
        for key in cli.CONFIG_KEYS:
            for value in _FUZZ_VALUES:
                # a small bath keeps each model-info call short; a fuzzed
                # dim_bath comes later and wins
                argv = ["model-info", "--config", config, "--override", "model.dim_bath=4",
                        "--override", f"{key}={value}"]
                failure = _exits_cleanly(argv, capsys, "model: ")
                if failure:
                    failures.append((key, value, *failure))
        assert not failures


def _config_mutations(data: bytes, rng: np.random.Generator) -> list[tuple[str, bytes]]:
    """Named variants of a config file: fixed ones, then seeded truncations,
    repeated lines and replaced bytes."""
    lines = data.splitlines(keepends=True)
    cases = [("empty", b""), ("blank", b" \n\n"), ("default_section", b"[DEFAULT]\n" + data),
             ("default_seed", b"[DEFAULT]\nseed = 3\n" + data),
             ("section_twice", data + b"[model]\n"), ("no_header", data.partition(b"]")[2]),
             ("not_utf8", b"\xff\xfe" + data), ("nul_byte", data.replace(b"\n", b"\x00\n", 1))]
    for _ in range(8):
        cut = int(rng.integers(len(data)))
        cases.append((f"cut_at_{cut}", data[:cut]))
        line = int(rng.integers(len(lines)))
        cases.append((f"line_{line}_twice", b"".join(lines[:line + 1] + lines[line:])))
        pos, byte = int(rng.integers(len(data))), bytes([rng.choice(list(b"\n[]=#: \t\xc3"))])
        cases.append((f"byte_{pos}_{byte!r}", data[:pos] + byte + data[pos + 1:]))
    return cases


class TestConfigTextFuzz:
    @pytest.mark.parametrize("config", cli.bundled_config_names())
    def test_every_mutated_config_exits_cleanly(self, tmp_path, capsys, config):
        text = (resources.files("isibench") / "configs" / f"{config}.cfg").read_bytes()
        text = text.replace(b"dim_bath = 256", b"dim_bath = 4")  # keeps each call short
        rng = np.random.default_rng(list(config.encode()))
        failures = []
        for name, data in _config_mutations(text, rng):
            path = tmp_path / f"{name}.cfg"
            path.write_bytes(data)
            failure = _exits_cleanly(["model-info", "--config", str(path)], capsys, "model: ")
            if failure:
                failures.append((name, *failure))
        assert not failures


def _matrix_mutations(lines: list[str], rng: np.random.Generator) -> list[tuple[str, bytes]]:
    """Named variants of a written 4x4 matrix file, one text line per entry of
    ``lines``: its header, tag, row count and tokens, huge and non-finite
    entries, then seeded truncations and replaced bytes."""
    def text(*edits: tuple[int, str | None]) -> bytes:
        out = list(lines)
        for index, line in edits:
            out[index] = line
        return "".join(line + "\n" for line in out if line is not None).encode()

    row = lines[2].split()
    cases = [("empty", b""), ("blank", b"\n \n"), ("not_utf8", b"\xff" + text()),
             ("header_only", text()[:len(lines[0]) + 1])]
    cases += [(f"header_{h!r}", text((0, h))) for h in (
        "isibench-matrix", "isibench-matrix 2", "isibench-matrix x", "isibench-matrix \u0661",
        "isibench-matrix 1 1", "matrix 1")]
    cases += [(f"tag_{t!r}", text((1, t))) for t in (
        "4 4 2", "4 4 2 2 2", "4 4 a b", "4 4 2 2.0", "0 0 0 0", "-4 -4 2 2", "4 4 0 0",
        "4 4 4 1", "4 4 1 4", "4 4 2 0", "4 4 -2 -2", "3 3 2 2", "4 5 2 2", "5 5 2 2",
        "4 4 99999999999999999999 1", "1 100000000000000 0 0")]
    cases += [("row_dropped", text((5, None))),
              ("row_twice", text((5, lines[5] + "\n" + lines[5])))]
    for index, token in enumerate(("", "x", "nan", "-inf", "1e999", "0x1p3", "1e308",
                                   "-1e308", "1e-320", "1_0", "1e308 1e308")):
        tokens = list(row)
        tokens[index % len(row)] = token
        cases.append((f"token_{index}_{token!r}", text((2, " ".join(tokens)))))
    last = lines[5].split()
    cases.append(("range_overflows", text((2, " ".join(["1e308", "0"] + row[2:])),
                                           (5, " ".join(last[:6] + ["-1e308", "0"])))))
    data = text()
    for _ in range(12):
        cut = int(rng.integers(len(data)))
        cases.append((f"cut_at_{cut}", data[:cut]))
        pos, byte = int(rng.integers(len(data))), bytes([rng.choice(list(b"\n -.e019x"))])
        cases.append((f"byte_{pos}_{byte!r}", data[:pos] + byte + data[pos + 1:]))
    return cases


class TestMatrixFileFuzz:
    def test_every_mutated_matrix_file_exits_cleanly(self, tmp_path, capsys):
        rng = np.random.default_rng(2024)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        matrix_path = tmp_path / "model.mat"
        write_matrix(matrix_path, (raw + raw.conj().T) / 2, SpaceLayout(2, 2))
        lines = matrix_path.read_text(encoding="utf-8").splitlines()
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n"
                                   "[analysis]\ntheorems = SufficientISI, T0i, T0ii, T1prime, "
                                   "T2i, T2ii, Popescu\nn_samples = 8\n")
        failures = []
        for name, data in _matrix_mutations(lines, rng):
            matrix_path.write_bytes(data)
            failure = _exits_cleanly(["run", "--config", cfg, "--out", str(tmp_path / "out")],
                                     capsys, "# generated: ")
            if failure:
                failures.append((name, *failure))
        assert not failures


class TestDegenerateSpectrumSkip:
    def test_allow_degenerate_skips_t0_reports_with_notes(self, tmp_path, capsys):
        matrix_path = tmp_path / "degenerate.mat"
        write_matrix(matrix_path, np.diag([1.0, 1.0, 2.0, 3.0]), SpaceLayout(2, 2))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n"
                                   "[analysis]\ntheorems = SufficientISI, T0i, T0ii\n"
                                   "allow_degenerate = true\n")
        out_dir = tmp_path / "out"
        assert cli.main(["bounds", "--config", cfg, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "note: T0i skipped (degenerate spectrum)" in out
        assert "note: T0ii skipped (degenerate spectrum)" in out
        assert sorted(p.name for p in out_dir.iterdir()) == ["report_SufficientISI.json"]
