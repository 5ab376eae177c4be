"""End-to-end tests for the command-line front end.

Most cases call ``main(argv)`` in process and inspect stdout/stderr through
capsys; one smoke test goes through ``python -m isibench.cli`` to cover the
module entry point.
"""

import re
import subprocess
import sys

import numpy as np
import pytest

from isibench import cli
from isibench.hilbert import SpaceLayout
from isibench.spectral import write_matrix
from isibench.theorems import read_report


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
        assert cli.main(["spectrum", "--config", cfg]) == 2
        assert "nope" in capsys.readouterr().err

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

    def test_unknown_initial_state_name(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 4\n"
                                   "[initial_state]\nsystem = sideways\n")
        assert cli.main(["equilibrium", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 2
        assert "sideways" in capsys.readouterr().err


class TestErrorExitCodes:
    def test_dimension_cap_exits_3(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 8192\n")
        assert cli.main(["spectrum", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "16384" in err and "8192" in err

    def test_lowered_cap_from_the_tolerances_section(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 4\n"
                                   "[tolerances]\ndecompose_dim_cap = 4\n")
        assert cli.main(["spectrum", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 3

    def test_degenerate_spectrum_exits_4_from_equilibrium(self, tmp_path, capsys):
        matrix_path = tmp_path / "degenerate.mat"
        write_matrix(matrix_path, np.diag([1.0, 1.0, 2.0, 3.0]), SpaceLayout(2, 2))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        assert cli.main(["equilibrium", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 4
        assert "degenerate" in capsys.readouterr().err

    def test_degenerate_spectrum_exits_1_from_dynamics(self, tmp_path, capsys):
        # The zero minimum gap is caught before the equilibrium average, so
        # this surfaces as a generic validation failure, not the degeneracy
        # refusal.
        matrix_path = tmp_path / "degenerate.mat"
        write_matrix(matrix_path, np.diag([1.0, 1.0, 2.0, 3.0]), SpaceLayout(2, 2))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        assert cli.main(["dynamics", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 1
        assert "gap timescale" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_degenerate_file_is_reported_not_fatal(self, tmp_path, capsys):
        matrix_path = tmp_path / "degenerate.mat"
        write_matrix(matrix_path, np.diag([1.0, 1.0, 2.0, 3.0]))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        out_dir = tmp_path / "out"
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "nondegenerate spectrum: false" in out
        assert f"wrote {out_dir / 'spectrum.csv'}" in out
        lines = (out_dir / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "# schema_version 1"
        assert lines[1] == "n,energy"
        assert len(lines) == 2 + 4

    def test_equal_spacing_fails_the_gap_check_only(self, tmp_path, capsys):
        matrix_path = tmp_path / "ladder.mat"
        write_matrix(matrix_path, np.diag([0.0, 1.0, 2.0]))
        cfg = _write_cfg(tmp_path, f"[model]\nkind = file\npath = {matrix_path}\n")
        assert cli.main(["spectrum", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "nondegenerate spectrum: true" in out
        assert "nondegenerate gaps: false" in out


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

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "isibench.cli", "model-info",
             "--config", "sec5_violation", "--override", "model.dim_bath=8"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "layout: dS=2 dB=8 d=16" in result.stdout


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

    def test_conclusion_without_t2ii(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 8\n"
                                   "[analysis]\ntheorems = SufficientISI\n")
        assert cli.main(["bounds", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "conclusion: not evaluated" in out
        assert "SufficientISI:" in out


class TestRunCommand:
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

    def test_parallel_jobs_match_the_serial_result(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, RANDOM_SWEEP)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out_a)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--jobs", "2",
                         "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

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

    @pytest.mark.parametrize("entry, field", [
        ("hermiticity = 1e-30", "hermiticity"),
        ("decompose_dim_cap = -1", "decompose_dim_cap"),
        ("gap_check_dim_cap = 1.5", "gap_check_dim_cap"),
        ("residual = 0", "residual"),
        ("verdict_boundary = inf", "verdict_boundary"),
    ])
    def test_bad_tolerance_override_exits_2_naming_the_field(self, tmp_path, capsys,
                                                             entry, field):
        cfg = _write_cfg(tmp_path, "[model]\nkind = commuting\ndim_bath = 4\n"
                                   f"[tolerances]\n{entry}\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"tolerances.{field}" in err
        assert not (tmp_path / "out").exists()


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
