"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

import pytest

import bench
import layers
from workloads import WORKLOADS, check_outputs, data_files

sys.path.insert(0, str(bench.SRC))
import isibench  # noqa: E402
import isibench.cli  # noqa: E402

# A tiny commuting run whose verdicts hold for every seed: delta = 1 and every
# eigenstate reduction is pure, so both reports come out violated.
TINY = replace(WORKLOADS["commuting_mc"], name="tiny",
               overrides=("model.dim_bath=16", "analysis.theorems=SufficientISI,T2ii",
                          "analysis.n_samples=8", "dynamics.enabled=true",
                          "dynamics.n_times=20"),
               verdicts={"SufficientISI": "violated", "T2ii": "violated"})


def test_self_times_subtract_child_spans():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["models.build", 1.0, 4.0, 0],
             ["hilbert.reduce", 2.0, 3.0, 1],
             ["spectral.solve", 5.0, 6.5, 0],
             ["hilbert.reduce", 7.0, 7.5, 0]]
    assert layers.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.5, 0.5])
    metrics = layers.layer_metrics(spans)
    assert metrics["cli.self_s"] == pytest.approx(5.0)
    assert metrics["hilbert.self_s"] == pytest.approx(1.5)
    assert metrics["cli.main_s"] == pytest.approx(10.0)
    assert sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS) == pytest.approx(10.0)


def test_samples_per_second_counts_only_draws_inside_the_estimator():
    spans = [["sampling.monte_carlo_average", 0.0, 2.0, -1],
             ["sampling.sample_uniform_columns", 0.1, 0.2, 0],
             ["sampling.sample_uniform_columns", 0.3, 0.4, 0],
             ["sampling.sample_uniform_columns", 3.0, 3.1, -1]]
    metrics = layers.layer_metrics(spans)
    assert metrics["sampling.draw.calls"] == 3
    assert metrics["sampling.samples_per_s"] == pytest.approx(1.0)


def test_tracer_wraps_callers_names_and_restores_originals():
    before = layers.layer_namespaces()
    original = isibench.spectral.eigendecompose
    tracer = layers.Tracer()
    with tracer.installed():
        assert isibench.cli.eigendecompose is not original
        assert isibench.spectral.eigendecompose is isibench.cli.eigendecompose
        assert isibench.theorems.trace_distance is not before[("hilbert", "trace_distance")]
        isibench.theorems.trace_distance([[1, 0], [0, 0]], [[0, 0], [0, 1]])
    after = layers.layer_namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert [span[0] for span in tracer.spans] == ["hilbert.trace_distance",
                                                  "hilbert.trace_norm"]


def test_traced_run_writes_the_same_files_and_restores_every_function(tmp_path):
    before = layers.layer_namespaces()
    result = bench.traced_run(TINY, 3, tmp_path, isibench)
    assert result["problems"] == [[], [], []]
    assert all(layers.layer_namespaces()[key] is value for key, value in before.items())
    traced = data_files(tmp_path / "traced")
    assert traced == data_files(tmp_path / "untraced")
    assert "report_T2ii.json" in traced and "trajectory.csv" in traced
    metrics = result["metrics"]
    assert metrics["cli.output_bytes"] == sum(map(len, traced.values()))
    assert metrics["equilibrium.delta.calls"] == 1
    assert set(metrics) == set(layers.UNITS)


def test_broken_invocation_counts_as_failed(tmp_path, capsys):
    broken = replace(TINY, overrides=TINY.overrides + ("model.bogus=1",))
    problems, metrics, record = bench.end_to_end(broken, 5, 0.0, tmp_path, isibench,
                                                 time.monotonic() + 60.0)
    assert len(problems) == bench.MIN_INVOCATIONS
    assert all(any("exit code 2" in p for p in ps) for ps in problems)
    assert "fail_rate: 1 ratio (3 of 3)" in capsys.readouterr().out
    assert set(metrics) == set(bench.END_TO_END_UNITS)


def test_same_seed_invocations_agree_and_checks_pass(tmp_path):
    records, setup = bench.run_invocations(TINY, 9, 0.0, tmp_path, isibench,
                                           time.monotonic() + 60.0)
    assert [r["problems"] for r in records] == [[]] * bench.MIN_INVOCATIONS
    assert len(setup) == bench.MIN_INVOCATIONS * bench.SETUP_SAMPLES
    assert records[0]["seed"] == records[1]["seed"] != records[2]["seed"]


def test_checks_flag_a_wrong_verdict_and_bad_sweep_rows(tmp_path, capsys):
    assert isibench.cli.main(TINY.argv(4, tmp_path / "run")) == 0
    assert check_outputs(TINY, tmp_path / "run", isibench) == []
    wrong = replace(TINY, verdicts={"SufficientISI": "violated", "T2ii": "satisfied"})
    assert check_outputs(wrong, tmp_path / "run", isibench) == [
        "T2ii: verdict violated, expected satisfied"]
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    (sweep_dir / "sweep.csv").write_text(
        "# schema_version 1\nparameter,value,n_draws,delta_mean,delta_se\n"
        "dim_bath,16,10,0.5,0.01\ndim_bath,32,10,0.2,0.01\n"
        "dim_bath,64,10,0.4,-0.01\ndim_bath,128,10,0.35,0.0\n")
    assert check_outputs(WORKLOADS["sweep_small"], sweep_dir, isibench) == [
        "delta_mean 0.2 outside [1/3, 1]", "negative standard errors ['delta_se']"]
