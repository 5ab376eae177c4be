"""Benchmark of the isibench command line: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload commuting_mc --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the benchmark runs ``isibench`` invocations of the
workload as subprocesses for ``--seconds`` seconds and reports their median
wall time, CPU time and peak RSS, plus the median start-up time of
``import isibench.cli``.  With ``--trace 1`` it runs the workload in this
process three times (see PASSES), once of them traced (see layers.py), and
reports the per-layer metrics.  Every invocation's outputs are checked; the
last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from layers import UNITS, Tracer, layer_metrics, layer_namespaces
from workloads import WORKLOADS, Workload, check_outputs, data_files, invocation_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_INVOCATIONS = 3   # invocations 0 and 1 share a seed; see invocation_seed
SETUP_SAMPLES = 2     # interpreter starts before each invocation, for setup_s
RUN_BUDGET_S = 170.0  # the whole run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def workload_env(workload: Workload) -> dict[str, str]:
    """Environment of every process of a workload: the checkout's src, the BLAS threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in BLAS_VARIABLES:
        env.pop(name, None)
        if workload.blas_threads is not None:
            env[name] = str(workload.blas_threads)
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


def spawn(argv: list[str], env: dict[str, str], log: Path, timeout: float
          ) -> tuple[int | None, float, float, float]:
    """Run a command to its exit: (exit code, wall s, CPU s, peak RSS MB).

    The exit code is None when the command was killed at ``timeout``.

    CPU time and peak RSS come from wait4, which covers the process and every
    child it waited for (the sweep's worker processes).
    """
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: take the invocation down too
            _kill_group(proc)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    _kill_group(proc)  # workers a killed or crashed invocation left behind
    code = None if proc.returncode == -signal.SIGKILL else proc.returncode
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def measure_setup(env: dict[str, str], work: Path, first: int) -> list[float]:
    """Seconds from spawning an interpreter to a finished ``import isibench.cli``."""
    script = "import time, isibench.cli; print(repr(time.monotonic()))"
    samples = []
    for index in range(first, first + SETUP_SAMPLES):
        log = work / f"setup-{index}.txt"
        start = time.monotonic()
        code, *_ = spawn([sys.executable, "-c", script], env, log, 60.0)
        if code != 0:
            raise RuntimeError(f"import isibench.cli failed: {log.read_text()[-500:]}")
        samples.append(float(log.read_text().split()[-1]) - start)
    return samples


def run_invocations(workload: Workload, seed: int, seconds: float, work: Path,
                    isibench, deadline: float) -> tuple[list[dict], list[float]]:
    """Invocations of the workload for about ``seconds`` seconds, each checked.

    Returns the invocation records and the set-up times measured before each
    invocation, so that both sample the whole run.
    """
    env = workload_env(workload)
    records: list[dict] = []
    setup: list[float] = []
    cycles: list[float] = []  # seconds per loop: set-up samples, invocation, checks
    outputs: dict[int, dict[str, bytes]] = {}  # data files by seed
    stop = time.monotonic() + seconds
    while True:
        cycle_start = time.monotonic()
        index = len(records)
        inv_seed = invocation_seed(workload.name, seed, index)
        out_dir = work / f"inv-{index}"
        argv = [sys.executable, "-m", "isibench.cli", *workload.argv(inv_seed, out_dir)]
        setup += measure_setup(env, work, len(setup))
        timeout = max(1.0, deadline - time.monotonic())
        code, wall, cpu, rss = spawn(argv, env, work / f"inv-{index}.log", timeout)
        record = {"seed": inv_seed, "exit_code": code, "wall_s": wall, "cpu_s": cpu,
                  "peak_rss_mb": rss, "problems": []}
        if code != 0:
            log = (work / f"inv-{index}.log").read_text(errors="replace")
            record["problems"].append(f"exit code {code}: {log[-300:]}")
        elif out_dir.is_dir():
            record["problems"] += check_outputs(workload, out_dir, isibench)
            files = data_files(out_dir)
            if outputs.setdefault(inv_seed, files) != files:
                record["problems"].append("data files differ from an earlier invocation "
                                          "with the same seed")
            shutil.rmtree(out_dir)
        else:
            record["problems"].append("no output directory")
        records.append(record)
        now = time.monotonic()
        cycles.append(now - cycle_start)
        typical = statistics.median(cycles)
        if code is None or now + typical > deadline:
            break
        if len(records) >= MIN_INVOCATIONS and now + typical > stop:
            break
    return records, setup


# In-process passes of a traced run.  The first pass warms the process up
# (first-touch page faults, BLAS thread start-up), so that the tracing
# overhead compares two warm passes.
PASSES = (("warm-up", False), ("traced", True), ("untraced", False))


def _in_process(cli, argv: list[str]) -> tuple[object, str]:
    """``isibench.cli.main(argv)`` with its output captured: (exit code, output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is a failed invocation, not a benchmark crash
            code = traceback.format_exc()
    return code, sink.getvalue()


def traced_run(workload: Workload, seed: int, work: Path, isibench) -> dict:
    """The workload in this process with one seed, untraced and traced (see PASSES)."""
    import isibench.cli as cli

    inv_seed = invocation_seed(workload.name, seed, 0)
    before = layer_namespaces()
    tracer = Tracer()
    walls, problems, files = {}, {}, {}
    for label, trace in PASSES:
        out_dir = work / label
        argv = workload.argv(inv_seed, out_dir, jobs=1)
        start = time.perf_counter()
        if trace:
            with tracer.installed():
                code, output = _in_process(cli, argv)
        else:
            code, output = _in_process(cli, argv)
        walls[label] = time.perf_counter() - start
        problems[label] = []
        if code != 0:
            problems[label].append(f"{label}: exit {code}: {output[-300:]}")
        elif not out_dir.is_dir():
            problems[label].append(f"{label}: no output directory")
        else:
            problems[label] += [f"{label}: {p}"
                                for p in check_outputs(workload, out_dir, isibench)]
            files[label] = data_files(out_dir)
    if layer_namespaces() != before:
        problems["traced"].append("traced: wrapped functions were left behind")
    for label, data in files.items():
        if data != files.get("traced", data):
            problems["traced"].append(f"traced: data files differ from the {label} pass")
    metrics = layer_metrics(tracer.spans)
    metrics["cli.output_bytes"] = float(sum(map(len, files.get("traced", {}).values())))
    metrics["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    (work / "spans.json").write_text(json.dumps(tracer.spans))
    return {"seed": inv_seed, "jobs": 1, "walls_s": walls,
            "problems": list(problems.values()), "metrics": metrics}


def blas_threads(env: dict[str, str]) -> int | None:
    """Thread count the BLAS of numpy starts with under ``env``, or None if unknown."""
    script = ("import ctypes, glob, os, numpy\n"
              "libs = glob.glob(os.path.dirname(numpy.__file__) + '.libs/*openblas*')\n"
              "f = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_\n"
              "print(f())\n")
    try:
        out = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
        return int(out.stdout.split()[-1])
    except (IndexError, ValueError, subprocess.TimeoutExpired):
        return None


def environment(workload: Workload) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(workload_env(workload)),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def end_to_end(workload: Workload, seed: int, seconds: float, work: Path, isibench,
               deadline: float) -> tuple[list[list[str]], dict, dict]:
    """Untraced subprocess invocations: per-invocation problems, metrics, record."""
    records, setup = run_invocations(workload, seed, seconds, work, isibench, deadline)
    good = [r for r in records if not r["problems"]] or records
    values = {name: statistics.median(r[name] for r in good)
              for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setup)
    failed = sum(1 for r in records if r["problems"])
    print(f"{len(records)} invocations, seeds {[r['seed'] for r in records]}; "
          f"timings are medians over the passing ones, setup_s over {len(setup)} "
          "interpreter starts")
    print(f"fail_rate: {failed / len(records):.4g} ratio ({failed} of {len(records)})")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return ([r["problems"] for r in records], metrics,
            {"invocations": records, "setup_s": setup})


def per_layer(workload: Workload, seed: int, work: Path, isibench
              ) -> tuple[list[list[str]], dict, dict]:
    """Traced in-process run: per-invocation problems, metrics, record."""
    traced = traced_run(workload, seed, work, isibench)
    print(f"in-process passes with --jobs 1, seed {traced['seed']}: "
          + ", ".join(f"{label} {wall:.3f} s" for label, wall in traced["walls_s"].items()))
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in sorted(traced.pop("metrics").items())}
    return traced["problems"], metrics, {"traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "isibench" / "cli.py").is_file():
        print(f"error: no isibench sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Before numpy is imported, so that a traced run uses the workload's threads.
    for name in BLAS_VARIABLES:
        os.environ.pop(name, None)
    os.environ.update(workload_env(workload))
    sys.path.insert(0, str(SRC))
    import isibench

    if Path(isibench.__file__).resolve().parent != SRC / "isibench":
        print(f"error: imported isibench from {isibench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(workload)
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print("environment: " + json.dumps(env))
    try:
        if args.trace:
            problems, metrics, record = per_layer(workload, args.seed, work, isibench)
        else:
            problems, metrics, record = end_to_end(workload, args.seed, args.seconds,
                                                   work, isibench, started + RUN_BUDGET_S)
    finally:
        for path in work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    for problem in (p for ps in problems for p in ps):
        print(f"FAILED CHECK: {problem}")
    record.update(workload=workload.name, seed=args.seed, environment=env,
                  metrics=metrics)
    (work / "result.json").write_text(json.dumps(record, indent=1))
    failed = sum(1 for ps in problems if ps)
    print(json.dumps({"correct": failed == 0, "attempted": len(problems),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
