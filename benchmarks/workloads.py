"""Workload definitions of the isibench benchmark.

Each workload is one ``isibench`` command line (a bundled config plus
overrides), the environment it runs in, and the outputs it must produce.
The benchmark derives every invocation's ``--seed`` from the workload seed,
so the same workload seed gives the same inputs.

The sizes are chosen so that a whole benchmark session (4 + 22 runs per
workload, each about 35 s of measurement) fits in under an hour on 2 CPUs;
README.md gives the sizes the workloads were scaled down from.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

ALL_THEOREMS = "SufficientISI,T0i,T0ii,T1prime,T2i,T2ii,Popescu"
SWEEP_VALUES = (16, 32, 64, 128)
SWEEP_METRICS = ("delta", "necessary_lhs", "equilibration_metric", "min_level_spacing")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    config: str
    overrides: tuple[str, ...]
    jobs: int = 1
    # None keeps the BLAS default (one thread per CPU); an integer pins it.
    blas_threads: int | None = None
    verdicts: dict[str, str] = field(default_factory=dict)

    def argv(self, seed: int, out_dir: Path, jobs: int | None = None) -> list[str]:
        """Arguments of ``isibench`` (after the program name) for one invocation."""
        args = [self.command, "--config", self.config, "--seed", str(seed),
                "--out", str(out_dir)]
        if self.command == "sweep":
            args += ["--jobs", str(self.jobs if jobs is None else jobs)]
        for item in self.overrides:
            args += ["--override", item]
        return args


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="commuting_mc",
            why="Analytic commuting model at d=1024 with all seven theorems: the "
                "per-sample Monte Carlo loops (sampling, theorems, hilbert) carry "
                "the run while eigh is skipped.",
            command="run",
            config="sec5_violation",
            overrides=("model.dim_bath=512", f"analysis.theorems={ALL_THEOREMS}",
                       "dynamics.enabled=true"),
            verdicts={"SufficientISI": "violated", "T0i": "satisfied",
                      "T0ii": "vacuous", "T1prime": "vacuous", "T2i": "violated",
                      "T2ii": "violated", "Popescu": "vacuous"},
        ),
        Workload(
            name="random_dense",
            why="Dense random model at d=1536 without Monte Carlo: eigh and its "
                "checks dominate, so it targets spectral changes and bypasses "
                "Monte Carlo ones.",
            command="run",
            config="random_contrast",
            overrides=("model.dim_bath=768",
                       "analysis.theorems=SufficientISI,T1prime,T2i,T2ii",
                       "dynamics.enabled=true"),
            verdicts={"SufficientISI": "violated", "T1prime": "vacuous",
                      "T2i": "satisfied", "T2ii": "satisfied"},
        ),
        Workload(
            name="sweep_small",
            why="Sweep of 40 small dS=3 random models over 2 worker processes: "
                "catches per-call overhead, pool regressions and the dS>2 T1 search.",
            command="sweep",
            config="random_contrast",
            overrides=("model.dim_system=3", "initial_state.system=random",
                       "sweep.parameter=dim_bath",
                       "sweep.values=" + ",".join(map(str, SWEEP_VALUES)),
                       "sweep.draws=10", "sweep.metrics=" + ",".join(SWEEP_METRICS),
                       "analysis.n_starts=8", "dynamics.n_times=500"),
            jobs=2,
            blas_threads=1,
        ),
    )
}


def invocation_seed(workload: str, seed: int, index: int) -> int:
    """Seed of one invocation, derived from the workload name and seed.

    Invocation 1 repeats the seed of invocation 0, so that every run checks
    that two invocations with the same seed write the same data files.
    """
    slot = max(index - 1, 0)
    digest = hashlib.sha256(f"{workload}/{seed}/{slot}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


# --------------------------------------------------------------- checks --

def data_files(out_dir: Path) -> dict[str, bytes]:
    """Every file of an output directory, without the timestamp of summary.txt."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "summary.txt":
            data = data.split(b"\n", 1)[1] if b"\n" in data else b""
        files[path.name] = data
    return files


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(encoding="utf-8", newline="") as fh:
        if fh.readline() != "# schema_version 1\n":
            raise ValueError(f"{path.name}: missing schema line")
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name}: no header")
    return rows[0], rows[1:]


def _finite_columns(path: Path, skip: int = 0) -> tuple[list[str], list[list[float]]]:
    header, rows = _read_csv(path)
    if not rows:
        raise ValueError(f"{path.name}: no data rows")
    values = [[float(cell) for cell in row[skip:]] for row in rows]
    for row in values:
        if len(row) != len(header) - skip or not all(map(math.isfinite, row)):
            raise ValueError(f"{path.name}: short or non-finite row {row}")
    return header[skip:], values


def check_outputs(workload: Workload, out_dir: Path, isibench) -> list[str]:
    """Problems with one invocation's output directory; empty when it is correct.

    ``isibench`` is the package under test; its ``read_report`` refuses
    reports whose rhs or verdict do not reproduce from their parameters.
    """
    try:
        if workload.command == "sweep":
            return _check_sweep(out_dir)
        return _check_run(workload, out_dir, isibench)
    except (OSError, ValueError, IndexError, KeyError) as err:
        return [f"unreadable output: {err}"]


def _check_run(workload: Workload, out_dir: Path, isibench) -> list[str]:
    problems = []
    expected = {"spectrum.csv", "reductions.csv", "trajectory.csv", "summary.txt"}
    expected |= {f"report_{tid}.json" for tid in workload.verdicts}
    present = {path.name for path in out_dir.iterdir()}
    if present != expected:
        problems.append(f"files {sorted(present)} != expected {sorted(expected)}")
        return problems
    for name in ("spectrum.csv", "reductions.csv", "trajectory.csv"):
        _finite_columns(out_dir / name)
    for tid, verdict in workload.verdicts.items():
        try:
            report = isibench.read_report(out_dir / f"report_{tid}.json")
        except isibench.IsibenchError as err:
            problems.append(f"report_{tid}.json refused: {err}")
            continue
        if report.verdict != verdict:
            problems.append(f"{tid}: verdict {report.verdict}, expected {verdict}")
    return problems


def _check_sweep(out_dir: Path) -> list[str]:
    present = sorted(path.name for path in out_dir.iterdir())
    if present != ["sweep.csv"]:
        return [f"files {present} != expected ['sweep.csv']"]
    problems = []
    header, rows = _finite_columns(out_dir / "sweep.csv", skip=1)
    if [row[0] for row in rows] != [float(v) for v in SWEEP_VALUES]:
        problems.append(f"sweep rows {[row[0] for row in rows]} != {list(SWEEP_VALUES)}")
    for row in rows:
        record = dict(zip(header, row))
        if not 1.0 / 3.0 - 1e-9 <= record["delta_mean"] <= 1.0 + 1e-9:
            problems.append(f"delta_mean {record['delta_mean']} outside [1/3, 1]")
        negative = [key for key, value in record.items()
                    if key.endswith("_se") and value < 0.0]
        if negative:
            problems.append(f"negative standard errors {negative}")
    return problems
