"""What the command line prints and writes, held to a checked-in corpus.

``COMMAND_LINES`` are the command lines whose outputs every refactor must
keep: the bundled configs, every subcommand and refusal, the chunked
estimates, the benchmark's workloads and both paths of the dense solver, at
small sizes (a dense dB of at most 128 but for the two dB = 300 lines, whose
blocked passes each cover three ``DENSE_BLOCK`` blocks; 200 times per
trajectory).  ``tests/golden/<NN>/`` holds line NN's arguments, exit code,
stdout, stderr and data files, with the ``# generated:`` lines dropped and
the output and input directories replaced by ``<out>`` and ``<in>``.

The test writes the matrix files and configs that some lines read, runs
every line through ``cli.main`` in one child process on one BLAS thread, and
compares the bytes of every file.  Those bytes hold only for the numpy and
OpenBLAS build that ``tests/golden/build.txt`` names; on another build every
token but the numbers must still match, and the numbers match within the
README's thread-count bounds (``BUILD_BOUNDS``).

    python tests/test_golden.py

rewrites the corpus from the package on the path (``PYTHONPATH=src``), and
first prints each file that moved with its largest |Δ|/max(1, |x|).  A new
line goes at the end of the list, so that the numbers of the others stay.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import isibench
from isibench.hilbert import SpaceLayout
from isibench.spectral import write_matrix

GOLDEN = Path(__file__).resolve().parent / "golden"

ALL_EIGHT = "SufficientISI,T0i,T0ii,T1,T1prime,T2i,T2ii,Popescu"
ALL_SEVEN = "SufficientISI,T0i,T0ii,T1prime,T2i,T2ii,Popescu"
QUTRIT = ("model.dim_system=3", "initial_state.system=random")
SHORT = "dynamics.n_times=200"
SMALL = ("random_contrast", "model.dim_bath=128")  # the bundled dB = 256, halved

# The benchmark's workloads (benchmarks/workloads.py), scaled down.
COMMUTING_MC = ("run", "sec5_violation", "model.dim_bath=512",
                f"analysis.theorems={ALL_SEVEN}", "dynamics.enabled=true", SHORT)
RANDOM_DENSE = ("run", *SMALL, "analysis.theorems=SufficientISI,T1prime,T2i,T2ii",
                "dynamics.enabled=true", SHORT)
SWEEP_SMALL = ("sweep", "random_contrast", *QUTRIT, "sweep.parameter=dim_bath",
               "sweep.values=16,32,64", "sweep.draws=3",
               "sweep.metrics=delta,necessary_lhs,equilibration_metric,min_level_spacing",
               "analysis.n_starts=8", SHORT)


def _command_lines() -> list[tuple[str, ...]]:
    """(command, config, overrides...) tuples; "@name" is the config ``name.cfg``
    of ``write_inputs``, and a --seed or --jobs rides in the overrides as
    "--seed=N" or "--jobs=N"."""
    lines = [("run", "sec5_violation", SHORT), ("run", *SMALL, SHORT),
             ("run", "sec5_violation", "model.dim_bath=64", f"analysis.theorems={ALL_EIGHT}",
              "dynamics.enabled=true", SHORT)]
    for config in (("sec5_violation",), SMALL):
        lines += [("spectrum", *config), ("equilibrium", *config),
                  ("bounds", *config, f"analysis.theorems={ALL_EIGHT}"),
                  ("dynamics", *config, SHORT)]
    for allow in ((), ("analysis.allow_degenerate=true",)):
        lines += [(command, "@degenerate", *allow)
                  for command in ("run", "spectrum", "equilibrium", "bounds", "dynamics")]
    lines += [
        ("bounds", *SMALL, *QUTRIT,
         "analysis.theorems=SufficientISI,T0i,T0ii,T1,T1prime,Popescu", "--seed=5"),
        ("run", "sec5_violation", "initial_state.system=basis:9", SHORT),
        ("model-info", "sec5_violation"), ("model-info", *SMALL),
        (*COMMUTING_MC, "--seed=77"), (*RANDOM_DENSE, "--seed=77"),
        (*SWEEP_SMALL, "--seed=77", "--jobs=2"),
        (*COMMUTING_MC, "--seed=1"),
        ("run", *SMALL, f"analysis.theorems={ALL_SEVEN}", SHORT),
        ("run", "random_contrast", "model.dim_bath=64", "analysis.subspace=full", SHORT),
        ("bounds", "random_contrast", *QUTRIT, "model.dim_bath=64",
         "analysis.subspace=bath_prefix:10", "analysis.theorems=T0i,T0ii,T1,Popescu",
         "analysis.n_starts=64"),
        ("bounds", "random_contrast", *QUTRIT, "model.dim_bath=2",
         "analysis.theorems=Popescu"),
        ("bounds", "sec5_violation", "analysis.n_samples=30000",
         "analysis.theorems=T0i,T0ii,Popescu"),
        ("bounds", *SMALL, "analysis.n_samples=20000", "analysis.theorems=T0i,T0ii"),
        ("bounds", "sec5_violation", "analysis.n_samples=600000",
         "analysis.theorems=Popescu"),
        ("bounds", "sec5_violation", "analysis.subspace=bath_prefix:1000",
         "analysis.theorems=T0i"),
        (*SWEEP_SMALL, "--seed=77", "--jobs=3"), (*SWEEP_SMALL, "--seed=77", "--jobs=1"),
        ("run", "random_contrast", "model.dim_bath=300", "model.interaction_strength=0",
         SHORT),
        ("run", *SMALL, *QUTRIT, "model.interaction_strength=0",
         "analysis.theorems=SufficientISI,T0i,T0ii", SHORT),
        ("run", "random_contrast", "model.dim_bath=300", "model.interaction_strength=-0.5",
         SHORT),
        ("run", "@negative_zero", "dynamics.enabled=true", SHORT),
        ("spectrum", "@negative_zero"),
        ("dynamics", "random_contrast", *QUTRIT, "model.dim_bath=64", SHORT),
        ("run", "@asymmetric", "dynamics.enabled=true", SHORT),
        # refused before the d = 2048 model is built
        ("dynamics", "random_contrast", "model.dim_bath=1024", "dynamics.n_times=6000000"),
        ("run", "@cucchietti", "dynamics.enabled=true", SHORT),
        # a qubit initial state on a qutrit
        ("bounds", "random_contrast", "model.dim_system=3", "model.dim_bath=16",
         "analysis.theorems=SufficientISI,T0i,T0ii,T1,T1prime,Popescu", "--seed=5"),
        # refused before the first draw
        ("sweep", "random_contrast", "sweep.parameter=dim_bath", "sweep.values=16,5000",
         "sweep.metrics=delta"),
        # the outputs of each model kind
        ("model-info", "@cucchietti"), ("model-info", "@negative_zero"),
        ("model-info", "@untagged", "model.dim_system=2"),
        ("sweep", "@cucchietti", "sweep.parameter=n_spins", "sweep.values=3,5",
         "sweep.draws=2"),
        ("sweep", "@negative_zero", "sweep.parameter=dim_system", "sweep.values=2"),
        ("run", "sec5_violation", "model.dim_system=2"),
        # refused by the header of a matrix file, before any row is parsed
        ("bounds", "@untagged", "model.dim_system=4", "analysis.theorems=T2ii"),
        ("equilibrium", "@untagged"),
    ]
    return lines


COMMAND_LINES = _command_lines()

# Bound on |Δ|/max(1, |x|) of a number on another build, by file (the
# README's thread-count bounds); every other file has 1e-12.
BUILD_BOUNDS = {"trajectory.csv": 1e-6, "sweep.csv": 1e-6}
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

# Runs the lines it reads as JSON lists of arguments from stdin, and prints
# their exit codes, stdout and stderr as one JSON list.
CHILD = """
import contextlib, io, json, sys, traceback
from isibench import cli

results = []
for argv in json.load(sys.stdin):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception:
            code = "exception"
            traceback.print_exc()
    results.append((code, stdout.getvalue(), stderr.getvalue()))
json.dump(results, sys.stdout)
"""


def write_inputs(inputs: Path) -> None:
    """The matrix files and the configs that read them, and a cucchietti config.

    degenerate: a 200 x 200 real diagonal with every level twice (dS = 2);
    negative_zero: a random Hermitian 200 x 200 (dS = 2) with a -0 real part
    and a -0 imaginary part below the diagonal; asymmetric: a random Hermitian
    256 x 256 (dS = 2) with asymmetries below the diagonal that the
    Hermiticity check tolerates; untagged: a random Hermitian 64 x 64 with no
    layout tag.  The asymmetric and negative_zero matrices are not their own
    bitwise mirror, so the dense solver works on a copy of them.
    """
    def hermitian(d, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return (a + a.conj().T) / 2

    inputs.mkdir()
    write_matrix(inputs / "degenerate.mat", np.diag(np.repeat(np.arange(100.0), 2)),
                 SpaceLayout(2, 100))
    h = hermitian(200, 1)
    h[7, 2], h[2, 7] = complex(-0.0, 0.0), 0.0
    h[9, 3], h[3, 9] = complex(0.5, -0.0), 0.5
    write_matrix(inputs / "negative_zero.mat", h, SpaceLayout(2, 100))
    h = hermitian(256, 2)
    h[5, 3] += 1e-12
    h[200, 17] += 3e-13j
    write_matrix(inputs / "asymmetric.mat", h, SpaceLayout(2, 128))
    write_matrix(inputs / "untagged.mat", hermitian(64, 3))
    for name in ("degenerate", "negative_zero", "asymmetric", "untagged"):
        (inputs / f"{name}.cfg").write_text(
            f"[model]\nkind = file\npath = {inputs / name}.mat\n", encoding="utf-8")
    (inputs / "cucchietti.cfg").write_text("[model]\nkind = cucchietti\nn_spins = 8\n",
                                           encoding="utf-8")


def _argv(line: tuple[str, ...], inputs: Path, out: Path) -> list[str]:
    command, config, *rest = line
    if config.startswith("@"):
        config = str(inputs / f"{config[1:]}.cfg")
    args = [command, "--config", config, "--out", str(out)]
    for item in rest:
        args += item.split("=", 1) if item.startswith("--") else ["--override", item]
    return args


def _clean(data: bytes, inputs: Path, out: Path) -> bytes:
    """``data`` without its ``# generated:`` lines, with the output and input
    directories replaced by placeholders."""
    data = data.replace(str(out).encode(), b"<out>").replace(str(inputs).encode(), b"<in>")
    return b"\n".join(line for line in data.split(b"\n")
                      if not line.startswith(b"# generated:"))


def run_lines(work: Path) -> list[dict[str, bytes]]:
    """Each command line's files, cleaned: ``argv``, ``exit``, ``stdout``,
    ``stderr`` and the data files by name."""
    inputs = work / "in"
    write_inputs(inputs)
    outs = [work / f"{index:02d}" for index in range(1, len(COMMAND_LINES) + 1)]
    argvs = [_argv(line, inputs, out) for line, out in zip(COMMAND_LINES, outs)]
    source = str(Path(isibench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs),
                          capture_output=True, text=True, cwd=work, check=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path))
    lines = []
    for argv, out, (code, stdout, stderr) in zip(argvs, outs, json.loads(done.stdout)):
        files = {"argv": " ".join(argv) + "\n", "exit": f"{code}\n", "stdout": stdout,
                 "stderr": stderr}
        files = {name: text.encode() for name, text in files.items()}
        if out.is_dir():
            files.update((path.name, path.read_bytes()) for path in out.iterdir())
        lines.append({name: _clean(data, inputs, out) for name, data in files.items()})
    return lines


def build() -> str:
    """The numpy version and the configuration of the OpenBLAS that numpy's
    wheel ships (its kernels included), or "no scipy-openblas"."""
    config = "no scipy-openblas"
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                       .glob("libscipy_openblas64_*")):
        try:
            get_config = ctypes.CDLL(str(path)).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_config.restype = ctypes.c_char_p
        config = " ".join(get_config().decode().split())
        break
    return f"numpy {np.__version__}\n{config}\n"


def read_corpus() -> list[dict[str, bytes]]:
    lines = sorted((line for line in GOLDEN.iterdir() if line.is_dir()),
                   key=lambda line: int(line.name))
    return [{path.name: path.read_bytes() for path in line.iterdir()} for line in lines]


def largest_change(expected: bytes, actual: bytes) -> float:
    """The largest |Δ|/max(1, |x|) of the numbers of two files, or inf when
    anything but the numbers differs."""
    if NUMBER.split(expected) != NUMBER.split(actual):
        return math.inf
    old, new = (np.array(NUMBER.findall(data), dtype=float) for data in (expected, actual))
    return float((np.abs(new - old) / np.maximum(1.0, np.abs(old))).max(initial=0.0))


def differences(expected: list[dict[str, bytes]], actual: list[dict[str, bytes]],
                same_build: bool = True) -> list[str]:
    """One entry per line whose files differ, naming each file with its
    largest change; on another build, a change within ``BUILD_BOUNDS`` (1e-12
    by default) is no difference."""
    found = []
    for index, (old, new) in enumerate(itertools.zip_longest(expected, actual, fillvalue={})):
        named = []
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) == new.get(name):
                continue
            if name not in old or name not in new:
                named.append(f"{name} ({'missing' if name in old else 'not in the corpus'})")
                continue
            change = largest_change(old[name], new[name])
            if same_build or not change <= BUILD_BOUNDS.get(name, 1e-12):
                named.append(f"{name} (largest |Δ|/max(1,|x|) {change:.3g})"
                             if math.isfinite(change) else f"{name} (text differs)")
        if named:
            argv = (new or old).get("argv", b"").decode().strip()
            found.append(f"{index + 1:02d} {argv}: {', '.join(named)}")
    return found


def test_command_lines_keep_their_outputs(tmp_path):
    same_build = (GOLDEN / "build.txt").read_text(encoding="utf-8") == build()
    found = differences(read_corpus(), run_lines(tmp_path), same_build)
    assert not found, (f"{len(found)} command lines moved from tests/golden "
                       f"({'same build' if same_build else 'another build'}):\n"
                       + "\n".join(found))


def main() -> None:
    """Rewrite the corpus, after naming what moved."""
    with tempfile.TemporaryDirectory() as work:
        lines = run_lines(Path(work))
    if GOLDEN.is_dir():
        print("\n".join(differences(read_corpus(), lines)) or "no file moved")
        shutil.rmtree(GOLDEN)
    GOLDEN.mkdir()
    (GOLDEN / "build.txt").write_text(build(), encoding="utf-8")
    for index, files in enumerate(lines, 1):
        directory = GOLDEN / f"{index:02d}"
        directory.mkdir()
        for name, data in files.items():
            (directory / name).write_bytes(data)
    print(f"wrote {len(lines)} command lines to {GOLDEN}")


if __name__ == "__main__":
    main()
