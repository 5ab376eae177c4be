"""Compare what two source trees of isibench print and write, byte for byte.

    python tools/byte_diff.py PARENT_ROOT CHANGE_ROOT

Each command line of ``COMMAND_LINES`` runs once per tree, as
``python -m isibench.cli`` with ``PYTHONPATH=<root>/src`` and
``OPENBLAS_NUM_THREADS=1``, with ``--out`` a fresh temporary directory.  The
matrix files and configs that some lines read are written once, into a
shared temporary directory, with PARENT_ROOT's ``write_matrix``.  The
``# generated:`` line and the output directory are removed from stdout,
stderr and every data file; then the exit code, stdout, stderr and each
data file are compared.  Every difference is named, and the exit status is
1 if there is any, 0 if there is none.

The list holds the command lines checked by hand since the stage table
(the bundled configs, every stage and refusal, the chunked estimates, the
benchmark's workloads and both paths of the dense solver); a change that
moves no number should leave all of them identical.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ALL_EIGHT = "SufficientISI,T0i,T0ii,T1,T1prime,T2i,T2ii,Popescu"
ALL_SEVEN = "SufficientISI,T0i,T0ii,T1prime,T2i,T2ii,Popescu"
QUTRIT = ("model.dim_system=3", "initial_state.system=random")

# The benchmark's workloads (benchmarks/workloads.py) as command lines.
COMMUTING_MC = ("run", "sec5_violation", "model.dim_bath=512",
                f"analysis.theorems={ALL_SEVEN}", "dynamics.enabled=true")
RANDOM_DENSE = ("run", "random_contrast", "model.dim_bath=768",
                "analysis.theorems=SufficientISI,T1prime,T2i,T2ii", "dynamics.enabled=true")
SWEEP_SMALL = ("sweep", "random_contrast", *QUTRIT, "sweep.parameter=dim_bath",
               "sweep.values=16,32,64,128", "sweep.draws=10",
               "sweep.metrics=delta,necessary_lhs,equilibration_metric,min_level_spacing",
               "analysis.n_starts=8", "dynamics.n_times=500")

# The matrix files, built from a numpy generator and written by write_matrix:
# a 200 x 200 real diagonal with every level twice (dS = 2); a random
# Hermitian 200 x 200 (dS = 2) with a -0 real part and a -0 imaginary part
# below the diagonal; a random Hermitian 256 x 256 (dS = 2) with asymmetries
# below the diagonal that the Hermiticity check tolerates.  The last two are
# not their own bitwise mirror, so the dense solver works on a copy of them.
MATRIX_SCRIPT = """
import sys
import numpy as np
from isibench.hilbert import SpaceLayout
from isibench.spectral import write_matrix

def hermitian(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2

out = sys.argv[1]
write_matrix(f"{out}/degenerate.mat", np.diag(np.repeat(np.arange(100.0), 2)),
             SpaceLayout(2, 100))
h = hermitian(200, 1)
h[7, 2], h[2, 7] = complex(-0.0, 0.0), 0.0
h[9, 3], h[3, 9] = complex(0.5, -0.0), 0.5
write_matrix(f"{out}/negative_zero.mat", h, SpaceLayout(2, 100))
h = hermitian(256, 2)
h[5, 3] += 1e-12
h[200, 17] += 3e-13j
write_matrix(f"{out}/asymmetric.mat", h, SpaceLayout(2, 128))
"""

FILE_CONFIG = "[model]\nkind = file\npath = {path}\n"


def _command_lines() -> list[tuple]:
    """(command, config, overrides...) tuples; a --seed or --jobs rides in
    the overrides as "--seed=N" or "--jobs=N"."""
    lines = [("run", "sec5_violation"), ("run", "random_contrast"),
             ("run", "sec5_violation", "model.dim_bath=64", f"analysis.theorems={ALL_EIGHT}",
              "dynamics.enabled=true")]
    for config in ("sec5_violation", "random_contrast"):
        lines += [("spectrum", config), ("equilibrium", config),
                  ("bounds", config, f"analysis.theorems={ALL_EIGHT}"), ("dynamics", config)]
    for allow in ((), ("analysis.allow_degenerate=true",)):
        lines += [(command, "@degenerate", *allow)
                  for command in ("run", "spectrum", "equilibrium", "bounds", "dynamics")]
    lines += [
        ("bounds", "random_contrast", "model.dim_system=3",
         "analysis.theorems=SufficientISI,T0i,T0ii,T1,T1prime,Popescu", "--seed=5"),
        ("run", "sec5_violation", "initial_state.system=basis:9"),
        ("model-info", "sec5_violation"), ("model-info", "random_contrast"),
        (*COMMUTING_MC, "--seed=77"), (*RANDOM_DENSE, "--seed=77"),
        (*SWEEP_SMALL, "--seed=77", "--jobs=2"),
        (*COMMUTING_MC, "--seed=1"),
        ("run", "random_contrast", "model.dim_bath=128", f"analysis.theorems={ALL_SEVEN}"),
        ("run", "random_contrast", "model.dim_bath=64", "analysis.subspace=full"),
        ("bounds", "random_contrast", *QUTRIT, "model.dim_bath=64",
         "analysis.subspace=bath_prefix:10", "analysis.theorems=T0i,T0ii,T1,Popescu",
         "analysis.n_starts=64"),
        ("bounds", "random_contrast", *QUTRIT, "model.dim_bath=2",
         "analysis.theorems=Popescu"),
        ("bounds", "sec5_violation", "analysis.n_samples=30000",
         "analysis.theorems=T0i,T0ii,Popescu"),
        ("bounds", "random_contrast", "model.dim_bath=128", "analysis.n_samples=20000",
         "analysis.theorems=T0i,T0ii"),
        ("bounds", "sec5_violation", "analysis.n_samples=600000",
         "analysis.theorems=Popescu"),
        ("bounds", "sec5_violation", "analysis.subspace=bath_prefix:1000",
         "analysis.theorems=T0i"),
        (*SWEEP_SMALL, "--seed=77", "--jobs=3"), (*SWEEP_SMALL, "--seed=77", "--jobs=1"),
        ("run", "random_contrast", "model.dim_bath=300", "model.interaction_strength=0"),
        ("run", "random_contrast", *QUTRIT, "model.dim_bath=200",
         "model.interaction_strength=0", "analysis.theorems=SufficientISI,T0i,T0ii"),
        ("run", "random_contrast", "model.dim_bath=300", "model.interaction_strength=-0.5"),
        ("run", "@negative_zero", "dynamics.enabled=true"), ("spectrum", "@negative_zero"),
        ("dynamics", "random_contrast", *QUTRIT, "model.dim_bath=64"),
        ("run", "@asymmetric", "dynamics.enabled=true"),
    ]
    return lines


COMMAND_LINES = _command_lines()


def argv(line: tuple, shared: Path, out: Path) -> list[str]:
    """The isibench arguments of a command line; "@name" is the config of
    the matrix file name.mat in ``shared``."""
    command, config, *rest = line
    if config.startswith("@"):
        config = str(shared / f"{config[1:]}.cfg")
    args = [command, "--config", config, "--out", str(out)]
    for item in rest:
        if item.startswith("--"):
            args += item.split("=", 1)
        else:
            args += ["--override", item]
    return args


def _environment(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
                PYTHONDONTWRITEBYTECODE="1")


def write_inputs(parent: Path, shared: Path) -> None:
    """The matrix files, by the parent's write_matrix, and their configs."""
    subprocess.run([sys.executable, "-c", MATRIX_SCRIPT, str(shared)], check=True,
                   env=_environment(parent))
    for name in ("degenerate", "negative_zero", "asymmetric"):
        (shared / f"{name}.cfg").write_text(FILE_CONFIG.format(path=shared / f"{name}.mat"),
                                            encoding="utf-8")


def _clean(data: bytes, out: Path) -> bytes:
    """``data`` without its ``# generated:`` line and with the output directory
    replaced by a placeholder."""
    lines = data.replace(str(out).encode(), b"<out>").split(b"\n")
    return b"\n".join(line for line in lines if not line.startswith(b"# generated:"))


def run(root: Path, line: tuple, shared: Path) -> dict[str, object]:
    """Exit code, stdout, stderr and data files of one command line on one tree."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        done = subprocess.run([sys.executable, "-m", "isibench.cli", *argv(line, shared, out)],
                              env=_environment(root), cwd=scratch, capture_output=True)
        result = {"exit code": done.returncode, "stdout": _clean(done.stdout, out),
                  "stderr": _clean(done.stderr, out)}
        if out.is_dir():
            for path in sorted(out.iterdir()):
                result[path.name] = _clean(path.read_bytes(), out)
    return result


def differences(parent: dict, change: dict) -> list[str]:
    """The names of the entries that differ, or that only one side has."""
    return [name for name in sorted(parent.keys() | change.keys())
            if parent.get(name) != change.get(name)]


def main(roots: list[str]) -> int:
    if len(roots) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(root).resolve() for root in roots)
    failed = 0
    with tempfile.TemporaryDirectory() as shared_dir:
        shared = Path(shared_dir)
        write_inputs(parent, shared)
        for index, line in enumerate(COMMAND_LINES, 1):
            before, after = run(parent, line, shared), run(change, line, shared)
            named = differences(before, after)
            failed += bool(named)
            status = f"DIFF {', '.join(named)}" if named else "same"
            print(f"{index:2d} exit {before['exit code']} {status}: {' '.join(line)}",
                  flush=True)
    print(f"{len(COMMAND_LINES) - failed} of {len(COMMAND_LINES)} command lines identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
