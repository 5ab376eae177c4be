"""Per-layer tracing of isibench from outside the package.

The layers are the package modules.  :class:`Tracer` replaces every public
function of a layer module, under every module-level name a caller looks it
up by (``isibench.cli.eigendecompose``, ``isibench.theorems.trace_distance``,
``isibench.spectral.eigendecompose`` itself, ...), with a wrapper that
records a span, and puts the originals back afterwards.  Spans stay in
memory; :func:`layer_metrics` turns them into the per-layer numbers.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from functools import wraps

LAYERS = ("cli", "models", "spectral", "equilibrium", "sampling", "theorems",
          "dynamics", "hilbert")

# Inclusive time of the union of the named spans, in seconds.
TIMES = {
    "cli.main_s": ("cli.main",),
    "models.analytic_eigensystem_s": ("models.analytic_eigensystem",),
    "models.build_random_model_s": ("models.build_random_model",),
    "spectral.eigendecompose_s": ("spectral.eigendecompose",),
    "spectral.gap_check_s": ("spectral.check_nondegenerate_gaps",),
    "equilibrium.reductions_s": ("equilibrium.eigenstate_reductions",),
    "equilibrium.delta_s": ("equilibrium.delta",),
    "equilibrium.subspace_averaged_s": ("equilibrium.subspace_averaged_equilibrium",),
    "equilibrium.write_s": ("equilibrium.write_reductions_csv",),
    "sampling.monte_carlo_s": ("sampling.monte_carlo_average",),
    "sampling.subspace_s": ("sampling.product_subspace", "sampling.full_basis",
                            "sampling.bath_prefix_basis"),
    "theorems.T0i_s": ("theorems.theorem0_mean_report",),
    "theorems.T0ii_s": ("theorems.theorem0_tail_report",),
    "theorems.Popescu_s": ("theorems.popescu_report",),
    "theorems.T2_s": ("theorems.theorem2_reports",),
    "theorems.necessary_lhs_s": ("theorems.necessary_condition_lhs",),
    "dynamics.evolve_s": ("dynamics.evolve_reduced",),
    "dynamics.equilibration_metric_s": ("dynamics.equilibration_metric",),
    "dynamics.write_s": ("dynamics.write_trajectory_csv",),
}

# Number of spans with one of the names.
CALLS = {
    "spectral.eigendecompose.calls": ("spectral.eigendecompose",),
    "spectral.spectrum_check.calls": ("spectral.check_nondegenerate_spectrum",),
    "equilibrium.delta.calls": ("equilibrium.delta",),
    "equilibrium.time_averaged.calls": ("equilibrium.time_averaged_state",),
    "sampling.draw.calls": ("sampling.sample_uniform_columns",),
    "theorems.necessary_lhs.calls": ("theorems.necessary_condition_lhs",),
    "hilbert.trace_distance.calls": ("hilbert.trace_distance",),
    "hilbert.partial_trace.calls": ("hilbert.partial_trace_bath",
                                    "hilbert.partial_trace_system",
                                    "hilbert.batched_partial_trace_bath"),
}

UNITS = {**{name: "s" for name in TIMES}, **{name: "count" for name in CALLS},
         **{f"{layer}.self_s": "s" for layer in LAYERS},
         "sampling.samples_per_s": "1/s", "cli.output_bytes": "B",
         "trace.overhead_s": "s"}


class Tracer:
    """Span recorder for one thread; spans are ``[name, start, end, parent]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    def install(self) -> None:
        """Wrap every public layer function under every layer-module name."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for (layer, attr), value in layer_namespaces().items():
            if value not in wrappers:
                owner = value.__module__.rpartition(".")[2]
                wrappers[value] = self._wrap(value, f"{owner}.{value.__name__}")
            module = importlib.import_module(f"isibench.{layer}")
            setattr(module, attr, wrappers[value])
            self._patched.append((module, attr, value))

    def restore(self) -> None:
        """Put every original function object back where it was found."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def is_layer_function(value) -> bool:
    """True for a public function defined in one of the layer modules."""
    return (inspect.isfunction(value) and not value.__name__.startswith("_")
            and value.__module__.startswith("isibench.")
            and value.__module__.rpartition(".")[2] in LAYERS)


def layer_namespaces() -> dict[tuple[str, str], object]:
    """(module, attribute) -> object for every layer function name, to compare."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"isibench.{layer}")
        for attr, value in vars(module).items():
            if is_layer_function(value):
                found[(layer, attr)] = value
    return found


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = [(max(s, start), min(e, end)) for s, e in children.get(index, ())
                   if min(e, end) > max(s, start)]
        result.append((end - start) - _union_length(covered))
    return result


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, keyed as in ``UNITS``."""
    metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for (name, *_), own in zip(spans, self_times(spans)):
        metrics[f"{name.partition('.')[0]}.self_s"] += own
    for metric, names in TIMES.items():
        metrics[metric] = _union_length([(s, e) for n, s, e, _ in spans if n in names])
    for metric, names in CALLS.items():
        metrics[metric] = float(sum(1 for span in spans if span[0] in names))
    # Draws made by the Monte Carlo estimator, per second of estimator time.
    in_mc = []
    draws = 0
    for name, _, _, parent in spans:
        inside = parent >= 0 and in_mc[parent]
        in_mc.append(inside or name == "sampling.monte_carlo_average")
        draws += inside and name == "sampling.sample_uniform_columns"
    mc_time = metrics["sampling.monte_carlo_s"]
    metrics["sampling.samples_per_s"] = draws / mc_time if mc_time > 0 else 0.0
    return metrics
