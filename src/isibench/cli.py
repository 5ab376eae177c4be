"""Command-line front end.

Subcommands run the pipeline stages standalone or end to end:

    model-info   build the model and print dimensions, norms, commutators
    spectrum     diagonalize and write spectrum.csv with the degeneracy check
    equilibrium  eigenstate reductions, time-averaged state, delta
    bounds       evaluate the configured theorem reports
    dynamics     reduced evolution, trajectory.csv, equilibration metric
    sweep        repeat a metric over a model-parameter grid
    run          everything above plus summary.txt

The four stages that write files are one table, ``_STAGES``: each entry
gives a stage's lines and its (file name, writer) pairs.  One runner serves
them and ``run``, which is every stage (dynamics if enabled): it computes all
the lines, the notes and, after ``bounds``, the conclusion before it makes
the output directory and writes the files, one ``wrote`` line each (``run``
names only ``summary.txt``, which holds what it prints).

Configs are flat INI-style text with one level of sections; unknown sections
or keys are errors.  The numerical thresholds of the checks and verdicts are
fixed constants of the modules that apply them, and so are the caps that
refuse a model by the arrays it would hold (``spectral.require_fits``).

Every run derives all randomness from a single root seed, so identical
configs give byte-identical data files (the only timestamp lives in the
summary header) on the same machine, with the same numpy/BLAS build and the
same BLAS thread count.  Another thread count moves the numbers in their last
digits (see the README).  ``OPENBLAS_THREAD_TIMEOUT``, which the package sets
when it is unset, moves none: it only decides when idle OpenBLAS threads
sleep, not how BLAS splits its sums.  Nor does the number of CPUs, over
which the commuting and cucchietti dynamics deal their blocks of times:
each block's rows are summed the same way on any thread.

``process_main``, the entry of ``python -m isibench.cli`` and of the
``isibench`` script, freezes the garbage collector before it runs ``main``;
``main(argv)`` itself does not, so an in-process caller keeps its collector.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Any, Callable, NoReturn

import numpy as np

from .dynamics import evolve_reduced, stratified_times, write_trajectory_csv
from .equilibrium import (EigenstateReductions, require_nondegenerate, time_averaged_state,
                          write_reductions_csv)
from .equilibrium import delta as subspace_delta
from .errors import (CapExceededError, ConfigError, DegenerateSpectrumError,
                     IsibenchError, ValidationError)
from .hilbert import (PureState, SpaceLayout, batched_bloch_vectors, batched_trace_distances,
                      purities, tensor_product)
from .models import (CommutingModelSpec, analytic_eigensystem, build_random_model,
                     commuting_norms, sample_commuting_spec, sample_cucchietti_spec)
from .sampling import generator, sample_amplitudes
from .spectral import (STACK_ELEMENT_CAP, CompositeHamiltonian, DenseProjection,
                       GroupedProjection, SpectralData, eigendecompose, evolve_on_one_thread,
                       read_matrix, read_text, require_count_fits, require_fits, usable_cpus,
                       write_csv)
from .theorems import (THEOREM_IDS, THEOREMS, TheoremReport, necessary_condition_reports,
                       popescu_report, sufficient_condition_report, theorem0_reports,
                       theorem2_lhs, theorem2_reports, write_report)

DEFAULT_SEED = 12345
DEFAULT_OUT_DIR = "isibench-out"
UNIT_LHS = 1e-10  # |lhs - 1| of a violated T2ii that the conclusion reads as 1

MODEL_KINDS = ("commuting", "cucchietti", "random", "file")

# Seed paths below the root seed, by named stream: T0i and T0ii share the
# theorem0 draws, and T1 and T1prime the necessary-condition search.  The
# draws of a sweep use their own table (see _draw_seeds).
RUN_SEEDS = {"model": (0,), "system": (1, 0), "bath": (1, 1), "theorem0": (2, 1),
             "search": (2, 3), "popescu": (2, 7), "dynamics": (3,)}


def _draw_seeds(point: int, draw: int) -> dict[str, tuple[int, ...]]:
    stages = ("model", "system", "search", "bath", "dynamics")
    return {stage: (4, point, draw, k) for k, stage in enumerate(stages)}


def derived_seed(root: int, *path: int) -> int:
    """Deterministic 64-bit child seed for a named pipeline stage."""
    words = np.random.SeedSequence([int(root), *[int(x) for x in path]]).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


# ----------------------------------------------------------------- config --

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _parse_scale(text: str) -> float:
    """A half-width s of the model's uniform draws on [-s, s]: nonnegative
    (not -0 either, which numpy's uniform refuses), with 2s finite."""
    value = _parse_finite(text)
    if math.copysign(1.0, value) < 0.0:
        raise ValueError("a half-width must be nonnegative")
    if not math.isfinite(2.0 * value):
        raise ValueError("the draws on [-s, s] overflow")
    return value


def _parse_name_list(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_finite(part) for part in text.split(",") if part.strip())


def _parse_theorems(text: str) -> tuple[str, ...]:
    theorems = _parse_name_list(text)
    for tid in theorems:
        if tid not in THEOREM_IDS:
            raise ConfigError(f"unknown theorem {tid!r} in analysis.theorems "
                              f"(valid: {', '.join(THEOREM_IDS)})")
    if len(set(theorems)) != len(theorems):
        raise ConfigError("analysis.theorems lists a theorem twice")
    return theorems


def _parse_subspace(text: str) -> str:
    subspace = text.strip()
    prefix, sep, arg = subspace.partition(":")
    if subspace not in ("full", "product_bath") and (
            prefix != "bath_prefix" or not sep or not arg.isdecimal() or int(arg) < 1):
        raise ConfigError(f"bad analysis.subspace {subspace!r} "
                          "(use full, product_bath, or bath_prefix:<dim>)")
    return subspace


@dataclass(frozen=True)
class ConfigKey:
    """How the config entry ``name`` (``section.key``) is read.

    ``low`` is the smallest valid value: an int bound is inclusive, the float
    0.0 asks for a positive value.  ``kinds`` lists the model kinds that
    accept the entry.
    """

    name: str
    parse: Callable[[str], Any]
    low: int | float | None = None
    kinds: tuple[str, ...] = MODEL_KINDS


def _key(name: str, parse: Callable[[str], Any], default: Any = None,
         low: int | float | None = None, kinds: tuple[str, ...] = MODEL_KINDS):
    """An ExperimentConfig field read from one config entry."""
    return field(default=default, metadata={"key": ConfigKey(name, parse, low, kinds)})


_SPIN = ("commuting", "cucchietti")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully typed experiment description; picklable for sweep workers.

    Its fields are the config table: each one reads the entry its ConfigKey
    names and defaults to the field default.
    """

    kind: str = _key("model.kind", str.strip)
    seed: int = _key("model.seed", int, DEFAULT_SEED, 0)
    dim_system: int | None = _key("model.dim_system", int, None, 2, ("random", "file"))
    dim_bath: int = _key("model.dim_bath", int, 16, 1, ("commuting", "random"))
    n_spins: int | None = _key("model.n_spins", int, None, 1, ("cucchietti",))
    level_splitting: float = _key("model.level_splitting", _parse_finite, 1.0, kinds=_SPIN)
    coupling_scale: float = _key("model.coupling_scale", _parse_scale, 1.0, 0.0, _SPIN)
    energy_scale: float = _key("model.energy_scale", _parse_scale, 1.0, kinds=("commuting",))
    field_scale: float = _key("model.field_scale", _parse_scale, 1.0, kinds=("cucchietti",))
    interaction_strength: float = _key("model.interaction_strength", _parse_finite, 1.0,
                                       kinds=("random",))
    matrix_path: str | None = _key("model.path", str.strip, kinds=("file",))
    initial_system: str = _key("initial_state.system", str.strip, "plus")
    initial_bath: str = _key("initial_state.bath", str.strip, "random")
    theorems: tuple[str, ...] = _key("analysis.theorems", _parse_theorems,
                                     ("SufficientISI", "T2i", "T2ii"))
    subspace: str = _key("analysis.subspace", _parse_subspace, "product_bath")
    dim_restricted: int | None = _key("analysis.dim_restricted", int, None, 1)
    epsilon: float = _key("analysis.epsilon", _parse_finite, 0.05, 0)
    p: float = _key("analysis.p", _parse_finite, 1.0)
    n_samples: int = _key("analysis.n_samples", int, 400, 2)
    n_starts: int = _key("analysis.n_starts", int, 512, 1)
    allow_degenerate: bool = _key("analysis.allow_degenerate", _parse_bool, False)
    dynamics_enabled: bool = _key("dynamics.enabled", _parse_bool, False)
    horizon_over_min_gap: float = _key("dynamics.horizon_over_min_gap", _parse_finite,
                                       1000.0, 0.0)
    n_times: int = _key("dynamics.n_times", int, 2000, 1)
    sweep_parameter: str | None = _key("sweep.parameter", str.strip)
    sweep_values: tuple[float, ...] = _key("sweep.values", _parse_float_list, ())
    sweep_draws: int = _key("sweep.draws", int, 20, 1)
    sweep_metrics: tuple[str, ...] = _key("sweep.metrics", _parse_name_list,
                                          ("mean_squared_polarization",))
    out_dir: str = _key("output.dir", str.strip, DEFAULT_OUT_DIR)


CONFIG_KEYS = {f.metadata["key"].name: f.metadata["key"] for f in fields(ExperimentConfig)}


def bundled_config_names() -> tuple[str, ...]:
    root = resources.files("isibench").joinpath("configs")
    return tuple(sorted(entry.name[:-4] for entry in root.iterdir()
                        if entry.name.endswith(".cfg")))


def _load_raw_config(spec: str) -> tuple[str, str]:
    """Resolve --config to (display name, file text): a path or a bundled name."""
    path = Path(spec)
    if os.path.isfile(path):  # False, not an error, for a name the OS refuses
        return str(path), read_text(path)
    name = spec[:-4] if spec.endswith(".cfg") else spec
    if name in bundled_config_names():
        bundled = resources.files("isibench").joinpath("configs", f"{name}.cfg")
        return name, bundled.read_text(encoding="utf-8")
    raise ConfigError(
        f"config {spec!r} is neither a file nor a bundled config "
        f"(bundled: {', '.join(bundled_config_names())})"
    )


def _parse_sections(text: str, source: str) -> dict[str, dict[str, str]]:
    # No section header can name the empty section, so a [DEFAULT] section is
    # an ordinary one (and unknown) instead of defaults merged into the others.
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       inline_comment_prefixes=("#",), default_section="")
    try:
        parser.read_string(text, source=source)
    except configparser.Error as err:
        raise ConfigError(f"config parse failure: {' '.join(str(err).split())}") from None
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _apply_overrides(raw: dict[str, dict[str, str]], overrides: list[str]) -> None:
    for item in overrides:
        target, sep, value = item.partition("=")
        section, dot, key = target.strip().partition(".")
        if not sep or not dot or not section or not key:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        raw.setdefault(section, {})[key.strip()] = value.strip()


def _read(raw: dict[str, dict[str, str]], key: ConfigKey, default: Any):
    """The parsed, range-checked value of one entry, or ``default``."""
    section, _, name = key.name.partition(".")
    text = raw.get(section, {}).get(name)
    if text is None:
        return default
    try:
        value = key.parse(text)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad value for {key.name}: {text!r} ({err})") from None
    if isinstance(key.low, float) and not value > key.low:
        raise ConfigError(f"{key.name} must be positive")
    if isinstance(key.low, int) and value < key.low:
        raise ConfigError(f"{key.name} must be >= {key.low}, got {value}")
    return value


# Entries defined for qubit systems only, by the config key that lists them.
_QUBIT_ONLY = {"analysis.theorems": ("T2i", "T2ii"),
               "sweep.metrics": ("mean_squared_polarization", "lhs_i")}


def _require_qubit(key: str, listed: tuple[str, ...], dim_system: float) -> None:
    """Refuse the qubit-only entries that ``key`` lists for a model with dS != 2."""
    named = [name for name in listed if name in _QUBIT_ONLY[key]]
    if named and dim_system != 2:
        raise ConfigError(f"{key} lists {', '.join(named)}, defined for qubit systems "
                          f"only; the model has dS = {dim_system:g}")


def _check_sweep(config: ExperimentConfig) -> None:
    parameter, values = config.sweep_parameter, config.sweep_values
    # The numeric model keys of the kind but the seed; a matrix file has none.
    sweepable = [] if config.kind == "file" else sorted(
        name.partition(".")[2] for name, key in CONFIG_KEYS.items()
        if name.startswith("model.") and name != "model.seed"
        and config.kind in key.kinds and key.parse is not str.strip)
    if parameter not in sweepable:
        valid = ", ".join(sweepable) or "none"
        raise ConfigError(f"sweep.parameter {parameter!r} is not sweepable "
                          f"for model kind {config.kind!r} (valid: {valid})")
    if not values:
        raise ConfigError("sweep.values must list at least one value")
    if len(set(values)) != len(values):
        raise ConfigError("sweep.values lists a value twice")
    for metric in config.sweep_metrics:
        if metric not in _SWEEP_METRICS:
            raise ConfigError(f"unknown sweep metric {metric!r} "
                              f"(valid: {', '.join(_SWEEP_METRICS)})")
    if len(set(config.sweep_metrics)) != len(config.sweep_metrics):
        raise ConfigError("sweep.metrics lists a metric twice")
    key = CONFIG_KEYS[f"model.{parameter}"]
    for value in values:  # each must be valid for the model key it replaces
        try:
            _read({"model": {parameter: f"{value:.17g}"}}, key, None)
        except ConfigError as err:
            raise ConfigError(f"sweep.values: {err}") from None
    _require_qubit("sweep.metrics", config.sweep_metrics,
                   max(values) if parameter == "dim_system" else config.dim_system or 2)


def _extract_config(raw: dict[str, dict[str, str]], args) -> ExperimentConfig:
    # --seed and --out are read and checked as the entries they override.
    if args.seed is not None:
        raw.setdefault("model", {})["seed"] = str(args.seed)
    if args.out is not None:
        raw.setdefault("output", {})["dir"] = args.out
    sections = {name.partition(".")[0] for name in CONFIG_KEYS}
    for section in raw:
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
    for section, keys in raw.items():
        for key in keys:
            if f"{section}.{key}" not in CONFIG_KEYS:
                raise ConfigError(f"unknown key {section}.{key}")

    kind = _read(raw, CONFIG_KEYS["model.kind"], None)
    if kind is None:
        raise ConfigError("missing required key model.kind")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r} "
                          f"(choose one of {', '.join(sorted(MODEL_KINDS))})")
    for key in raw.get("model", {}):
        if kind not in CONFIG_KEYS[f"model.{key}"].kinds:
            raise ConfigError(f"key model.{key} is not valid for model kind {kind!r}")

    config = ExperimentConfig(**{f.name: _read(raw, f.metadata["key"], f.default)
                                 for f in fields(ExperimentConfig)})
    if kind == "cucchietti" and config.n_spins is None:
        raise ConfigError("model kind cucchietti needs model.n_spins")
    if kind == "file" and config.matrix_path is None:
        raise ConfigError("model kind file needs model.path")
    if config.epsilon == 0 and {"T0ii", "Popescu"} & set(config.theorems):
        raise ConfigError("analysis.epsilon must be positive with T0ii or Popescu")
    if not 0.0 <= config.p <= 1.0:
        raise ConfigError(f"analysis.p = {config.p} must lie in [0, 1]")
    if config.sweep_parameter is not None:
        _check_sweep(config)
    return config


# --------------------------------------------------------------- pipeline --

@dataclass
class ModelBundle:
    layout: SpaceLayout | None
    spectral: SpectralData
    spec: CommutingModelSpec | None  # the commuting kinds' parts, for model-info
    source: str


_S = 1.0 / math.sqrt(2.0)
_QUBIT_STATES = {"up": (1.0, 0.0), "down": (0.0, 1.0), "plus": (_S, _S), "minus": (_S, -_S)}


def _factor_state(name: str, dim: int, space: str, seed: int) -> PureState:
    if name == "random":
        rng = generator(seed)
        return PureState(sample_amplitudes(dim, 1, rng)[:, 0], space=space)
    if name.startswith("basis:"):
        index_text = name.partition(":")[2]
        if not index_text.isdecimal() or int(index_text) >= dim:
            raise ConfigError(f"basis state {name!r} out of range for dimension {dim}")
        vec = np.zeros(dim, dtype=complex)
        vec[int(index_text)] = 1.0
        return PureState(vec, space=space)
    if name not in _QUBIT_STATES:
        raise ConfigError(f"unknown initial state {name!r} "
                          "(use up, down, plus, minus, random, or basis:<k>)")
    if dim != 2:
        raise ConfigError(f"initial state {name!r} needs a two-level factor, "
                          f"got dimension {dim}")
    return PureState(np.array(_QUBIT_STATES[name], dtype=complex), space=space)


class Pipeline:
    """The stages of one experiment, each computed on first use and at most once.

    Every command builds one pipeline, which the entries of ``_STAGES``
    read, and every sweep draw builds its own with its own seed table.
    Stages and writers call the layer functions through this module's imports,
    which a tracer can wrap; ``coeffs`` and ``projection`` call methods instead.
    ``reports`` builds each configured report by its entry in ``_REPORTS``,
    from the stages that entry names; ``theorems.THEOREMS`` holds only the
    bounds.
    """

    def __init__(self, config: ExperimentConfig,
                 seeds: dict[str, tuple[int, ...]] = RUN_SEEDS) -> None:
        self.config = config
        self.seeds = seeds

    def seed(self, stage: str) -> int:
        return derived_seed(self.config.seed, *self.seeds[stage])

    def prepare(self) -> "Pipeline":
        """Resolve the stages whose errors must come before any file is written."""
        _ = self.coeffs, self.delta
        return self

    def check_counts(self, stages: list[str]) -> None:
        """Refuse, before any draw, what a config-fixed dS decides for the
        ``bounds`` and ``dynamics`` stages: after the size cap, qubit-only
        reports on dS != 2, then the sample count of T0i, T0ii and Popescu, the
        start count of a dS > 2 search and the time count above their cap.  A
        matrix file's dS is checked once read, by ``reports`` and the draws."""
        config = self.config
        if config.kind == "file" or not {"bounds", "dynamics"} & set(stages):
            return
        ds = config.dim_system or 2
        self._check_dimension()
        if "bounds" in stages:
            listed = set(config.theorems)
            _require_qubit("analysis.theorems", config.theorems, ds)
            if listed & {"T0i", "T0ii", "Popescu"}:
                require_count_fits("analysis.n_samples", config.n_samples, ds)
            if listed & {"T1", "T1prime"} and ds > 2:
                require_count_fits("analysis.n_starts", config.n_starts, ds)
        if "dynamics" in stages:
            require_count_fits("dynamics.n_times", config.n_times, ds)

    def _check_dimension(self) -> None:
        """``require_fits`` on the sectors the config fixes, before any draw: dB
        of m = 2 (dB = 2^n_spins, by bit length first so that a huge n_spins is
        never formed), or one of m = dS dB; a matrix file is checked as read."""
        config, ds = self.config, self.config.dim_system or 2
        if config.kind == "cucchietti" and config.n_spins >= STACK_ELEMENT_CAP.bit_length():
            raise CapExceededError(f"composite dimension 2^{config.n_spins + 1}: its "
                                   f"reductions exceed the cap {STACK_ELEMENT_CAP} entries")
        dim_bath = config.dim_bath if config.n_spins is None else 2**config.n_spins
        if config.kind in _SPIN:
            require_fits(dim_bath, 2, 2)
        elif config.kind == "random":
            require_fits(1, ds * dim_bath, ds)

    @cached_property
    def model(self) -> ModelBundle:
        config = self.config
        self._check_dimension()
        if config.kind in ("commuting", "cucchietti"):
            rng = generator(self.seed("model"))
            if config.kind == "commuting":
                spec = sample_commuting_spec(config.dim_bath, config.level_splitting,
                                             config.coupling_scale, config.energy_scale,
                                             rng)
                source = (f"commuting spin-bath (dS=2, dB={spec.dim_bath}, "
                          f"level splitting {config.level_splitting:g})")
                scale_key = "energy_scale"
            else:
                spec = sample_cucchietti_spec(config.n_spins, config.level_splitting,
                                              config.coupling_scale, config.field_scale,
                                              rng)
                source = (f"independent-spin bath (n_spins={config.n_spins}, dS=2, "
                          f"dB={spec.dim_bath})")
                scale_key = "field_scale"
            try:
                spectral = analytic_eigensystem(spec)
            except ValidationError as err:  # an energy range that overflows
                raise ConfigError(f"{err} (set by model.level_splitting, "
                                  f"model.coupling_scale and model.{scale_key})") from None
            return ModelBundle(spec.layout, spectral, spec, source)

        if config.kind == "random":
            # Only the total reaches eigh; the parts are released here and
            # model-info draws them again (random_parts).
            total = self.random_parts().total()
            layout = SpaceLayout(config.dim_system or 2, config.dim_bath)
            source = (f"random Gaussian model (dS={layout.dim_system}, dB={config.dim_bath}, "
                      f"interaction strength {config.interaction_strength:g})")
            try:
                spectral = eigendecompose(total)
            except ValidationError as err:  # an energy range that overflows
                raise ConfigError(f"{err} (set by model.interaction_strength)") from None
            return ModelBundle(layout, spectral, None, source)

        matrix, layout = read_matrix(config.matrix_path)
        if layout is None and config.dim_system is not None:
            dim = matrix.shape[0]
            if dim % config.dim_system != 0:
                raise ConfigError(f"matrix dimension {dim} is not divisible by "
                                  f"dim_system {config.dim_system}")
            layout = SpaceLayout(config.dim_system, dim // config.dim_system)
            require_fits(1, dim, config.dim_system)  # the file was checked at dS = 1
        elif layout is not None and config.dim_system is not None \
                and layout.dim_system != config.dim_system:
            raise ConfigError(f"model.dim_system {config.dim_system} contradicts the "
                              f"file's layout tag dS={layout.dim_system}")
        try:
            spectral = eigendecompose(matrix)
        except ValidationError as err:  # the file's matrix fails a check
            raise ConfigError(f"{config.matrix_path}: {err}") from None
        return ModelBundle(layout, spectral, None,
                           f"matrix file {config.matrix_path} (d={spectral.dim})")

    def random_parts(self) -> CompositeHamiltonian:
        """The parts of a random model, drawn from the ``model`` seed; every call
        draws them again, so that no stage keeps them alive."""
        config = self.config
        rng = generator(self.seed("model"))
        return build_random_model(config.dim_system or 2, config.dim_bath,
                                  config.interaction_strength, rng)

    @property
    def spectral(self) -> SpectralData:
        return self.model.spectral

    @cached_property
    def layout(self) -> SpaceLayout:
        if self.model.layout is None:
            raise ConfigError("the matrix file declares no system/bath split; "
                              "set model.dim_system or tag the file")
        return self.model.layout

    @cached_property
    def psi(self) -> PureState:
        return _factor_state(self.config.initial_system, self.layout.dim_system,
                             "system", self.seed("system"))

    @cached_property
    def phi(self) -> PureState:
        return _factor_state(self.config.initial_bath, self.layout.dim_bath, "bath",
                             self.seed("bath"))

    @cached_property
    def coeffs(self) -> np.ndarray:
        return self.spectral.coefficients(tensor_product(self.psi, self.phi), self.layout)

    @cached_property
    def reductions(self) -> EigenstateReductions:
        return EigenstateReductions(self.spectral.reductions(self.layout))

    @cached_property
    def projection(self) -> DenseProjection | GroupedProjection:
        """W = B^H V of the analysis subspace R on the eigenbasis, shape (dR, d)."""
        token, layout = self.config.subspace, self.layout
        if token == "full":
            return self.spectral.projection(layout)
        prefix_dim = None if token == "product_bath" else int(token.partition(":")[2])
        if prefix_dim is not None and prefix_dim > layout.dim_bath:
            raise ConfigError(f"subspace {token!r} exceeds the bath dimension "
                              f"{layout.dim_bath}")
        return self.spectral.projection(layout, self.psi, prefix_dim)

    @cached_property
    def delta(self) -> float:
        return subspace_delta(self.reductions, self.projection)

    @property
    def notes(self) -> list[str]:
        if not self.spectral.degenerate.any():
            return []
        return ["note: spectrum is degenerate; the nondegeneracy hypothesis "
                "of the equilibrium formulas is violated"]

    @cached_property
    def rho_bar(self) -> np.ndarray:
        return time_averaged_state(self.coeffs, self.reductions, self.spectral,
                                   allow_degenerate=self.config.allow_degenerate)

    @cached_property
    def dynamics(self) -> tuple[float, np.ndarray, np.ndarray, float]:
        """(horizon, times, reduced states, mean trace distance to the time average)."""
        spectral = self.spectral
        # A degenerate spectrum is refused whatever allow_degenerate says.  The
        # horizon divides by the smallest Bohr frequency a reduced state sees.
        require_nondegenerate(spectral)
        ratio, spacing = self.config.horizon_over_min_gap, spectral.min_sector_spacing
        horizon = ratio / spacing
        # 2 max|E_n| bounds every Bohr frequency, so the phases stay finite
        # when the horizon times it does.
        rate = 2.0 * spectral.spectral_norm
        if not math.isfinite(horizon * rate):
            largest = sys.float_info.max * (spacing / rate)
            while not math.isfinite(largest / spacing * rate):
                largest = math.nextafter(largest, 0.0)
            raise ConfigError(f"dynamics.horizon_over_min_gap = {ratio:g} overflows the "
                              f"phases of the evolution (smallest within-sector spacing "
                              f"{spacing:.6g}, max |E| {spectral.spectral_norm:.6g}); "
                              f"set it to at most {largest!r}")
        require_count_fits("dynamics.n_times", self.config.n_times, self.layout.dim_system)
        rng = generator(self.seed("dynamics"))
        times = stratified_times(horizon, self.config.n_times, rng)
        states = evolve_reduced(self.coeffs, spectral, self.layout, times)
        return horizon, times, states, float(batched_trace_distances(states, self.rho_bar).mean())

    @cached_property
    def theorem0(self) -> tuple[TheoremReport, TheoremReport]:
        """The T0i and T0ii reports, from one draw set."""
        config = self.config
        return theorem0_reports(self.projection, self.spectral, self.reductions,
                                config.epsilon, config.n_samples, self.seed("theorem0"))

    @cached_property
    def necessary(self) -> tuple[TheoremReport, TheoremReport]:
        """The T1 and T1prime reports, from one search; the sweep reads its lhs.
        T1's restricted family lies in the bath, so dR above dB is refused
        before the search."""
        config, dim_bath = self.config, self.layout.dim_bath
        dim_restricted = config.dim_restricted or dim_bath
        if dim_restricted > dim_bath:
            raise ConfigError(f"analysis.dim_restricted = {dim_restricted} exceeds the "
                              f"bath dimension dB = {dim_bath}")
        return necessary_condition_reports(self.reductions, config.epsilon, dim_restricted,
                                           config.p, config.n_starts, self.seed("search"))

    @cached_property
    def theorem2(self) -> tuple[TheoremReport, TheoremReport]:
        return theorem2_reports(self.reductions, self.config.epsilon, self.layout.dim_bath)

    @cached_property
    def reports(self) -> tuple[dict[str, TheoremReport], list[str]]:
        """The configured theorem reports, and notes on the ones skipped."""
        config = self.config
        _require_qubit("analysis.theorems", config.theorems, self.layout.dim_system)
        reports: dict[str, TheoremReport] = {}
        notes: list[str] = []
        for tid in config.theorems:
            if THEOREMS[tid].nondegenerate and config.allow_degenerate \
                    and self.spectral.degenerate.any():
                notes.append(f"note: {tid} skipped (degenerate spectrum)")
                continue
            reports[tid] = _REPORTS[tid](self)
        return reports, notes


# ------------------------------------------------------------------ lines --

def _spectrum_lines(pipe: Pipeline) -> list[str]:
    spectral = pipe.spectral
    return [
        f"dimension: {spectral.dim}",
        f"spectral norm: {spectral.spectral_norm:.6g}",
        f"min level spacing: {spectral.min_sector_spacing:.6g}",
        f"nondegenerate spectrum: {str(not spectral.degenerate.any()).lower()}",
    ]


def _report_lines(pipe: Pipeline) -> list[str]:
    reports, notes = pipe.reports
    lines = ["reports:"]
    for tid, report in reports.items():
        lines.append(f"  {tid}: lhs={report.lhs:.6g} rhs={report.rhs:.6g} "
                     f"verdict={report.verdict}")
    return lines + notes


def _conclusion_line(pipe: Pipeline) -> str:
    report = pipe.reports[0].get("T2ii")
    if report is None:
        return "conclusion: not evaluated (T2ii absent from analysis.theorems)"
    if report.verdict == "violated":
        if abs(report.lhs - 1.0) <= UNIT_LHS:
            accuracy = "≈ 1/3"
        else:
            accuracy = f"≈ {report.lhs / 3.0:.6g}"
        return f"conclusion: system ISI cannot hold with accuracy better than {accuracy}"
    if report.verdict == "vacuous":
        return "conclusion: necessary-condition bound is vacuous at this scale"
    return f"conclusion: no obstruction to system ISI at accuracy {pipe.config.epsilon:g}"


def _equilibrium_lines(pipe: Pipeline) -> list[str]:
    rho_bar = pipe.rho_bar[None]
    lines = [
        f"subspace: {pipe.config.subspace} (dR={pipe.projection.dim})",
        f"delta: {pipe.delta:.12g}",
        f"sqrt(delta): {math.sqrt(pipe.delta):.12g}",
        f"time-averaged state purity: {purities(rho_bar)[0]:.6g}",
    ]
    if pipe.layout.dim_system == 2:
        px, py, pz = batched_bloch_vectors(rho_bar)[0]
        lines.append(f"time-averaged state polarization: ({px:.6g}, {py:.6g}, {pz:.6g})")
    return lines


def _dynamics_lines(pipe: Pipeline) -> list[str]:
    horizon, _, _, metric = pipe.dynamics
    bound = 2.0 * pipe.layout.dim_system / math.sqrt(pipe.projection.dim)
    return [
        f"dynamics: horizon={horizon:.6g} n_times={pipe.config.n_times}",
        f"mean distance to equilibrium: {metric:.6g}",
        f"equilibration bound 2 dS / sqrt(dR): {bound:.6g}",
    ]


def _check_out_dir(config: ExperimentConfig) -> None:
    """Refuse an output directory that cannot be made, before any stage runs.

    Nothing is created here: the nearest existing path on the way up must be
    a writable directory, and ``_out_dir`` makes the rest after the stages.
    """
    path = Path(config.out_dir)
    try:
        existing = next((p for p in (path, *path.parents) if p.exists()), path)
        usable = existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)
    except (OSError, ValueError) as err:  # ValueError: a NUL in the path
        raise ConfigError(f"output directory {config.out_dir!r}: "
                          f"{getattr(err, 'strerror', None) or err}") from None
    if not usable:
        raise ConfigError(f"output directory {config.out_dir!r} cannot be made: "
                          f"{str(existing)!r} is not a writable directory")


def _out_dir(config: ExperimentConfig) -> Path:
    path = Path(config.out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"output directory {config.out_dir!r}: {err.strerror}") from None
    return path


# ----------------------------------------------------------------- stages --

# Each stage of a command: its lines, and the data files it writes as
# (file name, writer) pairs, a writer taking the file's path.  The writers
# reach the layer functions through this module's names when they run.
_STAGES: dict[str, tuple[Callable[[Pipeline], list[str]],
                         Callable[[Pipeline], list[tuple[str, Callable[[Path], Any]]]]]] = {
    "spectrum": (_spectrum_lines, lambda pipe: [
        ("spectrum.csv", lambda path: write_csv(path, ["n", "energy"],
                                                enumerate(pipe.spectral.eigenvalues)))]),
    "equilibrium": (_equilibrium_lines, lambda pipe: [
        ("reductions.csv",
         lambda path: write_reductions_csv(path, pipe.spectral, pipe.reductions))]),
    "bounds": (_report_lines, lambda pipe: [
        (f"report_{tid}.json", lambda path, report=report: write_report(path, report))
        for tid, report in pipe.reports[0].items()]),
    "dynamics": (_dynamics_lines, lambda pipe: [
        ("trajectory.csv", lambda path: write_trajectory_csv(path, *pipe.dynamics[1:3]))]),
}


def _run_stages(config: ExperimentConfig, args, name: str) -> list[str]:
    """The command's stages, ``run`` being all of them (dynamics if enabled):
    every line first, then every file, so that no error follows a write."""
    run = args.command == "run"
    stages = [stage for stage in _STAGES
              if stage != "dynamics" or config.dynamics_enabled] if run else [args.command]
    pipe = Pipeline(config)
    pipe.check_counts(stages)
    if stages != ["spectrum"]:
        pipe.prepare()
    lines = []
    if run:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines = [
            f"# generated: {stamp}",
            f"config: {name}",
            f"seed: {config.seed}",
            f"model: {pipe.model.source}",
            f"initial state: system={config.initial_system} bath={config.initial_bath}",
        ]
    for stage in stages:
        lines.extend(_STAGES[stage][0](pipe))
    lines.extend(pipe.notes)
    if "bounds" in stages:
        lines.append(_conclusion_line(pipe))
    files = [item for stage in stages for item in _STAGES[stage][1](pipe)]
    if run:  # the summary is what the command prints, and the one file it names
        summary = "\n".join(lines) + "\n"
        files.append(("summary.txt", lambda path: path.write_text(summary, encoding="utf-8")))

    out = _out_dir(config)
    for file_name, write in files:
        write(out / file_name)
    shown = files[-1:] if run else files
    return lines + [f"wrote {out / file_name}" for file_name, _ in shown]


# ------------------------------------------------------------- subcommands --

def _dense_norms(ham: CompositeHamiltonian) -> tuple[float, ...]:
    """The norms of ``models.commuting_norms``, from the dense parts.

    HS (x) 1 and 1 (x) HB act on the (dS, dB, dS, dB) view of HSB through the
    factor they hold, as matrix products on reshapes of it, and each
    commutator i[A, HSB] is formed in place: no lifted part is built.
    """
    def norm(mat):
        return float(np.abs(np.linalg.eigvalsh(mat)).max())

    ds, db, d = ham.layout.dim_system, ham.layout.dim_bath, ham.layout.dim_total
    hs, hb, hsb = ham.system, ham.bath, ham.interaction

    def commutator_norm(left: np.ndarray, right: np.ndarray) -> float:
        comm = left.reshape(d, d)
        comm -= right.reshape(d, d)
        comm *= 1j
        return norm(comm)

    return (norm(hs), norm(hb), norm(hsb),
            # sum_s' HS[s, s'] HSB[s' b, t c] and sum_t' HSB[s b, t' c] HS[t', t]
            commutator_norm(hs @ hsb.reshape(ds, db * d),
                            np.matmul(hs.T, hsb.reshape(d, ds, db))),
            # sum_b' HB[b, b'] HSB[s b', t c] and sum_c' HSB[s b, t c'] HB[c', c]
            commutator_norm(np.matmul(hb, hsb.reshape(ds, db, d)),
                            hsb.reshape(d * ds, db) @ hb))


def _cmd_model_info(config: ExperimentConfig, args, name: str) -> list[str]:
    pipe = Pipeline(config)
    model = pipe.model
    lines = [f"model: {model.source}", f"seed: {config.seed}"]
    if model.layout is not None:
        lines.append(f"layout: dS={model.layout.dim_system} "
                     f"dB={model.layout.dim_bath} d={model.layout.dim_total}")
    norms = None
    if model.spec is not None:
        norms = commuting_norms(model.spec)
    elif config.kind == "random":
        norms = _dense_norms(pipe.random_parts())
    if norms is not None:
        lines.append("part norms: system={:.6g} bath={:.6g} interaction={:.6g}"
                     .format(*norms[:3]))
        lines.append("commutator norms: [HSx1, HSB]={:.6g} [1xHB, HSB]={:.6g}"
                     .format(*norms[3:]))
    if config.kind == "random":
        lines.append("ensemble: independent Gaussian Hermitian parts, entry "
                     "variance 1/dim per part")
    lines.extend(_spectrum_lines(pipe))
    return lines


# ------------------------------------------------------------------ sweep --

# Report of each theorem id, each from the stages it is built from.  A family
# of two reports is one stage, whose pair each id indexes: T0i and T0ii share
# the draws of the theorem0 stage, T1 and T1prime the search of the necessary
# stage (see RUN_SEEDS), and T2i and T2ii the Gram matrix of the theorem2 stage.
_REPORTS: dict[str, Callable[[Pipeline], TheoremReport]] = {
    "SufficientISI": lambda pipe: sufficient_condition_report(pipe.delta),
    "T0i": lambda pipe: pipe.theorem0[0],
    "T0ii": lambda pipe: pipe.theorem0[1],
    "T1": lambda pipe: pipe.necessary[0],
    "T1prime": lambda pipe: pipe.necessary[1],
    "T2i": lambda pipe: pipe.theorem2[0],
    "T2ii": lambda pipe: pipe.theorem2[1],
    "Popescu": lambda pipe: popescu_report(
        pipe.layout, pipe.config.epsilon, pipe.config.n_samples, pipe.seed("popescu")),
}

# Metric of one sweep draw, each from the stages it needs.
_SWEEP_METRICS: dict[str, Callable[[Pipeline], float]] = {
    "delta": lambda pipe: pipe.delta,
    "mean_squared_polarization": lambda pipe: theorem2_lhs(pipe.reductions)[1],
    "lhs_i": lambda pipe: theorem2_lhs(pipe.reductions)[0],
    "necessary_lhs": lambda pipe: pipe.necessary[0].lhs,
    "equilibration_metric": lambda pipe: pipe.dynamics[3],
    "min_level_spacing": lambda pipe: pipe.spectral.min_sector_spacing,
}


def _draw_metrics(task: tuple[ExperimentConfig, int, int]) -> list[float]:
    """The sweep metrics of one draw at one grid point."""
    config, point, draw = task
    pipe = Pipeline(config, _draw_seeds(point, draw))
    return [float(_SWEEP_METRICS[metric](pipe)) for metric in config.sweep_metrics]


def _pooled_draws(tasks, jobs: int):
    """``_draw_metrics`` of each task, in order, with at most 2 * jobs tasks not yet taken."""
    from concurrent.futures import ProcessPoolExecutor  # only a sweep loads the pool
    with ProcessPoolExecutor(max_workers=jobs, initializer=evolve_on_one_thread) as pool:
        pending = []
        for task in tasks:
            pending.append(pool.submit(_draw_metrics, task))
            if len(pending) == 2 * jobs:
                yield pending.pop(0).result()
        yield from (future.result() for future in pending)


def _cmd_sweep(config: ExperimentConfig, args, name: str) -> list[str]:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if config.sweep_parameter is None:
        raise ConfigError("sweep needs a [sweep] section with parameter and values")
    parameter, n_draws = config.sweep_parameter, config.sweep_draws
    cast = CONFIG_KEYS[f"model.{parameter}"].parse  # checked on values in _check_sweep
    values = sorted(config.sweep_values)
    cells = len(values) * len(config.sweep_metrics)  # of the (points, metrics, draws) array
    if cells * n_draws > STACK_ELEMENT_CAP:
        raise CapExceededError(f"sweep.draws * points * metrics = {n_draws} * {cells} exceeds "
                               f"{STACK_ELEMENT_CAP}; set sweep.draws to at most "
                               f"{STACK_ELEMENT_CAP // cells}")
    # One task per draw, point-major, so that the pool balances unequal points.
    varied = [replace(config, **{parameter: cast(value)}) for value in values]
    tasks = ((varied[point], point, draw)
             for point in range(len(values)) for draw in range(n_draws))
    jobs = min(args.jobs, len(values) * n_draws, usable_cpus())
    results = map(_draw_metrics, tasks) if jobs == 1 else _pooled_draws(tasks, jobs)
    # (points, metrics, draws), C-contiguous: each statistic reduces one row.
    data = np.empty((len(values), len(config.sweep_metrics), n_draws))
    for index, metrics in enumerate(results):
        data[index // n_draws, :, index % n_draws] = metrics
    means = data.mean(axis=-1)
    errors = (np.reshape([row.std(ddof=1) for row in data.reshape(-1, n_draws)], means.shape)
              / math.sqrt(n_draws) if n_draws > 1 else np.zeros_like(means))

    columns = ["parameter", "value", "n_draws"]
    for metric in config.sweep_metrics:
        columns.extend([f"{metric}_mean", f"{metric}_se"])
    path = _out_dir(config) / "sweep.csv"
    stats = np.stack([means, errors], axis=-1).reshape(len(values), -1).tolist()
    write_csv(path, columns, ([parameter, value, n_draws, *row]
                              for value, row in zip(values, stats)))

    lines = [f"sweep over {parameter} ({len(values)} points, {n_draws} draws each)"]
    for value, row in zip(values, means.tolist()):
        parts = [f"{parameter}={value:g}"]
        parts.extend(f"{metric}={mean:.6g}" for metric, mean in zip(config.sweep_metrics, row))
        lines.append("  " + " ".join(parts))
    lines.append(f"wrote {path}")
    return lines


# ------------------------------------------------------------------- main --

_COMMANDS = {
    "run": (_run_stages, "full pipeline with summary"),
    "model-info": (_cmd_model_info, "print model dimensions, norms, and commutator checks"),
    "spectrum": (_run_stages, "diagonalize and run the degeneracy check"),
    "equilibrium": (_run_stages, "eigenstate reductions and the time-averaged state"),
    "bounds": (_run_stages, "evaluate the configured theorem reports"),
    "dynamics": (_run_stages, "reduced evolution and equilibration metric"),
    "sweep": (_cmd_sweep, "metric over a model-parameter grid"),
}

# Exit code by error type; the first match wins, so subclasses come first.
_EXIT_CODES = ((ConfigError, 2), (CapExceededError, 3), (DegenerateSpectrumError, 4),
               (IsibenchError, 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isibench",
        description="Equilibration and initial-state-independence testbench for "
                    "system-bath models.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (_, description) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=description)
        sub.add_argument("--config", required=True,
                         help="config file path or bundled config name "
                              f"({', '.join(bundled_config_names())})")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the config's root seed")
        if command == "sweep":
            sub.add_argument("--jobs", type=int, default=1,
                             help="parallel worker processes for the draws (>= 1)")
        sub.add_argument("--out", default=None,
                         help="output directory (default from config, else "
                              f"{DEFAULT_OUT_DIR})")
        sub.add_argument("--override", action="append", default=[],
                         metavar="SECTION.KEY=VALUE",
                         help="override a config entry (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        name, text = _load_raw_config(args.config)
        raw = _parse_sections(text, name)
        _apply_overrides(raw, args.override)
        config = _extract_config(raw, args)
        if args.command != "model-info":  # the one command that writes no file
            _check_out_dir(config)
        lines = _COMMANDS[args.command][0](config, args, name)
    except IsibenchError as err:
        print(f"error: {' '.join(str(err).split())}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(err, kind))
    print("\n".join(lines))
    return 0


def process_main() -> NoReturn:
    """Run ``main`` as a process of its own, and exit with its code.

    The collector is frozen first: every object tracked by then, the ~22,000
    that numpy and this package make on import, moves to the permanent
    generation, which no collection scans, the full one at interpreter exit
    included.  They are still freed by reference count.  Frozen before
    ``main``, a sweep's forked workers inherit them frozen, so their
    collections do not write to the pages they share with the parent.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    process_main()
