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
or keys are errors.  Each model kind is one entry of ``MODEL_KINDS``, a
``ModelKind``: the config and the pipeline read a kind's keys, layout,
parts, spectral build and lines from it, and compare no kind by name.  The
numerical thresholds of the checks and verdicts are fixed constants of the
modules that apply them, and so are the caps that refuse a model by the
arrays it would hold (``spectral.require_fits``).

Every run derives all randomness from a single root seed, so identical
configs give byte-identical data files (the only timestamp lives in the
summary header) on the same machine, with the same numpy/BLAS build and the
same BLAS thread count; another thread count moves the numbers in their last
digits, and ``OPENBLAS_THREAD_TIMEOUT`` and the number of CPUs move none
(see the README).  A sweep's worker processes run BLAS on one thread, so
``--jobs N > 1`` writes the bytes of ``--jobs 1`` on one BLAS thread.

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
from dataclasses import astuple, dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, NoReturn

import numpy as np

from .dynamics import evolve_reduced, stratified_times, write_trajectory_csv
from .equilibrium import (EigenstateReductions, require_nondegenerate, time_averaged_state,
                          write_reductions_csv)
from .equilibrium import delta as subspace_delta
from .errors import (CapExceededError, ConfigError, DegenerateSpectrumError,
                     IsibenchError, ValidationError)
from .hilbert import (PureState, SpaceLayout, batched_bloch_vectors, batched_trace_distances,
                      purities, tensor_product)
from .models import (analytic_eigensystem, build_random_model, commuting_norms,
                     sample_commuting_spec, sample_cucchietti_spec)
from .sampling import generator, sample_amplitudes
from .spectral import (STACK_ELEMENT_CAP, CompositeHamiltonian, DenseProjection,
                       GroupedProjection, SpectralData, eigendecompose, read_matrix,
                       read_matrix_header, read_text, require_count_fits, require_fits,
                       run_on_one_thread, usable_cpus, write_csv)
from .theorems import (THEOREM_IDS, THEOREMS, TheoremReport, necessary_condition_reports,
                       popescu_report, sufficient_condition_report, theorem0_reports,
                       theorem2_lhs, theorem2_reports, write_report)

DEFAULT_SEED = 12345
DEFAULT_OUT_DIR = "isibench-out"
UNIT_LHS = 1e-10  # |lhs - 1| of a violated T2ii that the conclusion reads as 1

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
    0.0 asks for a positive value.  The model kinds that accept a ``model.*``
    entry are the ones whose ``MODEL_KINDS`` entry lists it.
    """

    name: str
    parse: Callable[[str], Any]
    low: int | float | None = None


def _key(name: str, parse: Callable[[str], Any], default: Any = None,
         low: int | float | None = None):
    """An ExperimentConfig field read from one config entry."""
    return field(default=default, metadata={"key": ConfigKey(name, parse, low)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully typed experiment description; picklable for sweep workers.

    Its fields are the config table: each one reads the entry its ConfigKey
    names and defaults to the field default.
    """

    kind: str = _key("model.kind", str.strip)
    seed: int = _key("model.seed", int, DEFAULT_SEED, 0)
    dim_system: int | None = _key("model.dim_system", int, None, 2)
    dim_bath: int = _key("model.dim_bath", int, 16, 1)
    n_spins: int | None = _key("model.n_spins", int, None, 1)
    level_splitting: float = _key("model.level_splitting", _parse_finite, 1.0)
    coupling_scale: float = _key("model.coupling_scale", _parse_scale, 1.0, 0.0)
    energy_scale: float = _key("model.energy_scale", _parse_scale, 1.0)
    field_scale: float = _key("model.field_scale", _parse_scale, 1.0)
    interaction_strength: float = _key("model.interaction_strength", _parse_finite, 1.0)
    matrix_path: str | None = _key("model.path", str.strip)
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


def _check_sweep(config: ExperimentConfig) -> None:
    parameter, values = config.sweep_parameter, config.sweep_values
    entry = MODEL_KINDS[config.kind]
    # The numeric keys of the kind but the seed; a kind that reads a path has none.
    sweepable = sorted(key for key in entry.keys if "path" not in entry.keys and key != "seed"
                       and CONFIG_KEYS[f"model.{key}"].parse is not str.strip)
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

    given = raw.get("model", {})
    if "kind" not in given:
        raise ConfigError("missing required key model.kind")
    kind = _read(raw, CONFIG_KEYS["model.kind"], None)
    entry = MODEL_KINDS.get(kind)
    if entry is None:
        raise ConfigError(f"unknown model kind {kind!r} "
                          f"(choose one of {', '.join(sorted(MODEL_KINDS))})")
    for key in given:
        if key not in ("kind", *entry.keys):
            raise ConfigError(f"key model.{key} is not valid for model kind {kind!r}")

    config = ExperimentConfig(**{f.name: _read(raw, f.metadata["key"], f.default)
                                 for f in fields(ExperimentConfig)})
    for key in entry.required:
        if key not in given:
            raise ConfigError(f"model kind {kind} needs model.{key}")
    if config.epsilon == 0 and {"T0ii", "Popescu"} & set(config.theorems):
        raise ConfigError("analysis.epsilon must be positive with T0ii or Popescu")
    if not 0.0 <= config.p <= 1.0:
        raise ConfigError(f"analysis.p = {config.p} must lie in [0, 1]")
    if config.sweep_parameter is not None:
        _check_sweep(config)
    return config


# ----------------------------------------------------------------- models --

@dataclass(frozen=True)
class ModelKind:
    """One model kind, the entry of ``MODEL_KINDS`` that the pipeline reads.

    ``keys`` are the ``model.*`` entries it accepts besides ``kind``, and
    ``required`` those it needs.  ``layout`` gives the S (x) B layout after
    ``require_fits``, before anything is drawn or read; None only for an
    untagged matrix file with no ``model.dim_system``.  ``spectral`` builds
    the spectral data from one call of ``draw``, which draws the ``parts``
    again, so that no part outlives it; its ValidationError is an energy
    range that overflows, set by the ``energy_keys``.  ``source`` is the
    model line; model-info adds the ``norms`` of the parts, if any, and the
    ``info`` lines.
    """

    keys: tuple[str, ...]
    layout: Callable[[ExperimentConfig], SpaceLayout | None]
    parts: Callable[[ExperimentConfig, np.random.Generator], Any]
    spectral: Callable[[Callable[[], Any], ExperimentConfig], SpectralData]
    source: Callable[[ExperimentConfig, SpectralData], str]
    required: tuple[str, ...] = ()
    energy_keys: tuple[str, ...] = ()
    norms: Callable[[Any], tuple[float, ...]] | None = None
    info: tuple[str, ...] = ()


def _spin_layout(dim_bath: int) -> SpaceLayout:
    require_fits(dim_bath, 2, 2)  # dB sectors of m = 2
    return SpaceLayout(2, dim_bath)


def _cucchietti_layout(config: ExperimentConfig) -> SpaceLayout:
    # dB = 2^n_spins, refused by its bit length first so that a huge one is never formed
    if config.n_spins >= STACK_ELEMENT_CAP.bit_length():
        raise CapExceededError(f"composite dimension 2^{config.n_spins + 1}: its "
                               f"reductions exceed the cap {STACK_ELEMENT_CAP} entries")
    return _spin_layout(2**config.n_spins)


def _random_layout(config: ExperimentConfig) -> SpaceLayout:
    ds = config.dim_system or 2
    require_fits(1, ds * config.dim_bath, ds)  # one sector of m = d
    return SpaceLayout(ds, config.dim_bath)


def _file_spectral(draw: Callable[[], tuple], config: ExperimentConfig) -> SpectralData:
    try:
        return eigendecompose(*draw())
    except ValidationError as err:  # the file's matrix fails a check
        raise ConfigError(f"{config.matrix_path}: {err}") from None


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


# Each model kind: its keys, layout, parts, spectral build and model line, then
# the fields with defaults.  The callables look the layer functions up when
# they run, so that a tracer can wrap them; a random model's parts are gone
# before eigh runs on their total.
MODEL_KINDS: dict[str, ModelKind] = {
    "commuting": ModelKind(
        ("seed", "dim_bath", "level_splitting", "coupling_scale", "energy_scale"),
        lambda config: _spin_layout(config.dim_bath),
        lambda config, rng: sample_commuting_spec(config.dim_bath, config.level_splitting,
                                                  config.coupling_scale, config.energy_scale, rng),
        lambda draw, config: analytic_eigensystem(draw()),
        lambda config, spectral: (f"commuting spin-bath (dS=2, dB={config.dim_bath}, "
                                  f"level splitting {config.level_splitting:g})"),
        energy_keys=("level_splitting", "coupling_scale", "energy_scale"),
        norms=lambda spec: commuting_norms(spec)),
    "cucchietti": ModelKind(
        ("seed", "n_spins", "level_splitting", "coupling_scale", "field_scale"),
        _cucchietti_layout,
        lambda config, rng: sample_cucchietti_spec(config.n_spins, config.level_splitting,
                                                   config.coupling_scale, config.field_scale, rng),
        lambda draw, config: analytic_eigensystem(draw()),
        lambda config, spectral: (f"independent-spin bath (n_spins={config.n_spins}, dS=2, "
                                  f"dB={2**config.n_spins})"),
        required=("n_spins",), energy_keys=("level_splitting", "coupling_scale", "field_scale"),
        norms=lambda spec: commuting_norms(spec)),
    "random": ModelKind(
        ("seed", "dim_system", "dim_bath", "interaction_strength"), _random_layout,
        lambda config, rng: build_random_model(*astuple(_random_layout(config)),
                                               config.interaction_strength, rng),
        lambda draw, config: eigendecompose(draw().total(), _random_layout(config)),
        lambda config, spectral: (f"random Gaussian model (dS={config.dim_system or 2}, "
                                  f"dB={config.dim_bath}, interaction strength "
                                  f"{config.interaction_strength:g})"),
        energy_keys=("interaction_strength",), norms=lambda ham: _dense_norms(ham),
        info=("ensemble: independent Gaussian Hermitian parts, entry variance 1/dim per part",)),
    "file": ModelKind(
        ("seed", "path", "dim_system"),
        lambda config: read_matrix_header(config.matrix_path, config.dim_system)[1],
        lambda config, rng: read_matrix(config.matrix_path, config.dim_system), _file_spectral,
        lambda config, spectral: f"matrix file {config.matrix_path} (d={spectral.dim})",
        required=("path",)),
}


# --------------------------------------------------------------- pipeline --

_S = 1.0 / math.sqrt(2.0)
_QUBIT_STATES = {"up": (1.0, 0.0), "down": (0.0, 1.0), "plus": (_S, _S), "minus": (_S, -_S)}


def _require_state_fits(name: str, dim: int) -> None:
    """Refuse an initial state ``name`` that a factor of dimension ``dim`` cannot hold."""
    basis, index = name.startswith("basis:"), name.partition(":")[2]
    if basis and not (index.isdecimal() and int(index) < dim):
        raise ConfigError(f"basis state {name!r} out of range for dimension {dim}")
    if not basis and name not in (*_QUBIT_STATES, "random"):
        raise ConfigError(f"unknown initial state {name!r} "
                          "(use up, down, plus, minus, random, or basis:<k>)")
    if name in _QUBIT_STATES and dim != 2:
        raise ConfigError(f"initial state {name!r} needs a two-level factor, "
                          f"got dimension {dim}")


def _factor_state(name: str, dim: int, space: str, seed: int) -> PureState:
    """The initial state ``name`` of a factor, which Pipeline.check fitted to ``dim``."""
    if name == "random":
        return PureState(sample_amplitudes(dim, 1, generator(seed))[:, 0], space=space)
    amplitudes = _QUBIT_STATES.get(name) or np.eye(1, dim, int(name.partition(":")[2]))[0]
    return PureState(amplitudes, space=space)


class Pipeline:
    """The stages of one experiment, each computed on first use and at most once.

    Every command builds one pipeline, which the entries of ``_STAGES``
    read, and every sweep draw builds its own with its own seed table.  The
    config's ``kind`` entry of ``MODEL_KINDS`` gives the S (x) B ``layout``
    before any draw and builds the model stage, ``spectral``, which carries
    it to its readers; ``parts`` draws the model's parts again for
    model-info.  Stages, writers and the kinds call the layer functions
    through this module's imports, which a tracer can wrap; ``coeffs`` and
    ``projection`` call methods instead.
    ``reports`` builds each configured report by its entry in ``_REPORTS``,
    from the stage that entry names; ``theorems.THEOREMS`` holds only the
    bounds.  ``check`` refuses, before any draw, what those stages need of
    the config (``_NEEDS``), so the stages themselves refuse only what
    depends on the model.
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

    def check(self, key: str, names: Iterable[str], stages: Iterable[str] = ()) -> None:
        """Refuse, from ``layout`` alone, what ``_NEEDS`` asks of the config
        for the pipeline ``stages`` and the stages of the ``names`` that
        ``key`` lists: the size caps and a missing split, the qubit-only names
        on dS != 2, the counts above their cap, then a bath_prefix:k and a dR
        above dB, and last an initial state that does not fit its factor."""
        config, table, (ds, db) = self.config, _LISTS[key], astuple(self.layout)
        listed = {name: table[name][0] for name in names}
        needs = {need for stage in (*stages, *listed.values()) for need in _NEEDS[stage]}
        qubit_only = [name for name, stage in listed.items() if "qubit" in _NEEDS[stage]]
        if qubit_only and ds != 2:
            raise ConfigError(f"{key} lists {', '.join(qubit_only)}, defined for qubit "
                              f"systems only; the model has dS = {ds}")
        # a qubit's search is exact and draws no start
        for count_key, count in (("analysis.n_samples", config.n_samples),
                                 ("analysis.n_starts", config.n_starts if ds > 2 else 0),
                                 ("dynamics.n_times", config.n_times)):
            if count_key in needs:
                require_count_fits(count_key, count, ds)
        prefix = config.subspace.partition(":")[2]
        if "analysis.subspace" in needs and prefix and int(prefix) > db:
            raise ConfigError(f"subspace {config.subspace!r} exceeds the bath dimension {db}")
        if "analysis.dim_restricted" in needs and (config.dim_restricted or db) > db:
            raise ConfigError(f"analysis.dim_restricted = {config.dim_restricted} exceeds "
                              f"the bath dimension dB = {db}")
        # the coefficients read both states; a projection, psi unless R is the full space
        if "initial_state" in needs or ("analysis.subspace" in needs
                                         and config.subspace != "full"):
            _require_state_fits(config.initial_system, ds)
        if "initial_state" in needs:
            _require_state_fits(config.initial_bath, db)

    @property
    def kind(self) -> ModelKind:
        return MODEL_KINDS[self.config.kind]

    @cached_property
    def spectral(self) -> SpectralData:
        kind = self.kind
        kind.layout(self.config)  # the caps, before anything is drawn or read
        try:
            return kind.spectral(self.parts, self.config)
        except ValidationError as err:  # an energy range that overflows
            *first, last = [f"model.{key}" for key in kind.energy_keys]
            named = f"{', '.join(first)} and {last}" if first else last
            raise ConfigError(f"{err} (set by {named})") from None

    def parts(self) -> Any:
        """The parts of the model, drawn from the ``model`` seed (a file's
        matrix and split, read).  Every call draws them again, so that no
        stage keeps them alive."""
        return self.kind.parts(self.config, generator(self.seed("model")))

    @cached_property
    def layout(self) -> SpaceLayout:
        if not (layout := self.kind.layout(self.config)):
            raise ConfigError("the matrix file declares no system/bath split; "
                              "set model.dim_system or tag the file")
        return layout

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
        return self.spectral.coefficients(tensor_product(self.psi, self.phi))

    @cached_property
    def reductions(self) -> EigenstateReductions:
        return EigenstateReductions(self.spectral.reductions())

    @cached_property
    def projection(self) -> DenseProjection | GroupedProjection:
        """W = B^H V of the analysis subspace R on the eigenbasis, shape (dR, d)."""
        token = self.config.subspace
        if token == "full":
            return self.spectral.projection()
        prefix_dim = None if token == "product_bath" else int(token.partition(":")[2])
        return self.spectral.projection(self.psi, prefix_dim)

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
        rng = generator(self.seed("dynamics"))
        times = stratified_times(horizon, self.config.n_times, rng)
        states = evolve_reduced(self.coeffs, spectral, times)
        return horizon, times, states, float(batched_trace_distances(states, self.rho_bar).mean())

    @cached_property
    def theorem0(self) -> tuple[TheoremReport, TheoremReport]:
        """The T0i and T0ii reports, from one draw set."""
        config = self.config
        return theorem0_reports(self.projection, self.spectral, self.reductions,
                                config.epsilon, config.n_samples, self.seed("theorem0"))

    @cached_property
    def necessary(self) -> tuple[TheoremReport, TheoremReport]:
        """The T1 and T1prime reports, from one search; the sweep reads its lhs."""
        config = self.config
        return necessary_condition_reports(self.reductions, config.epsilon,
                                           config.dim_restricted or self.layout.dim_bath,
                                           config.p, config.n_starts, self.seed("search"))

    @cached_property
    def theorem2(self) -> tuple[TheoremReport, TheoremReport]:
        return theorem2_reports(self.reductions, self.config.epsilon)

    @cached_property
    def reports(self) -> tuple[dict[str, TheoremReport], list[str]]:
        """The configured theorem reports, and notes on the ones skipped."""
        config = self.config
        reports: dict[str, TheoremReport] = {}
        notes: list[str] = []
        for tid in config.theorems:
            if THEOREMS[tid].nondegenerate and config.allow_degenerate \
                    and self.spectral.degenerate.any():
                notes.append(f"note: {tid} skipped (degenerate spectrum)")
                continue
            reports[tid] = _REPORTS[tid][1](self)
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
    if stages != ["spectrum"]:  # the others read the coefficients and delta (see prepare)
        pipe.check("analysis.theorems", config.theorems if "bounds" in stages else (),
                   ["coeffs", "delta", *(["dynamics"] if "dynamics" in stages else [])])
        pipe.prepare()
    lines = []
    if run:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines = [
            f"# generated: {stamp}",
            f"config: {name}",
            f"seed: {config.seed}",
            f"model: {pipe.kind.source(config, pipe.spectral)}",
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

def _cmd_model_info(config: ExperimentConfig, args, name: str) -> list[str]:
    pipe = Pipeline(config)
    kind, layout = pipe.kind, pipe.spectral.layout
    lines = [f"model: {kind.source(config, pipe.spectral)}", f"seed: {config.seed}"]
    if layout is not None:
        lines.append(f"layout: dS={layout.dim_system} dB={layout.dim_bath} d={layout.dim_total}")
    if kind.norms:
        norms = kind.norms(pipe.parts())
        lines.append("part norms: system={:.6g} bath={:.6g} interaction={:.6g}"
                     .format(*norms[:3]))
        lines.append("commutator norms: [HSx1, HSB]={:.6g} [1xHB, HSB]={:.6g}"
                     .format(*norms[3:]))
    lines.extend(kind.info)
    lines.extend(_spectrum_lines(pipe))
    return lines


# ------------------------------------------------------------------ sweep --

# Each theorem id: the pipeline stage it reads, and its report.  A family of
# two reports is one stage, whose pair each id indexes: T0i and T0ii share the
# draws of the theorem0 stage, T1 and T1prime the search of the necessary
# stage (see RUN_SEEDS), and T2i and T2ii the Gram matrix of the theorem2 stage.
_REPORTS: dict[str, tuple[str, Callable[[Pipeline], TheoremReport]]] = {
    "SufficientISI": ("delta", lambda pipe: sufficient_condition_report(pipe.delta)),
    "T0i": ("theorem0", lambda pipe: pipe.theorem0[0]),
    "T0ii": ("theorem0", lambda pipe: pipe.theorem0[1]),
    "T1": ("necessary", lambda pipe: pipe.necessary[0]),
    "T1prime": ("necessary", lambda pipe: pipe.necessary[1]),
    "T2i": ("theorem2", lambda pipe: pipe.theorem2[0]),
    "T2ii": ("theorem2", lambda pipe: pipe.theorem2[1]),
    "Popescu": ("popescu", lambda pipe: popescu_report(
        pipe.layout, pipe.config.epsilon, pipe.config.n_samples, pipe.seed("popescu"))),
}

# Each sweep metric: the stage it reads (theorem2: its Gram matrix), and its value.
_SWEEP_METRICS: dict[str, tuple[str, Callable[[Pipeline], float]]] = {
    "delta": ("delta", lambda pipe: pipe.delta),
    "mean_squared_polarization": ("theorem2", lambda pipe: theorem2_lhs(pipe.reductions)[1]),
    "lhs_i": ("theorem2", lambda pipe: theorem2_lhs(pipe.reductions)[0]),
    "necessary_lhs": ("necessary", lambda pipe: pipe.necessary[0].lhs),
    "equilibration_metric": ("dynamics", lambda pipe: pipe.dynamics[3]),
    "min_level_spacing": ("spectral", lambda pipe: pipe.spectral.min_sector_spacing),
}

_LISTS = {"analysis.theorems": _REPORTS, "sweep.metrics": _SWEEP_METRICS}  # by config key

# What each stage needs of the config, refused by Pipeline.check before any
# draw: dS = 2 ("qubit"), the count of each key below its cap, dR <= dB and,
# for the stages that read the projection, a bath_prefix:k with k <= dB and a
# system state that fits dS unless the subspace is full; the stages that read
# the coefficients need both initial states to fit ("initial_state").
_NEEDS: dict[str, tuple[str, ...]] = {
    "spectral": (), "delta": ("analysis.subspace",), "theorem2": ("qubit",),
    "theorem0": ("analysis.n_samples", "analysis.subspace"),
    "popescu": ("analysis.n_samples",), "coeffs": ("initial_state",),
    "dynamics": ("dynamics.n_times", "initial_state"),
    "necessary": ("analysis.n_starts", "analysis.dim_restricted"),
}


def _draw_metrics(task: tuple[ExperimentConfig, int, int]) -> list[float]:
    """The sweep metrics of one draw at one grid point."""
    config, point, draw = task
    pipe = Pipeline(config, _draw_seeds(point, draw))
    return [float(_SWEEP_METRICS[metric][1](pipe)) for metric in config.sweep_metrics]


def _pooled_draws(tasks, jobs: int):
    """``_draw_metrics`` of each task, in order, with at most 2 * jobs tasks not yet taken."""
    from concurrent.futures import ProcessPoolExecutor  # only a sweep loads the pool
    with ProcessPoolExecutor(max_workers=jobs, initializer=run_on_one_thread) as pool:
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
    for point in varied:
        Pipeline(point).check("sweep.metrics", config.sweep_metrics)
    tasks = ((varied[point], point, draw)
             for point in range(len(values)) for draw in range(n_draws))
    jobs = min(args.jobs, len(values) * n_draws, usable_cpus())
    results = map(_draw_metrics, tasks) if jobs == 1 else _pooled_draws(tasks, jobs)
    # (points, metrics, draws), C-contiguous: each statistic reduces one row.
    data = np.empty((len(values), len(config.sweep_metrics), n_draws))
    for index, metrics in enumerate(results):
        data[index // n_draws, :, index % n_draws] = metrics
    means = data.mean(axis=-1)
    # row by row: data.std(axis=-1) would hold a second array of the draws
    errors = (np.apply_along_axis(np.std, -1, data, ddof=1) / math.sqrt(n_draws)
              if n_draws > 1 else np.zeros_like(means))

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
