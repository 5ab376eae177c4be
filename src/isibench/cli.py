"""Command-line front end.

Subcommands run the pipeline stages standalone or end to end:

    model-info   build the model and print dimensions, norms, commutators
    spectrum     diagonalize and write spectrum.csv with degeneracy checks
    equilibrium  eigenstate reductions, time-averaged state, delta
    bounds       evaluate the configured theorem reports
    dynamics     reduced evolution, trajectory.csv, equilibration metric
    sweep        repeat a metric over a model-parameter grid
    run          everything above plus summary.txt

Configs are flat INI-style text with one level of sections; unknown sections
or keys are errors.  Every run derives all randomness from a single root
seed, so identical configs give byte-identical data files (the only
timestamp lives in the summary header).
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .dynamics import Trajectory, equilibrate, stratified_times, write_trajectory_csv
from .equilibrium import (EigenstateReductions, OverlapCoefficients,
                          eigenstate_reductions, overlaps, time_averaged_state,
                          write_reductions_csv)
from .equilibrium import delta as subspace_delta
from .errors import (CapExceededError, ConfigError, DegenerateSpectrumError,
                     IsibenchError, ValidationError)
from .hilbert import (DensityMatrix, PureState, SpaceLayout, bloch_vector, purity,
                      tensor_product)
from .models import (analytic_eigensystem, build_commuting_model, build_random_model,
                     sample_commuting_spec, sample_cucchietti_spec)
from .sampling import (SubspaceBasis, bath_prefix_basis, full_basis, product_subspace,
                       sample_uniform_state, stream_generators)
from .spectral import (CompositeHamiltonian, SpectralData, check_nondegenerate_gaps,
                       check_nondegenerate_spectrum, eigendecompose, read_matrix,
                       write_csv)
from .theorems import (THEOREM_IDS, THEOREMS, TheoremReport, necessary_condition_lhs,
                       theorem2_lhs, theorem2_reports, write_report)
from .tolerances import DEFAULT, Tolerances

DEFAULT_SEED = 12345
DEFAULT_OUT_DIR = "isibench-out"

MODEL_KINDS = ("commuting", "cucchietti", "random", "file")

# Seed paths below the root seed, by stage.  Report k of THEOREM_IDS draws
# from (2, k); the draws of a sweep use their own table (see _draw_seeds).
RUN_SEEDS = {"model": (0,), "system": (1, 0), "bath": (1, 1), "bounds": (2,),
             "dynamics": (3,)}


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


def _parse_name_list(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part.strip()) for part in text.split(",") if part.strip())


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
            prefix != "bath_prefix" or not sep or not arg.isdigit() or int(arg) < 1):
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

    Together with _TOLERANCE_KEYS its fields are the config table: each one
    reads the entry its ConfigKey names and defaults to the field default.
    """

    kind: str = _key("model.kind", str.strip)
    seed: int = _key("model.seed", int, DEFAULT_SEED)
    dim_system: int | None = _key("model.dim_system", int, None, 2, ("random", "file"))
    dim_bath: int = _key("model.dim_bath", int, 16, 1, ("commuting", "random"))
    n_spins: int | None = _key("model.n_spins", int, None, 1, ("cucchietti",))
    level_splitting: float = _key("model.level_splitting", float, 1.0, kinds=_SPIN)
    coupling_scale: float = _key("model.coupling_scale", float, 1.0, kinds=_SPIN)
    energy_scale: float = _key("model.energy_scale", float, 1.0, kinds=("commuting",))
    field_scale: float = _key("model.field_scale", float, 1.0, kinds=("cucchietti",))
    interaction_strength: float = _key("model.interaction_strength", float, 1.0,
                                       kinds=("random",))
    matrix_path: str | None = _key("model.path", str.strip, kinds=("file",))
    initial_system: str = _key("initial_state.system", str.strip, "plus")
    initial_bath: str = _key("initial_state.bath", str.strip, "random")
    theorems: tuple[str, ...] = _key("analysis.theorems", _parse_theorems,
                                     ("SufficientISI", "T2i", "T2ii"))
    subspace: str = _key("analysis.subspace", _parse_subspace, "product_bath")
    dim_restricted: int | None = _key("analysis.dim_restricted", int, None, 1)
    epsilon: float = _key("analysis.epsilon", float, 0.05)
    p: float = _key("analysis.p", float, 1.0)
    n_samples: int = _key("analysis.n_samples", int, 400, 2)
    n_streams: int = _key("analysis.n_streams", int, 1, 1)
    n_starts: int = _key("analysis.n_starts", int, 512, 1)
    allow_degenerate: bool = _key("analysis.allow_degenerate", _parse_bool, False)
    dynamics_enabled: bool = _key("dynamics.enabled", _parse_bool, False)
    horizon_over_min_gap: float = _key("dynamics.horizon_over_min_gap", float, 1000.0,
                                       0.0)
    n_times: int = _key("dynamics.n_times", int, 2000, 1)
    sweep_parameter: str | None = _key("sweep.parameter", str.strip)
    sweep_values: tuple[float, ...] = _key("sweep.values", _parse_float_list, ())
    sweep_draws: int = _key("sweep.draws", int, 20, 1)
    sweep_metrics: tuple[str, ...] = _key("sweep.metrics", _parse_name_list,
                                          ("mean_squared_polarization",))
    out_dir: str = _key("output.dir", str.strip, DEFAULT_OUT_DIR)
    tolerances: Tolerances = DEFAULT


# The [tolerances] entries: the fields of Tolerances that a run reads.
_TOLERANCE_KEYS = {
    **{name: ConfigKey(f"tolerances.{name}", int, 1)
       for name in ("decompose_dim_cap", "gap_check_dim_cap")},
    **{name: ConfigKey(f"tolerances.{name}", _parse_finite, 0.0)
       for name in ("hamiltonian_asymmetry", "residual", "unitarity",
                    "spectrum_degeneracy", "gap_degeneracy", "eth_search_tol",
                    "sufficient_isi_threshold", "verdict_boundary")},
}
CONFIG_KEYS = {key.name: key for key in [
    *(f.metadata["key"] for f in fields(ExperimentConfig) if f.metadata),
    *_TOLERANCE_KEYS.values()]}


def bundled_config_names() -> tuple[str, ...]:
    root = resources.files("isibench").joinpath("configs")
    return tuple(sorted(entry.name[:-4] for entry in root.iterdir()
                        if entry.name.endswith(".cfg")))


def _load_raw_config(spec: str) -> tuple[str, str]:
    """Resolve --config to (display name, file text): a path or a bundled name."""
    path = Path(spec)
    if path.is_file():
        return str(path), path.read_text(encoding="utf-8")
    name = spec[:-4] if spec.endswith(".cfg") else spec
    candidate = resources.files("isibench").joinpath("configs", f"{name}.cfg")
    if candidate.is_file():
        return name, candidate.read_text(encoding="utf-8")
    raise ConfigError(
        f"config {spec!r} is neither a file nor a bundled config "
        f"(bundled: {', '.join(bundled_config_names())})"
    )


def _parse_sections(text: str, source: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       inline_comment_prefixes=("#",))
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
    # The numeric model keys of the kind but the seed; a matrix file has none.
    sweepable = [] if config.kind == "file" else sorted(
        name.partition(".")[2] for name, key in CONFIG_KEYS.items()
        if name.startswith("model.") and name != "model.seed"
        and config.kind in key.kinds and key.parse in (int, float))
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
    if CONFIG_KEYS[f"model.{parameter}"].parse is int:
        for value in values:
            if value != int(value) or value < 1:
                raise ConfigError(f"sweep.values for {parameter} must be "
                                  f"positive integers, got {value}")


def _extract_config(raw: dict[str, dict[str, str]], args) -> ExperimentConfig:
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

    given = {"kind": kind, "seed": args.seed, "out_dir": args.out}
    values = {f.name: given[f.name] if given.get(f.name) is not None
              else _read(raw, f.metadata["key"], f.default)
              for f in fields(ExperimentConfig) if f.metadata}
    tolerances = replace(DEFAULT, **{name: _read(raw, key, getattr(DEFAULT, name))
                                     for name, key in _TOLERANCE_KEYS.items()})
    config = ExperimentConfig(**values, tolerances=tolerances)
    if kind == "cucchietti" and config.n_spins is None:
        raise ConfigError("model kind cucchietti needs model.n_spins")
    if kind == "file" and config.matrix_path is None:
        raise ConfigError("model kind file needs model.path")
    if config.sweep_parameter is not None:
        _check_sweep(config)
    return config


# --------------------------------------------------------------- pipeline --

@dataclass
class ModelBundle:
    layout: SpaceLayout | None
    spectral: SpectralData
    hamiltonian: CompositeHamiltonian | None
    source: str


_S = 1.0 / math.sqrt(2.0)
_QUBIT_STATES = {"up": (1.0, 0.0), "down": (0.0, 1.0), "plus": (_S, _S), "minus": (_S, -_S)}


def _factor_state(name: str, dim: int, space: str, seed: int) -> PureState:
    if name == "random":
        rng = stream_generators(seed, 1)[0]
        return sample_uniform_state(full_basis(dim, space), rng)
    if name.startswith("basis:"):
        index_text = name.partition(":")[2]
        if not index_text.isdigit() or int(index_text) >= dim:
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

    Every command builds one pipeline, and every sweep draw builds its own
    with its own seed table.  Stages call the layer functions through this
    module's imports, so a tracer that wraps those names sees every call.
    """

    def __init__(self, config: ExperimentConfig,
                 seeds: dict[str, tuple[int, ...]] = RUN_SEEDS,
                 dense: bool = False) -> None:
        self.config = config
        self.seeds = seeds
        self.dense = dense  # also build the dense Hamiltonian of a commuting model

    def seed(self, stage: str, *path: int) -> int:
        return derived_seed(self.config.seed, *self.seeds[stage], *path)

    def prepare(self) -> "Pipeline":
        """Resolve the stages whose errors must come before any file is written."""
        _ = self.coeffs, self.delta
        return self

    @cached_property
    def model(self) -> ModelBundle:
        config, tol = self.config, self.config.tolerances
        rng = stream_generators(self.seed("model"), 1)[0]
        if config.kind in ("commuting", "cucchietti"):
            if config.kind == "commuting":
                spec = sample_commuting_spec(config.dim_bath, config.level_splitting,
                                             config.coupling_scale, config.energy_scale,
                                             rng)
                source = (f"commuting spin-bath (dS=2, dB={spec.dim_bath}, "
                          f"level splitting {config.level_splitting:g})")
            else:
                spec = sample_cucchietti_spec(config.n_spins, config.level_splitting,
                                              config.coupling_scale, config.field_scale,
                                              rng)
                source = (f"independent-spin bath (n_spins={config.n_spins}, dS=2, "
                          f"dB={spec.dim_bath})")
            dim_total = 2 * spec.dim_bath
            if dim_total > tol.decompose_dim_cap:
                raise CapExceededError(f"composite dimension {dim_total} exceeds the "
                                       f"cap {tol.decompose_dim_cap}")
            ham = build_commuting_model(spec, tol) if self.dense else None
            return ModelBundle(spec.layout, analytic_eigensystem(spec), ham, source)

        if config.kind == "random":
            ds = config.dim_system if config.dim_system is not None else 2
            ham = build_random_model(ds, config.dim_bath, config.interaction_strength,
                                     rng, tol)
            source = (f"random Gaussian model (dS={ds}, dB={config.dim_bath}, "
                      f"interaction strength {config.interaction_strength:g})")
            return ModelBundle(ham.layout, eigendecompose(ham, tol), ham, source)

        matrix, layout = read_matrix(config.matrix_path)
        if layout is None and config.dim_system is not None:
            dim = matrix.shape[0]
            if dim % config.dim_system != 0:
                raise ConfigError(f"matrix dimension {dim} is not divisible by "
                                  f"dim_system {config.dim_system}")
            layout = SpaceLayout(config.dim_system, dim // config.dim_system)
        elif layout is not None and config.dim_system is not None \
                and layout.dim_system != config.dim_system:
            raise ConfigError(f"model.dim_system {config.dim_system} contradicts the "
                              f"file's layout tag dS={layout.dim_system}")
        spectral = eigendecompose(matrix, tol)
        return ModelBundle(layout, spectral, None,
                           f"matrix file {config.matrix_path} (d={spectral.dim})")

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
    def coeffs(self) -> OverlapCoefficients:
        return overlaps(self.spectral, tensor_product(self.psi, self.phi))

    @cached_property
    def reductions(self) -> EigenstateReductions:
        return eigenstate_reductions(self.spectral, self.layout)

    @cached_property
    def subspace(self) -> SubspaceBasis:
        token, layout = self.config.subspace, self.layout
        if token == "full":
            return full_basis(layout.dim_total)
        if token == "product_bath":
            return product_subspace(self.psi, None, layout)
        prefix_dim = int(token.partition(":")[2])
        if prefix_dim > layout.dim_bath:
            raise ConfigError(f"subspace {token!r} exceeds the bath dimension "
                              f"{layout.dim_bath}")
        return product_subspace(self.psi, bath_prefix_basis(layout, prefix_dim), layout)

    @cached_property
    def delta(self) -> float:
        return subspace_delta(self.reductions, self.subspace, self.spectral)

    @cached_property
    def spectrum_check(self) -> tuple[bool, float]:
        """(nondegenerate, smallest level spacing)."""
        return check_nondegenerate_spectrum(self.spectral, self.config.tolerances)

    @property
    def notes(self) -> list[str]:
        if self.spectrum_check[0]:
            return []
        return ["note: spectrum is degenerate; the nondegeneracy hypothesis "
                "of the equilibrium formulas is violated"]

    @cached_property
    def rho_bar(self) -> DensityMatrix:
        return time_averaged_state(self.coeffs, self.reductions, self.spectral,
                                   self.config.tolerances,
                                   allow_degenerate=self.config.allow_degenerate)

    @cached_property
    def dynamics(self) -> tuple[float, Trajectory, float]:
        """(horizon, trajectory, mean trace distance to the time average)."""
        spectral = self.spectral
        if spectral.min_level_spacing <= 0.0:
            raise ValidationError("degenerate spectrum gives no gap timescale for the "
                                  "evolution horizon")
        horizon = self.config.horizon_over_min_gap / spectral.min_level_spacing
        rng = stream_generators(self.seed("dynamics"), 1)[0]
        times = stratified_times(horizon, self.config.n_times, rng)
        return (horizon, *equilibrate(self.coeffs, spectral, self.layout, times,
                                      self.rho_bar))

    @cached_property
    def theorem2(self) -> tuple[TheoremReport, TheoremReport]:
        return theorem2_reports(self.reductions, self.config.epsilon,
                                self.layout.dim_bath, 1.0, "asymptotic",
                                self.config.tolerances)

    @cached_property
    def reports(self) -> tuple[dict[str, TheoremReport], list[str]]:
        """The configured theorem reports, and notes on the ones skipped."""
        config = self.config
        reports: dict[str, TheoremReport] = {}
        notes: list[str] = []
        for tid in config.theorems:
            theorem = THEOREMS[tid]
            if theorem.nondegenerate and config.allow_degenerate \
                    and not self.spectrum_check[0]:
                notes.append(f"note: {tid} skipped (degenerate spectrum)")
                continue
            seed = self.seed("bounds", THEOREM_IDS.index(tid))
            reports[tid] = theorem.evaluate(self, config, seed)
        return reports, notes


# ------------------------------------------------------------------ lines --

def _spectrum_lines(pipe: Pipeline) -> list[str]:
    spectral, tolerances = pipe.spectral, pipe.config.tolerances
    spectrum_ok, spacing = pipe.spectrum_check
    lines = [
        f"dimension: {spectral.dim}",
        f"spectral norm: {spectral.spectral_norm:.6g}",
        f"min level spacing: {spacing:.6g}",
        f"nondegenerate spectrum: {str(spectrum_ok).lower()}",
    ]
    if spectral.dim > tolerances.gap_check_dim_cap:
        lines.append("nondegenerate gaps: skipped (dimension above cap)")
    else:
        gaps_ok, collision = check_nondegenerate_gaps(spectral, tolerances)
        lines.append(f"nondegenerate gaps: {str(gaps_ok).lower()} "
                     f"(min gap collision {collision:.6g})")
    return lines


def _write_spectrum_csv(path: Path, spectral: SpectralData) -> None:
    write_csv(path, ["n", "energy"], enumerate(spectral.eigenvalues))


def _report_lines(reports: dict[str, TheoremReport]) -> list[str]:
    lines = ["reports:"]
    for tid, report in reports.items():
        lines.append(f"  {tid}: lhs={report.lhs:.6g} rhs={report.rhs:.6g} "
                     f"verdict={report.verdict}")
    return lines


def _conclusion_line(config: ExperimentConfig, reports: dict[str, TheoremReport]
                     ) -> str:
    report = reports.get("T2ii")
    if report is None:
        return "conclusion: not evaluated (T2ii absent from analysis.theorems)"
    if report.verdict == "violated":
        if abs(report.lhs - 1.0) <= 1e-10:
            accuracy = "≈ 1/3"
        else:
            accuracy = f"≈ {report.lhs / 3.0:.6g}"
        return f"conclusion: system ISI cannot hold with accuracy better than {accuracy}"
    if report.verdict == "vacuous":
        return "conclusion: necessary-condition bound is vacuous at this scale"
    return (f"conclusion: no obstruction to system ISI at accuracy "
            f"{config.epsilon:g}")


def _equilibrium_lines(pipe: Pipeline) -> list[str]:
    rho_bar = pipe.rho_bar
    lines = [
        f"subspace: {pipe.config.subspace} (dR={pipe.subspace.dim_subspace})",
        f"delta: {pipe.delta:.12g}",
        f"sqrt(delta): {math.sqrt(pipe.delta):.12g}",
        f"time-averaged state purity: {purity(rho_bar):.6g}",
    ]
    if pipe.layout.dim_system == 2:
        p = bloch_vector(rho_bar)
        lines.append(f"time-averaged state polarization: "
                     f"({p.px:.6g}, {p.py:.6g}, {p.pz:.6g})")
    return lines


def _dynamics_lines(pipe: Pipeline) -> list[str]:
    horizon, _, metric = pipe.dynamics
    bound = 2.0 * pipe.layout.dim_system / math.sqrt(pipe.subspace.dim_subspace)
    return [
        f"dynamics: horizon={horizon:.6g} n_times={pipe.config.n_times}",
        f"mean distance to equilibrium: {metric:.6g}",
        f"equilibration bound 2 dS / sqrt(dR): {bound:.6g}",
    ]


def _out_dir(config: ExperimentConfig) -> Path:
    path = Path(config.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ------------------------------------------------------------- subcommands --

def _cmd_model_info(config: ExperimentConfig, args, name: str) -> list[str]:
    pipe = Pipeline(config, dense=True)
    model = pipe.model
    lines = [f"model: {model.source}", f"seed: {config.seed}"]
    if model.layout is not None:
        lines.append(f"layout: dS={model.layout.dim_system} "
                     f"dB={model.layout.dim_bath} d={model.layout.dim_total}")
    ham = model.hamiltonian
    if ham is not None:
        def norm(mat):
            return float(np.abs(np.linalg.eigvalsh(mat)).max())

        lines.append(f"part norms: system={norm(ham.system):.6g} "
                     f"bath={norm(ham.bath):.6g} "
                     f"interaction={norm(ham.interaction):.6g}")
        eye_b = np.eye(model.layout.dim_bath)
        eye_s = np.eye(model.layout.dim_system)
        lifted_s = np.kron(ham.system, eye_b)
        lifted_b = np.kron(eye_s, ham.bath)
        comm_s = lifted_s @ ham.interaction - ham.interaction @ lifted_s
        comm_b = lifted_b @ ham.interaction - ham.interaction @ lifted_b
        lines.append(f"commutator norms: [HSx1, HSB]={norm(1j * comm_s):.6g} "
                     f"[1xHB, HSB]={norm(1j * comm_b):.6g}")
    if config.kind == "random":
        lines.append("ensemble: independent Gaussian Hermitian parts, entry "
                     "variance 1/dim per part")
    lines.extend(_spectrum_lines(pipe))
    return lines


def _cmd_spectrum(config: ExperimentConfig, args, name: str) -> list[str]:
    pipe = Pipeline(config)
    spectral = pipe.spectral
    out = _out_dir(config)
    _write_spectrum_csv(out / "spectrum.csv", spectral)
    lines = _spectrum_lines(pipe)
    lines.append(f"wrote {out / 'spectrum.csv'}")
    return lines


def _cmd_equilibrium(config: ExperimentConfig, args, name: str) -> list[str]:
    pipe = Pipeline(config).prepare()
    out = _out_dir(config)
    write_reductions_csv(out / "reductions.csv", pipe.spectral, pipe.reductions)
    lines = _equilibrium_lines(pipe)
    lines.extend(pipe.notes)
    lines.append(f"wrote {out / 'reductions.csv'}")
    return lines


def _cmd_bounds(config: ExperimentConfig, args, name: str) -> list[str]:
    pipe = Pipeline(config).prepare()
    reports, notes = pipe.reports
    out = _out_dir(config)
    lines = _report_lines(reports)
    for tid, report in reports.items():
        path = out / f"report_{tid}.json"
        write_report(path, report)
        lines.append(f"wrote {path}")
    lines.extend(notes + pipe.notes)
    lines.append(_conclusion_line(config, reports))
    return lines


def _cmd_dynamics(config: ExperimentConfig, args, name: str) -> list[str]:
    pipe = Pipeline(config).prepare()
    lines = _dynamics_lines(pipe)
    out = _out_dir(config)
    write_trajectory_csv(out / "trajectory.csv", pipe.dynamics[1])
    lines.extend(pipe.notes)
    lines.append(f"wrote {out / 'trajectory.csv'}")
    return lines


def _cmd_run(config: ExperimentConfig, args, name: str) -> list[str]:
    pipe = Pipeline(config).prepare()
    out = _out_dir(config)
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    lines = [
        f"# generated: {stamp}",
        f"config: {name}",
        f"seed: {config.seed}",
        f"model: {pipe.model.source}",
        f"initial state: system={config.initial_system} bath={config.initial_bath}",
    ]
    lines.extend(_spectrum_lines(pipe))
    _write_spectrum_csv(out / "spectrum.csv", pipe.spectral)
    write_reductions_csv(out / "reductions.csv", pipe.spectral, pipe.reductions)
    lines.extend(_equilibrium_lines(pipe))
    reports, notes = pipe.reports
    for tid, report in reports.items():
        write_report(out / f"report_{tid}.json", report)
    lines.extend(_report_lines(reports))
    lines.extend(notes)
    if config.dynamics_enabled:
        lines.extend(_dynamics_lines(pipe))
        write_trajectory_csv(out / "trajectory.csv", pipe.dynamics[1])
    lines.extend(pipe.notes)
    lines.append(_conclusion_line(config, reports))
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return lines + [f"wrote {out / 'summary.txt'}"]


# ------------------------------------------------------------------ sweep --

# Metric of one sweep draw, each from the stages it needs.
_SWEEP_METRICS: dict[str, Callable[[Pipeline], float]] = {
    "delta": lambda pipe: pipe.delta,
    "mean_squared_polarization": lambda pipe: pipe.reductions.mean_squared_polarization,
    "lhs_i": lambda pipe: theorem2_lhs(pipe.reductions)[0],
    "necessary_lhs": lambda pipe: necessary_condition_lhs(
        pipe.reductions, n_starts=pipe.config.n_starts, seed=pipe.seed("search"),
        tolerances=pipe.config.tolerances),
    "equilibration_metric": lambda pipe: pipe.dynamics[2],
    "min_level_spacing": lambda pipe: pipe.spectral.min_level_spacing,
}


def _point_metrics(payload: tuple[ExperimentConfig, int, float]) -> dict:
    config, point_index, value = payload
    parameter = config.sweep_parameter
    cast = CONFIG_KEYS[f"model.{parameter}"].parse  # int or float, see _check_sweep
    varied = replace(config, **{parameter: cast(value)})
    samples: dict[str, list[float]] = {metric: [] for metric in varied.sweep_metrics}
    for draw in range(varied.sweep_draws):
        pipe = Pipeline(varied, _draw_seeds(point_index, draw))
        for metric in varied.sweep_metrics:
            samples[metric].append(float(_SWEEP_METRICS[metric](pipe)))
    row: dict[str, float] = {"value": value, "n_draws": varied.sweep_draws}
    for metric, values in samples.items():
        data = np.asarray(values)
        row[f"{metric}_mean"] = float(data.mean())
        row[f"{metric}_se"] = (float(data.std(ddof=1) / math.sqrt(data.size))
                               if data.size > 1 else 0.0)
    return row


def _cmd_sweep(config: ExperimentConfig, args, name: str) -> list[str]:
    if config.sweep_parameter is None:
        raise ConfigError("sweep needs a [sweep] section with parameter and values")
    values = sorted(config.sweep_values)
    payloads = [(config, index, value) for index, value in enumerate(values)]
    jobs = max(1, args.jobs)
    if jobs == 1 or len(payloads) == 1:
        rows = [_point_metrics(payload) for payload in payloads]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            rows = list(pool.map(_point_metrics, payloads))

    columns = ["parameter", "value", "n_draws"]
    for metric in config.sweep_metrics:
        columns.extend([f"{metric}_mean", f"{metric}_se"])
    path = _out_dir(config) / "sweep.csv"
    write_csv(path, columns, ([config.sweep_parameter] + [row[c] for c in columns[1:]]
                              for row in rows))

    lines = [f"sweep over {config.sweep_parameter} "
             f"({len(values)} points, {config.sweep_draws} draws each)"]
    for row in rows:
        parts = [f"{config.sweep_parameter}={row['value']:g}"]
        parts.extend(f"{metric}={row[f'{metric}_mean']:.6g}"
                     for metric in config.sweep_metrics)
        lines.append("  " + " ".join(parts))
    lines.append(f"wrote {path}")
    return lines


# ------------------------------------------------------------------- main --

_COMMANDS = {
    "run": (_cmd_run, "full pipeline with summary"),
    "model-info": (_cmd_model_info, "print model dimensions, norms, and commutator checks"),
    "spectrum": (_cmd_spectrum, "diagonalize and run degeneracy checks"),
    "equilibrium": (_cmd_equilibrium, "eigenstate reductions and the time-averaged state"),
    "bounds": (_cmd_bounds, "evaluate the configured theorem reports"),
    "dynamics": (_cmd_dynamics, "reduced evolution and equilibration metric"),
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
        sub.add_argument("--jobs", type=int, default=1,
                         help="parallel processes for sweep points")
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
        lines = _COMMANDS[args.command][0](config, args, name)
    except IsibenchError as err:
        print(f"error: {' '.join(str(err).split())}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(err, kind))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
