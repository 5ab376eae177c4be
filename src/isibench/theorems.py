"""Bound evaluation and verdicts for the independence theorems.

Each evaluator computes one inequality: an exact or Monte Carlo left-hand
side, the closed-form right-hand side, and a verdict.  Reports carry every
parameter needed to recompute the bound, so a serialized report can be
audited without rerunning the experiment.

Verdict semantics: ``satisfied``/``violated`` compare the two sides;
``vacuous`` flags a bound that exceeds the largest value its left-hand side
can take (several concentration bounds are numerically empty at the bath
sizes a workstation can diagonalize, and honesty about that is part of the
contract); ``indeterminate`` marks comparisons inside numerical or sampling
noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .equilibrium import (EigenstateReductions, require_nondegenerate,
                          subspace_averaged_equilibrium)
from .equilibrium import delta as subspace_delta
from .errors import ValidationError
from .hilbert import SpaceLayout, partial_trace_bath, trace_distance
from .sampling import (MonteCarloEstimate, SubspaceBasis, full_basis,
                       monte_carlo_average, sample_amplitudes, sample_uniform_columns,
                       stream_generators)
from .spectral import SpectralData
from .tolerances import DEFAULT, Tolerances

# Concentration rate constant of the Levy-type tail bounds, 1/(18 pi^3).
CONCENTRATION_RATE = 1.0 / (18.0 * math.pi**3)

VERDICTS = ("satisfied", "violated", "vacuous", "indeterminate")

_SCALAR_TYPES = (bool, int, float, str)


def concentration_tail(dim_restricted: int, epsilon: float) -> float:
    """Tail probability bound 2 exp(-c dR epsilon^2)."""
    if dim_restricted < 1:
        raise ValidationError(f"dR must be >= 1, got {dim_restricted}")
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    return 2.0 * math.exp(-CONCENTRATION_RATE * dim_restricted * epsilon * epsilon)


def theorem0_rhs(dim_system: int, dim_restricted: int,
                 delta_value: float) -> tuple[float, float]:
    """Mean-distance bounds (sqrt(dS delta / dR), sqrt(dS / dR)).

    The first is the sharp form; the second drops delta <= 1 and is the
    version quoted when delta is unknown.
    """
    if dim_system < 2:
        raise ValidationError(f"dS must be >= 2, got {dim_system}")
    if dim_restricted < 1:
        raise ValidationError(f"dR must be >= 1, got {dim_restricted}")
    lower = 1.0 / dim_system
    if not lower - 1e-9 <= delta_value <= 1.0 + 1e-9:
        raise ValidationError(f"delta = {delta_value} outside [{lower:.6g}, 1]")
    strong = math.sqrt(dim_system * delta_value / dim_restricted)
    weak = math.sqrt(dim_system / dim_restricted)
    return strong, weak


def epsilon_prime(epsilon: float, dim_system: int, dim_restricted: int,
                  p: float) -> float:
    """Accuracy constant of the necessary condition.

    epsilon + 2 sqrt(dS/dR) + 2 dR^{-1/3} + (8/p) exp(-c dR^{1/3}); the
    measure p = 0 makes the last term diverge, returned as infinity.  The
    dimension terms die off so slowly that the value only drops below one for
    astronomically large dR; callers should expect the vacuous regime at
    workstation scale.
    """
    if epsilon < 0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
    if dim_system < 2:
        raise ValidationError(f"dS must be >= 2, got {dim_system}")
    if dim_restricted < 1:
        raise ValidationError(f"dR must be >= 1, got {dim_restricted}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return math.inf
    cube_root = float(dim_restricted) ** (1.0 / 3.0)
    return (epsilon + 2.0 * math.sqrt(dim_system / dim_restricted)
            + 2.0 / cube_root + (8.0 / p) * math.exp(-CONCENTRATION_RATE * cube_root))


def theorem0_empirical_lhs(subspace: SubspaceBasis, spectral: SpectralData,
                           reductions: EigenstateReductions, n_samples: int,
                           seed: int, n_streams: int = 1,
                           tolerances: Tolerances = DEFAULT) -> MonteCarloEstimate:
    """Mean distance between sampled equilibrium states and the subspace average.

    Draws initial states Haar-uniformly from the subspace, forms each one's
    infinite-time average, and measures its trace distance to the exact
    subspace-averaged equilibrium state (the average is a quadratic
    functional of the state, so it has a closed form for every subspace).
    """
    require_nondegenerate(spectral, tolerances)
    return _equilibrium_distance_estimate(subspace, spectral, reductions, None,
                                          n_samples, seed, n_streams)


def _equilibrium_distance_estimate(subspace: SubspaceBasis, spectral: SpectralData,
                                   reductions: EigenstateReductions,
                                   threshold: float | None, n_samples: int, seed: int,
                                   n_streams: int) -> MonteCarloEstimate:
    """Distance of the equilibrium states of subspace draws to their average."""
    eigenvectors = spectral.eigenvectors
    matrices = reductions.matrices

    def equilibrium_state(column: np.ndarray) -> np.ndarray:
        populations = np.abs(eigenvectors.conj().T @ column) ** 2
        return np.einsum("n,nij->ij", populations, matrices)

    reference = subspace_averaged_equilibrium(subspace, reductions, spectral).matrix
    return _distance_estimate(equilibrium_state, reference, subspace, threshold,
                              n_samples, seed, n_streams)


def _distance_estimate(state_of: Callable[[np.ndarray], np.ndarray],
                       reference: np.ndarray, basis: SubspaceBasis,
                       threshold: float | None, n_samples: int, seed: int,
                       n_streams: int) -> MonteCarloEstimate:
    """Monte Carlo over Haar draws from ``basis`` of one state's distance to ``reference``.

    ``state_of`` maps a drawn column to its state.  With a ``threshold`` each
    draw counts 1 when its distance exceeds it and 0 otherwise, so the mean
    is the exceedance frequency.
    """
    def distance(column: np.ndarray) -> float:
        value = trace_distance(state_of(column), reference)
        return value if threshold is None else float(value > threshold)

    def draw(rng: np.random.Generator) -> np.ndarray:
        return sample_uniform_columns(basis, 1, rng)[:, 0]

    return monte_carlo_average(distance, draw, n_samples, seed, n_streams)


def necessary_condition_lhs(reductions: EigenstateReductions,
                            n_starts: int = 512, seed: int = 0,
                            tolerances: Tolerances = DEFAULT) -> float:
    """sup over system states of || bath-averaged equilibrium - I/dS ||.

    For a qubit the supremum is exact: the bath-averaged equilibrium state
    for a system state with polarization p0 has polarization A p0 with
    A = (1/d) sum_n p_n p_n^T, so the supremum is the largest eigenvalue of
    the 3x3 matrix A.  For larger systems the value is a lower bound from
    ``n_starts`` Haar starts refined by coordinate ascent (the assumed
    nondegenerate spectrum is the caller's responsibility here).
    """
    layout = reductions.layout
    if layout.dim_system == 2:
        gram = reductions.bloch.T @ reductions.bloch
        return float(np.linalg.eigvalsh(gram / reductions.dim)[-1])
    if n_starts < 1:
        raise ValidationError(f"n_starts must be >= 1, got {n_starts}")
    ds = layout.dim_system
    quad = np.einsum("nij,nkl->ijkl", reductions.matrices,
                     reductions.matrices) / layout.dim_bath
    mixed = np.eye(ds) / ds

    def objective(psi: np.ndarray) -> float:
        averaged = np.einsum("ijkl,k,l->ij", quad, psi.conj(), psi)
        return float(np.abs(np.linalg.eigvalsh(averaged - mixed)).sum())

    rng = stream_generators(seed, 1)[0]
    starts = sample_amplitudes(ds, n_starts, rng)
    best = 0.0
    for s in range(n_starts):
        psi = starts[:, s]
        value = objective(psi)
        step = 0.5
        while step > tolerances.eth_search_tol:
            improved = False
            for j in range(ds):
                for direction in (1.0, -1.0, 1.0j, -1.0j):
                    trial = psi.copy()
                    trial[j] += step * direction
                    trial /= np.linalg.norm(trial)
                    trial_value = objective(trial)
                    if trial_value > value:
                        value, psi, improved = trial_value, trial, True
            if not improved:
                step *= 0.5
        best = max(best, value)
    return best


def theorem2_lhs(reductions: EigenstateReductions) -> tuple[float, float]:
    """Qubit polarization statistics (sqrt(tr G^2)/d, tr G / d).

    G = sum_n p_n p_n^T over the eigenstate polarizations; the first entry is
    the root-mean pairwise alignment [(1/d^2) sum_{nm} (p_n, p_m)^2]^{1/2},
    the second the mean squared polarization (1/d) sum_n |p_n|^2.
    """
    if reductions.bloch is None:
        raise ValidationError("polarization statistics are defined for qubit systems")
    d = reductions.dim
    gram = reductions.bloch.T @ reductions.bloch
    lhs_i = math.sqrt(float(np.einsum("ab,ba->", gram, gram))) / d
    lhs_ii = float(np.trace(gram)) / d
    return lhs_i, lhs_ii


def popescu_bound(dim_system: int, dim_bath: int,
                  epsilon: float) -> tuple[float, float]:
    """Typicality bound for instantaneous reductions of Haar composite states.

    Returns the distance threshold sqrt(dS/dB) + epsilon and the probability
    bound 2 exp(-c dB epsilon^2) for exceeding it.
    """
    if dim_system < 2 or dim_bath < 1:
        raise ValidationError(f"need dS >= 2 and dB >= 1, got ({dim_system}, {dim_bath})")
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    return (math.sqrt(dim_system / dim_bath) + epsilon,
            concentration_tail(dim_bath, epsilon))


def popescu_tail_frequency(layout: SpaceLayout, epsilon: float, n_samples: int,
                           seed: int, n_streams: int = 1) -> MonteCarloEstimate:
    """Frequency of Haar composite states whose reduction strays from I/dS.

    Samples the full composite space and counts reductions farther than
    sqrt(dS/dB) + epsilon from the maximally mixed state in trace distance.
    """
    threshold, _ = popescu_bound(layout.dim_system, layout.dim_bath, epsilon)
    mixed = np.eye(layout.dim_system) / layout.dim_system
    return _distance_estimate(lambda column: partial_trace_bath(column, layout).matrix,
                              mixed, full_basis(layout.dim_total), threshold, n_samples,
                              seed, n_streams)


def _necessary_rhs(p: dict) -> float:
    return epsilon_prime(float(p["epsilon"]), int(p["dS"]), int(p["dR"]), float(p["p"]))


def _qubit_rhs(factor: float) -> Callable[[dict], float]:
    """T2 bound: ``factor`` times epsilon, or times the full accuracy constant."""
    def rhs(p: dict) -> float:
        mode = p.get("bound_mode", "asymptotic")
        if mode == "asymptotic":
            return factor * float(p["epsilon"])
        if mode == "formula":
            return factor * _necessary_rhs(p)
        raise ValidationError(f"unknown bound_mode {mode!r}")
    return rhs


@dataclass(frozen=True)
class Theorem:
    """One entry of the theorem registry.

    ``rhs`` recomputes the bound from a report's parameters, and ``max_lhs``
    is the largest value the left-hand side can take (bounds at or above it
    are vacuous).  ``evaluate(pipe, config, seed)`` builds the report from
    the stages of a ``cli.Pipeline``.  ``nondegenerate`` marks the reports
    whose formulas need a nondegenerate spectrum.
    """

    rhs: Callable[[dict], float]
    max_lhs: Callable[[dict], float]
    evaluate: Callable[[Any, Any, int], "TheoremReport"]
    nondegenerate: bool = False


def _one(p: dict) -> float:
    return 1.0


def _necessary_max(p: dict) -> float:
    return 2.0 * (1.0 - 1.0 / int(p["dS"]))


# Probabilities and qubit polarization statistics cap at 1.  The
# necessary-condition supremum compares a density matrix against the
# maximally mixed state, so it caps at 2(1 - 1/dS) (a Bloch-vector norm, at
# most 1, for qubits).  Mean trace distances cap at 2.  The evaluators look
# up the report builders by name when they run, so that a tracer that wraps
# this module's functions sees the calls.  The order fixes each report's
# seed (its index here) and must not change.
THEOREMS = {
    "SufficientISI": Theorem(
        lambda p: float(p["threshold"]), _one,
        lambda pipe, c, seed: sufficient_condition_report(pipe.delta,
                                                          tolerances=c.tolerances)),
    "T0i": Theorem(
        lambda p: theorem0_rhs(int(p["dS"]), int(p["dR"]), float(p["delta"]))[0],
        lambda p: 2.0,
        lambda pipe, c, seed: theorem0_mean_report(
            pipe.subspace, pipe.spectral, pipe.reductions, c.n_samples, seed,
            c.n_streams, c.tolerances),
        nondegenerate=True),
    "T0ii": Theorem(
        lambda p: concentration_tail(int(p["dR"]), float(p["epsilon"])), _one,
        lambda pipe, c, seed: theorem0_tail_report(
            pipe.subspace, pipe.spectral, pipe.reductions, c.epsilon, c.n_samples,
            seed, c.n_streams, c.tolerances),
        nondegenerate=True),
    "T1": Theorem(
        _necessary_rhs, _necessary_max,
        lambda pipe, c, seed: necessary_condition_report(
            pipe.reductions, c.epsilon, c.dim_restricted or pipe.layout.dim_bath, c.p,
            "T1", c.n_starts, seed, c.tolerances)),
    "T1prime": Theorem(
        _necessary_rhs, _necessary_max,
        lambda pipe, c, seed: necessary_condition_report(
            pipe.reductions, c.epsilon, pipe.layout.dim_bath, 1.0, "T1prime",
            c.n_starts, seed, c.tolerances)),
    "T2i": Theorem(_qubit_rhs(math.sqrt(3.0)), _one,
                   lambda pipe, c, seed: pipe.theorem2[0]),
    "T2ii": Theorem(_qubit_rhs(3.0), _one, lambda pipe, c, seed: pipe.theorem2[1]),
    "Popescu": Theorem(
        lambda p: concentration_tail(int(p["dB"]), float(p["epsilon"])), _one,
        lambda pipe, c, seed: popescu_report(pipe.layout, c.epsilon, c.n_samples, seed,
                                             c.n_streams, c.tolerances)),
}
THEOREM_IDS = tuple(THEOREMS)


def _theorem(theorem_id: str) -> Theorem:
    if theorem_id not in THEOREMS:
        raise ValidationError(f"unknown theorem id {theorem_id!r}")
    return THEOREMS[theorem_id]


def max_possible_lhs(theorem_id: str, parameters: dict) -> float:
    """Largest value the report's left-hand side can take, for vacuity checks."""
    return _theorem(theorem_id).max_lhs(parameters)


def recompute_rhs(theorem_id: str, parameters: dict) -> float:
    """Right-hand side recomputed from a report's recorded parameters."""
    theorem = _theorem(theorem_id)
    try:
        return theorem.rhs(parameters)
    except KeyError as missing:
        raise ValidationError(
            f"report for {theorem_id} is missing parameter {missing.args[0]!r}"
        ) from None


def assign_verdict(theorem_id: str, lhs: float, rhs: float,
                   parameters: dict) -> str:
    """Verdict policy shared by all report builders.

    Vacuity is checked first (a bound at or beyond the metric's range decides
    nothing); comparisons inside the numerical boundary, or inside two
    standard errors for Monte Carlo left-hand sides, are indeterminate.
    """
    if rhs >= max_possible_lhs(theorem_id, parameters):
        return "vacuous"
    boundary = float(parameters.get("verdict_boundary", DEFAULT.verdict_boundary))
    se = parameters.get("lhs_standard_error")
    slack = boundary if se is None else max(boundary, 2.0 * float(se))
    if abs(lhs - rhs) <= slack:
        return "indeterminate"
    return "satisfied" if lhs <= rhs else "violated"


@dataclass(frozen=True)
class TheoremReport:
    """One evaluated inequality with everything needed to audit it.

    Construction enforces self-consistency: the stored right-hand side must
    be recomputable from the recorded parameters, and the verdict must match
    the shared policy applied to the stored sides.
    """

    theorem_id: str
    lhs: float
    rhs: float
    verdict: str
    parameters: dict = field(default_factory=dict)
    schema_version: int = 1

    def __post_init__(self) -> None:
        if self.theorem_id not in THEOREM_IDS:
            raise ValidationError(f"unknown theorem id {self.theorem_id!r}")
        if self.verdict not in VERDICTS:
            raise ValidationError(f"unknown verdict {self.verdict!r}")
        if self.schema_version != 1:
            raise ValidationError(f"unsupported schema version {self.schema_version}")
        if not isinstance(self.lhs, (int, float)) or not math.isfinite(self.lhs):
            raise ValidationError(f"lhs must be finite, got {self.lhs!r}")
        if not isinstance(self.rhs, (int, float)) or math.isnan(self.rhs):
            raise ValidationError(f"rhs must be a number, got {self.rhs!r}")
        for key, value in self.parameters.items():
            if not isinstance(key, str):
                raise ValidationError(f"parameter keys must be strings, got {key!r}")
            if not isinstance(value, _SCALAR_TYPES):
                raise ValidationError(f"parameter {key!r} is not a scalar: {value!r}")
        recomputed = recompute_rhs(self.theorem_id, self.parameters)
        if math.isinf(self.rhs) or math.isinf(recomputed):
            consistent = self.rhs == recomputed
        else:
            consistent = abs(self.rhs - recomputed) <= 1e-12 * max(1.0, abs(self.rhs))
        if not consistent:
            raise ValidationError(
                f"rhs {self.rhs!r} not reproducible from parameters "
                f"(recomputed {recomputed!r})"
            )
        expected = assign_verdict(self.theorem_id, self.lhs, self.rhs, self.parameters)
        if self.verdict != expected:
            raise ValidationError(
                f"verdict {self.verdict!r} contradicts the policy ({expected!r}) "
                f"for lhs={self.lhs!r}, rhs={self.rhs!r}"
            )

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "theorem_id": self.theorem_id,
            "lhs": self.lhs,
            "rhs": _encode_scalar(self.rhs),
            "verdict": self.verdict,
            "parameters": {k: _encode_scalar(v) for k, v in self.parameters.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TheoremReport":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValidationError(f"malformed report JSON: {err}") from None
        if not isinstance(payload, dict):
            raise ValidationError("report JSON must be an object")
        try:
            return cls(
                theorem_id=payload["theorem_id"],
                lhs=float(payload["lhs"]),
                rhs=_decode_scalar(payload["rhs"]),
                verdict=payload["verdict"],
                parameters={k: _decode_scalar(v)
                            for k, v in payload["parameters"].items()},
                schema_version=int(payload["schema_version"]),
            )
        except KeyError as missing:
            raise ValidationError(f"report JSON lacks field {missing.args[0]!r}") from None


def _encode_scalar(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _decode_scalar(value):
    if value == "inf":
        return math.inf
    if isinstance(value, (int, float, str, bool)):
        return value
    raise ValidationError(f"non-scalar value in report JSON: {value!r}")


def write_report(path, report: TheoremReport) -> None:
    Path(path).write_text(report.to_json(), encoding="utf-8")


def read_report(path) -> TheoremReport:
    return TheoremReport.from_json(Path(path).read_text(encoding="utf-8"))


def _float_params(mapping: dict) -> dict:
    """Coerce numpy scalars to plain Python so reports serialize cleanly."""
    out = {}
    for key, value in mapping.items():
        if isinstance(value, (bool, str)):
            out[key] = value
        elif isinstance(value, (int, np.integer)):
            out[key] = int(value)
        else:
            out[key] = float(value)
    return out


def _report(theorem_id: str, lhs: float, rhs: float, parameters: dict,
            tolerances: Tolerances) -> TheoremReport:
    """The report and its verdict; a non-default verdict boundary is recorded."""
    if tolerances.verdict_boundary != DEFAULT.verdict_boundary:
        parameters["verdict_boundary"] = tolerances.verdict_boundary
    lhs, rhs = float(lhs), float(rhs)
    verdict = assign_verdict(theorem_id, lhs, rhs, parameters)
    return TheoremReport(theorem_id, lhs, rhs, verdict, parameters)


def sufficient_condition_report(delta_value: float, threshold: float | None = None,
                                tolerances: Tolerances = DEFAULT) -> TheoremReport:
    """Report on the smallness condition sqrt(delta) << 1.

    The condition is sufficient for subspace independence, so the verdict
    says whether the condition itself holds against the configured smallness
    threshold: satisfied guarantees independence, violated only withholds
    the guarantee.
    """
    if not 0.0 < delta_value <= 1.0 + 1e-9:
        raise ValidationError(f"delta must lie in (0, 1], got {delta_value}")
    if threshold is None:
        threshold = tolerances.sufficient_isi_threshold
    if threshold <= 0:
        raise ValidationError(f"threshold must be positive, got {threshold}")
    lhs = math.sqrt(delta_value)
    parameters = _float_params({"delta": delta_value, "threshold": threshold})
    return _report("SufficientISI", lhs, threshold, parameters, tolerances)


def theorem0_mean_report(subspace: SubspaceBasis, spectral: SpectralData,
                         reductions: EigenstateReductions, n_samples: int, seed: int,
                         n_streams: int = 1,
                         tolerances: Tolerances = DEFAULT) -> TheoremReport:
    """Empirical mean equilibrium distance against sqrt(dS delta / dR)."""
    delta_value = subspace_delta(reductions, subspace, spectral)
    ds = reductions.layout.dim_system
    dr = subspace.dim_subspace
    strong, weak = theorem0_rhs(ds, dr, delta_value)
    estimate = theorem0_empirical_lhs(subspace, spectral, reductions, n_samples,
                                      seed, n_streams, tolerances)
    parameters = _float_params({
        "dS": ds, "dR": dr, "delta": delta_value, "n_samples": n_samples,
        "seed": seed, "n_streams": n_streams,
        "lhs_standard_error": estimate.standard_error, "weak_rhs": weak,
    })
    return _report("T0i", estimate.mean, strong, parameters, tolerances)


def theorem0_tail_report(subspace: SubspaceBasis, spectral: SpectralData,
                         reductions: EigenstateReductions, epsilon: float,
                         n_samples: int, seed: int, n_streams: int = 1,
                         tolerances: Tolerances = DEFAULT) -> TheoremReport:
    """Empirical exceedance frequency against 2 exp(-c dR epsilon^2)."""
    require_nondegenerate(spectral, tolerances)
    delta_value = subspace_delta(reductions, subspace, spectral)
    ds = reductions.layout.dim_system
    dr = subspace.dim_subspace
    strong, _ = theorem0_rhs(ds, dr, delta_value)
    bound = concentration_tail(dr, epsilon)
    estimate = _equilibrium_distance_estimate(subspace, spectral, reductions,
                                              strong + epsilon, n_samples, seed,
                                              n_streams)
    parameters = _float_params({
        "dS": ds, "dR": dr, "delta": delta_value, "epsilon": epsilon,
        "distance_threshold": strong + epsilon, "c": CONCENTRATION_RATE,
        "n_samples": n_samples, "seed": seed, "n_streams": n_streams,
        "lhs_standard_error": estimate.standard_error,
    })
    return _report("T0ii", estimate.mean, bound, parameters, tolerances)


def necessary_condition_report(reductions: EigenstateReductions, epsilon: float,
                               dim_restricted: int, p: float,
                               theorem_id: str = "T1prime", n_starts: int = 512,
                               seed: int = 0,
                               tolerances: Tolerances = DEFAULT) -> TheoremReport:
    """Necessary-condition supremum against the accuracy constant.

    ``T1`` evaluates the restricted-bath form (dR and p as configured);
    ``T1prime`` the full-bath form, where dR is the bath dimension and p = 1.
    A violated verdict means independence at the stated accuracy is
    impossible; at workstation dimensions the bound is usually vacuous.
    """
    if theorem_id not in ("T1", "T1prime"):
        raise ValidationError(f"theorem_id must be T1 or T1prime, got {theorem_id!r}")
    ds = reductions.layout.dim_system
    lhs = necessary_condition_lhs(reductions, n_starts=n_starts, seed=seed,
                                  tolerances=tolerances)
    rhs = epsilon_prime(epsilon, ds, dim_restricted, p)
    parameters = _float_params({
        "epsilon": epsilon, "dS": ds, "dR": dim_restricted, "p": p,
        "c": CONCENTRATION_RATE,
    })
    if ds > 2:
        parameters.update(_float_params({"n_starts": n_starts, "seed": seed}))
        parameters["lhs_is_lower_bound"] = True
    return _report(theorem_id, lhs, rhs, parameters, tolerances)


def theorem2_reports(reductions: EigenstateReductions, epsilon: float,
                     dim_restricted: int, p: float = 1.0,
                     bound_mode: str = "asymptotic",
                     tolerances: Tolerances = DEFAULT
                     ) -> tuple[TheoremReport, TheoremReport]:
    """Qubit necessary conditions: pairwise alignment and mean squared polarization.

    ``bound_mode='asymptotic'`` compares against sqrt(3) epsilon and
    3 epsilon, the large-bath limit in which the dimension and tail terms of
    the accuracy constant vanish; this is the reading under which a mean
    squared polarization of 1 forbids independence at accuracy better than
    about 1/3.  ``bound_mode='formula'`` keeps the finite-size constant and
    is usually vacuous.  The full constant is recorded either way.
    """
    if bound_mode not in ("asymptotic", "formula"):
        raise ValidationError(f"unknown bound_mode {bound_mode!r}")
    if epsilon < 0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
    lhs_i, lhs_ii = theorem2_lhs(reductions)
    full_constant = epsilon_prime(epsilon, 2, dim_restricted, p)
    base = _float_params({
        "epsilon": epsilon, "dS": 2, "dR": dim_restricted, "p": p,
        "c": CONCENTRATION_RATE, "epsilon_prime": full_constant,
    })
    base["bound_mode"] = bound_mode
    scale = epsilon if bound_mode == "asymptotic" else full_constant
    return (_report("T2i", lhs_i, math.sqrt(3.0) * scale, dict(base), tolerances),
            _report("T2ii", lhs_ii, 3.0 * scale, dict(base), tolerances))


def popescu_report(layout: SpaceLayout, epsilon: float, n_samples: int, seed: int,
                   n_streams: int = 1,
                   tolerances: Tolerances = DEFAULT) -> TheoremReport:
    """Typicality of instantaneous reductions over the full composite space."""
    threshold, bound = popescu_bound(layout.dim_system, layout.dim_bath, epsilon)
    estimate = popescu_tail_frequency(layout, epsilon, n_samples, seed, n_streams)
    parameters = _float_params({
        "dS": layout.dim_system, "dB": layout.dim_bath, "epsilon": epsilon,
        "distance_threshold": threshold, "c": CONCENTRATION_RATE,
        "n_samples": n_samples, "seed": seed, "n_streams": n_streams,
        "lhs_standard_error": estimate.standard_error,
    })
    return _report("Popescu", estimate.mean, bound, parameters, tolerances)
