"""Bound evaluation and verdicts for the independence theorems.

Each evaluator computes one inequality: an exact or Monte Carlo left-hand
side, the closed-form right-hand side, and a verdict.  A ``TheoremReport``
holds only the theorem, the left-hand side and the parameters it records;
the right-hand side (the theorem's ``THEOREMS`` entry, the one place each
bound is computed) and the verdict are derived from them on construction.
So a serialized report can be audited without rerunning the experiment:
``read_report`` refuses a file whose recorded bound or verdict is not the
derived one.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .equilibrium import (EigenstateReductions, require_nondegenerate, weighted_purity,
                          weighted_reduction)
from .errors import ValidationError
# trace_distance is kept importable from here: the benchmark's tracer test
# looks it up under this module.
from .hilbert import (DensityMatrix, SpaceLayout, batched_trace_distances,  # noqa: F401
                      trace_distance)
from .sampling import (MonteCarloEstimate, batched_monte_carlo, generator,
                       induced_states, sample_amplitudes)
from .spectral import DenseProjection, GroupedProjection, SpectralData

# Concentration rate constant of the Levy-type tail bounds, 1/(18 pi^3).
CONCENTRATION_RATE = 1.0 / (18.0 * math.pi**3)

SUFFICIENT_ISI_THRESHOLD = 0.1  # smallness cutoff for sqrt(delta)
VERDICT_BOUNDARY = 1e-9         # |lhs - rhs| window reported as indeterminate

VERDICTS = ("satisfied", "violated", "vacuous", "indeterminate")
REPORT_SCHEMA_VERSION = 1       # "schema_version" of a report's JSON

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


@dataclass(frozen=True)
class Theorem0Estimate:
    """The one draw set that the T0i and T0ii reports share.

    Initial states are drawn Haar-uniformly from the subspace R, and
    ``estimate`` has two components per draw: the trace distance of its
    infinite-time average to the exact subspace-averaged equilibrium state,
    and whether that distance exceeds ``threshold``, the sharp bound
    sqrt(dS delta / dR) plus ``epsilon``.  Derived on construction from
    ``theorem0_rhs``: ``threshold`` and ``weak``, the bound sqrt(dS / dR).
    """

    dim_system: int
    dim_restricted: int
    delta: float
    epsilon: float
    estimate: MonteCarloEstimate

    def __post_init__(self) -> None:
        strong, weak = theorem0_rhs(self.dim_system, self.dim_restricted, self.delta)
        object.__setattr__(self, "weak", weak)
        object.__setattr__(self, "threshold", strong + self.epsilon)


def theorem0_estimate(projection: DenseProjection | GroupedProjection,
                      spectral: SpectralData, reductions: EigenstateReductions,
                      epsilon: float, n_samples: int, seed: int) -> Theorem0Estimate:
    """delta, the bounds of theorem0_rhs, and the draws of the T0 reports.

    The projection W = B^H V of R on the eigenbasis gives the weights (so
    delta and the average) and the draw: Haar-uniform amplitudes a whose
    populations |(a^H W)_n|^2 weight the eigenstate reductions (one GEMM per
    chunk) for a dense W, or Dirichlet weights on a (dR, dS, dS) stack
    built once for a grouped W.
    """
    require_nondegenerate(spectral)
    weights = projection.weights
    delta_value = weighted_purity(weights, reductions)
    dim_r, ds = projection.dim, reductions.layout.dim_system
    threshold = theorem0_rhs(ds, dim_r, delta_value)[0] + epsilon
    reference = DensityMatrix(weighted_reduction(weights, reductions)).matrix
    draw, width, states_of = projection.sampler(reductions.matrices)

    def values(draws: np.ndarray) -> np.ndarray:
        distances = batched_trace_distances(states_of(draws), reference)
        return np.stack([distances, (distances > threshold).astype(float)], axis=1)

    estimate = batched_monte_carlo(values, draw, width, n_samples, seed)
    return Theorem0Estimate(ds, dim_r, delta_value, epsilon, estimate)


def necessary_condition_lhs(reductions: EigenstateReductions,
                            n_starts: int = 512, seed: int = 0) -> float:
    """sup over system states of || bath-averaged equilibrium - I/dS ||.

    For a qubit the supremum is exact: the bath-averaged equilibrium state
    for a system state with polarization p0 has polarization A p0 with
    A = (1/d) sum_n p_n p_n^T, so the supremum is the largest eigenvalue of
    the 3x3 matrix A.  For larger systems the value is a lower bound from
    ``n_starts`` Haar starts, each refined by alternating maximisation: a step
    sets O = sign(X) for X = (1/dB) sum_n <psi|rho_n|psi> rho_n - I/dS, then
    psi to the top eigenvector of sum_n tr(O rho_n) rho_n.  As ||X|| is the
    maximum of tr(O X) over ||O|| <= 1, no step can lower the objective; a
    start stops when it no longer strictly increases.  (The assumed
    nondegenerate spectrum is the caller's responsibility here.)

    All starts step together.  Both sums are one product with the dS^2 x dS^2
    Gram matrix K = (1/dB) sum_n vec(rho_n) vec(rho_n)^H, built once:
    X = unvec(K vec(psi psi^H)) - I/dS, and sum_n tr(O rho_n) rho_n =
    dB unvec(K vec(O)).  So a step costs two batched ``eigh`` calls on the
    (active starts, dS, dS) stack whatever dB is, and a start leaves the
    stack at its stopping step.
    """
    layout = reductions.layout
    ds = layout.dim_system
    if ds == 2:
        gram = reductions.bloch.T @ reductions.bloch
        return float(np.linalg.eigvalsh(gram / reductions.dim)[-1])
    if n_starts < 1:
        raise ValidationError(f"n_starts must be >= 1, got {n_starts}")
    rows = reductions.matrices.reshape(reductions.dim, ds * ds)
    # transpose(K), so that a stack of row-major vec's maps as stack @ gram_t
    gram_t = rows.conj().T @ rows / layout.dim_bath
    mixed = np.eye(ds) / ds
    rng = generator(seed)
    psi = sample_amplitudes(ds, n_starts, rng).T
    values = np.full(n_starts, -math.inf)
    active = np.arange(n_starts)
    while active.size:
        projectors = psi[:, :, None] * psi[:, None, :].conj()
        levels, vectors = np.linalg.eigh(
            (projectors.reshape(-1, ds * ds) @ gram_t).reshape(-1, ds, ds) - mixed)
        objective = np.abs(levels).sum(axis=1)
        rising = objective > values[active]
        active, psi = active[rising], psi[rising]
        values[active] = objective[rising]
        vectors, levels = vectors[rising], levels[rising]
        sign = (vectors * np.sign(levels)[:, None, :]) @ vectors.conj().transpose(0, 2, 1)
        psi = np.linalg.eigh((sign.reshape(-1, ds * ds) @ gram_t).reshape(-1, ds, ds)
                             )[1][:, :, -1]
    return max(0.0, float(values.max()))


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


def _necessary_rhs(p: dict) -> float:
    return epsilon_prime(float(p["epsilon"]), int(p["dS"]), int(p["dR"]), float(p["p"]))


@dataclass(frozen=True)
class Theorem:
    """One entry of the theorem registry.

    ``rhs`` computes the bound from a report's parameters, for the report
    builders and for audits alike, and ``max_lhs`` is the largest value the
    left-hand side can take (bounds at or above it are vacuous).
    ``evaluate(pipe, seed)`` builds the report from the stages of a
    ``cli.Pipeline``.  ``nondegenerate`` marks the reports whose formulas need
    a nondegenerate spectrum.
    """

    rhs: Callable[[dict], float]
    max_lhs: Callable[[dict], float]
    evaluate: Callable[[Any, int], "TheoremReport"]
    nondegenerate: bool = False


def _necessary_report(pipe: Any, theorem_id: str, dim_restricted: int,
                      p: float) -> "TheoremReport":
    """The T1 or T1prime report on the pipeline's one necessary-condition search."""
    config = pipe.config
    return necessary_condition_report(
        pipe.necessary_lhs, pipe.layout.dim_system, config.epsilon, dim_restricted, p,
        theorem_id, config.n_starts, pipe.seed("search"))


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
# seed (its index here) and must not change; T0i and T0ii share the draws of
# the pipeline's theorem0 stage, which takes T0i's seed, and T1 and T1prime
# share its necessary-condition search, which takes T1's.
THEOREMS = {
    "SufficientISI": Theorem(
        lambda p: float(p["threshold"]), _one,
        lambda pipe, seed: sufficient_condition_report(pipe.delta)),
    "T0i": Theorem(
        lambda p: theorem0_rhs(int(p["dS"]), int(p["dR"]), float(p["delta"]))[0],
        lambda p: 2.0,
        lambda pipe, seed: theorem0_mean_report(pipe.theorem0),
        nondegenerate=True),
    "T0ii": Theorem(
        lambda p: concentration_tail(int(p["dR"]), float(p["epsilon"])), _one,
        lambda pipe, seed: theorem0_tail_report(pipe.theorem0),
        nondegenerate=True),
    "T1": Theorem(
        _necessary_rhs, _necessary_max,
        lambda pipe, seed: _necessary_report(
            pipe, "T1", pipe.config.dim_restricted or pipe.layout.dim_bath, pipe.config.p)),
    "T1prime": Theorem(
        _necessary_rhs, _necessary_max,
        lambda pipe, seed: _necessary_report(pipe, "T1prime", pipe.layout.dim_bath, 1.0)),
    # The T2 bounds are the large-bath limits sqrt(3) epsilon and 3 epsilon.
    "T2i": Theorem(lambda p: math.sqrt(3.0) * float(p["epsilon"]), _one,
                   lambda pipe, seed: pipe.theorem2[0]),
    "T2ii": Theorem(lambda p: 3.0 * float(p["epsilon"]), _one,
                    lambda pipe, seed: pipe.theorem2[1]),
    "Popescu": Theorem(
        lambda p: concentration_tail(int(p["dB"]), float(p["epsilon"])), _one,
        lambda pipe, seed: popescu_report(pipe.layout, pipe.config.epsilon,
                                          pipe.config.n_samples, seed)),
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
    standard errors for Monte Carlo left-hand sides, are indeterminate.  The
    boundary is VERDICT_BOUNDARY, or the one a report recorded.
    """
    if rhs >= max_possible_lhs(theorem_id, parameters):
        return "vacuous"
    boundary = float(parameters.get("verdict_boundary", VERDICT_BOUNDARY))
    se = parameters.get("lhs_standard_error")
    slack = boundary if se is None else max(boundary, 2.0 * float(se))
    if abs(lhs - rhs) <= slack:
        return "indeterminate"
    return "satisfied" if lhs <= rhs else "violated"


@dataclass(frozen=True)
class TheoremReport:
    """One evaluated inequality with everything needed to audit it.

    It holds the theorem, the left-hand side and the recorded parameters,
    and derives on construction the right-hand side (``recompute_rhs``) and
    the verdict (``assign_verdict``), so neither can disagree with them.
    ``from_json`` audits a stored report: its recorded rhs and verdict must
    be the derived ones.
    """

    theorem_id: str
    lhs: float
    parameters: dict

    def __post_init__(self) -> None:
        if self.theorem_id not in THEOREM_IDS:
            raise ValidationError(f"unknown theorem id {self.theorem_id!r}")
        if not isinstance(self.lhs, (int, float)) or not math.isfinite(self.lhs):
            raise ValidationError(f"lhs must be finite, got {self.lhs!r}")
        for key, value in self.parameters.items():
            if not isinstance(key, str):
                raise ValidationError(f"parameter keys must be strings, got {key!r}")
            if not isinstance(value, _SCALAR_TYPES):
                raise ValidationError(f"parameter {key!r} is not a scalar: {value!r}")
        rhs = recompute_rhs(self.theorem_id, self.parameters)
        if math.isnan(rhs):
            raise ValidationError(f"rhs must be a number, got {rhs!r}")
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "verdict",
                           assign_verdict(self.theorem_id, self.lhs, rhs, self.parameters))

    def to_json(self) -> str:
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "theorem_id": self.theorem_id,
            "lhs": self.lhs,
            "rhs": _encode_scalar(self.rhs),
            "verdict": self.verdict,
            "parameters": {k: _encode_scalar(v) for k, v in self.parameters.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TheoremReport":
        """The recorded report, refused unless its rhs reproduces (1e-12
        relative; inf only as inf) and its verdict is the derived one."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValidationError(f"malformed report JSON: {err}") from None
        if not isinstance(payload, dict):
            raise ValidationError("report JSON must be an object")
        try:
            version = int(payload["schema_version"])
            if version != REPORT_SCHEMA_VERSION:
                raise ValidationError(f"unsupported schema version {version}")
            rhs, verdict = _decode_scalar(payload["rhs"]), payload["verdict"]
            report = cls(payload["theorem_id"], float(payload["lhs"]),
                         {k: _decode_scalar(v) for k, v in payload["parameters"].items()})
        except KeyError as missing:
            raise ValidationError(f"report JSON lacks field {missing.args[0]!r}") from None
        if verdict not in VERDICTS:
            raise ValidationError(f"unknown verdict {verdict!r}")
        if not isinstance(rhs, (int, float)) or math.isnan(rhs):
            raise ValidationError(f"rhs must be a number, got {rhs!r}")
        if not math.isclose(rhs, report.rhs, rel_tol=1e-12, abs_tol=1e-12):
            raise ValidationError(f"rhs {rhs!r} not reproducible from parameters "
                                  f"(recomputed {report.rhs!r})")
        if verdict != report.verdict:
            raise ValidationError(
                f"verdict {verdict!r} contradicts the policy ({report.verdict!r}) "
                f"for lhs={report.lhs!r}, rhs={rhs!r}"
            )
        return report


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


def sufficient_condition_report(delta_value: float) -> TheoremReport:
    """Report on the smallness condition sqrt(delta) << 1.

    The condition is sufficient for subspace independence, so the verdict
    says whether the condition itself holds against the smallness threshold
    SUFFICIENT_ISI_THRESHOLD: satisfied guarantees independence, violated
    only withholds the guarantee.
    """
    if not 0.0 < delta_value <= 1.0 + 1e-9:
        raise ValidationError(f"delta must lie in (0, 1], got {delta_value}")
    parameters = _float_params({"delta": delta_value, "threshold": SUFFICIENT_ISI_THRESHOLD})
    return TheoremReport("SufficientISI", math.sqrt(delta_value), parameters)


def _theorem0_parameters(t0: Theorem0Estimate, column: int) -> dict:
    estimate = t0.estimate
    return {"dS": t0.dim_system, "dR": t0.dim_restricted, "delta": t0.delta,
            "n_samples": estimate.n_samples, "seed": estimate.seed,
            "lhs_standard_error": estimate.standard_error[column]}


def theorem0_mean_report(t0: Theorem0Estimate) -> TheoremReport:
    """Empirical mean equilibrium distance against sqrt(dS delta / dR)."""
    parameters = _float_params({**_theorem0_parameters(t0, 0), "weak_rhs": t0.weak})
    return TheoremReport("T0i", t0.estimate.mean[0], parameters)


def theorem0_tail_report(t0: Theorem0Estimate) -> TheoremReport:
    """Empirical exceedance frequency against 2 exp(-c dR epsilon^2)."""
    parameters = _float_params({
        **_theorem0_parameters(t0, 1), "epsilon": t0.epsilon,
        "distance_threshold": t0.threshold, "c": CONCENTRATION_RATE})
    return TheoremReport("T0ii", t0.estimate.mean[1], parameters)


def necessary_condition_report(lhs: float, dim_system: int, epsilon: float,
                               dim_restricted: int, p: float,
                               theorem_id: str = "T1prime", n_starts: int = 512,
                               seed: int = 0) -> TheoremReport:
    """The necessary-condition supremum ``lhs`` against the accuracy constant.

    ``lhs`` is the value of ``necessary_condition_lhs`` for a dS =
    ``dim_system`` model; for dS > 2 the report records the ``n_starts`` and
    ``seed`` of that search, so that T1 and T1prime can share one.  ``T1``
    evaluates the restricted-bath form (dR and p as configured); ``T1prime``
    the full-bath form, where dR is the bath dimension and p = 1.  A violated
    verdict means independence at the stated accuracy is impossible; at
    workstation dimensions the bound is usually vacuous.
    """
    if theorem_id not in ("T1", "T1prime"):
        raise ValidationError(f"theorem_id must be T1 or T1prime, got {theorem_id!r}")
    parameters = _float_params({
        "epsilon": epsilon, "dS": dim_system, "dR": dim_restricted, "p": p,
        "c": CONCENTRATION_RATE,
    })
    if dim_system > 2:
        parameters.update(_float_params({"n_starts": n_starts, "seed": seed}))
        parameters["lhs_is_lower_bound"] = True
    return TheoremReport(theorem_id, lhs, parameters)


def theorem2_reports(reductions: EigenstateReductions, epsilon: float,
                     dim_restricted: int) -> tuple[TheoremReport, TheoremReport]:
    """Qubit necessary conditions: pairwise alignment and mean squared polarization.

    The bounds are sqrt(3) epsilon and 3 epsilon, the large-bath limit in
    which the dimension and tail terms of the accuracy constant vanish; this
    is the reading under which a mean squared polarization of 1 forbids
    independence at accuracy better than about 1/3.  The finite-size
    constant, which T1 and T1prime compare against, is recorded as
    ``epsilon_prime``, at the measure p = 1 of the whole restricted family.
    """
    if epsilon < 0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
    lhs_i, lhs_ii = theorem2_lhs(reductions)
    base = _float_params({
        "epsilon": epsilon, "dS": 2, "dR": dim_restricted, "p": 1.0,
        "c": CONCENTRATION_RATE,
        "epsilon_prime": epsilon_prime(epsilon, 2, dim_restricted, 1.0),
    })
    return TheoremReport("T2i", lhs_i, dict(base)), TheoremReport("T2ii", lhs_ii, base)


def popescu_report(layout: SpaceLayout, epsilon: float, n_samples: int,
                   seed: int) -> TheoremReport:
    """Typicality of instantaneous reductions over the full composite space.

    Draws the reductions of Haar-uniform composite states from the induced
    measure and compares the frequency of those farther than
    sqrt(dS/dB) + epsilon from the maximally mixed state in trace distance
    with 2 exp(-c dB epsilon^2).
    """
    ds, db = layout.dim_system, layout.dim_bath
    threshold = math.sqrt(ds / db) + epsilon
    mixed = np.eye(ds) / ds

    def values(states: np.ndarray) -> np.ndarray:
        return (batched_trace_distances(states, mixed) > threshold).astype(float)

    estimate = batched_monte_carlo(values, induced_states(ds, db), ds * ds, n_samples, seed)
    parameters = _float_params({
        "dS": ds, "dB": db, "epsilon": epsilon,
        "distance_threshold": threshold, "c": CONCENTRATION_RATE,
        "n_samples": n_samples, "seed": seed,
        "lhs_standard_error": estimate.standard_error,
    })
    return TheoremReport("Popescu", estimate.mean, parameters)
