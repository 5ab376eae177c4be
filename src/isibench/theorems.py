"""Bound evaluation and verdicts for the independence theorems.

Each report builder computes the inequalities of one bound family from the
values it is given: an exact or Monte Carlo left-hand side, the
closed-form right-hand side, and a verdict.  A family of two reports has one
builder that returns both from one computation: ``theorem0_reports`` (T0i,
T0ii) from one draw set, ``necessary_condition_reports`` (T1, T1prime) from
one search and ``theorem2_reports`` (T2i, T2ii) from one Gram matrix.  The
registry ``THEOREMS`` holds only the bounds: per theorem, its
right-hand side (the one place each bound is computed), the range of its
left-hand side and whether it needs a nondegenerate spectrum; which
pipeline stages feed each builder is the CLI's table (``cli._REPORTS``).  A
``TheoremReport`` holds only the theorem, the left-hand side and the
parameters it records; the right-hand side and the verdict are derived from
them on construction, and a parameter that a bound or the verdict reads as a
number must be an int or a float.  So a serialized report can be audited
without rerunning the experiment: ``read_report`` refuses a file whose
recorded bound or verdict is not the derived one.

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
from typing import Callable

import numpy as np

from .equilibrium import DELTA_SLACK, EigenstateReductions, delta, require_nondegenerate
from .errors import ValidationError
# trace_distance is kept importable from here: the benchmark's tracer test
# looks it up under this module.
from .hilbert import (SpaceLayout, check_density_stack, trace_distance,  # noqa: F401
                      weighted_sum)
from .sampling import generator, induced_states, sample_amplitudes, sampled_distances
from .spectral import DenseProjection, GroupedProjection, SpectralData, require_count_fits

# Concentration rate constant of the Levy-type tail bounds, 1/(18 pi^3).
CONCENTRATION_RATE = 1.0 / (18.0 * math.pi**3)

SUFFICIENT_ISI_THRESHOLD = 0.1  # smallness cutoff for sqrt(delta)
VERDICT_BOUNDARY = 1e-9         # |lhs - rhs| window reported as indeterminate

VERDICTS = ("satisfied", "violated", "vacuous", "indeterminate")
REPORT_SCHEMA_VERSION = 1       # "schema_version" of a report's JSON
RHS_REPRODUCTION = 1e-12        # relative and absolute slack of a recorded rhs

_SCALAR_TYPES = (bool, int, float, str)
# The parameters that a bound or the verdict reads as numbers (int or float).
_NUMBERS = frozenset({"dS", "dR", "dB", "delta", "epsilon", "p", "threshold",
                      "verdict_boundary", "lhs_standard_error"})


def concentration_tail(dim_restricted: int, epsilon: float) -> float:
    """Tail probability bound 2 exp(-c dR epsilon^2); 2, so vacuous, at epsilon = 0."""
    if dim_restricted < 1:
        raise ValidationError(f"dR must be >= 1, got {dim_restricted}")
    if epsilon < 0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
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
    if not lower - DELTA_SLACK <= delta_value <= 1.0 + DELTA_SLACK:
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
        return float(np.linalg.eigvalsh(_polarization_gram(reductions) / reductions.dim)[-1])
    if n_starts < 1:
        raise ValidationError(f"n_starts must be >= 1, got {n_starts}")
    require_count_fits("analysis.n_starts", n_starts, ds)
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


def _polarization_gram(reductions: EigenstateReductions) -> np.ndarray:
    """G = sum_n p_n p_n^T over the eigenstate polarizations of a qubit."""
    if reductions.polarization_gram is None:
        raise ValidationError("polarization statistics are defined for qubit systems")
    return reductions.polarization_gram


def theorem2_lhs(reductions: EigenstateReductions) -> tuple[float, float]:
    """Qubit polarization statistics (sqrt(tr G^2)/d, tr G / d).

    G is the polarization Gram matrix; the first entry is the root-mean
    pairwise alignment [(1/d^2) sum_{nm} (p_n, p_m)^2]^{1/2}, the second the
    mean squared polarization (1/d) sum_n |p_n|^2 (also the sweep metric).
    """
    d = reductions.dim
    gram = _polarization_gram(reductions)
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
    ``nondegenerate`` marks the reports whose formulas need a nondegenerate
    spectrum.
    """

    rhs: Callable[[dict], float]
    max_lhs: Callable[[dict], float]
    nondegenerate: bool = False


def _one(p: dict) -> float:
    return 1.0


def _necessary_max(p: dict) -> float:
    return 2.0 * (1.0 - 1.0 / int(p["dS"]))


# Probabilities and qubit polarization statistics cap at 1.  The
# necessary-condition supremum compares a density matrix against the
# maximally mixed state, so it caps at 2(1 - 1/dS) (a Bloch-vector norm, at
# most 1, for qubits).  Mean trace distances cap at 2.
THEOREMS = {
    "SufficientISI": Theorem(lambda p: float(p["threshold"]), _one),
    "T0i": Theorem(lambda p: theorem0_rhs(int(p["dS"]), int(p["dR"]), float(p["delta"]))[0],
                   lambda p: 2.0, nondegenerate=True),
    "T0ii": Theorem(lambda p: concentration_tail(int(p["dR"]), float(p["epsilon"])), _one,
                    nondegenerate=True),
    "T1": Theorem(_necessary_rhs, _necessary_max),
    "T1prime": Theorem(_necessary_rhs, _necessary_max),
    # The T2 bounds are the large-bath limits sqrt(3) epsilon and 3 epsilon.
    "T2i": Theorem(lambda p: math.sqrt(3.0) * float(p["epsilon"]), _one),
    "T2ii": Theorem(lambda p: 3.0 * float(p["epsilon"]), _one),
    "Popescu": Theorem(lambda p: concentration_tail(int(p["dB"]), float(p["epsilon"])), _one),
}
THEOREM_IDS = tuple(THEOREMS)


def _theorem(theorem_id: str) -> Theorem:
    if theorem_id not in THEOREMS:
        raise ValidationError(f"unknown theorem id {theorem_id!r}")
    return THEOREMS[theorem_id]


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

    Vacuity is decided first (a bound at or beyond the metric's range decides
    nothing), but only after the boundary and the standard error are read,
    so that a malformed one is refused either way; comparisons inside the
    numerical boundary, or inside two standard errors for Monte Carlo
    left-hand sides, are indeterminate.  The boundary is VERDICT_BOUNDARY,
    or the one a report recorded.
    """
    boundary = float(parameters.get("verdict_boundary", VERDICT_BOUNDARY))
    se = parameters.get("lhs_standard_error")
    slack = boundary if se is None else max(boundary, 2.0 * float(se))
    if rhs >= _theorem(theorem_id).max_lhs(parameters):
        return "vacuous"
    if abs(lhs - rhs) <= slack:
        return "indeterminate"
    return "satisfied" if lhs <= rhs else "violated"


@dataclass(frozen=True)
class TheoremReport:
    """One evaluated inequality with everything needed to audit it.

    It holds the theorem, the left-hand side and the recorded parameters,
    and derives on construction the right-hand side (``recompute_rhs``) and
    the verdict (``assign_verdict``), so neither can disagree with them.
    Numpy integer and float parameters become int and float; a parameter
    that is no scalar, that the bound or the verdict cannot read, or that one
    of them reads as a number but is a str or a bool, is refused.
    ``from_json`` audits a stored report: its recorded rhs and verdict must
    be the derived ones.
    """

    theorem_id: str
    lhs: float
    parameters: dict

    def __post_init__(self) -> None:
        if self.theorem_id not in THEOREM_IDS:
            raise ValidationError(f"unknown theorem id {self.theorem_id!r}")
        if isinstance(self.lhs, bool) or not isinstance(self.lhs, (int, float)) \
                or not math.isfinite(self.lhs):
            raise ValidationError(f"lhs must be finite, got {self.lhs!r}")
        parameters = {}
        for key, value in self.parameters.items():
            if not isinstance(key, str):
                raise ValidationError(f"parameter keys must be strings, got {key!r}")
            if isinstance(value, (np.integer, np.floating)):
                value = int(value) if isinstance(value, np.integer) else float(value)
            elif not isinstance(value, _SCALAR_TYPES):
                raise ValidationError(f"parameter {key!r} is not a scalar: {value!r}")
            elif key in _NUMBERS and isinstance(value, (bool, str)):
                raise ValidationError(f"report for {self.theorem_id} has a malformed "
                                      f"parameter: {key!r} must be a number, got {value!r}")
            parameters[key] = value
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "parameters", parameters)
        try:
            rhs = recompute_rhs(self.theorem_id, parameters)
            verdict = assign_verdict(self.theorem_id, self.lhs, rhs, parameters)
        except (ArithmeticError, TypeError, ValueError) as err:
            raise ValidationError(f"report for {self.theorem_id} has a malformed "
                                  f"parameter: {err}") from None
        if math.isnan(rhs):
            raise ValidationError(f"rhs must be a number, got {rhs!r}")
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "verdict", verdict)

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
        """The recorded report, refused unless its rhs reproduces (to
        RHS_REPRODUCTION; inf only as inf) and its verdict is the derived one."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValidationError(f"malformed report JSON: {err}") from None
        if not isinstance(payload, dict):
            raise ValidationError("report JSON must be an object")
        try:
            version, parameters = payload["schema_version"], payload["parameters"]
            if type(version) is not int or version != REPORT_SCHEMA_VERSION:
                raise ValidationError(f"unsupported schema version {version!r}")
            if not isinstance(parameters, dict):
                raise ValidationError(f"parameters must be a mapping, got {parameters!r}")
            rhs, verdict = _decode_scalar(payload["rhs"]), payload["verdict"]
            report = cls(payload["theorem_id"], payload["lhs"],
                         {k: _decode_scalar(v) for k, v in parameters.items()})
        except KeyError as missing:
            raise ValidationError(f"report JSON lacks field {missing.args[0]!r}") from None
        if verdict not in VERDICTS:
            raise ValidationError(f"unknown verdict {verdict!r}")
        if not isinstance(rhs, (int, float)) or math.isnan(rhs):
            raise ValidationError(f"rhs must be a number, got {rhs!r}")
        if not math.isclose(rhs, report.rhs, rel_tol=RHS_REPRODUCTION, abs_tol=RHS_REPRODUCTION):
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


def sufficient_condition_report(delta_value: float) -> TheoremReport:
    """Report on the smallness condition sqrt(delta) << 1.

    The condition is sufficient for subspace independence, so the verdict
    says whether the condition itself holds against the smallness threshold
    SUFFICIENT_ISI_THRESHOLD: satisfied guarantees independence, violated
    only withholds the guarantee.
    """
    if not 0.0 < delta_value <= 1.0 + DELTA_SLACK:
        raise ValidationError(f"delta must lie in (0, 1], got {delta_value}")
    return TheoremReport("SufficientISI", math.sqrt(delta_value),
                         {"delta": delta_value, "threshold": SUFFICIENT_ISI_THRESHOLD})


def theorem0_reports(projection: DenseProjection | GroupedProjection,
                     spectral: SpectralData, reductions: EigenstateReductions,
                     epsilon: float, n_samples: int,
                     seed: int) -> tuple[TheoremReport, TheoremReport]:
    """T0i and T0ii, from one set of initial states drawn Haar-uniformly from R.

    Each draw gives the trace distance of its infinite-time average to the
    exact subspace-averaged equilibrium state.  T0i compares the mean
    distance with sqrt(dS delta / dR) and records the weak bound
    sqrt(dS / dR) (``theorem0_rhs``); T0ii compares the frequency of a
    distance above that sharp bound plus ``epsilon`` with
    2 exp(-c dR epsilon^2).  The projection W = B^H V of R on the eigenbasis
    gives the weights (so delta and the average) and the draw: Haar-uniform
    amplitudes a whose populations |(a^H W)_n|^2 weight the eigenstate
    reductions (one GEMM per chunk) for a dense W, or Dirichlet weights on a
    (dR, dS, dS) stack built once for a grouped W.
    """
    require_nondegenerate(spectral)
    delta_value = delta(reductions, projection)
    dim_r, ds = projection.dim, reductions.layout.dim_system
    require_count_fits("analysis.n_samples", n_samples, ds)
    strong, weak = theorem0_rhs(ds, dim_r, delta_value)
    threshold = strong + epsilon
    reference = weighted_sum(projection.weights, reductions.matrices)
    check_density_stack("density matrix", reference[None])
    width, states_of = projection.sampler(reductions.matrices, generator(seed))
    mean, se = sampled_distances(states_of, width, reference, threshold, n_samples)
    base = {"dS": ds, "dR": dim_r, "delta": delta_value, "n_samples": n_samples,
            "seed": seed}
    return (TheoremReport("T0i", mean[0], {**base, "lhs_standard_error": se[0],
                                           "weak_rhs": weak}),
            TheoremReport("T0ii", mean[1], {
                **base, "lhs_standard_error": se[1], "epsilon": epsilon,
                "distance_threshold": threshold, "c": CONCENTRATION_RATE}))


def necessary_condition_reports(reductions: EigenstateReductions, epsilon: float,
                                dim_restricted: int, p: float, n_starts: int = 512,
                                seed: int = 0) -> tuple[TheoremReport, TheoremReport]:
    """T1 and T1prime: the supremum of ``necessary_condition_lhs``, from one
    search, against the accuracy constant.

    ``T1`` evaluates the restricted-bath form, at the dimension
    ``dim_restricted`` and the measure ``p`` of the restricted family;
    ``T1prime`` the full-bath form, where dR is the bath dimension and p = 1.
    dS and dB come from ``reductions.layout``.  For dS > 2 both reports record
    the ``n_starts`` and ``seed`` of the search.  A violated verdict means
    independence at the stated accuracy is impossible; at workstation
    dimensions the bound is usually vacuous.  A dR outside [1, dB], the
    dimensions a restricted family can span, is refused before the search.
    """
    layout = reductions.layout
    if not 1 <= dim_restricted <= layout.dim_bath:
        raise ValidationError(f"dR must lie in [1, dB = {layout.dim_bath}], "
                              f"got {dim_restricted}")
    lhs = necessary_condition_lhs(reductions, n_starts=n_starts, seed=seed)
    base = {"epsilon": epsilon, "dS": layout.dim_system, "c": CONCENTRATION_RATE}
    if layout.dim_system > 2:
        base.update(n_starts=n_starts, seed=seed, lhs_is_lower_bound=True)
    return (TheoremReport("T1", lhs, {**base, "dR": dim_restricted, "p": p}),
            TheoremReport("T1prime", lhs, {**base, "dR": layout.dim_bath, "p": 1.0}))


def theorem2_reports(reductions: EigenstateReductions,
                     epsilon: float) -> tuple[TheoremReport, TheoremReport]:
    """Qubit necessary conditions: pairwise alignment and mean squared polarization.

    The bounds are sqrt(3) epsilon and 3 epsilon, the large-bath limit in
    which the dimension and tail terms of the accuracy constant vanish; this
    is the reading under which a mean squared polarization of 1 forbids
    independence at accuracy better than about 1/3.  The finite-size
    constant, which T1 and T1prime compare against, is recorded as
    ``epsilon_prime``, at the measure p = 1 of the whole restricted family,
    the full bath: dR = dB of ``reductions.layout``.
    """
    dim_restricted = reductions.layout.dim_bath
    base = {
        "epsilon": epsilon, "dS": 2, "dR": dim_restricted, "p": 1.0,
        "c": CONCENTRATION_RATE,
        "epsilon_prime": epsilon_prime(epsilon, 2, dim_restricted, 1.0),
    }
    lhs_i, lhs_ii = theorem2_lhs(reductions)
    return TheoremReport("T2i", lhs_i, base), TheoremReport("T2ii", lhs_ii, base)


def popescu_report(layout: SpaceLayout, epsilon: float, n_samples: int,
                   seed: int) -> TheoremReport:
    """Typicality of instantaneous reductions over the full composite space.

    Draws the reductions of Haar-uniform composite states from the induced
    measure and compares the frequency of those farther than
    sqrt(dS/dB) + epsilon from the maximally mixed state in trace distance
    with 2 exp(-c dB epsilon^2).
    """
    ds, db = layout.dim_system, layout.dim_bath
    require_count_fits("analysis.n_samples", n_samples, ds)
    threshold = math.sqrt(ds / db) + epsilon
    mean, se = sampled_distances(induced_states(ds, db, generator(seed)), ds * ds,
                                 np.eye(ds) / ds, threshold, n_samples)
    return TheoremReport("Popescu", mean[1], {
        "dS": ds, "dB": db, "epsilon": epsilon,
        "distance_threshold": threshold, "c": CONCENTRATION_RATE,
        "n_samples": n_samples, "seed": seed,
        "lhs_standard_error": se[1],
    })
