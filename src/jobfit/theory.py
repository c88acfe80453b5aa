"""Analytic layer: critical abilities, transition widths, merging and
compression guarantees, and evaluation-bias analysis.

Each closed-form quantity comes with an empirical verifier backed by the
simulator, so the concentration-style statements can be checked end to
end on concrete job instances.

Two dispersion conventions are exposed: ``paper-main`` uses the
n * (sigma1^2 + sigma2^2) total valid for both noise families, while
``appendix-general`` sums per-subskill subgaussian bounds (four times
tighter for scaled-uniform noise).  The phase report records the
convention it used; the merging check takes one without recording it, and
the compression bound always takes paper-main.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ability, merging
from .ability import AbilityProfile, NoiseModel, UNIFORM
from .errors import (
    HypothesisViolationError,
    NoRootError,
    ParameterError,
    UndefinedThresholdError,
)
from .job import ErrorModel, JobSpec, effective_coefficients, lipschitz_bound
from .simulate import (
    ABILITY_KNOBS,
    SimConfig,
    SimEstimate,
    Worker,
    apply_knob,
    estimate_err_avg,
    estimate_many,
    exact_err_avg,
)

PAPER_MAIN = "paper-main"
APPENDIX_GENERAL = "appendix-general"

# The polynomial exponents over which min_derivative takes its infimum.
POLY_DOMAIN = (0.5, 2.0)

_FAMILY_KNOB = {family: stem for stem, (family, _, _) in ABILITY_KNOBS.items()}
_PARAM_BRACKET = {family: bracket for family, _, bracket in ABILITY_KNOBS.values()}


def family_param(profile: AbilityProfile) -> float:
    """The scalar ability parameter of a base family (a, c, or beta)."""
    if profile.family not in _FAMILY_KNOB:
        raise ParameterError(f"no scalar ability parameter for family {profile.family!r}")
    return profile.params[0]


def level_knob(profile: AbilityProfile, level: int) -> str:
    return f"{_FAMILY_KNOB[profile.family]}{level}"


def _vary_level(worker: Worker, vary: str) -> int:
    """The level whose base-family ability parameter ``vary`` names."""
    knobs = {level_knob(worker.profile(level), level): level for level in (1, 2)
             if worker.profile(level).family in _FAMILY_KNOB}
    if vary not in knobs:
        raise ParameterError(f"cannot vary {vary!r}: this worker's ability parameters are {sorted(knobs)}")
    return knobs[vary]


def dispersion(noise1: NoiseModel, noise2: NoiseModel, n: int, convention: str) -> float:
    """Total dispersion bound over all 2n subskills.

    paper-main: n * (sigma1^2 + sigma2^2).  appendix-general: n times the
    sum of the two levels' per-subskill subgaussian constants, sigma^2/4
    for scaled uniform (range bound on a width <= sigma interval) and
    sigma^2 for truncated normal.
    """
    if convention == PAPER_MAIN:
        return n * (noise1.sigma**2 + noise2.sigma**2)
    if convention == APPENDIX_GENERAL:
        bound1, bound2 = (noise.sigma**2 / 4.0 if noise.kind == UNIFORM else noise.sigma**2
                          for noise in (noise1, noise2))
        return n * (bound1 + bound2)
    raise ParameterError(f"unknown dispersion convention {convention!r}")


def min_derivative(spec: JobSpec, model: ErrorModel, family: str, level: int) -> float:
    """Minimum |d Err_avg / d parameter| over the parameter domain.

    Linear family: the derivative is constant, sum_j c_j * s_jl times the
    h scale.  Constant family: sum_j c_j times the h scale.  Polynomial
    (mean error s^beta): inf of sum_j c_j * s^beta * |ln s| times the h
    scale over beta in the fixed :data:`POLY_DOMAIN` [0.5, 2].  Each term
    falls as beta rises, so the infimum sits at beta = 2, where s = 0 and
    s = 1 contribute nothing.
    """
    if level not in (1, 2):
        raise ParameterError(f"level must be 1 or 2, got {level}")
    coeff = effective_coefficients(spec, model) * model.h_scale
    s = spec.s1 if level == 1 else spec.s2
    if family == ability.LINEAR:
        return float(coeff @ s)
    if family == ability.CONSTANT:
        return float(coeff.sum())
    if family == ability.POLYNOMIAL:
        inner = (s > 0.0) & (s < 1.0)
        return float(coeff[inner] @ (s[inner] ** POLY_DOMAIN[1] * -np.log(s[inner])))
    raise ParameterError(f"no sensitivity formula for family {family!r}")


def transition_width(L: float, max_disp: float, min_der: float, theta: float) -> float:
    """gamma = L * sqrt(max_disp * ln(1/theta)) / min_der; infinite when
    the objective has no guaranteed slope."""
    _check_theta(theta)
    if min_der <= 0.0:
        return math.inf
    return L * math.sqrt(max_disp * math.log(1.0 / theta)) / min_der


def dependent_transition_width(L: float, max_disp: float, min_der: float,
                               theta: float, p: float, n: int) -> float:
    """Width under status-coupled noise: the independent branch carries the
    (1-p) mass and a branch inflated by sqrt(n) carries the coupled mass.
    A branch whose log argument is <= 1 contributes nothing."""
    _check_theta(theta)
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"dependency parameter must lie in [0,1], got {p}")
    if min_der <= 0.0:
        return math.inf
    indep = math.log(2.0 * (1.0 - p) / theta) if 2.0 * (1.0 - p) > theta else 0.0
    coupled = n * math.log(2.0 * p / theta) if 2.0 * p > theta else 0.0
    return L * math.sqrt(max_disp) * math.sqrt(max(indep, coupled)) / min_der


def _check_theta(theta: float) -> None:
    if not 0.0 < theta < 0.5:
        raise ParameterError(f"confidence level theta must lie in (0, 0.5), got {theta}")


def _window(spec: JobSpec, model: ErrorModel, worker: Worker, level: int, theta: float,
            convention: str, p: float) -> tuple[float, float, float, float]:
    """The predicted transition window of one level of ``worker``:
    (L, min_der, disp, gamma).  The dispersion pairs this level's noise with
    the other level's; p > 0 takes the status-coupled width, p = 0 the
    independent one."""
    profile = worker.profile(level)
    L = lipschitz_bound(spec, model)
    min_der = min_derivative(spec, model, profile.family, level)
    disp = dispersion(profile.noise, worker.profile(3 - level).noise, spec.n, convention)
    if p > 0.0:
        return L, min_der, disp, dependent_transition_width(L, disp, min_der, theta, p, spec.n)
    return L, min_der, disp, transition_width(L, disp, min_der, theta)


def _step(family: str, center: float, gamma: float, side: int) -> float:
    """``center`` moved by gamma down (side -1) or up (side +1), clipped at
    that end of the family's bracket."""
    lo_b, hi_b = _PARAM_BRACKET[family]
    return max(lo_b, center - gamma) if side < 0 else min(hi_b, center + gamma)


def _err_at_edge(spec: JobSpec, model: ErrorModel, err_avg, worker: Worker, level: int,
                 theta: float, convention: str, side: int) -> tuple[float, float]:
    """The independent-width gamma of one level of ``worker``, and Err_avg
    with that level's parameter stepped by gamma toward ``side``."""
    gamma = _window(spec, model, worker, level, theta, convention, 0.0)[3]
    profile = worker.profile(level)
    value = _step(profile.family, family_param(profile), gamma, side)
    return gamma, err_avg(apply_knob(worker, level_knob(profile, level), value))


def _err_avg_fn(spec: JobSpec, model: ErrorModel, config: SimConfig | None):
    """Expected-error evaluator: closed form when exact, CRN Monte Carlo else."""
    mc_config = config or SimConfig(trials=100_000)

    def err_avg(worker: Worker) -> float:
        exact = exact_err_avg(worker, spec, model)
        if exact is not None:
            return exact
        return estimate_err_avg(worker, spec, model, mc_config).estimate.value

    return err_avg


def critical_ability(spec: JobSpec, model: ErrorModel, worker: Worker, vary: str,
                     config: SimConfig | None = None) -> float:
    """Parameter value where the expected job error equals the job's tau.

    ``vary`` is the ability knob of one level's base family (a1, a2, c1,
    c2, beta1, beta2); the map from the parameter to Err_avg is monotone
    decreasing, so bisection applies, over the family's bracket (a and c
    in [0, 1], beta in [0, 8]) until it is at most 1e-6 wide.
    Monte Carlo evaluations reuse one set of draws, keeping the objective
    monotone despite the noise.
    """
    tau = spec.tau
    bracket = _PARAM_BRACKET[worker.profile(_vary_level(worker, vary)).family]
    lo, hi = bracket
    err_avg = _err_avg_fn(spec, model, config)
    e_lo = err_avg(apply_knob(worker, vary, lo))
    e_hi = err_avg(apply_knob(worker, vary, hi))
    if not (e_hi <= tau <= e_lo):
        raise NoRootError(
            f"tau={tau} outside attainable Err_avg range [{e_hi:.6g}, {e_lo:.6g}] over {vary} in {bracket}"
        )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if err_avg(apply_knob(worker, vary, mid)) > tau:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-6:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PhaseReport:
    vary: str
    mu1_c: float
    gamma1: float
    L: float
    min_der: float
    max_disp: float
    theta: float
    tau: float
    convention: str
    at_low: float
    at_high: float
    p_low: SimEstimate
    p_high: SimEstimate
    verified: bool


def verify_phase_transition(
    spec: JobSpec,
    model: ErrorModel,
    worker: Worker,
    vary: str,
    theta: float,
    config: SimConfig | None = None,
    convention: str = PAPER_MAIN,
) -> PhaseReport:
    """Locate the critical parameter, compute the predicted transition
    width, and check P empirically on both sides of the window."""
    _check_theta(theta)
    config = config or SimConfig()
    level = _vary_level(worker, vary)
    family = worker.profile(level).family
    mu_c = critical_ability(spec, model, worker, vary, config)
    L, min_der, disp, gamma = _window(spec, model, worker, level, theta, convention, worker.p)
    at_low, at_high = _step(family, mu_c, gamma, -1), _step(family, mu_c, gamma, 1)
    p_low, p_high = estimate_many([apply_knob(worker, vary, at_low), apply_knob(worker, vary, at_high)],
                                  spec, model, config)
    verified = (p_low.value <= theta + 3.0 * p_low.stderr) and (
        p_high.value >= 1.0 - theta - 3.0 * p_high.stderr
    )
    return PhaseReport(vary, mu_c, gamma, L, min_der, disp, theta, spec.tau,
                       convention, at_low, at_high, p_low, p_high, verified)


@dataclass(frozen=True)
class MergeReport:
    gamma1_1: float
    gamma1_2: float
    err_left: float
    err_right: float
    condition_holds: bool
    guaranteed_gain: float | None
    theta: float
    p1: SimEstimate
    p2: SimEstimate
    p12: SimEstimate
    p21: SimEstimate
    delta: float


def merging_condition(
    worker1: Worker,
    worker2: Worker,
    spec: JobSpec,
    model: ErrorModel,
    theta: float,
    config: SimConfig | None = None,
    convention: str = PAPER_MAIN,
) -> MergeReport:
    """Check the decision-level sandwich that guarantees the merged worker
    (W1 decisions, W2 actions) beats W2 by 1 - 2 theta, and measure all
    four level combinations empirically on shared draws."""
    _check_theta(theta)
    config = config or SimConfig()
    for level in (1, 2):
        f1, f2 = worker1.profile(level).family, worker2.profile(level).family
        if f1 != f2 or f1 not in _FAMILY_KNOB:
            raise HypothesisViolationError(
                f"level-{level} profiles must share a base family (got {f1!r} vs {f2!r}); "
                "use merging.merge_per_subskill for distinct-family workers"
            )
    err_avg = _err_avg_fn(spec, model, config)
    gamma1, err_left = _err_at_edge(spec, model, err_avg, Worker(worker1.alpha1, worker2.alpha2), 1,
                                    theta, convention, -1)
    gamma2, err_right = _err_at_edge(spec, model, err_avg, Worker(worker2.alpha1, worker2.alpha2), 1,
                                     theta, convention, 1)
    holds = err_left <= spec.tau <= err_right and math.isfinite(gamma1) and math.isfinite(gamma2)

    workers = (worker1, worker2, merging.merge_uniform(worker1, worker2, ("A", "B")),
               merging.merge_uniform(worker1, worker2, ("B", "A")))
    estimates = dict(zip(("p1", "p2", "p12", "p21"), estimate_many(workers, spec, model, config)))
    delta = max(e.value for e in estimates.values()) - max(estimates["p1"].value, estimates["p2"].value)
    return MergeReport(
        gamma1, gamma2, err_left, err_right, holds,
        (1.0 - 2.0 * theta) if holds else None, theta,
        estimates["p1"], estimates["p2"], estimates["p12"], estimates["p21"], delta,
    )


@dataclass(frozen=True)
class CompressionReport:
    p1: SimEstimate
    p2: SimEstimate
    p1_merged: SimEstimate
    p2_merged: SimEstimate
    pc: float
    condition_holds: bool
    guaranteed_pc: float | None
    theta: float
    notes: tuple[str, ...] = field(default_factory=tuple)


def compression_bound(
    worker_low: Worker,
    worker_high: Worker,
    worker_ai: Worker,
    spec: JobSpec,
    model: ErrorModel,
    theta: float,
    config: SimConfig | None = None,
) -> CompressionReport:
    """Productivity compression from pairing each human with the same
    assistant: PC = |P2 - P1| - |P2' - P1'|.

    The analytic lower bound 1 - 2 theta needs equal decision-level
    profiles across the humans, matching decision noise for the
    assistant, a weaker assistant decision mean, and a shared action
    family; failures downgrade the report to empirical-only.  Its
    transition widths take the paper-main dispersion.
    """
    _check_theta(theta)
    config = config or SimConfig()
    notes: list[str] = []
    if worker_low.alpha1 != worker_high.alpha1:
        notes.append("human decision-level profiles differ")
    if worker_ai.alpha1.noise.sigma != worker_low.alpha1.noise.sigma:
        notes.append("assistant decision noise differs from the humans'")
    try:
        if family_param(worker_ai.alpha1) >= family_param(worker_low.alpha1) or \
                worker_ai.alpha1.family != worker_low.alpha1.family:
            notes.append("assistant decision mean not strictly weaker")
    except ParameterError:
        notes.append("assistant decision profile has no comparable parameter")
    action_families = {worker_low.alpha2.family, worker_high.alpha2.family, worker_ai.alpha2.family}
    same_action_family = len(action_families) == 1 and action_families <= set(_FAMILY_KNOB)

    guaranteed = None
    holds = False
    if not notes and same_action_family:
        err_avg = _err_avg_fn(spec, model, config)

        def edge(w: Worker, side: int) -> tuple[float, float]:
            return _err_at_edge(spec, model, err_avg, Worker(worker_low.alpha1, w.alpha2), 2,
                                theta, PAPER_MAIN, side)

        g_ai, e_ai = edge(worker_ai, -1)
        g_high, e_high = edge(worker_high, -1)
        g_low, right = edge(worker_low, 1)
        holds = max(e_ai, e_high) <= spec.tau <= right and all(map(math.isfinite, (g_low, g_high, g_ai)))
        guaranteed = (1.0 - 2.0 * theta) if holds else None
    elif not same_action_family:
        notes.append("action-level families differ; analytic bound skipped")

    merged_low, _ = merging.merge_per_subskill(worker_low, worker_ai, spec)
    merged_high, _ = merging.merge_per_subskill(worker_high, worker_ai, spec)
    p1, p2, p1m, p2m = estimate_many([worker_low, worker_high, merged_low, merged_high], spec, model, config)
    pc = abs(p2.value - p1.value) - abs(p2m.value - p1m.value)
    return CompressionReport(p1, p2, p1m, p2m, pc, holds, guaranteed, theta, tuple(notes))


def bias_misclassification_rate(
    beta: float,
    curve_a,
    curve_p,
    qualify_p: float = 0.8,
    reject_p: float = 0.6,
) -> float:
    """Share of qualified workers (true P >= qualify_p) rejected when the
    evaluated ability is beta times the true one (evaluated P <= reject_p).

    ``curve_a``/``curve_p`` tabulate the monotone map from the ability
    parameter to P; the ability parameter is uniform on [0, 1].
    """
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"bias factor must lie in (0, 1], got {beta}")
    if not 0.0 <= reject_p < qualify_p <= 1.0:
        raise ParameterError(f"need 0 <= reject_p < qualify_p <= 1, got reject_p={reject_p} and "
                             f"qualify_p={qualify_p}")
    a = np.asarray(curve_a, dtype=float)
    p = np.asarray(curve_p, dtype=float)
    if a.ndim != 1 or a.shape != p.shape or len(a) < 2:
        raise ParameterError("curve must be two equal-length vectors with >= 2 points")
    if np.any(np.diff(a) <= 0):
        raise ParameterError("curve abscissae must be strictly increasing")
    if np.any(np.diff(p) < -0.02):
        raise ParameterError("p-curve must be monotone non-decreasing (beyond noise)")
    p = np.maximum.accumulate(p)  # iron out sub-noise wiggles

    a_q = _first_crossing(a, p, qualify_p, "qualify_p")
    a_r = _last_below(a, p, reject_p, "reject_p")

    # The curve only needs to straddle the two thresholds; the ability
    # population itself spans [0, 1].
    qualified = max(0.0, 1.0 - a_q)
    mis = max(0.0, min(1.0, a_r / beta) - a_q)
    if qualified <= 0.0:
        raise UndefinedThresholdError("no probability mass above the qualification ability")
    return min(1.0, max(0.0, mis / qualified))


def _first_crossing(a: np.ndarray, p: np.ndarray, level: float, name: str) -> float:
    idx = np.nonzero(p >= level)[0]
    if idx.size == 0:
        raise UndefinedThresholdError(f"curve never reaches {name}={level}")
    i = int(idx[0])
    if i == 0:
        return float(a[0])
    t = (level - p[i - 1]) / (p[i] - p[i - 1])
    return float(a[i - 1] + t * (a[i] - a[i - 1]))


def _last_below(a: np.ndarray, p: np.ndarray, level: float, name: str) -> float:
    idx = np.nonzero(p <= level)[0]
    if idx.size == 0:
        raise UndefinedThresholdError(f"curve never dips to {name}={level}")
    i = int(idx[-1])
    if i == len(a) - 1:
        return float(a[-1])
    t = (level - p[i]) / (p[i + 1] - p[i])
    return float(a[i] + t * (a[i + 1] - a[i]))
