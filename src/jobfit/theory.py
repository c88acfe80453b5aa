"""Analytic layer: critical abilities, transition widths, merging and
compression guarantees, and evaluation-bias analysis.

Each closed-form quantity comes with an empirical verifier backed by the
simulator, so the concentration-style statements can be checked end to
end on concrete job instances.

Two dispersion conventions are exposed: ``paper-main`` uses the
n * (sigma1^2 + sigma2^2) total valid for both noise families, while
``appendix-general`` sums per-subskill subgaussian bounds (four times
tighter for scaled-uniform noise).  Reports are labelled with whichever
was used.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import ability, merging
from .ability import AbilityProfile, NoiseModel, TRUNCNORM, UNIFORM
from .errors import (
    HypothesisViolationError,
    NoRootError,
    ParameterError,
    UndefinedThresholdError,
)
from .job import ErrorModel, JobSpec, effective_coefficients, lipschitz_bound
from .simulate import (
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

POLY_DOMAIN_DEFAULT = (0.5, 2.0)

_FAMILY_KNOB = {ability.LINEAR: "a", ability.CONSTANT: "c", ability.POLYNOMIAL: "beta"}
_PARAM_BRACKET = {ability.LINEAR: (0.0, 1.0), ability.CONSTANT: (0.0, 1.0),
                  ability.POLYNOMIAL: (0.0, 8.0)}


def family_param(profile: AbilityProfile) -> float:
    """The scalar ability parameter of a base family (a, c, or beta)."""
    if profile.family not in _FAMILY_KNOB:
        raise ParameterError(f"no scalar ability parameter for family {profile.family!r}")
    return profile.params[0]


def level_knob(profile: AbilityProfile, level: int) -> str:
    return f"{_FAMILY_KNOB[profile.family]}{level}"


def subgaussian_bound(noise: NoiseModel) -> float:
    """Per-subskill subgaussian constant: sigma^2/4 for scaled uniform
    (range bound on a width <= sigma interval), sigma^2 for truncated normal."""
    if noise.kind == UNIFORM:
        return noise.sigma**2 / 4.0
    return noise.sigma**2


def max_dispersion(noise1: NoiseModel, noise2: NoiseModel, n: int) -> float:
    """Total dispersion bound over all 2n subskills (appendix-general form)."""
    return n * (subgaussian_bound(noise1) + subgaussian_bound(noise2))


def paper_dispersion(sigma1: float, sigma2: float, n: int) -> float:
    return n * (sigma1**2 + sigma2**2)


def dispersion(noise1: NoiseModel, noise2: NoiseModel, n: int,
               convention: str = PAPER_MAIN) -> float:
    if convention == PAPER_MAIN:
        return paper_dispersion(noise1.sigma, noise2.sigma, n)
    if convention == APPENDIX_GENERAL:
        return max_dispersion(noise1, noise2, n)
    raise ParameterError(f"unknown dispersion convention {convention!r}")


def min_derivative(
    spec: JobSpec,
    model: ErrorModel,
    family: str,
    level: int,
    domain: tuple[float, float] | None = None,
) -> float:
    """Minimum |d Err_avg / d parameter| over the parameter domain.

    Linear family: the derivative is constant, sum_j c_j * s_jl times the
    h scale.  Constant family: sum_j c_j times the h scale.  Polynomial:
    inf over the domain of sum_j c_j * beta * s^(beta-1); the default
    domain [0.5, 2] keeps it positive, and any domain touching 0 makes
    the infimum collapse to zero (infinite transition width).
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
        lo, hi = domain if domain is not None else POLY_DOMAIN_DEFAULT
        if lo <= 0.0:
            warnings.warn("polynomial sensitivity domain touches 0; MinDer collapses to 0")
            return 0.0
        betas = np.linspace(lo, hi, 401)
        pos = s > 0.0
        vals = [float(coeff[pos] @ (b * s[pos] ** (b - 1.0))) for b in betas]
        return min(vals)
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


def _err_avg_fn(spec: JobSpec, model: ErrorModel, config: SimConfig | None):
    """Expected-error evaluator: closed form when exact, CRN Monte Carlo else."""
    mc_config = config or SimConfig(trials=100_000)

    def err_avg(worker: Worker) -> float:
        exact = exact_err_avg(worker, spec, model)
        if exact is not None:
            return exact
        return estimate_err_avg(worker, spec, model, mc_config).estimate.value

    return err_avg


def critical_ability(
    spec: JobSpec,
    model: ErrorModel,
    worker: Worker,
    vary: str,
    tau: float | None = None,
    config: SimConfig | None = None,
    bracket: tuple[float, float] | None = None,
    tol: float = 1e-6,
) -> float:
    """Parameter value where the expected job error equals tau.

    ``vary`` is a knob name (a1, a2, c1, c2, beta1, beta2); the map from
    the parameter to Err_avg is monotone decreasing, so bisection applies.
    Monte Carlo evaluations reuse one set of draws, keeping the objective
    monotone despite the noise.
    """
    tau = spec.tau if tau is None else float(tau)
    if bracket is None:
        level = int(vary[-1])
        bracket = _PARAM_BRACKET[worker.profile(level).family]
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
        if hi - lo <= tol:
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
    tau: float | None = None,
    config: SimConfig | None = None,
    convention: str = PAPER_MAIN,
    poly_domain: tuple[float, float] | None = None,
) -> PhaseReport:
    """Locate the critical parameter, compute the predicted transition
    width, and check P empirically on both sides of the window."""
    _check_theta(theta)
    tau = spec.tau if tau is None else float(tau)
    config = config or SimConfig()
    level = int(vary[-1])
    profile = worker.profile(level)
    mu_c = critical_ability(spec, model, worker, vary, tau=tau, config=config)
    L = lipschitz_bound(spec, model)
    min_der = min_derivative(spec, model, profile.family, level, domain=poly_domain)
    other = worker.profile(3 - level)
    disp = dispersion(profile.noise, other.noise, spec.n, convention)
    if worker.p > 0.0:
        gamma = dependent_transition_width(L, disp, min_der, theta, worker.p, spec.n)
    else:
        gamma = transition_width(L, disp, min_der, theta)
    lo_b, hi_b = _PARAM_BRACKET[profile.family]
    at_low = max(lo_b, mu_c - gamma) if math.isfinite(gamma) else lo_b
    at_high = min(hi_b, mu_c + gamma) if math.isfinite(gamma) else hi_b
    p_low, p_high = estimate_many([apply_knob(worker, vary, at_low), apply_knob(worker, vary, at_high)],
                                  spec, model, config, [tau])
    verified = (p_low.value <= theta + 3.0 * p_low.stderr) and (
        p_high.value >= 1.0 - theta - 3.0 * p_high.stderr
    )
    return PhaseReport(vary, mu_c, gamma, L, min_der, disp, theta, tau,
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
    tau: float | None = None,
    config: SimConfig | None = None,
    convention: str = PAPER_MAIN,
) -> MergeReport:
    """Check the decision-level sandwich that guarantees the merged worker
    (W1 decisions, W2 actions) beats W2 by 1 - 2 theta, and measure all
    four level combinations empirically on shared draws."""
    _check_theta(theta)
    tau = spec.tau if tau is None else float(tau)
    config = config or SimConfig()
    for level in (1, 2):
        f1, f2 = worker1.profile(level).family, worker2.profile(level).family
        if f1 != f2 or f1 not in _FAMILY_KNOB:
            raise HypothesisViolationError(
                f"level-{level} profiles must share a base family (got {f1!r} vs {f2!r}); "
                "use merging.merge_per_subskill for distinct-family workers"
            )
    knob = level_knob(worker1.alpha1, 1)
    L = lipschitz_bound(spec, model)
    gammas = {tag: transition_width(L, dispersion(w.alpha1.noise, worker2.alpha2.noise, spec.n, convention),
                                    min_derivative(spec, model, w.alpha1.family, 1), theta)
              for tag, w in (("1", worker1), ("2", worker2))}
    err_avg = _err_avg_fn(spec, model, config)
    mu1_1 = family_param(worker1.alpha1)
    mu1_2 = family_param(worker2.alpha1)
    lo_b, hi_b = _PARAM_BRACKET[worker1.alpha1.family]
    left_w = apply_knob(Worker(worker1.alpha1, worker2.alpha2), knob, max(lo_b, mu1_1 - gammas["1"]))
    right_w = apply_knob(Worker(worker2.alpha1, worker2.alpha2), knob, min(hi_b, mu1_2 + gammas["2"]))
    err_left = err_avg(left_w)
    err_right = err_avg(right_w)
    holds = err_left <= tau <= err_right and all(math.isfinite(g) for g in gammas.values())

    workers = (worker1, worker2, merging.merge_uniform(worker1, worker2, ("A", "B")),
               merging.merge_uniform(worker1, worker2, ("B", "A")))
    estimates = dict(zip(("p1", "p2", "p12", "p21"), estimate_many(workers, spec, model, config, [tau])))
    delta = max(e.value for e in estimates.values()) - max(estimates["p1"].value, estimates["p2"].value)
    return MergeReport(
        gammas["1"], gammas["2"], err_left, err_right, holds,
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
    tau: float | None = None,
    config: SimConfig | None = None,
    convention: str = PAPER_MAIN,
) -> CompressionReport:
    """Productivity compression from pairing each human with the same
    assistant: PC = |P2 - P1| - |P2' - P1'|.

    The analytic lower bound 1 - 2 theta needs equal decision-level
    profiles across the humans, matching decision noise for the
    assistant, a weaker assistant decision mean, and a shared action
    family; failures downgrade the report to empirical-only.
    """
    _check_theta(theta)
    tau = spec.tau if tau is None else float(tau)
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
        L = lipschitz_bound(spec, model)
        err_avg = _err_avg_fn(spec, model, config)
        sigma1 = worker_low.alpha1.noise

        def gamma2(w: Worker) -> float:
            md = min_derivative(spec, model, w.alpha2.family, 2)
            return transition_width(L, dispersion(w.alpha2.noise, sigma1, spec.n, convention), md, theta)

        g_low, g_high, g_ai = gamma2(worker_low), gamma2(worker_high), gamma2(worker_ai)
        lo_b, hi_b = _PARAM_BRACKET[worker_low.alpha2.family]

        def err_at(w: Worker, value: float) -> float:
            return err_avg(apply_knob(Worker(worker_low.alpha1, w.alpha2), level_knob(w.alpha2, 2), value))

        left = max(err_at(worker_ai, max(lo_b, family_param(worker_ai.alpha2) - g_ai)),
                   err_at(worker_high, max(lo_b, family_param(worker_high.alpha2) - g_high)))
        right = err_at(worker_low, min(hi_b, family_param(worker_low.alpha2) + g_low))
        holds = left <= tau <= right and all(map(math.isfinite, (g_low, g_high, g_ai)))
        guaranteed = (1.0 - 2.0 * theta) if holds else None
    elif not same_action_family:
        notes.append("action-level families differ; analytic bound skipped")

    merged_low, _ = merging.merge_per_subskill(worker_low, worker_ai, spec)
    merged_high, _ = merging.merge_per_subskill(worker_high, worker_ai, spec)
    p1, p2, p1m, p2m = estimate_many([worker_low, worker_high, merged_low, merged_high],
                                     spec, model, config, [tau])
    pc = abs(p2.value - p1.value) - abs(p2m.value - p1m.value)
    return CompressionReport(p1, p2, p1m, p2m, pc, holds, guaranteed, theta, tuple(notes))


def bias_misclassification_rate(
    beta: float,
    curve_a,
    curve_p,
    qualify_p: float = 0.8,
    reject_p: float = 0.6,
    density: tuple | None = None,
) -> float:
    """Share of qualified workers (true P >= qualify_p) rejected when the
    evaluated ability is beta times the true one (evaluated P <= reject_p).

    ``curve_a``/``curve_p`` tabulate the monotone map from the ability
    parameter to P; ``density`` is an optional (grid, pdf) pair over the
    ability parameter, uniform on [0, 1] when omitted.
    """
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"bias factor must lie in (0, 1], got {beta}")
    if not qualify_p > reject_p:
        raise ParameterError("qualify_p must exceed reject_p")
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
    # population itself spans [0, 1] unless an explicit density says else.
    if density is None:
        hi = 1.0
        cut = min(hi, a_r / beta)
        qualified = max(0.0, hi - a_q)
        mis = max(0.0, min(cut, hi) - a_q)
    else:
        grid = np.asarray(density[0], dtype=float)
        pdf = np.asarray(density[1], dtype=float)
        if grid.shape != pdf.shape or np.any(pdf < 0):
            raise ParameterError("density must be a (grid, pdf) pair with pdf >= 0")
        hi = float(grid[-1])
        cut = min(hi, a_r / beta)
        qualified = _mass(grid, pdf, a_q, hi)
        mis = _mass(grid, pdf, a_q, min(cut, hi))
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


def _mass(grid: np.ndarray, pdf: np.ndarray, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    xs = np.linspace(lo, hi, 513)
    return float(np.trapezoid(np.interp(xs, grid, pdf), xs))
