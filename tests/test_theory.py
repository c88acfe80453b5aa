import math

import numpy as np
import pytest

from jobfit.ability import (
    constant_profile,
    linear_profile,
    polynomial_profile,
    truncnorm_noise,
    uniform_noise,
)
from jobfit.errors import (
    HypothesisViolationError,
    NoRootError,
    ParameterError,
    UndefinedThresholdError,
)
from jobfit.job import ErrorModel, JobSpec, balanced_job
from jobfit.simulate import SimConfig, Worker, apply_knob, brute_force_success_probability, exact_err_avg
from jobfit import theory
from jobfit.theory import (
    APPENDIX_GENERAL,
    PAPER_MAIN,
    POLY_DOMAIN,
    bias_misclassification_rate,
    compression_bound,
    critical_ability,
    dependent_transition_width,
    dispersion,
    merging_condition,
    min_derivative,
    transition_width,
    verify_phase_transition,
)

AVG = ErrorModel()


def uworker(a1, a2, sigma, p=0.0):
    return Worker(linear_profile(a1, uniform_noise(sigma)),
                  linear_profile(a2, uniform_noise(sigma)), p)


def flat_spec(n, tau, s=0.5):
    return balanced_job(n, n, 2, np.full(n, s), np.full(n, s), tau)


def test_critical_ability_hand_reduced():
    # Err_avg = ((1-a1) 0.5 + 0.5 * 0.5) / 2 = 0.25  =>  a1 = 0.5
    spec = flat_spec(8, tau=0.25)
    worker = uworker(0.9, 0.5, 0.0)
    assert critical_ability(spec, AVG, worker, "a1") == pytest.approx(0.5, abs=1e-6)


def test_critical_ability_boundary_root():
    spec = flat_spec(6, tau=0.0)
    worker = uworker(0.5, 1.0, 0.0)
    # at a1 = 1 both levels are perfect, so Err_avg = 0 = tau exactly
    assert critical_ability(spec, AVG, worker, "a1") == pytest.approx(1.0, abs=1e-6)


def test_critical_ability_no_root():
    spec = flat_spec(6, tau=0.9)
    with pytest.raises(NoRootError):
        critical_ability(spec, AVG, uworker(0.5, 0.5, 0.1), "a1")


def test_critical_ability_monte_carlo_path():
    # truncated-normal noise has no closed form; CRN bisection still lands
    # near the uniform-noise root because the zero-mean shift is small here
    spec = flat_spec(8, tau=0.25)
    worker = Worker(linear_profile(0.9, truncnorm_noise(0.05)),
                    linear_profile(0.5, truncnorm_noise(0.05)))
    root = critical_ability(spec, AVG, worker, "a1", config=SimConfig(trials=20_000, seed=3))
    assert root == pytest.approx(0.5, abs=0.02)


def test_transition_width_arithmetic():
    # independent plug-in check of the formula
    L = 1.0 / (2 * 20)
    disp = 20 * (0.01 + 0.01)
    expect = L * math.sqrt(disp * math.log(10.0)) / 0.25
    assert transition_width(L, disp, 0.25, 0.1) == pytest.approx(expect)
    assert expect == pytest.approx(0.0959, abs=2e-4)
    assert transition_width(0.1, 0.0, 0.5, 0.4999) == 0.0
    assert transition_width(0.1, 0.4, 0.0, 0.1) == math.inf
    # doubling sigma doubles the width through the dispersion
    assert transition_width(L, 4 * disp, 0.25, 0.1) == pytest.approx(2 * expect)
    with pytest.raises(ParameterError):
        transition_width(L, disp, 0.25, 0.7)


def test_dependent_width_branches():
    L, disp, md, theta, n = 0.025, 0.4, 0.25, 0.1, 20
    base = L * math.sqrt(disp) / md
    assert dependent_transition_width(L, disp, md, theta, 0.0, n) == pytest.approx(
        base * math.sqrt(math.log(2 / theta)))
    assert dependent_transition_width(L, disp, md, theta, 1.0, n) == pytest.approx(
        base * math.sqrt(n * math.log(2 / theta)))
    # p = 0.5: the coupled branch dominates
    both = dependent_transition_width(L, disp, md, theta, 0.5, n)
    assert both == pytest.approx(base * math.sqrt(n * math.log(1.0 / theta)))
    assert both > dependent_transition_width(L, disp, md, theta, 0.0, n)


def test_min_derivative_families():
    rng = np.random.default_rng(1)
    n = 100
    s1 = rng.uniform(size=n)
    spec = balanced_job(n, n, 4, s1, rng.uniform(size=n), 0.25)
    md = min_derivative(spec, AVG, "linear", 1)
    assert md == pytest.approx(s1.sum() / (2 * n), abs=1e-12)
    assert md == pytest.approx(0.25, abs=0.05)
    assert min_derivative(spec, AVG, "constant", 1) == pytest.approx(0.5)
    zero = balanced_job(4, 4, 2, np.zeros(4), np.zeros(4), 0.25)
    assert min_derivative(zero, AVG, "linear", 1) == 0.0
    poly = min_derivative(spec, AVG, "polynomial", 1)
    assert poly > 0.0


def test_polynomial_slope_is_the_smallest_slope_of_err_avg_in_beta():
    # The sensitivity is |d Err_avg / d beta|, the slope along the knob
    # itself, not the derivative of the mean in s.
    rng = np.random.default_rng(1)
    spec = balanced_job(20, 20, 4, rng.uniform(size=20), rng.uniform(size=20), 0.25)
    worker = Worker(polynomial_profile(1.0, uniform_noise(0.0)), linear_profile(0.5, uniform_noise(0.0)))
    step = 1e-5

    def err(beta):
        return exact_err_avg(apply_knob(worker, "beta1", beta), spec, AVG)

    slopes = [(err(b - step) - err(b + step)) / (2 * step) for b in np.linspace(*POLY_DOMAIN, 16)]
    assert min(slopes) > 0.0
    assert min_derivative(spec, AVG, "polynomial", 1) == pytest.approx(min(slopes), rel=1e-6)


def test_max_dispersion_examples():
    n = 20
    u = uniform_noise(0.3)
    t = truncnorm_noise(0.3)
    assert dispersion(u, u, n, APPENDIX_GENERAL) == pytest.approx(n * 0.3**2 / 2)
    assert dispersion(t, t, n, APPENDIX_GENERAL) == pytest.approx(2 * n * 0.3**2)
    assert dispersion(uniform_noise(0.0), truncnorm_noise(0.0), n, APPENDIX_GENERAL) == 0.0
    assert dispersion(uniform_noise(0.1), uniform_noise(0.2), n, PAPER_MAIN) == pytest.approx(n * 0.05)


def test_gamma_scaling_ratios():
    # gamma ~ sigma and ~ 1/sqrt(n) in the balanced linear-uniform setting
    def gamma(n, sigma):
        L = 1.0 / (2 * n)
        md = 0.25
        return transition_width(L, dispersion(uniform_noise(sigma), uniform_noise(sigma), n, PAPER_MAIN), md, 0.1)

    assert gamma(20, 0.1) / gamma(20, 0.05) == pytest.approx(2.0)
    assert gamma(20, 0.2) / gamma(20, 0.1) == pytest.approx(2.0)
    assert gamma(40, 0.1) / gamma(10, 0.1) == pytest.approx(0.5)


def test_verify_phase_zero_noise_jump():
    spec = flat_spec(8, tau=0.25)
    worker = uworker(0.9, 0.5, 0.0)
    report = verify_phase_transition(spec, AVG, worker, "a1", theta=0.2,
                                     config=SimConfig(trials=2000, seed=5))
    assert report.gamma1 == 0.0
    assert report.mu1_c == pytest.approx(0.5, abs=1e-5)
    # binary success on either side of the root
    cfg = SimConfig(trials=200, seed=5)
    from jobfit.simulate import apply_knob, estimate_success_probability

    lo = estimate_success_probability(apply_knob(worker, "a1", report.mu1_c - 0.01), spec, AVG, cfg)
    hi = estimate_success_probability(apply_knob(worker, "a1", report.mu1_c + 0.01), spec, AVG, cfg)
    assert lo.value == 0.0 and hi.value == 1.0


@pytest.mark.parametrize("vary", ["p", "tau", "a", "sigma1", "c1", "a3", "beta2"])
def test_phase_rejects_a_knob_that_is_no_ability_parameter(vary):
    # Only the base-family knob of a level (a1 and a2 for linear levels) has a
    # bracket to bisect; "sigma1" used to bisect a noise level over [0, 1].
    spec = flat_spec(8, tau=0.25)
    worker = uworker(0.9, 0.5, 0.1)
    with pytest.raises(ParameterError, match="a1', 'a2"):
        verify_phase_transition(spec, AVG, worker, vary, theta=0.2, config=SimConfig(trials=200))
    with pytest.raises(ParameterError):
        critical_ability(spec, AVG, worker, vary)


def test_phase_varies_the_constant_level_by_its_knob():
    spec = flat_spec(8, tau=0.25)
    worker = Worker(linear_profile(0.9, uniform_noise(0.1)), constant_profile(0.5, uniform_noise(0.1)))
    assert 0.0 < critical_ability(spec, AVG, worker, "c2") < 1.0
    with pytest.raises(ParameterError, match="a1', 'c2"):
        critical_ability(spec, AVG, worker, "a2")


def test_verify_phase_small_instance_with_oracle():
    rng = np.random.default_rng(4)
    n = 2
    spec = JobSpec(rng.uniform(size=n), rng.uniform(size=n),
                   tuple((j,) for j in range(n)), np.ones(n), np.ones(n), 0.0)
    worker = uworker(0.6, 0.5, 0.25)
    from jobfit.simulate import apply_knob, exact_err_avg

    tau = exact_err_avg(apply_knob(worker, "a1", 0.55), spec, AVG)
    spec = spec.with_tau(tau)
    report = verify_phase_transition(spec, AVG, worker, "a1", theta=0.15,
                                     config=SimConfig(trials=20_000, seed=6))
    assert report.verified
    # cross-check the two endpoint probabilities against exact quadrature
    for at, est in ((report.at_low, report.p_low), (report.at_high, report.p_high)):
        exact = brute_force_success_probability(apply_knob(worker, "a1", at), spec, AVG, 64)
        assert abs(est.value - exact) <= 3 * max(est.stderr, 2e-3)


def test_merging_condition_identical_workers():
    spec = flat_spec(10, tau=0.3)
    w = uworker(0.5, 0.5, 0.3)
    report = merging_condition(w, w, spec, AVG, theta=0.1,
                               config=SimConfig(trials=10_000, seed=7))
    se = 2 * max(report.p1.stderr, report.p12.stderr)
    assert abs(report.delta) <= 2 * se
    assert report.p12.value == report.p1.value  # identical workers share draws


def test_merging_condition_guarantee():
    # flat difficulties make the sandwich analytically checkable:
    # Err_avg(a1, a2) = (2 - a1 - a2) / 4, so tau = 0.22 sits between the
    # merged worker's slack and W2's shortfall once gamma ~ 0.05
    spec = flat_spec(20, tau=0.22)
    w1 = uworker(0.7, 0.45, 0.05)
    w2 = uworker(0.45, 0.55, 0.05)
    report = merging_condition(w1, w2, spec, AVG, theta=0.1,
                               config=SimConfig(trials=20_000, seed=8))
    assert report.condition_holds
    assert report.guaranteed_gain == pytest.approx(0.8)
    gain = report.p12.value - report.p2.value
    assert gain >= report.guaranteed_gain - 3 * (report.p12.stderr + report.p2.stderr)
    assert report.err_left <= spec.tau <= report.err_right


def test_merging_condition_dominant_worker():
    n = 20
    rng = np.random.default_rng(111225)
    spec = balanced_job(n, n, 4, rng.uniform(size=n), rng.uniform(size=n), 0.25)
    strong, weak = uworker(0.7, 0.7, 0.1), uworker(0.4, 0.4, 0.1)
    rep = merging_condition(strong, weak, spec, AVG, theta=0.2,
                            config=SimConfig(trials=20_000, seed=9))
    assert rep.p12.value <= rep.p1.value + 2 * rep.p1.stderr
    assert rep.delta <= 2 * (rep.p1.stderr + rep.p12.stderr)


def test_merging_condition_family_mismatch():
    spec = flat_spec(6, tau=0.3)
    w1 = uworker(0.5, 0.5, 0.2)
    w2 = Worker(linear_profile(0.4, uniform_noise(0.2)),
                constant_profile(0.8, uniform_noise(0.2)))
    with pytest.raises(HypothesisViolationError, match="merge_per_subskill"):
        merging_condition(w1, w2, spec, AVG, theta=0.1)


def test_compression_trivial_cases():
    spec = flat_spec(10, tau=0.3)
    human = uworker(0.5, 0.5, 0.2)
    ai = Worker(linear_profile(0.3, uniform_noise(0.2)),
                linear_profile(0.1, uniform_noise(0.2)))
    # assistant worse everywhere at the action level: merges are identities
    report = compression_bound(human, human, ai, spec, AVG, theta=0.1,
                               config=SimConfig(trials=5000, seed=10))
    assert report.pc == pytest.approx(0.0)
    assert report.p1_merged.value == report.p1.value


def test_compression_analytic_guarantee():
    n = 20
    rng = np.random.default_rng(42)
    spec = balanced_job(n, n, 4, rng.uniform(size=n), rng.uniform(size=n), 0.25)
    decision = linear_profile(0.6, uniform_noise(0.1))
    low = Worker(decision, linear_profile(0.25, uniform_noise(0.1)))
    high = Worker(decision, linear_profile(0.75, uniform_noise(0.1)))
    ai = Worker(linear_profile(0.3, uniform_noise(0.1)),
                linear_profile(0.72, uniform_noise(0.1)))
    report = compression_bound(low, high, ai, spec, AVG, theta=0.15,
                               config=SimConfig(trials=20_000, seed=11))
    assert report.condition_holds
    assert report.pc >= report.guaranteed_pc - 4 * max(
        report.p1.stderr, report.p2.stderr, report.p1_merged.stderr, report.p2_merged.stderr)


def _exact_curve():
    # piecewise-linear P(a) through (0.07, 0.2) and (0.34, 0.8): crosses
    # P = 0.6 at exactly a = 0.25
    a = np.array([0.0, 0.07, 0.34, 1.0])
    p = np.array([0.05, 0.2, 0.8, 1.0])
    return a, p


def test_bias_rate_formula():
    a, p = _exact_curve()
    for beta in (0.3, 0.4, 0.5, 0.6, 0.7, 0.9):
        expect = min(1.0, max(0.0, 0.25 / beta - 0.34) / 0.66)
        got = bias_misclassification_rate(beta, a, p)
        assert got == pytest.approx(expect, abs=1e-9), beta
    assert bias_misclassification_rate(1.0, a, p) == 0.0
    assert bias_misclassification_rate(0.5, a, p) == pytest.approx(0.2424, abs=2e-4)
    # saturates at 1 for strong bias
    assert bias_misclassification_rate(0.25, a, p) == pytest.approx(1.0)


def test_bias_rate_properties_and_density():
    a, p = _exact_curve()
    rates = [bias_misclassification_rate(b, a, p) for b in np.linspace(0.25, 1.0, 16)]
    assert all(x >= y - 1e-12 for x, y in zip(rates, rates[1:]))
    assert all(0.0 <= r <= 1.0 for r in rates)


def test_bias_rate_errors():
    a, p = _exact_curve()
    with pytest.raises(UndefinedThresholdError):
        bias_misclassification_rate(0.5, a, np.clip(p, 0.0, 0.9), qualify_p=0.95)
    with pytest.raises(UndefinedThresholdError):
        bias_misclassification_rate(0.5, a, np.clip(p, 0.3, 1.0), reject_p=0.1)
    for qualify_p, reject_p in ((0.5, 0.6), (1.5, 0.6), (0.8, -0.1)):
        with pytest.raises(ParameterError):
            bias_misclassification_rate(0.5, a, p, qualify_p=qualify_p, reject_p=reject_p)
    with pytest.raises(ParameterError):
        bias_misclassification_rate(1.2, a, p)
    with pytest.raises(ParameterError):
        bias_misclassification_rate(0.5, a, p[::-1])
