import math

import numpy as np
import pytest

from jobfit.ability import (
    cdf,
    constant_profile,
    linear_profile,
    truncnorm_var,
    uniform_noise,
)
from jobfit.dataio import load_fixture_job, named_worker
from jobfit.errors import CapacityError, ParameterError
from jobfit.job import FIXTURE_MODEL, ErrorModel, JobSpec, balanced_job
from jobfit.merging import merge_with_trust
from jobfit.simulate import (
    CHUNK_TRIALS,
    SimConfig,
    SimEstimate,
    Worker,
    _chunk_uniforms,
    apply_knob,
    brute_force_success_probability,
    draw_error_matrix,
    estimate_err_avg,
    estimate_many,
    estimate_success_probability,
    exact_err_avg,
    finite_diff_derivative,
    sweep,
)

AVG = ErrorModel()


def linear_worker(a1, a2, sigma, p=0.0, kind="uniform"):
    noise = uniform_noise(sigma) if kind == "uniform" else truncnorm_var(sigma**2)
    return Worker(linear_profile(a1, noise), linear_profile(a2, noise), p)


def tiny_spec(n=2, tau=0.5, seed=0):
    rng = np.random.default_rng(seed)
    tasks = tuple((j,) for j in range(n))
    return JobSpec(rng.uniform(size=n), rng.uniform(size=n), tasks,
                   np.ones(n), np.ones(n), tau)


def test_draw_zero_noise_any_p():
    spec = tiny_spec()
    for p in (0.0, 0.3, 1.0):
        worker = linear_worker(0.3, 0.6, 0.0, p=p)
        zeta = draw_error_matrix(worker, spec, np.random.default_rng(1))
        assert np.allclose(zeta[:, 0], 0.7 * spec.s1)
        assert np.allclose(zeta[:, 1], 0.4 * spec.s2)


def test_draw_fully_dependent_shares_one_status():
    spec = tiny_spec(n=3)
    worker = linear_worker(0.4, 0.5, 0.3, p=1.0)
    zeta = draw_error_matrix(worker, spec, np.random.default_rng(2))
    # every entry must sit at the same quantile level of its own marginal
    levels = []
    for j in range(spec.n):
        levels.append(cdf(worker.alpha1, spec.s1[j], 1.0 - zeta[j, 0]))
        levels.append(cdf(worker.alpha2, spec.s2[j], 1.0 - zeta[j, 1]))
    assert np.ptp(levels) < 1e-9


def test_draw_independent_entries_differ():
    spec = tiny_spec(n=3)
    worker = linear_worker(0.4, 0.5, 0.3, p=0.0)
    zeta = draw_error_matrix(worker, spec, np.random.default_rng(2))
    levels = [cdf(worker.alpha1, spec.s1[j], 1.0 - zeta[j, 0]) for j in range(spec.n)]
    assert np.ptp(levels) > 1e-6


def test_estimates_deterministic():
    spec = tiny_spec(n=4)
    worker = linear_worker(0.5, 0.5, 0.4)
    config = SimConfig(trials=5000, seed=123)
    a = estimate_success_probability(worker, spec, AVG, config)
    b = estimate_success_probability(worker, spec, AVG, config)
    assert a == b
    ea = estimate_err_avg(worker, spec, AVG, config)
    eb = estimate_err_avg(worker, spec, AVG, config)
    assert ea.estimate == eb.estimate


def test_zero_noise_success_is_binary():
    spec = tiny_spec(n=3, tau=0.9)
    worker = linear_worker(0.9, 0.9, 0.0)
    est = estimate_success_probability(worker, spec, AVG, SimConfig(trials=100, seed=1))
    assert est.value == 1.0 and est.stderr == 0.0


def test_single_trial_estimate_valid():
    spec = tiny_spec(n=2)
    est = estimate_success_probability(linear_worker(0.5, 0.5, 0.5), spec, AVG,
                                       SimConfig(trials=1, seed=5))
    assert est.value in (0.0, 1.0)
    assert est.ci[0] <= est.value <= est.ci[1]


def test_err_avg_balanced_example():
    # all difficulties 0.5, slopes 0.5: each subskill error averages 0.25
    n = 6
    spec = balanced_job(n, n, 2, np.full(n, 0.5), np.full(n, 0.5), 0.25)
    worker = linear_worker(0.5, 0.5, 0.2)
    res = estimate_err_avg(worker, spec, AVG, SimConfig(trials=20_000, seed=3))
    assert res.exact == pytest.approx(0.25, abs=1e-12)
    assert abs(res.estimate.value - 0.25) <= 3 * res.estimate.stderr


def test_err_avg_closed_form_matches_mc():
    rng = np.random.default_rng(11)
    for trial in range(5):
        n = int(rng.integers(2, 7))
        spec = JobSpec(rng.uniform(size=n), rng.uniform(size=n),
                       tuple((j,) for j in range(n)),
                       rng.uniform(0.3, 1, size=n), rng.uniform(0.3, 1, size=n), 0.5)
        worker = linear_worker(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 0.8),
                               p=float(rng.uniform(0, 1)))
        model = ErrorModel(h="sum", g="weighted", f="weighted")
        res = estimate_err_avg(worker, spec, model, SimConfig(trials=40_000, seed=trial))
        assert res.exact is not None
        assert abs(res.estimate.value - res.exact) <= 3 * max(res.estimate.stderr, 1e-9)


def test_truncnorm_has_no_closed_form():
    spec = tiny_spec()
    assert exact_err_avg(linear_worker(0.5, 0.5, 0.1, kind="trunc"), spec, AVG) is None
    assert exact_err_avg(linear_worker(0.5, 0.5, 0.1), spec, ErrorModel(h="max")) is None


def test_sweep_single_point_matches_estimate():
    spec = tiny_spec(n=3)
    worker = linear_worker(0.4, 0.5, 0.3)
    config = SimConfig(trials=2000, seed=9)
    pts = sweep(worker, spec, AVG, "a1", [0.4], config)
    assert len(pts) == 1
    assert pts[0].estimate == estimate_success_probability(worker, spec, AVG, config)


def test_sweep_crn_monotone_in_ability():
    n = 10
    rng = np.random.default_rng(13)
    spec = balanced_job(n, n, 3, rng.uniform(size=n), rng.uniform(size=n), 0.3)
    worker = linear_worker(0.5, 0.5, 0.3)
    pts = sweep(worker, spec, AVG, "a1", np.linspace(0, 1, 21), SimConfig(trials=4000, seed=21))
    values = [p.estimate.value for p in pts]
    stderr = max(p.estimate.stderr for p in pts)
    assert all(b >= a - 2 * stderr for a, b in zip(values, values[1:]))


def test_sweep_tau_monotone_exact():
    spec = tiny_spec(n=4)
    worker = linear_worker(0.4, 0.6, 0.5)
    pts = sweep(worker, spec, AVG, "tau", np.linspace(0, 1, 11), SimConfig(trials=3000, seed=2))
    values = [p.estimate.value for p in pts]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_variance_effect_on_success():
    # P far above 1/2: more noise cannot help; far below: cannot hurt
    n = 10
    spec = balanced_job(n, n, 2, np.full(n, 0.5), np.full(n, 0.5), 0.35)
    config = SimConfig(trials=20_000, seed=17)
    high = sweep(linear_worker(0.8, 0.8, 0.1), spec, AVG, "sigma", [0.1, 0.4, 0.8], config)
    vals = [p.estimate.value for p in high]
    se = 2 * max(p.estimate.stderr for p in high)
    assert vals[0] >= 0.6 and all(b <= a + se for a, b in zip(vals, vals[1:]))
    low = sweep(linear_worker(0.1, 0.1, 0.1), spec, AVG, "sigma", [0.1, 0.4, 0.8], config)
    vals = [p.estimate.value for p in low]
    assert vals[0] <= 0.4 and all(b >= a - se for a, b in zip(vals, vals[1:]))


def test_finite_diff_zero_on_flat_region():
    spec = tiny_spec(n=2, tau=0.99)
    worker = linear_worker(0.9, 0.9, 0.1)
    d = finite_diff_derivative(worker, spec, AVG, "a1", 0.5, 0.01, SimConfig(trials=2000, seed=4))
    assert d == 0.0


def test_finite_diff_domain_error():
    spec = tiny_spec()
    with pytest.raises(ParameterError):
        finite_diff_derivative(linear_worker(0.5, 0.5, 0.2), spec, AVG, "a1", 1.0, 0.01)


def test_apply_knob_errors():
    worker = linear_worker(0.5, 0.5, 0.2)
    with pytest.raises(ParameterError):
        apply_knob(worker, "c1", 0.5)  # not a constant profile
    with pytest.raises(ParameterError):
        apply_knob(worker, "zeta", 0.5)
    assert apply_knob(worker, "p", 0.7).p == 0.7
    assert apply_knob(worker, "sigma", 0.05).alpha1.noise.sigma == 0.05


def _uniform_sum_cdf(t, lo1, hi1, lo2, hi2):
    """P[U1 + U2 <= t] for independent uniforms; derived by convolution
    (piecewise-quadratic trapezoid) and evaluated by 1-d quadrature for clarity."""
    xs = np.linspace(lo1, hi1, 20_001)
    inner = np.clip((t - xs - lo2) / (hi2 - lo2), 0.0, 1.0)
    return float(np.trapezoid(inner, xs) / (hi1 - lo1))


def test_brute_force_n1_against_convolution():
    spec = JobSpec([0.6], [0.3], ((0,),), [1.0], [1.0], 0.55)
    worker = linear_worker(0.4, 0.5, 0.6)
    model = ErrorModel(h="sum", g="average", f="average")
    p = brute_force_success_probability(worker, spec, model, resolution=1200)
    # zeta_l ~ Unif centred on (1-a_l) s_l with half-width min(E,1-E) sigma
    e1 = 1 - 0.6 * 0.6
    h1 = min(e1, 1 - e1) * 0.6
    e2 = 1 - 0.5 * 0.3
    h2 = min(e2, 1 - e2) * 0.6
    expect = _uniform_sum_cdf(0.55, 1 - e1 - h1, 1 - e1 + h1, 1 - e2 - h2, 1 - e2 + h2)
    assert p == pytest.approx(expect, abs=2e-3)


def test_brute_force_zero_noise_binary():
    spec = tiny_spec(n=2, tau=0.4)
    worker = linear_worker(0.7, 0.7, 0.0)
    exact = exact_err_avg(worker, spec, AVG)
    p = brute_force_success_probability(worker, spec, AVG, resolution=5)
    assert p == (1.0 if exact <= spec.tau else 0.0)


def test_brute_force_vs_monte_carlo():
    rng = np.random.default_rng(23)
    for trial in range(3):
        spec = tiny_spec(n=2, tau=float(rng.uniform(0.3, 0.7)), seed=trial)
        worker = linear_worker(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                               rng.uniform(0.2, 0.9))
        exact = brute_force_success_probability(worker, spec, AVG, resolution=64)
        est = estimate_success_probability(worker, spec, AVG, SimConfig(trials=100_000, seed=trial))
        assert abs(est.value - exact) <= 3 * max(est.stderr, 1e-4)


def test_brute_force_dependent_status():
    spec = tiny_spec(n=3, tau=0.5)
    worker = linear_worker(0.5, 0.5, 0.5, p=1.0)
    exact = brute_force_success_probability(worker, spec, AVG, resolution=4001)
    est = estimate_success_probability(worker, spec, AVG, SimConfig(trials=100_000, seed=8))
    assert abs(est.value - exact) <= 3 * max(est.stderr, 1e-4)


def test_brute_force_capacity_and_p_checks():
    spec = tiny_spec(n=4)
    with pytest.raises(CapacityError):
        brute_force_success_probability(linear_worker(0.5, 0.5, 0.3), spec, AVG, 10)
    with pytest.raises(ParameterError):
        brute_force_success_probability(linear_worker(0.5, 0.5, 0.3, p=0.5), tiny_spec(2), AVG, 10)


def test_estimate_invariants_survive_optimisation():
    with pytest.raises(ParameterError):
        SimEstimate(0.5, 0.01, (0.6, 0.7), 10, 0)
    with pytest.raises(ParameterError):
        SimEstimate(0.5, -0.01, (0.4, 0.6), 10, 0)
    with pytest.raises(ParameterError):
        SimConfig(seed=-1)


def _many_case():
    spec = JobSpec([0.1, 0.5, 0.9], [0.2, 0.6, 0.8], ((0, 1), (1, 2)), np.ones(3), np.ones(2), 0.45)
    human = linear_worker(0.2, 0.3, 0.3, kind="trunc")
    helper = Worker(constant_profile(0.6, truncnorm_var(0.02)), constant_profile(0.7, truncnorm_var(0.02)))
    merged, _ = merge_with_trust(human, helper, spec, 1.2)
    assert {merged.alpha1.family, merged.alpha2.family} == {"select"}
    workers = [human, apply_knob(human, "p", 0.4), human, merged, apply_knob(human, "a1", 0.6),
               apply_knob(merged, "p", 0.7), helper, linear_worker(0.3, 0.3, 0.2)]
    return spec, workers


@pytest.mark.parametrize("trials", [CHUNK_TRIALS - 1, CHUNK_TRIALS + 1, 2 * CHUNK_TRIALS + 1])
def test_estimate_many_equals_each_worker_alone(trials):
    spec, workers = _many_case()
    config = SimConfig(trials=trials, seed=31)
    taus = [0.3, None, 0.5]
    many = estimate_many(workers, spec, AVG, config, taus)
    assert len(many) == len(workers) * len(taus)
    for i, w in enumerate(workers):
        for j, tau in enumerate(taus):
            alone = estimate_success_probability(w, spec, AVG, config, tau=tau)
            assert many[i * len(taus) + j] == alone == estimate_many([w], spec, AVG, config, [tau])[0]


def test_selector_skip_keeps_earlier_variates():
    u, beta, sel = _chunk_uniforms(5, 2, 1, 1000, 4)
    u0, beta0, sel0 = _chunk_uniforms(5, 2, 1, 1000, 4, need_sel=False)
    assert sel0 is None and sel.shape == u.shape
    assert np.array_equal(u, u0) and np.array_equal(beta, beta0)


def test_shared_path_golden_values():
    # Recorded bit for bit before estimates moved onto shared draws.
    spec = load_fixture_job()
    est = estimate_success_probability(named_worker("human", p=0.3), spec, FIXTURE_MODEL,
                                       SimConfig(trials=CHUNK_TRIALS + 4_464, seed=2024))
    assert [est.value.hex(), est.stderr.hex(), est.ci[0].hex(), est.ci[1].hex()] == [
        "0x1.0f52cc3700e0bp-1", "0x1.ee846e5b37153p-10", "0x1.0d6e2dfdfb2a9p-1", "0x1.11376a700696dp-1"]
    pts = sweep(named_worker("human"), spec, FIXTURE_MODEL, "a1", [0.0, 0.25, 0.5, 0.75, 1.0],
                SimConfig(trials=20_000, seed=7))
    assert [p.estimate.value.hex() for p in pts] == [
        "0x1.7b15b573eab36p-4", "0x1.3886594af4f0ep-1", "0x1.ee83e425aee63p-1",
        "0x1.ffcb923a29c78p-1", "0x1.0000000000000p+0"]
    assert [p.estimate.stderr.hex() for p in pts] == [
        "0x1.0c97c6d797ed2p-9", "0x1.c3f8de26036fep-9", "0x1.50a5b4aaddc1fp-10",
        "0x1.2885d3734ce15p-13", "0x0.0p+0"]
