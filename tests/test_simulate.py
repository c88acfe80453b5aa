import itertools
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from jobfit.ability import (
    LINEAR,
    AbilityProfile,
    cdf,
    constant_profile,
    linear_profile,
    piecewise_profile,
    polynomial_profile,
    quantile,
    select_profile,
    survival,
    truncnorm_noise,
    truncnorm_var,
    uniform_noise,
)
from jobfit.dataio import AI_VARIANCE, load_fixture_job, named_worker
from jobfit.errors import CapacityError, ParameterError
from jobfit import ability, simulate, theory
from jobfit.job import FIXTURE_MODEL, ErrorModel, JobSpec, balanced_job, make_error_evaluator
from jobfit.merging import evaluate_merge_gain, merge_per_subskill, merge_with_trust
from jobfit.simulate import (
    BLOCK_TRIALS,
    CHUNK_TRIALS,
    SimConfig,
    SimEstimate,
    Worker,
    _call_blocks,
    _chunk_uniforms,
    _Draws,
    _level_errors,
    _shared_draw_errors,
    apply_knob,
    brute_force_success_probability,
    estimate_cases,
    estimate_err_avg,
    estimate_many,
    estimate_success_probability,
    exact_err_avg,
    finite_diff_derivative,
    sweep,
)

AVG = ErrorModel()
MAX = ErrorModel(h="max", g="max", f="max")


def linear_worker(a1, a2, sigma, p=0.0, kind="uniform"):
    noise = uniform_noise(sigma) if kind == "uniform" else truncnorm_var(sigma**2)
    return Worker(linear_profile(a1, noise), linear_profile(a2, noise), p)


def tiny_spec(n=2, tau=0.5, seed=0):
    rng = np.random.default_rng(seed)
    tasks = tuple((j,) for j in range(n))
    return JobSpec(rng.uniform(size=n), rng.uniform(size=n), tasks,
                   np.ones(n), np.ones(n), tau)


def errors_by_chunk(workers, spec, model, trials, seed, tag):
    """``(i, job errors)`` of every worker i per chunk, rebuilt from the
    blocks of a call on ``trials`` trials in one process."""
    blocks = _call_blocks(trials)
    counts = {chunk: count for chunk, count, *_ in blocks}
    err = None
    for chunk, a, b, block in _shared_draw_errors(workers, _Draws(spec, model, seed, tag, trials), blocks):
        if a == 0:
            err = np.empty((len(workers), counts[chunk]))
        err[:, a:b] = block
        if b == counts[chunk]:
            yield from enumerate(err)


def chunk_errors(worker, spec, count=8, seed=1):
    """(count, n, 2) subskill errors of ``worker`` on the first ``count``
    trials of one chunk, level by level as the engine computes them."""
    u, beta, sel = _chunk_uniforms(seed, 0, 0, count, spec.n)
    return np.stack([_level_errors(prof, s, worker.p, col, u, beta, sel) for col, (prof, s)
                     in enumerate(((worker.alpha1, spec.s1), (worker.alpha2, spec.s2)))], axis=-1)


def test_draw_zero_noise_any_p():
    spec = tiny_spec()
    for p in (0.0, 0.3, 1.0):
        worker = linear_worker(0.3, 0.6, 0.0, p=p)
        zeta = chunk_errors(worker, spec)
        assert np.allclose(zeta[:, :, 0], 0.7 * spec.s1)
        assert np.allclose(zeta[:, :, 1], 0.4 * spec.s2)


def test_draw_fully_dependent_shares_one_status():
    spec = tiny_spec(n=3)
    worker = linear_worker(0.4, 0.5, 0.3, p=1.0)
    for zeta in chunk_errors(worker, spec, seed=2):
        # every entry must sit at the same quantile level of its own marginal
        levels = []
        for j in range(spec.n):
            levels.append(cdf(worker.alpha1, spec.s1[j], 1.0 - zeta[j, 0]))
            levels.append(cdf(worker.alpha2, spec.s2[j], 1.0 - zeta[j, 1]))
        assert np.ptp(levels) < 1e-9


def test_draw_independent_entries_differ():
    spec = tiny_spec(n=3)
    worker = linear_worker(0.4, 0.5, 0.3, p=0.0)
    for zeta in chunk_errors(worker, spec, seed=2):
        levels = [cdf(worker.alpha1, spec.s1[j], 1.0 - zeta[j, 0]) for j in range(spec.n)]
        assert np.ptp(levels) > 1e-6


def forget_carry(monkeypatch):
    """Clear the level columns the previous call kept, so that the next
    call computes every column from fresh draws."""
    monkeypatch.setattr(simulate, "_carry", simulate._Carry())


def test_estimates_deterministic(monkeypatch):
    spec = tiny_spec(n=4)
    worker = linear_worker(0.5, 0.5, 0.4)
    config = SimConfig(trials=5000, seed=123)
    a = estimate_success_probability(worker, spec, AVG, config)
    forget_carry(monkeypatch)
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


def test_ci_z_is_the_975_normal_quantile():
    # A literal, so that the engine never imports scipy.special for it.
    from scipy.special import ndtri

    assert simulate._Z.hex() == float(ndtri(0.975)).hex()


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


def test_sweep_single_point_matches_estimate(monkeypatch):
    spec = tiny_spec(n=3)
    worker = linear_worker(0.4, 0.5, 0.3)
    config = SimConfig(trials=2000, seed=9)
    pts = sweep(worker, spec, AVG, "a1", [0.4], config)
    assert len(pts) == 1
    forget_carry(monkeypatch)
    assert pts[0].estimate == estimate_success_probability(worker, spec, AVG, config)


def test_sweep_crn_monotone_in_ability():
    n = 10
    rng = np.random.default_rng(13)
    spec = balanced_job(n, n, 3, rng.uniform(size=n), rng.uniform(size=n), 0.3)
    worker = linear_worker(0.5, 0.5, 0.3)
    pts = sweep(worker, spec, AVG, "a1", np.linspace(0, 1, 21), SimConfig(trials=4000, seed=21))
    values = [p.estimate.value for p in pts]
    assert all(b >= a for a, b in zip(values, values[1:]))


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
    # tau is the job's, not the worker's, and only its own knobs are listed.
    with pytest.raises(ParameterError, match="tau is the job's threshold") as raised:
        apply_knob(worker, "tau", 0.5)
    assert "'tau'" not in str(raised.value).split("choose from")[1].split(";")[0]
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
    # Only a model neither linear nor all-max visits every grid point.
    spec = tiny_spec(n=4)
    with pytest.raises(CapacityError):
        brute_force_success_probability(linear_worker(0.5, 0.5, 0.3), spec, ErrorModel(h="max"), 10)
    with pytest.raises(ParameterError):
        brute_force_success_probability(linear_worker(0.5, 0.5, 0.3, p=0.5), tiny_spec(2), AVG, 10)


@pytest.mark.parametrize("seed", range(40))
def test_brute_force_counts_equal_the_tensor_count(seed):
    # All-max models count by a product of node counts, linear models by
    # sorted half-grid sums; both equal every point through the evaluator.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    tasks = tuple(tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)))
                  for _ in range(int(rng.integers(1, 3))))
    spec = JobSpec(rng.uniform(size=n), rng.uniform(size=n), tasks, rng.uniform(0.2, 1.0, size=n),
                   rng.uniform(0.2, 1.0, size=len(tasks)), float(rng.uniform(0.1, 0.7)))
    kind = "uniform" if seed % 2 else "trunc"
    worker = linear_worker(float(rng.uniform()), float(rng.uniform()), float(rng.uniform(0.0, 0.9)), kind=kind)
    resolution = int(rng.integers(3, 9))
    mid = (np.arange(resolution) + 0.5) / resolution
    zvals = np.stack([1.0 - quantile(prof, float(s[j]), mid)
                      for j in range(n) for prof, s in ((worker.alpha1, spec.s1), (worker.alpha2, spec.s2))])
    attained = float(zvals[0, resolution // 2])
    for model, taus in ((AVG, [spec.tau]), (FIXTURE_MODEL, [spec.tau]),
                        (MAX, [spec.tau, attained, float(np.nextafter(attained, -1.0))])):
        for tau in taus:
            want = simulate._tensor_count(make_error_evaluator(spec, model), zvals, tau)
            got = brute_force_success_probability(worker, spec.with_tau(tau), model, resolution)
            assert got == want / resolution ** (2 * n), (model, tau)


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
def test_estimate_many_equals_each_worker_alone(trials, monkeypatch):
    spec, workers = _many_case()
    config = SimConfig(trials=trials, seed=31)
    taus = [0.3, None, 0.5]
    many = estimate_many(workers, spec, AVG, config, taus)
    assert len(many) == len(workers) * len(taus)
    for i, w in enumerate(workers):
        for j, tau in enumerate(taus):
            forget_carry(monkeypatch)
            alone = estimate_success_probability(w, spec if tau is None else spec.with_tau(tau), AVG, config)
            forget_carry(monkeypatch)
            assert many[i * len(taus) + j] == alone == estimate_many([w], spec, AVG, config, [tau])[0]


@pytest.mark.parametrize("crn", [True, False])
def test_estimate_cases_equal_each_case_alone(crn, monkeypatch):
    # Repeated workers, and tau None beside the job's own tau as a float.
    # Under CRN one estimate_many call counts the distinct workers against
    # the distinct taus; without it case k runs alone on tag 1 + k.
    spec, (w0, w1), config = _carry_case()
    spec = spec.with_tau(0.3)
    cases = [(w0, None), (w1, 0.28), (w0, spec.tau), (w1, None), (w0, 0.28), (w0, None)]
    forget_carry(monkeypatch)
    calls = _spy(monkeypatch, "estimate_many")
    got = estimate_cases(cases, spec, AVG, config, crn)
    if crn:
        assert [call[0] for call in calls] == [[w0, w1]] and calls[0][4] == [None, 0.28, spec.tau]
    else:
        assert len(calls) == len(cases)
    monkeypatch.undo()
    alone = []
    for k, (w, tau) in enumerate(cases):
        forget_carry(monkeypatch)
        alone += estimate_many([w], spec, AVG, config, [tau], 0 if crn else 1 + k)
    assert _bits(got) == _bits(alone)
    assert len({e.value for e in got}) == (4 if crn else 6)


def test_selector_skip_keeps_earlier_variates():
    u, beta, sel = _chunk_uniforms(5, 2, 1, 1000, 4)
    u0, beta0, sel0 = _chunk_uniforms(5, 2, 1, 1000, 4, coupled=False)
    assert beta0 is None and sel0 is None and beta.shape == (1000,) and sel.shape == u.shape
    assert np.array_equal(u, u0)


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


def _max_case():
    rng = np.random.default_rng(5)
    spec = balanced_job(32, 128, 6, rng.uniform(size=32), rng.uniform(size=32), 0.39)
    return spec, linear_worker(0.7, 0.7, 0.5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_max_job_against_exact_product(seed):
    # With h = g = f = max and p = 0 the job succeeds iff every covered
    # subskill error is <= tau, and those errors are independent.
    spec, worker = _max_case()
    assert {j for t in spec.tasks for j in t} == set(range(spec.n))  # every skill is covered
    exact = float(np.prod(survival(worker.alpha1, spec.s1, 1.0 - spec.tau))
                  * np.prod(survival(worker.alpha2, spec.s2, 1.0 - spec.tau)))
    est = estimate_success_probability(worker, spec, MAX, SimConfig(trials=200_000, seed=seed))
    assert abs(est.value - exact) <= 4 * est.stderr


def test_max_job_golden_values():
    # Recorded bit for bit before the max evaluator went skill-major.
    spec, worker = _max_case()
    est = estimate_success_probability(worker, spec, MAX, SimConfig(trials=CHUNK_TRIALS + 1, seed=17))
    assert [est.value.hex(), est.stderr.hex(), est.ci[0].hex(), est.ci[1].hex()] == [
        "0x1.99b2664d99b26p-2", "0x1.f5abe340ff571p-10", "0x1.95db2444c32f4p-2", "0x1.9d89a85670358p-2"]


def test_truncated_normal_max_job_golden_values():
    # Recorded bit for bit before all-max calls counted by uniform
    # thresholds; truncated-normal noise keeps the column path.
    spec, _ = _max_case()
    worker = linear_worker(0.7, 0.7, 0.1, kind="trunc")
    est = estimate_success_probability(worker, spec.with_tau(0.45), MAX, SimConfig(trials=CHUNK_TRIALS + 1, seed=17))
    assert [est.value.hex(), est.stderr.hex(), est.ci[0].hex(), est.ci[1].hex()] == [
        "0x1.0552faad05530p-1", "0x1.ffe2a695b1bbcp-10", "0x1.035d573ce95ebp-1", "0x1.07489e1d21475p-1"]


def reference_level_errors(profile, s, p, col, u, beta, sel):
    """``_level_errors`` as it was when it inverted both the independent and
    the status variate and then picked one, kept verbatim as the
    bit-for-bit reference."""
    x = quantile(profile, s[None, :], u[:, :, col])
    if p > 0.0:
        dep = quantile(profile, s[None, :], beta[:, None])
        x = np.where(sel[:, :, col] < p, dep, x)
    return 1.0 - x


@pytest.mark.parametrize("noise", [uniform_noise(0.0), uniform_noise(0.4), uniform_noise(1.0),
                                   truncnorm_noise(0.0), truncnorm_noise(0.15), truncnorm_noise(3.0)],
                         ids=lambda nm: f"{nm.kind}-{nm.sigma}")
def test_level_errors_one_transform_equals_reference_bits(noise):
    spec = tiny_spec(n=6, seed=4)
    u, beta, sel = _chunk_uniforms(8, 0, 0, 300, spec.n)
    before = [a.copy() for a in (u, beta, sel)]
    profiles = [
        constant_profile(0.6, noise),
        AbilityProfile(LINEAR, (0.3, 0.9), noise),
        polynomial_profile(1.7, noise),
        piecewise_profile([(0.0, 1.0), (0.5, 0.7), (1.0, 0.2)], noise),
        select_profile(linear_profile(0.22, noise), constant_profile(0.7, truncnorm_noise(0.2)), 1.1),
    ]
    for prof in profiles:
        for p in (0.0, 0.3, 1.0):
            for col, s in enumerate((spec.s1, spec.s2)):
                got = _level_errors(prof, s, p, col, u, beta, sel)
                want = reference_level_errors(prof, s, p, col, u, beta, sel)
                assert got.shape == want.shape == (300, spec.n) and type(got) is type(want)
                assert got.tobytes() == want.tobytes(), (prof.family, p, col)
    assert all(np.array_equal(a, b) for a, b in zip((u, beta, sel), before))


@pytest.mark.parametrize("coupled", [True, False])
def test_chunk_uniforms_equal_generator_uniform(coupled):
    u, beta, sel = _chunk_uniforms(9, 3, 2, 500, 6, coupled=coupled)
    rng = np.random.default_rng(np.random.SeedSequence([9, 3, 2]))
    assert u.tobytes() == rng.uniform(size=(500, 6, 2)).tobytes()
    if coupled:
        assert beta.tobytes() == rng.uniform(size=500).tobytes()
        assert sel.tobytes() == rng.uniform(size=(500, 6, 2)).tobytes()
    else:
        assert beta is None and sel is None


def test_full_chunks_do_not_depend_on_run_length():
    spec, workers = _many_case()
    workers = list(dict.fromkeys(workers))[:4]

    def full_chunks(trials):
        errs = [err for _, err in errors_by_chunk(workers, spec, AVG, trials, 13, 0)]
        return [e.tobytes() for e in errs[:len(workers) * (trials // CHUNK_TRIALS)]]

    longest = full_chunks(2 * CHUNK_TRIALS + 1)
    assert len(longest) == 2 * len(workers)
    for trials in (CHUNK_TRIALS, CHUNK_TRIALS + 1):
        assert full_chunks(trials) == longest[:len(workers)]


def test_block_size_divides_chunk_on_eight_row_boundaries():
    # BLAS groups rows in the weighted sums: a block boundary that is not a
    # multiple of 8 rows (333 or 1001, say) changes the bits of the linear
    # and weighted evaluators.
    assert CHUNK_TRIALS % BLOCK_TRIALS == 0 and BLOCK_TRIALS % 8 == 0


@pytest.mark.parametrize("coupled", [True, False])
@pytest.mark.parametrize("count, n, rows", [
    (1000, 4, [(0, 64), (64, 512), (512, 1000)]),
    (700, 1, [(0, 8), (8, 640), (640, 700)]),
    (CHUNK_TRIALS, 2, [(0, BLOCK_TRIALS), (BLOCK_TRIALS, CHUNK_TRIALS - BLOCK_TRIALS),
                       (CHUNK_TRIALS - BLOCK_TRIALS, CHUNK_TRIALS)]),
])
def test_chunk_uniforms_row_blocks_concatenate_to_chunk(count, n, rows, coupled):
    whole = _chunk_uniforms(6, 1, 3, count, n, coupled=coupled)
    parts = [_chunk_uniforms(6, 1, 3, count, n, coupled=coupled, rows=r) for r in rows]
    for k, name in enumerate(("u", "beta", "sel")):
        if not coupled and name != "u":
            assert whole[k] is None and all(part[k] is None for part in parts)
            continue
        assert [part[k].shape[0] for part in parts] == [b - a for a, b in rows]
        assert np.concatenate([part[k] for part in parts]).tobytes() == whole[k].tobytes(), name


def _error_bytes(workers, spec, model, trials, block, monkeypatch):
    monkeypatch.setattr(simulate, "BLOCK_TRIALS", block)
    return [(i, err.tobytes()) for i, err in errors_by_chunk(workers, spec, model, trials, 21, 4)]


def test_shared_draw_errors_do_not_depend_on_block_size(monkeypatch):
    spec, workers = _many_case()
    runs = [_error_bytes(workers, spec, AVG, CHUNK_TRIALS + 1_000, block, monkeypatch)
            for block in (64, 1 << 12, CHUNK_TRIALS)]
    assert len(runs[0]) == 2 * len(workers)
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("model", [AVG, MAX], ids=["avg", "max"])
def test_single_use_columns_in_block_slots_equal_one_worker_errors(model, monkeypatch):
    # A level column that one worker uses is written straight into its slot
    # of the block's level-major array; shared, carried, kept and at-many-p
    # columns are not.  Each worker's errors equal its one-worker call's,
    # whichever share of the blocks a process of P in {1, 2} computes.
    monkeypatch.setattr(simulate, "BLOCK_TRIALS", 64)
    spec, trials, seed, tag = tiny_spec(n=5, tau=0.45, seed=3), 1000, 11, 2
    draws, blocks = _Draws(spec, model, seed, tag, trials), _call_blocks(trials)
    noise, other = uniform_noise(0.4), truncnorm_noise(0.2)
    merged = select_profile(linear_profile(0.2, noise), constant_profile(0.7, other), 1.1)
    nested = select_profile(merged, polynomial_profile(1.5, noise), 0.9)
    shared, carried, kept, two_p = (linear_profile(0.3, noise), constant_profile(0.6, other),
                                    polynomial_profile(2.0, noise), linear_profile(0.4, other))
    workers = [
        Worker(merged, nested, 0.3),
        Worker(shared, linear_profile(0.6, noise), 0.0),  # level 1 shared by two workers
        Worker(shared, merged, 0.0),
        Worker(carried, kept, 0.3),
        Worker(two_p, linear_profile(0.8, other), 0.0),  # level 1 at two p
        Worker(two_p, linear_profile(0.9, noise), 0.3),
    ]
    u, beta, sel = _chunk_uniforms(seed, tag, 0, trials, spec.n)
    carried_key, kept_key = (0, carried, 0.3), (1, kept, 0.3)
    carried_column = _level_errors(carried, spec.s1, 0.3, 0, u, beta, sel)
    kept_column = _level_errors(kept, spec.s2, 0.3, 1, u, beta, sel)
    alone = [np.concatenate([err[0] for *_, err in _shared_draw_errors([w], draws, blocks)]) for w in workers]
    in_place = []
    original = simulate._level_errors

    def spying(*args, out=None):
        in_place.append(out is not None)
        return original(*args, out=out)

    monkeypatch.setattr(simulate, "_level_errors", spying)
    for shares in (1, 2):
        for j in range(shares):
            share, keep = blocks[j::shares], {kept_key: np.full((trials, spec.n), np.nan)}
            in_place.clear()
            got = {(a, b): err for _, a, b, err in
                   _shared_draw_errors(workers, draws, share, {carried_key: carried_column}, keep)}
            # Per block: seven single-use columns, the kept one among them,
            # in their slots; the shared column and the two-p pair's p = 0
            # and p = 1 ends in arrays of their own.
            assert sorted(in_place) == [False] * 3 * len(share) + [True] * 7 * len(share)
            for (a, b), err in got.items():
                assert keep[kept_key][a:b].tobytes() == kept_column[a:b].tobytes()
                for i, w in enumerate(workers):
                    assert err[i].tobytes() == alone[i][a:b].tobytes(), (shares, j, i, a)
            assert sorted(got) == [(a, b) for *_, a, b in share]


def test_interleaved_engine_calls_of_one_thread_share_block_uniforms_safely():
    # Both walks draw into this thread's u and beta arrays; no block reads
    # what another drew, so stepping them in turn, a block at a time,
    # changes no bit.
    spec, trials = tiny_spec(n=3), CHUNK_TRIALS + 500
    calls = [([linear_worker(0.3, 0.6, 0.2, p=0.4), linear_worker(0.7, 0.2, 0.3)], 17),
             ([linear_worker(0.5, 0.5, 0.4, kind="trunc", p=0.8)], 19)]

    def run(workers, seed):
        return _shared_draw_errors(workers, _Draws(spec, AVG, seed, 0, trials), _call_blocks(trials))

    alone = [[err.tobytes() for *_, err in run(*call)] for call in calls]
    turns = [[], []]
    for pair in itertools.zip_longest(*(run(*call) for call in calls)):
        for got, step in zip(turns, pair):
            if step is not None:
                got.append(step[3].tobytes())
    assert turns == alone


def test_every_model_on_max_job_does_not_depend_on_block_size(monkeypatch):
    spec, worker = _max_case()
    workers = [worker, apply_knob(worker, "p", 0.4)]
    for h, g, f in itertools.product(("average", "sum", "max"), ("average", "weighted", "max"),
                                     ("average", "weighted", "max")):
        model = ErrorModel(h=h, g=g, f=f)
        runs = [_error_bytes(workers, spec, model, 6_000, block, monkeypatch)
                for block in (64, 1 << 12, CHUNK_TRIALS)]
        assert runs[0] == runs[1] == runs[2], (h, g, f)


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_estimate_working_set_is_a_block_not_a_chunk():
    # Built whole, one chunk takes 76.6 MB (fixture, p = 0.3) or 101.7 MB (max job).
    spec = load_fixture_job()
    human = named_worker("human", p=0.3)
    assert _traced_peak_mb(lambda: estimate_success_probability(
        human, spec, FIXTURE_MODEL, SimConfig(trials=200_000, seed=3))) < 16.0
    spec, worker = _max_case()
    for w in (worker, linear_worker(0.7, 0.7, 0.1, kind="trunc")):  # threshold and column paths
        assert _traced_peak_mb(lambda: estimate_success_probability(
            w, spec, MAX, SimConfig(trials=CHUNK_TRIALS, seed=3))) < 16.0


def test_estimate_many_holds_one_block_of_errors_at_a_time(monkeypatch):
    # 64 workers on the column path, each level column shared by 8 of them:
    # one block of their errors is 2.1 MB, a chunk's would be 33.6 MB.
    monkeypatch.setattr(simulate, "_PROCESSES", 1)
    spec, noise = tiny_spec(n=3), uniform_noise(0.2)
    workers = [Worker(linear_profile(a1, noise), linear_profile(a2, noise))
               for a1 in np.linspace(0.1, 0.9, 8) for a2 in np.linspace(0.2, 0.8, 8)]

    def peak(trials):
        forget_carry(monkeypatch)
        return _traced_peak_mb(lambda: estimate_many(workers, spec, AVG, SimConfig(trials=trials)))

    short, long = peak(2 * BLOCK_TRIALS), peak(2 * CHUNK_TRIALS)
    assert long < 1.25 * short


def _bits(estimates):
    return [(e.value.hex(), e.stderr.hex(), e.ci[0].hex(), e.ci[1].hex(), e.trials, e.seed) for e in estimates]


def _record_workers(monkeypatch):
    """Patch _shared_draw_errors to log the worker list of every call."""
    calls = []
    original = simulate._shared_draw_errors

    def recording(workers, *args):
        calls.append(list(workers))
        return original(workers, *args)

    monkeypatch.setattr(simulate, "_shared_draw_errors", recording)
    return calls


def _spy(monkeypatch, name):
    """Patch simulate.<name> to log the positional arguments of every call."""
    calls = []
    original = getattr(simulate, name)

    def spying(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(simulate, name, spying)
    return calls


def _column_calls(calls, col, profile, p=0.0):
    """How many of the logged _level_errors calls computed this column."""
    return sum(1 for prof, _, pp, c, *_ in calls if (c, prof, pp) == (col, profile, p))


def _carry_case():
    spec = tiny_spec(n=3, tau=0.45)
    workers = [linear_worker(0.3, 0.4, 0.3), linear_worker(0.5, 0.2, 0.3, p=0.4)]
    return spec, workers, SimConfig(trials=3000, seed=5)


_CHANGES = {
    "seed": lambda spec: {"config": SimConfig(trials=3000, seed=6)},
    "trials": lambda spec: {"config": SimConfig(trials=3001, seed=5)},
    "tag": lambda spec: {"_tag": 1},
    "job": lambda spec: {"spec": JobSpec(spec.s1, spec.s2[::-1], spec.tasks, spec.w, spec.v, spec.tau)},
    # Not all-max, which would take the threshold path and read no column.
    "model": lambda spec: {"model": AVG},
    "tau": lambda spec: {"taus": [0.5]},
    "weights": lambda spec: {"spec": JobSpec(spec.s1, spec.s2, spec.tasks, spec.w[::-1],
                                             np.array([0.2, 0.6, 1.0]), spec.tau)},
}


def _after_a_repeat(change, monkeypatch):
    """Two calls on the same draws leave all four level columns in the
    carry; then a call with one input changed, checked bit for bit against
    a fresh call.  Returns how many columns it computed, how many blocks it
    drew and how many columns it kept."""
    spec, workers, config = _carry_case()
    args = {"spec": spec, "model": FIXTURE_MODEL, "config": config, "taus": [0.45], "_tag": 0}
    forget_carry(monkeypatch)
    estimate_many(workers, **args)
    # The second call keeps the four columns, since the first used them too.
    estimate_many(workers, **{**args, "taus": [0.4]})
    assert len(simulate._carry.columns) == 4
    args.update(_CHANGES[change](spec))
    calls = _record_workers(monkeypatch)
    columns, draws = _spy(monkeypatch, "_level_errors"), _spy(monkeypatch, "_chunk_uniforms")
    changed = estimate_many(workers, **args)
    assert calls == [workers]
    seen = (len(columns), len(draws), len(simulate._carry.columns))
    forget_carry(monkeypatch)
    assert _bits(changed) == _bits(estimate_many(workers, **args))
    return seen


@pytest.mark.parametrize("change", ["model", "tau", "weights"])
def test_a_change_outside_the_draws_key_reads_every_carried_column(change, monkeypatch):
    # No level column depends on the model, tau or the job's weights.
    assert _after_a_repeat(change, monkeypatch) == (0, 0, 4)


@pytest.mark.parametrize("change", ["seed", "trials", "tag", "job"])
def test_each_part_of_the_draws_key_forces_a_fresh_evaluation(change, monkeypatch):
    # "job" reorders the action difficulties.
    assert _after_a_repeat(change, monkeypatch) == (4, 1, 0)


def test_a_repeat_on_the_same_draws_evaluates_every_worker_on_carried_columns(monkeypatch):
    spec, workers, config = _carry_case()
    newcomer = linear_worker(0.7, 0.6, 0.2)
    forget_carry(monkeypatch)
    estimate_many(workers, spec, AVG, config, [0.45, None])
    estimate_many(workers, spec, AVG, config, [0.45, None])
    calls = _record_workers(monkeypatch)
    computed = _spy(monkeypatch, "_level_errors")
    served = estimate_many([workers[1], newcomer, workers[0]], spec, AVG, config, [None])
    # Every distinct worker is evaluated; only the newcomer's columns are computed.
    assert calls == [[workers[1], newcomer, workers[0]]]
    assert sorted((c, prof) for prof, _, _, c, *_ in computed) == [(0, newcomer.alpha1), (1, newcomer.alpha2)]
    forget_carry(monkeypatch)
    assert _bits(served) == _bits(estimate_many([workers[1], newcomer, workers[0]], spec, AVG, config, [None]))


def test_threads_alternating_seeds_get_their_single_thread_results(monkeypatch):
    spec, workers, _ = _carry_case()
    others = [linear_worker(a, 0.5, 0.3) for a in (0.2, 0.4, 0.6, 0.8)]
    seeds = (11, 12)

    def cells(seed, turn=lambda: None):
        config = SimConfig(trials=2000, seed=seed)
        out = []
        for other in others:
            turn()
            out.append(_bits(estimate_many([workers[0], other], spec, AVG, config)))
        return out

    forget_carry(monkeypatch)
    alone = {seed: cells(seed) for seed in seeds}
    turns = threading.Barrier(len(seeds))
    got = {}
    threads = [threading.Thread(target=lambda s=seed: got.update({s: cells(s, turns.wait)})) for seed in seeds]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == alone


def _merge_gain(human, spec, config):
    """A merge cell as (merged worker, P of each worker by float.hex, delta)."""
    def gain(other, trust):
        if trust is None:
            merged, _ = merge_per_subskill(human, other, spec)
        else:
            merged, _ = merge_with_trust(human, other, spec, trust)
        res = evaluate_merge_gain({"p1": human, "p2": other}, {"merge": merged}, spec, FIXTURE_MODEL, config)
        return merged, {name: est.value.hex() for name, est in res.table.items()}, res.delta.hex()
    return gain


def test_merge_map_cells_on_carried_columns_equal_fresh_cells(monkeypatch):
    # A 3x3 per-subskill map and a trust row, cell by cell on one seed: the
    # human is evaluated in every cell, its columns carry from cell to cell,
    # and neither changes a bit of any cell.
    spec, human = load_fixture_job(), named_worker("human")
    noise = truncnorm_var(AI_VARIANCE / 2)
    trust_partner = Worker(linear_profile(0.1, noise), constant_profile(0.7, noise))
    cells = [(Worker(linear_profile(a, noise), constant_profile(c, noise)), None)
             for a in (0.0, 0.2, 0.4) for c in (0.6, 0.8, 1.0)]
    cells += [(trust_partner, trust) for trust in (0.8, 1.4, 2.0)]
    gain = _merge_gain(human, spec, SimConfig(trials=2000, seed=17))
    forget_carry(monkeypatch)
    calls = _record_workers(monkeypatch)
    computed = _spy(monkeypatch, "_level_errors")
    carried = [gain(other, trust) for other, trust in cells]
    assert all(human in workers for workers in calls) and len(calls) == len(cells)
    # Computed in the first cell, and in the second, which keeps them.
    assert _column_calls(computed, 0, human.alpha1) == _column_calls(computed, 1, human.alpha2) == 2
    assert any("select" in (m.alpha1.family, m.alpha2.family) for m, _, _ in carried[-3:])
    for (other, trust), cell in zip(cells, carried):
        forget_carry(monkeypatch)
        assert gain(other, trust) == cell


def test_merge_row_reads_carried_columns_and_equals_fresh_cells(monkeypatch):
    # A 9-cell per-subskill row (one assistant decision level) and a 3-cell
    # trust row on one seed.  Its assistant decision level and the merged
    # decision level that equals the human's are each computed at most
    # twice (in the first cell and, kept, in the second), not in every cell.
    spec, human = load_fixture_job(), named_worker("human")
    noise = truncnorm_var(AI_VARIANCE / 2)
    decision = linear_profile(0.1, noise)
    cells = [(Worker(decision, constant_profile(c, noise)), None) for c in np.linspace(0.6, 1.0, 9)]
    cells += [(Worker(decision, constant_profile(0.7, noise)), trust) for trust in (0.8, 1.1, 1.4)]
    gain = _merge_gain(human, spec, SimConfig(trials=BLOCK_TRIALS // 2, seed=23))

    forget_carry(monkeypatch)
    computed = _spy(monkeypatch, "_level_errors")
    row = [gain(other, None) for other, _ in cells[:9]]
    assert all(merged.alpha1 == human.alpha1 for merged, _, _ in row)
    assert _column_calls(computed, 0, decision) == 2
    assert _column_calls(computed, 0, human.alpha1) == 2
    carried = row + [gain(other, trust) for other, trust in cells[9:]]
    assert any(m.alpha2.family == "select" for m, _, _ in carried[9:])
    assert _column_calls(computed, 0, decision) == 2

    fresh = []
    for other, trust in cells:
        forget_carry(monkeypatch)
        fresh.append(gain(other, trust))
    assert carried == fresh
    assert _column_calls(computed, 0, decision) == 2 + len(cells)


def test_err_avg_bisection_reads_the_unchanged_level_and_equals_fresh_steps(monkeypatch):
    # critical_ability bisects a1 on [0, 1] to 1e-6: two bracket ends and
    # 20 halvings, 22 Monte Carlo Err_avg calls on one seed.  Only a1 moves,
    # so the action level is computed twice, not in every step.
    spec, human = load_fixture_job(), named_worker("human")
    config = SimConfig(trials=BLOCK_TRIALS // 2, seed=29)
    computed = _spy(monkeypatch, "_level_errors")

    def bisect(fresh):
        steps = []

        def err_avg(*args, **kwargs):
            if fresh:
                forget_carry(monkeypatch)
            result = estimate_err_avg(*args, **kwargs)
            steps.append(_bits([result.estimate]))
            return result

        monkeypatch.setattr(theory, "estimate_err_avg", err_avg)
        forget_carry(monkeypatch)
        del computed[:]
        critical = theory.critical_ability(spec, FIXTURE_MODEL, human, "a1", config=config)
        return critical.hex(), steps, _column_calls(computed, 1, human.alpha2)

    carried, fresh = bisect(False), bisect(True)
    assert len(carried[1]) == 22
    assert carried[:2] == fresh[:2]
    assert (carried[2], fresh[2]) == (2, 22)


def test_kept_columns_never_exceed_one_chunk_of_uniforms(monkeypatch):
    # 41 workers of an a1 grid counted again at another tau are evaluated
    # again, and all 42 of their columns recur; the carry keeps only as
    # many as fit in CHUNK_TRIALS * 2n doubles.
    spec = tiny_spec(n=3)
    human = linear_worker(0.3, 0.4, 0.3)
    config = SimConfig(trials=20_000, seed=31)
    workers = [apply_knob(human, "a1", v) for v in np.linspace(0.0, 1.0, 41)]
    forget_carry(monkeypatch)
    estimate_many(workers, spec, AVG, config, [0.4])
    again = estimate_many(workers, spec, AVG, config, [0.5])
    kept = sum(column.nbytes for column in simulate._carry.columns.values())
    assert 0 < kept <= CHUNK_TRIALS * 2 * spec.n * 8
    forget_carry(monkeypatch)
    assert again == estimate_many(workers, spec, AVG, config, [0.5])


@pytest.mark.parametrize("trials", [3000, CHUNK_TRIALS + 1000])
def test_repeated_err_avg_reads_its_carried_columns(trials, monkeypatch):
    # At 3,000 trials both columns are kept and the third call draws no
    # uniforms; past one chunk only one column fits, and it spans two chunks.
    spec, worker = tiny_spec(n=3), linear_worker(0.4, 0.6, 0.3, p=0.3)
    config = SimConfig(trials=trials, seed=37)
    forget_carry(monkeypatch)
    fresh = estimate_err_avg(worker, spec, AVG, config).estimate
    estimate_err_avg(worker, spec, AVG, config)
    assert len(simulate._carry.columns) == (2 if trials < CHUNK_TRIALS else 1)
    draws = _spy(monkeypatch, "_chunk_uniforms")
    assert estimate_err_avg(worker, spec, AVG, config).estimate == fresh
    assert (draws == []) == (trials < CHUNK_TRIALS)


def test_a_worker_served_from_the_counts_lends_its_columns(monkeypatch):
    # The second call keeps the human's decision level, and the third and
    # fourth calls read it, for the human and for a merged-like worker that
    # shares it.  (The name predates the end of the success-count carry.)
    spec, (human, _), config = _carry_case()
    others = [linear_worker(a, 0.6, 0.2) for a in (0.1, 0.2)]
    sharing = [Worker(human.alpha1, linear_profile(c, uniform_noise(0.2))) for c in (0.5, 0.7)]
    forget_carry(monkeypatch)
    computed = _spy(monkeypatch, "_level_errors")
    got = [estimate_many([human, other], spec, AVG, config) for other in others + sharing]
    # Computed in the first two calls only.
    assert _column_calls(computed, 0, human.alpha1) == 2
    for other, cell in zip(others + sharing, got):
        forget_carry(monkeypatch)
        assert _bits(cell) == _bits(estimate_many([human, other], spec, AVG, config))


# --- CRN ability sweeps by per-trial bisection --------------------------------


def _bisected_equals_points(worker, spec, model, param, grid, config, monkeypatch):
    """The bisected sweep's estimates, checked equal to ``estimate_many`` on
    the grid workers, each call on fresh draws."""
    bisections = _spy(monkeypatch, "_bisected_counts")
    forget_carry(monkeypatch)
    got = [pt.estimate for pt in sweep(worker, spec, model, param, grid, config)]
    assert len(bisections) == 1
    forget_carry(monkeypatch)
    assert got == estimate_many([apply_knob(worker, param, v) for v in grid], spec, model, config)
    return got


_KNOB_CASES = {
    "a1": (lambda noise: Worker(linear_profile(0.4, noise), constant_profile(0.7, noise)),
           [0.6, 0.1, 0.6, 0.35, 0.0, 1.0, 0.1]),
    "a2": (lambda noise: Worker(polynomial_profile(1.5, noise), linear_profile(0.3, noise)),
           [1.0, 0.0, 0.45, 0.2, 0.45, 0.9]),
    "c1": (lambda noise: Worker(constant_profile(0.5, noise), linear_profile(0.6, noise)),
           [0.9, 0.2, 0.55, 0.9, 0.0, 0.4]),
    "c2": (lambda noise: Worker(linear_profile(0.5, noise), constant_profile(0.5, noise)),
           [0.3, 1.0, 0.65, 0.1, 0.3]),
    "beta1": (lambda noise: Worker(polynomial_profile(1.0, noise), linear_profile(0.5, noise)),
              [3.0, 0.0, 0.5, 3.0, 1.0, 8.0, 0.25]),
    "beta2": (lambda noise: Worker(linear_profile(0.5, noise), polynomial_profile(2.0, noise)),
              [0.7, 4.0, 0.1, 1.5, 0.7]),
}


@pytest.mark.parametrize("p", [0.0, 0.4])
@pytest.mark.parametrize("kind", ["uniform", "trunc"])
@pytest.mark.parametrize("param", sorted(_KNOB_CASES))
def test_bisected_sweep_equals_each_grid_worker(param, kind, p, monkeypatch):
    # Unsorted grids with duplicates, on either level, for every knob family.
    make, grid = _KNOB_CASES[param]
    noise = uniform_noise(0.4) if kind == "uniform" else truncnorm_noise(0.15)
    worker = replace(make(noise), p=p)
    got = _bisected_equals_points(worker, tiny_spec(n=3, tau=0.3), AVG, param, grid,
                                  SimConfig(trials=3000, seed=41), monkeypatch)
    assert len({est.value for est in got}) > 2


@pytest.mark.parametrize("tau, top, values", [(0.0, 1.0, [0.0, 1.0]), (0.0, 0.9, [0.0]), (2.0, 1.0, [1.0])],
                         ids=["fail-to-pass", "all-fail", "all-pass"])
def test_bisected_sweep_grids_whose_ends_settle_every_trial(tau, top, values, monkeypatch):
    # a2 = 1 leaves level 2 without error, so at tau = 0 a trial passes
    # only at a1 = 1 and fails on every trial below it; tau = 2 passes all.
    worker = linear_worker(0.5, 1.0, 0.4)
    got = _bisected_equals_points(worker, tiny_spec(n=3, tau=tau), AVG, "a1", np.linspace(0.0, top, 9),
                                  SimConfig(trials=2000, seed=43), monkeypatch)
    assert sorted({got[0].value, got[-1].value}) == values


def test_bisected_sweep_spans_chunks_and_ignores_block_size(monkeypatch):
    spec = load_fixture_job()
    human = named_worker("human", p=0.3)
    grid = np.linspace(0.0, 1.0, 11)
    config = SimConfig(trials=CHUNK_TRIALS + 1_000, seed=47)
    whole = _bisected_equals_points(human, spec, FIXTURE_MODEL, "a2", grid, config, monkeypatch)
    monkeypatch.setattr(simulate, "BLOCK_TRIALS", 64)
    config = SimConfig(trials=3_000, seed=47)
    small = _bisected_equals_points(human, spec, FIXTURE_MODEL, "a1", grid, config, monkeypatch)
    monkeypatch.undo()
    forget_carry(monkeypatch)
    assert small == [pt.estimate for pt in sweep(human, spec, FIXTURE_MODEL, "a1", grid, config)]
    assert 0.0 < whole[0].value < whole[-1].value


@pytest.mark.parametrize("h, g, f", itertools.product(("average", "sum", "max"), ("average", "weighted", "max"),
                                                      ("average", "weighted", "max")))
def test_bisected_sweep_every_model(h, g, f, monkeypatch):
    spec, worker = _max_case()
    worker = replace(worker, p=0.3)
    model = ErrorModel(h=h, g=g, f=f)
    config = SimConfig(trials=2000, seed=53)
    # tau at the median error of the mid-grid worker keeps the curve off 0 and 1.
    errs = np.concatenate([e for _, e in errors_by_chunk([apply_knob(worker, "a1", 0.5)], spec, model,
                                                         config.trials, config.seed, 0)])
    got = _bisected_equals_points(worker, spec.with_tau(np.median(errs)), model, "a1", np.linspace(0.0, 1.0, 17),
                                  config, monkeypatch)
    assert (got[0].value, got[-1].value) == (0.0, 1.0) and got[8].value >= 0.5


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("param, p", [("a1", 0.0), ("a1", 0.4), ("a2", 0.3)])
def test_bisected_sweep_many_seeds_on_the_fixture(param, p, seed, monkeypatch):
    grid = np.linspace(0.0, 1.0, 41)
    _bisected_equals_points(named_worker("human", p=p), load_fixture_job(), FIXTURE_MODEL, param, grid,
                            SimConfig(trials=3000, seed=seed), monkeypatch)


def test_bisected_sweep_evaluates_log_grid_times_per_block(monkeypatch):
    spec = tiny_spec(n=3)
    worker = linear_worker(0.4, 0.6, 0.3, p=0.2)
    grid = np.linspace(0.0, 1.0, 41)
    evaluations = []
    make = simulate.make_error_evaluator

    def counting(*args):
        evaluate = make(*args)
        return lambda zeta: evaluations.append(len(zeta)) or evaluate(zeta)

    monkeypatch.setattr(simulate, "make_error_evaluator", counting)
    monkeypatch.setattr(simulate, "_PROCESSES", 1)  # counts the blocks of this process
    columns = _spy(monkeypatch, "_level_errors")
    forget_carry(monkeypatch)
    sweep(worker, spec, AVG, "a1", grid, SimConfig(trials=2 * BLOCK_TRIALS + 100, seed=59))
    blocks = 3
    assert len(evaluations) <= blocks * math.ceil(math.log2(len(grid) + 1))
    assert sorted(set(evaluations)) == [100, BLOCK_TRIALS]
    assert [c for _, _, _, c, *_ in columns] == [1] * blocks


def test_p_sweep_transforms_each_level_twice_per_block(monkeypatch):
    # Distinct p of one profile pick from its p = 0 and p = 1 columns.
    spec = tiny_spec(n=3, tau=0.35)
    worker = linear_worker(0.4, 0.6, 0.3, kind="trunc")
    grid = [0.0, 0.3, 1.0, 0.3, 0.7, 0.05]
    config = SimConfig(trials=BLOCK_TRIALS + 8, seed=67)
    forget_carry(monkeypatch)
    monkeypatch.setattr(simulate, "_PROCESSES", 1)  # counts the blocks of this process
    columns = _spy(monkeypatch, "_level_errors")
    got = sweep(worker, spec, AVG, "p", grid, config)
    assert sorted((c, pp) for _, _, pp, c, *_ in columns) == sorted([(0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)] * 2)
    for value, pt in zip(grid, got):
        forget_carry(monkeypatch)
        assert pt.estimate == estimate_success_probability(apply_knob(worker, "p", value), spec, AVG, config)


# --- all-max counts by uniform thresholds -------------------------------------


def _column_counts(workers, spec, config, taus):
    """Each (worker, tau) success count, worker-major, from the all-max job
    errors of the column path."""
    errs = [[] for _ in workers]
    for i, err in errors_by_chunk(workers, spec, MAX, config.trials, config.seed, 0):
        errs[i].append(err)
    return [int(np.count_nonzero(np.concatenate(e) <= t)) for e in errs for t in taus]


def _counts(estimates):
    return [round(e.value * e.trials) for e in estimates]


def _threshold_case(seed):
    """A job that may leave skills uncovered, and three workers with uniform
    or no noise, nested select profiles and p in {0, 0.3, 1}."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    reach = n - int(rng.integers(0, 2))  # the last skill is uncovered half the time
    tasks = tuple(tuple(sorted(rng.choice(reach, size=int(rng.integers(1, reach + 1)), replace=False)))
                  for _ in range(int(rng.integers(1, 4))))
    spec = JobSpec(rng.uniform(size=n), rng.uniform(size=n), tasks, np.ones(n), np.ones(len(tasks)), 0.5)

    def leaf():
        sigma = float(rng.choice([0.0, 0.3, 1.0]))
        noise = truncnorm_noise(0.0) if sigma == 0.0 and rng.random() < 0.5 else uniform_noise(sigma)
        return [constant_profile(float(rng.uniform(0.3, 1.0)), noise),
                linear_profile(float(rng.uniform()), noise),
                polynomial_profile(float(rng.uniform(0.3, 3.0)), noise),
                piecewise_profile([(0.0, 1.0), (float(rng.uniform(0.2, 0.8)), 0.6), (1.0, 0.1)], noise),
                ][int(rng.integers(4))]

    def profile():
        if rng.random() < 0.3:
            inner = select_profile(leaf(), leaf(), float(rng.uniform(0.8, 1.2)))
            return select_profile(inner, leaf(), float(rng.uniform(0.8, 1.2)))
        return leaf()

    workers = [Worker(profile(), profile(), float(p)) for p in rng.permutation([0.0, 0.3, 1.0])]
    return spec, workers


@pytest.mark.parametrize("seed", range(24))
def test_threshold_counts_equal_the_column_path(seed, monkeypatch):
    # Each tau sits on an error some trial attains, or one ulp below it.
    spec, workers = _threshold_case(seed)
    config = SimConfig(trials=1500, seed=seed)
    monkeypatch.setattr(simulate, "BLOCK_TRIALS", 512)
    errs = [np.concatenate([e for i, e in errors_by_chunk(workers, spec, MAX, config.trials, config.seed, 0)
                            if i == k]) for k in (0, 1)]
    attained = [float(np.sort(e)[len(e) // 2]) for e in errs]
    taus = [attained[0], float(np.nextafter(attained[0], -1.0)), attained[1]]
    want = _column_counts(workers, spec, config, taus)
    for processes in (1, 2):
        _at(processes, monkeypatch)
        carry = simulate._carry
        thresholds = _spy(monkeypatch, "_threshold_counts")
        assert _counts(estimate_many(workers, spec, MAX, config, taus)) == want
        assert len(thresholds) == 1 and simulate._carry is carry
    assert 0 < sum(want) < len(want) * config.trials


def test_all_max_calls_the_thresholds_do_not_decide_stay_on_the_column_path(monkeypatch):
    # A truncated-normal worker, a mixed call, and more taus than the
    # threshold path counts.
    spec, worker = _max_case()
    trunc = linear_worker(0.7, 0.7, 0.1, kind="trunc")
    config = SimConfig(trials=3000, seed=19)
    thresholds = _spy(monkeypatch, "_threshold_counts")
    for workers, taus in (([trunc], [0.39, 0.45]), ([worker, trunc], [0.39, 0.45]),
                          ([worker], [0.36, 0.39, 0.42, 0.45])):
        forget_carry(monkeypatch)
        assert _counts(estimate_many(workers, spec, MAX, config, taus)) == _column_counts(workers, spec, config, taus)
    assert thresholds == []


# --- counts from tabulated error brackets -------------------------------------


def _bracket_case(seed):
    """A job with random weights that may leave a skill uncovered, and
    three workers, one per p in {0, 0.3, 1}, whose leaves mix
    truncated-normal, uniform and zero noise, some behind nested select
    profiles; the first worker's decision level is a truncated normal."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    reach = n - int(rng.integers(0, 2))
    tasks = tuple(tuple(sorted(rng.choice(reach, size=int(rng.integers(1, reach + 1)), replace=False)))
                  for _ in range(int(rng.integers(1, 4))))
    spec = JobSpec(rng.uniform(size=n), rng.uniform(size=n), tasks, rng.uniform(0.1, 1.0, size=n),
                   rng.uniform(0.1, 1.0, size=len(tasks)), 0.5)

    def leaf(kind=None):
        kind = kind or rng.choice(["trunc", "uniform", "zero"])
        noise = {"trunc": truncnorm_noise(float(rng.uniform(0.05, 0.5))),
                 "uniform": uniform_noise(float(rng.uniform(0.1, 1.0))), "zero": uniform_noise(0.0)}[kind]
        return [constant_profile(float(rng.uniform(0.3, 1.0)), noise),
                linear_profile(float(rng.uniform()), noise),
                polynomial_profile(float(rng.uniform(0.3, 3.0)), noise),
                piecewise_profile([(0.0, 1.0), (float(rng.uniform(0.2, 0.8)), 0.6), (1.0, 0.1)], noise),
                ][int(rng.integers(4))]

    def profile():
        if rng.random() < 0.4:
            inner = select_profile(leaf(), leaf(), float(rng.uniform(0.8, 1.2)))
            return select_profile(inner, leaf(), float(rng.uniform(0.8, 1.2)))
        return leaf()

    ps = rng.permutation([0.0, 0.3, 1.0])
    workers = [Worker(leaf("trunc"), profile(), float(ps[0]))]
    workers += [Worker(profile(), profile(), float(p)) for p in ps[1:]]
    return spec, workers


def _fixture_bracket_case():
    """The fixture human at p = 0.3, its per-subskill merge with an
    assistant (piecewise envelope levels) at p = 1, and its trust-scaled
    merge (select levels) at p = 0."""
    spec, human = load_fixture_job(), named_worker("human")
    noise = truncnorm_var(AI_VARIANCE / 2)
    helper = Worker(linear_profile(0.1, noise), constant_profile(0.7, noise))
    envelope, _ = merge_per_subskill(human, helper, spec)
    trusted, _ = merge_with_trust(human, helper, spec, 1.4)
    assert "piecewise" in (envelope.alpha1.family, envelope.alpha2.family)
    assert "select" in (trusted.alpha1.family, trusted.alpha2.family)
    return spec, [apply_knob(human, "p", 0.3), apply_knob(envelope, "p", 1.0), trusted]


_BRACKET_CASES = {
    "fixture": (_fixture_bracket_case, FIXTURE_MODEL),
    "random-0-max-weighted-average": (lambda: _bracket_case(0), ErrorModel(h="max", g="weighted", f="average")),
    "random-1-all-max": (lambda: _bracket_case(1), MAX),
    "random-2-sum-max-weighted": (lambda: _bracket_case(2), ErrorModel(h="sum", g="max", f="weighted")),
    "random-3-average": (lambda: _bracket_case(3), AVG),
}


@pytest.mark.parametrize("cells", [2, simulate._BRACKET_CELLS])
@pytest.mark.parametrize("trials", [BLOCK_TRIALS - 1, BLOCK_TRIALS + 1, CHUNK_TRIALS + 1])
@pytest.mark.parametrize("case", list(_BRACKET_CASES))
def test_bracket_counts_equal_the_column_path(case, trials, cells, own_peers, monkeypatch):
    # Two cells leave most trials undecided.  The taus: the exact column-path
    # error of one trial, one ulp below it, another worker's median error
    # and the job's tau.  Patched before the peers fork, so they see it too.
    make, model = _BRACKET_CASES[case]
    spec, workers = make()
    config = SimConfig(trials=trials, seed=trials + cells)
    errs = [np.concatenate([e for i, e in errors_by_chunk(workers, spec, model, trials, config.seed, 0) if i == k])
            for k in range(len(workers))]
    attained = float(errs[0][trials // 3])
    taus = [attained, float(np.nextafter(attained, -1.0)), float(np.median(errs[-1])), spec.tau]
    want = [int(np.count_nonzero(e <= t)) for e in errs for t in taus]
    monkeypatch.setattr(simulate, "_BRACKET_CELLS", cells)
    monkeypatch.setattr(simulate, "_BRACKET_TRIALS", 1)
    for processes in (1, 2):
        _at(processes, monkeypatch)
        brackets = _spy(monkeypatch, "_bracket_counts")
        assert _counts(estimate_many(workers, spec, model, config, taus)) == want
        assert len(brackets) == 1
    assert 0 < sum(want) < len(want) * trials


@pytest.mark.parametrize("case", ["fixture", "random-0-max-weighted-average"])
def test_bracket_path_counts_every_trial_as_its_column_path_error(case, monkeypatch):
    # Every trial's column-path error is a tau, so a trial whose bracket-path
    # error differs from it, by even an ulp, changes a count.  Two cells
    # leave almost every trial undecided.
    make, model = _BRACKET_CASES[case]
    spec, workers = make()
    config = SimConfig(trials=BLOCK_TRIALS - 1, seed=7)
    errs = [e for _, e in errors_by_chunk(workers, spec, model, config.trials, config.seed, 0)]
    taus = sorted({float(t) for e in errs for t in e})
    want = [int(c) for e in errs for c in np.searchsorted(np.sort(e), taus, side="right")]
    monkeypatch.setattr(simulate, "_BRACKET_CELLS", 2)
    monkeypatch.setattr(simulate, "_BRACKET_TRIALS", 1)
    _at(1, monkeypatch)
    brackets = _spy(monkeypatch, "_bracket_counts")
    assert _counts(estimate_many(workers, spec, model, config, taus)) == want
    assert len(brackets) == 1


def test_the_bracket_gate_reads_the_calls_trials_not_a_shares(monkeypatch):
    # A 20k-trial fixture estimate takes the bracket path on one process
    # and on two, where each share holds about 10k trials.
    spec, human = load_fixture_job(), named_worker("human")
    for processes in (1, 2):
        _at(processes, monkeypatch)
        brackets = _spy(monkeypatch, "_bracket_counts")
        estimate_success_probability(human, spec, FIXTURE_MODEL, SimConfig(trials=20_000, seed=5))
        assert len(brackets) == 1


def test_a_repeat_on_the_same_draws_stays_on_the_bracket_path(monkeypatch):
    # The path is chosen from the call alone: a 20k-trial fixture call and
    # its repeat on the same draws both take the bracket path, and neither
    # touches the carry, which only the column path reads and replaces.
    spec, human = load_fixture_job(), named_worker("human")
    noise = truncnorm_var(AI_VARIANCE / 2)
    assistant = Worker(linear_profile(0.1, noise), constant_profile(0.7, noise))
    config = SimConfig(trials=20_000, seed=13)
    for processes in (1, 2):
        _at(processes, monkeypatch)
        carry = simulate._carry
        brackets, columns = _spy(monkeypatch, "_bracket_counts"), _spy(monkeypatch, "_shared_draw_errors")
        first = estimate_many([human, assistant], spec, FIXTURE_MODEL, config)
        assert _bits(estimate_many([human, assistant], spec, FIXTURE_MODEL, config)) == _bits(first)
        assert len(brackets) == 2 and columns == [] and simulate._carry is carry


def test_bracket_path_transforms_only_its_tables_and_the_undecided_trials(monkeypatch):
    # A 200k-trial fixture estimate at p = 0.3 in one process: ndtri runs on
    # both levels' tables and on under 5 % of the trials' subskills.
    spec, human = load_fixture_job(), named_worker("human", p=0.3)
    trials = 200_000
    _at(1, monkeypatch)
    transformed = []
    original = ability.ndtri

    def counting(x, out=None):
        transformed.append(np.size(x))
        return original(x, out=out)

    monkeypatch.setattr(ability, "ndtri", counting)
    brackets = _spy(monkeypatch, "_bracket_counts")
    estimate_success_probability(human, spec, FIXTURE_MODEL, SimConfig(trials=trials, seed=3))
    tables = 2 * (simulate._BRACKET_CELLS + 1) * spec.n
    assert len(brackets) == 1
    assert tables < sum(transformed) < tables + 0.05 * trials * 2 * spec.n


def test_ndtri_departs_from_a_monotone_curve_far_less_than_the_bracket_pad():
    # The pad must cover ndtri's departure from the exact (monotone) normal
    # quantile, tails included, and every step down between neighbours.
    margin = simulate._BRACKET_PAD * 1e-4
    x = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 20_001), np.logspace(-300, -1, 5_000),
                        1.0 - np.logspace(-16, -1, 5_000)])
    exact = np.array([statistics.NormalDist().inv_cdf(float(v)) for v in x])
    assert np.max(np.abs(ability.ndtri(x) - exact)) <= margin
    assert np.max(ability.ndtri(x) - ability.ndtri(np.nextafter(x, 1.0))) <= margin
    k = np.random.default_rng(0).integers(0, (1 << 53) - 1, size=1 << 20)
    assert np.max(ability.ndtri(k * 2.0**-53) - ability.ndtri((k + 1) * 2.0**-53)) <= margin


# --- blocks split among processes ---------------------------------------------


def _at(p, monkeypatch):
    """Split the next calls among ``p`` processes, on fresh draws."""
    monkeypatch.setattr(simulate, "_PROCESSES", p)
    forget_carry(monkeypatch)


@pytest.fixture
def own_peers(monkeypatch):
    """A peer set of the test's own, closed when the test ends."""
    peers = simulate._Peers()
    monkeypatch.setattr(simulate, "_peers", peers)
    yield peers
    peers.close()


@pytest.mark.parametrize("trials", [BLOCK_TRIALS - 1, BLOCK_TRIALS + 1, CHUNK_TRIALS + 1, 200_000])
def test_estimate_many_does_not_depend_on_the_split(trials, monkeypatch):
    # p = 0 and p > 0, select profiles and several taus.
    spec, workers = _many_case()
    config = SimConfig(trials=trials, seed=71)
    runs = []
    for p in (1, 2, 3):
        _at(p, monkeypatch)
        runs.append(_bits(estimate_many(workers, spec, AVG, config, [0.3, None, 0.6])))
    assert runs[0] == runs[1] == runs[2]
    assert len(set(runs[0])) > 3


@pytest.mark.parametrize("kind", ["uniform", "trunc"])
def test_err_avg_does_not_depend_on_the_split(kind, monkeypatch):
    spec, worker = tiny_spec(n=3), linear_worker(0.4, 0.6, 0.3, p=0.3, kind=kind)
    runs = []
    for p in (1, 2, 3):
        _at(p, monkeypatch)
        runs.append([_bits([estimate_err_avg(worker, spec, AVG, SimConfig(trials=trials, seed=73)).estimate])
                     for trials in (BLOCK_TRIALS + 1, 2 * CHUNK_TRIALS + 3_000)])
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("param, grid", [("a1", np.linspace(0.0, 1.0, 21)), ("p", [0.0, 0.3, 1.0, 0.6])])
def test_sweeps_do_not_depend_on_the_split(param, grid, monkeypatch):
    spec, human = load_fixture_job(), named_worker("human", p=0.3)
    runs = []
    for p in (1, 2, 3):
        _at(p, monkeypatch)
        runs.append([pt.estimate for pt in sweep(human, spec, FIXTURE_MODEL, param, grid,
                                                 SimConfig(trials=CHUNK_TRIALS + 5_000, seed=79))])
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("first, then", [(2, 1), (1, 2), (2, 3)])
def test_a_call_after_a_call_under_another_split_equals_a_fresh_call(first, then, monkeypatch):
    # The carry is keyed by the blocks of the share that kept it.  The
    # Err_avg calls keep one worker's columns; a repeat at the same P reads
    # them, and a call at another P, whose share 0 holds other blocks,
    # computes them again.
    spec, workers = _many_case()
    config = SimConfig(trials=3 * BLOCK_TRIALS + 50, seed=83)
    forget_carry(monkeypatch)
    computed, columns = _spy(monkeypatch, "_level_errors"), []
    for p in (first, first, then):
        monkeypatch.setattr(simulate, "_PROCESSES", p)
        counted = estimate_many(workers, spec, AVG, config, [0.4 + 0.05 * p])
        del computed[:]
        err_avg = estimate_err_avg(workers[1], spec, AVG, config).estimate
        columns.append(len(computed))
    assert columns[1] == 0 and columns[0] > 0 and columns[2] > 0
    for p in (first, then):
        _at(p, monkeypatch)
        assert _bits(estimate_many(workers, spec, AVG, config, [0.4 + 0.05 * then])) == _bits(counted)
        _at(p, monkeypatch)
        assert estimate_err_avg(workers[1], spec, AVG, config).estimate == err_avg


def test_block_size_patched_after_the_peers_exist(monkeypatch):
    spec, workers = _many_case()
    config = SimConfig(trials=CHUNK_TRIALS + 1_000, seed=89)
    _at(1, monkeypatch)
    alone = _bits(estimate_many(workers, spec, AVG, config))
    _at(3, monkeypatch)
    estimate_many(workers, spec, AVG, SimConfig(trials=3 * BLOCK_TRIALS, seed=90))
    monkeypatch.setattr(simulate, "BLOCK_TRIALS", 64)
    forget_carry(monkeypatch)
    assert _bits(estimate_many(workers, spec, AVG, config)) == alone


def test_a_peer_error_is_raised_by_the_caller(own_peers, monkeypatch):
    monkeypatch.setattr(simulate, "_PROCESSES", 2)
    peers = own_peers.take(1)
    with pytest.raises(ParameterError, match="no share function"):
        simulate._round_trip(peers, [("estimate_many", None, (), [])], lambda: None)
    spec, workers = _many_case()
    config = SimConfig(trials=2 * BLOCK_TRIALS, seed=97)
    split = _bits(estimate_many(workers, spec, AVG, config))
    assert own_peers.peers == peers
    _at(1, monkeypatch)
    assert split == _bits(estimate_many(workers, spec, AVG, config))


def test_a_killed_peer_leaves_the_next_call_in_this_process(own_peers, monkeypatch):
    spec, workers = _many_case()
    config = SimConfig(trials=CHUNK_TRIALS + 1, seed=101)
    _at(1, monkeypatch)
    alone = _bits(estimate_many(workers, spec, AVG, config))
    _at(2, monkeypatch)
    assert _bits(estimate_many(workers, spec, AVG, config)) == alone
    (process, _), = own_peers.peers
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=30)
    assert not process.is_alive()
    forget_carry(monkeypatch)
    assert _bits(estimate_many(workers, spec, AVG, config)) == alone
    assert own_peers.broken and own_peers.peers == []
    forget_carry(monkeypatch)
    assert _bits(estimate_many(workers, spec, AVG, config)) == alone
    assert own_peers.peers == []


def test_a_call_from_a_second_thread_forks_nothing(own_peers, monkeypatch):
    spec, workers = _many_case()
    config = SimConfig(trials=CHUNK_TRIALS + 1, seed=103)
    _at(1, monkeypatch)
    alone = _bits(estimate_many(workers, spec, AVG, config))
    _at(2, monkeypatch)
    got = []
    thread = threading.Thread(target=lambda: got.append(_bits(estimate_many(workers, spec, AVG, config))))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert got == [alone] and own_peers.peers == []


def test_threads_sharing_the_peers_get_their_single_process_results(monkeypatch):
    # More threads than CPUs, switching often: a thread that finds the
    # peers busy runs its call alone.
    spec = tiny_spec(n=3)
    workers = [linear_worker(a, 0.5, 0.3, p=0.2) for a in (0.2, 0.5, 0.8)]
    seeds = range(107, 113)

    def cells(seed):
        return _bits(estimate_many(workers, spec, AVG, SimConfig(trials=3 * BLOCK_TRIALS, seed=seed)))

    _at(1, monkeypatch)
    alone = {seed: cells(seed) for seed in seeds}
    _at(2, monkeypatch)
    cells(106)  # the peer exists before the threads start
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=lambda s=seed: got.update({s: cells(s)})) for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == alone


def test_no_peer_outlives_its_caller(tmp_path):
    script = tmp_path / "caller.py"
    script.write_text(
        "from jobfit import simulate\n"
        "from jobfit.dataio import load_fixture_job, named_worker\n"
        "from jobfit.job import FIXTURE_MODEL\n"
        "simulate._PROCESSES = 2\n"
        "simulate.estimate_success_probability(named_worker('human', p=0.3), load_fixture_job(), FIXTURE_MODEL,\n"
        "                                      simulate.SimConfig(trials=200_000, seed=3))\n"
        "print(*(process.pid for process, _ in simulate._peers.peers))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 1
    deadline = time.monotonic() + 30
    while pids and time.monotonic() < deadline:
        pids = [pid for pid in pids if _alive(pid)]
        time.sleep(0.05)
    assert pids == []


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
