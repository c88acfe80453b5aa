import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from jobfit.ability import (
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
from jobfit import simulate, theory
from jobfit.job import FIXTURE_MODEL, ErrorModel, JobSpec, balanced_job
from jobfit.merging import evaluate_merge_gain, merge_per_subskill, merge_with_trust
from jobfit.simulate import (
    BLOCK_TRIALS,
    CHUNK_TRIALS,
    SimConfig,
    SimEstimate,
    Worker,
    _chunk_uniforms,
    _level_errors,
    _shared_draw_errors,
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
MAX = ErrorModel(h="max", g="max", f="max")


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


def forget_counts(monkeypatch):
    """Clear the previous call's success counts and level columns, so the
    next call evaluates every worker on fresh draws."""
    monkeypatch.setattr(simulate, "_carry", simulate._Carry())


def test_estimates_deterministic(monkeypatch):
    spec = tiny_spec(n=4)
    worker = linear_worker(0.5, 0.5, 0.4)
    config = SimConfig(trials=5000, seed=123)
    a = estimate_success_probability(worker, spec, AVG, config)
    forget_counts(monkeypatch)
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


def test_sweep_single_point_matches_estimate(monkeypatch):
    spec = tiny_spec(n=3)
    worker = linear_worker(0.4, 0.5, 0.3)
    config = SimConfig(trials=2000, seed=9)
    pts = sweep(worker, spec, AVG, "a1", [0.4], config)
    assert len(pts) == 1
    forget_counts(monkeypatch)
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
def test_estimate_many_equals_each_worker_alone(trials, monkeypatch):
    spec, workers = _many_case()
    config = SimConfig(trials=trials, seed=31)
    taus = [0.3, None, 0.5]
    many = estimate_many(workers, spec, AVG, config, taus)
    assert len(many) == len(workers) * len(taus)
    for i, w in enumerate(workers):
        for j, tau in enumerate(taus):
            forget_counts(monkeypatch)
            alone = estimate_success_probability(w, spec, AVG, config, tau=tau)
            forget_counts(monkeypatch)
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


def _max_case():
    rng = np.random.default_rng(5)
    spec = balanced_job(32, 128, 6, rng.uniform(size=32), rng.uniform(size=32), 0.39)
    return spec, linear_worker(0.7, 0.7, 0.5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_max_job_against_exact_product(seed):
    # With h = g = f = max and p = 0 the job succeeds iff every covered
    # subskill error is <= tau, and those errors are independent.
    spec, worker = _max_case()
    assert not spec.isolated_skills()
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
        linear_profile(0.3, noise, c=0.9),
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


@pytest.mark.parametrize("need_sel", [True, False])
def test_chunk_uniforms_equal_generator_uniform(need_sel):
    u, beta, sel = _chunk_uniforms(9, 3, 2, 500, 6, need_sel=need_sel)
    rng = np.random.default_rng(np.random.SeedSequence([9, 3, 2]))
    assert u.tobytes() == rng.uniform(size=(500, 6, 2)).tobytes()
    assert beta.tobytes() == rng.uniform(size=500).tobytes()
    if need_sel:
        assert sel.tobytes() == rng.uniform(size=(500, 6, 2)).tobytes()
    else:
        assert sel is None


def test_full_chunks_do_not_depend_on_run_length():
    spec, workers = _many_case()
    workers = list(dict.fromkeys(workers))[:4]

    def full_chunks(trials):
        errs = [err for _, err in _shared_draw_errors(workers, spec, AVG, trials, 13, 0)]
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


@pytest.mark.parametrize("need_sel", [True, False])
@pytest.mark.parametrize("count, n, rows", [
    (1000, 4, [(0, 64), (64, 512), (512, 1000)]),
    (700, 1, [(0, 8), (8, 640), (640, 700)]),
    (CHUNK_TRIALS, 2, [(0, BLOCK_TRIALS), (BLOCK_TRIALS, CHUNK_TRIALS - BLOCK_TRIALS),
                       (CHUNK_TRIALS - BLOCK_TRIALS, CHUNK_TRIALS)]),
])
def test_chunk_uniforms_row_blocks_concatenate_to_chunk(count, n, rows, need_sel):
    whole = _chunk_uniforms(6, 1, 3, count, n, need_sel=need_sel)
    parts = [_chunk_uniforms(6, 1, 3, count, n, need_sel=need_sel, rows=r) for r in rows]
    for k, name in enumerate(("u", "beta", "sel")):
        if not need_sel and name == "sel":
            assert whole[k] is None and all(part[k] is None for part in parts)
            continue
        assert [part[k].shape[0] for part in parts] == [b - a for a, b in rows]
        assert np.concatenate([part[k] for part in parts]).tobytes() == whole[k].tobytes(), name


def _error_bytes(workers, spec, model, trials, block, monkeypatch):
    monkeypatch.setattr(simulate, "BLOCK_TRIALS", block)
    return [(i, err.tobytes()) for i, err in _shared_draw_errors(workers, spec, model, trials, 21, 4)]


def test_shared_draw_errors_do_not_depend_on_block_size(monkeypatch):
    spec, workers = _many_case()
    runs = [_error_bytes(workers, spec, AVG, CHUNK_TRIALS + 1_000, block, monkeypatch)
            for block in (64, 1 << 12, CHUNK_TRIALS)]
    assert len(runs[0]) == 2 * len(workers)
    assert runs[0] == runs[1] == runs[2]


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
    assert _traced_peak_mb(lambda: estimate_success_probability(
        worker, spec, MAX, SimConfig(trials=CHUNK_TRIALS, seed=3))) < 16.0


def test_estimate_many_holds_one_chunk_of_errors_at_a_time():
    spec = tiny_spec(n=3)
    workers = [linear_worker(a, 0.4, 0.2) for a in np.linspace(0.1, 0.9, 16)]
    one_chunk_mb = len(workers) * CHUNK_TRIALS * 8 / 1e6
    peak = _traced_peak_mb(lambda: estimate_many(workers, spec, AVG, SimConfig(trials=2 * CHUNK_TRIALS)))
    assert one_chunk_mb < peak < 1.5 * one_chunk_mb


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


@pytest.mark.parametrize("change", ["seed", "trials", "tag", "model", "tau", "job"])
def test_each_part_of_the_draws_key_forces_a_fresh_evaluation(change, monkeypatch):
    spec, workers, config = _carry_case()
    args = {"spec": spec, "model": AVG, "config": config, "taus": [0.45], "_tag": 0}
    forget_counts(monkeypatch)
    estimate_many(workers, **args)
    # A second tau on the same draws evaluates every worker again and keeps
    # its four level columns, since the first call used them too.
    estimate_many(workers, **{**args, "taus": [0.4]})
    assert len(simulate._carry.columns) == 4
    args.update({
        "seed": {"config": SimConfig(trials=3000, seed=6)},
        "trials": {"config": SimConfig(trials=3001, seed=5)},
        "tag": {"_tag": 1},
        "model": {"model": MAX},
        "tau": {"taus": [0.5]},
        "job": {"spec": JobSpec(spec.s1, spec.s2[::-1], spec.tasks, spec.w, spec.v, spec.tau)},
    }[change])
    calls = _record_workers(monkeypatch)
    columns, draws = _spy(monkeypatch, "_level_errors"), _spy(monkeypatch, "_chunk_uniforms")
    changed = estimate_many(workers, **args)
    assert calls == [workers]
    if change == "tau":
        # tau keys the counts, not the draws: every column is read from the
        # carry, so no column is computed and no uniform is drawn.
        assert columns == [] and draws == [] and len(simulate._carry.columns) == 4
    else:
        assert len(columns) == 4 and len(draws) == 1 and simulate._carry.columns == {}
    forget_counts(monkeypatch)
    assert _bits(changed) == _bits(estimate_many(workers, **args))


def test_a_repeat_on_the_same_draws_evaluates_only_new_workers(monkeypatch):
    spec, workers, config = _carry_case()
    newcomer = linear_worker(0.7, 0.6, 0.2)
    forget_counts(monkeypatch)
    estimate_many(workers, spec, AVG, config, [0.45, None])
    calls = _record_workers(monkeypatch)
    # ci_level is no part of the key: every estimate is rebuilt from its count.
    repeat = SimConfig(trials=3000, seed=5, ci_level=0.9)
    served = estimate_many([workers[1], newcomer, workers[0]], spec, AVG, repeat, [None])
    assert calls == [[newcomer]]
    assert all(type(k) is int for k in simulate._carry.counts.values())
    forget_counts(monkeypatch)
    assert _bits(served) == _bits(estimate_many([workers[1], newcomer, workers[0]], spec, AVG, repeat, [None]))
    assert calls[1] == [workers[1], newcomer, workers[0]]


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

    forget_counts(monkeypatch)
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


def test_merge_map_cells_served_by_carried_counts_equal_fresh_cells(monkeypatch):
    # A 3x3 per-subskill map and a trust row, cell by cell on one seed: the
    # human's counts carry from cell to cell and change no bit of any cell.
    spec, human = load_fixture_job(), named_worker("human")
    noise = truncnorm_var(AI_VARIANCE / 2)
    trust_partner = Worker(linear_profile(0.1, noise), constant_profile(0.7, noise))
    cells = [(Worker(linear_profile(a, noise), constant_profile(c, noise)), None)
             for a in (0.0, 0.2, 0.4) for c in (0.6, 0.8, 1.0)]
    cells += [(trust_partner, trust) for trust in (0.8, 1.4, 2.0)]
    gain = _merge_gain(human, spec, SimConfig(trials=2000, seed=17))
    forget_counts(monkeypatch)
    calls = _record_workers(monkeypatch)
    carried = [gain(other, trust) for other, trust in cells]
    assert sum(human in workers for workers in calls) == 1
    assert any("select" in (m.alpha1.family, m.alpha2.family) for m, _, _ in carried[-3:])
    for (other, trust), cell in zip(cells, carried):
        forget_counts(monkeypatch)
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

    forget_counts(monkeypatch)
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
        forget_counts(monkeypatch)
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
                forget_counts(monkeypatch)
            result = estimate_err_avg(*args, **kwargs)
            steps.append(_bits([result.estimate]))
            return result

        monkeypatch.setattr(theory, "estimate_err_avg", err_avg)
        forget_counts(monkeypatch)
        del computed[:]
        critical = theory.critical_ability(spec, FIXTURE_MODEL, human, "a1", config=config)
        return critical.hex(), steps, _column_calls(computed, 1, human.alpha2)

    carried, fresh = bisect(False), bisect(True)
    assert len(carried[1]) == 22
    assert carried[:2] == fresh[:2]
    assert (carried[2], fresh[2]) == (2, 22)


def test_kept_columns_never_exceed_one_chunk_of_uniforms(monkeypatch):
    # A 41-point sweep repeated at another tau evaluates all 41 workers
    # again, and all 42 of their columns recur; the carry keeps only as
    # many as fit in CHUNK_TRIALS * 2n doubles.
    spec = tiny_spec(n=3)
    human = linear_worker(0.3, 0.4, 0.3)
    config = SimConfig(trials=20_000, seed=31)
    grid = np.linspace(0.0, 1.0, 41)
    forget_counts(monkeypatch)
    sweep(human, spec, AVG, "a1", grid, config, tau=0.4)
    again = sweep(human, spec, AVG, "a1", grid, config, tau=0.5)
    kept = sum(column.nbytes for column in simulate._carry.columns.values())
    assert 0 < kept <= CHUNK_TRIALS * 2 * spec.n * 8
    forget_counts(monkeypatch)
    assert again == sweep(human, spec, AVG, "a1", grid, config, tau=0.5)


@pytest.mark.parametrize("trials", [3000, CHUNK_TRIALS + 1000])
def test_repeated_err_avg_reads_its_carried_columns(trials, monkeypatch):
    # At 3,000 trials both columns are kept and the third call draws no
    # uniforms; past one chunk only one column fits, and it spans two chunks.
    spec, worker = tiny_spec(n=3), linear_worker(0.4, 0.6, 0.3, p=0.3)
    config = SimConfig(trials=trials, seed=37)
    forget_counts(monkeypatch)
    fresh = estimate_err_avg(worker, spec, AVG, config).estimate
    estimate_err_avg(worker, spec, AVG, config)
    assert len(simulate._carry.columns) == (2 if trials < CHUNK_TRIALS else 1)
    draws = _spy(monkeypatch, "_chunk_uniforms")
    assert estimate_err_avg(worker, spec, AVG, config).estimate == fresh
    assert (draws == []) == (trials < CHUNK_TRIALS)


def test_a_worker_served_from_the_counts_lends_its_columns(monkeypatch):
    # The human is counted in the first call only; the third call's merged-
    # like worker shares the human's decision level, which the second call
    # used through the carried counts, so the third call keeps that column
    # and the fourth reads it.
    spec, (human, _), config = _carry_case()
    others = [linear_worker(a, 0.6, 0.2) for a in (0.1, 0.2)]
    sharing = [Worker(human.alpha1, linear_profile(c, uniform_noise(0.2))) for c in (0.5, 0.7)]
    forget_counts(monkeypatch)
    computed = _spy(monkeypatch, "_level_errors")
    got = [estimate_many([human, other], spec, AVG, config) for other in others + sharing]
    # Computed for the human in the first call and for sharing[0] in the third.
    assert _column_calls(computed, 0, human.alpha1) == 2
    for other, cell in zip(others + sharing, got):
        forget_counts(monkeypatch)
        assert _bits(cell) == _bits(estimate_many([human, other], spec, AVG, config))
