import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from jobfit.ability import (
    LINEAR,
    SELECT,
    UNIFORM,
    AbilityProfile,
    NoiseModel,
    cdf,
    check_dominance,
    constant_profile,
    fit_linear_profile,
    linear_profile,
    mean_ability,
    piecewise_profile,
    polynomial_profile,
    quantile,
    select_profile,
    survival,
    truncnorm_noise,
    truncnorm_var,
    uniform_noise,
    _select_mask,
)
from jobfit.errors import DegenerateFitError, ParameterError

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def any_profile(draw):
    family = draw(st.sampled_from(["constant", "linear", "polynomial"]))
    kind = draw(st.sampled_from(["uniform", "truncnorm"]))
    sigma = draw(st.floats(min_value=0.0, max_value=1.0))
    noise = NoiseModel(kind, sigma)
    if family == "constant":
        return constant_profile(draw(UNIT), noise)
    if family == "linear":
        a = draw(UNIT)
        c = draw(st.floats(min_value=1.0 - a, max_value=1.0))
        return AbilityProfile(LINEAR, (a, c), noise)
    return polynomial_profile(draw(st.floats(min_value=0.0, max_value=5.0)), noise)


profiles = st.builds(lambda d: any_profile(d.draw), st.data())


def test_mean_examples():
    assert mean_ability(linear_profile(0.22, uniform_noise(0.1)), 0.5) == pytest.approx(0.61)
    assert mean_ability(polynomial_profile(1.0, uniform_noise(0.1)), 0.3) == pytest.approx(0.7)
    prof = constant_profile(0.8, uniform_noise(0.2))
    for s in (0.0, 0.3, 1.0):
        assert mean_ability(prof, s) == 0.8


def test_linear_validation():
    with pytest.raises(ParameterError):
        AbilityProfile(LINEAR, (0.3, 0.5), uniform_noise(0.1))  # a + c < 1
    with pytest.raises(ParameterError):
        polynomial_profile(-0.1, uniform_noise(0.1))
    with pytest.raises(ParameterError):
        polynomial_profile(float("nan"), uniform_noise(0.1))
    with pytest.raises(ParameterError):
        NoiseModel("uniform", 1.5)


@pytest.mark.parametrize("sigma", [math.inf, math.nan, -0.1])
def test_noise_needs_a_finite_sigma(sigma):
    for kind in ("uniform", "truncnorm"):
        with pytest.raises(ParameterError):
            NoiseModel(kind, sigma)
    with pytest.raises(ParameterError):
        truncnorm_var(sigma)


@pytest.mark.parametrize("scale", [math.inf, math.nan, -1.0])
def test_select_profile_needs_a_finite_scale(scale):
    with pytest.raises(ParameterError):
        select_profile(constant_profile(0.5, uniform_noise(0.1)), constant_profile(0.6, uniform_noise(0.1)), scale)


def test_zero_noise_sample_equals_mean():
    prof = linear_profile(0.22, uniform_noise(0.0))
    rng = np.random.default_rng(0)
    assert quantile(prof, 0.4, rng.uniform()) == mean_ability(prof, 0.4) == pytest.approx(0.688)


@settings(deadline=None, max_examples=80)
@given(st.data(), UNIT, st.integers(0, 2**32 - 1))
def test_sample_support(data, s, seed):
    prof = any_profile(data.draw)
    x = quantile(prof, s, np.random.default_rng(seed).uniform())
    assert 0.0 <= x <= 1.0


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_mean_monotone_nonincreasing(data):
    prof = any_profile(data.draw)
    grid = np.linspace(0.0, 1.0, 100)
    means = np.asarray(mean_ability(prof, grid))
    assert np.all(np.diff(means) <= 1e-12)


def test_scaled_uniform_unbiased():
    prof = linear_profile(0.5, uniform_noise(0.1))
    rng = np.random.default_rng(7)
    draws = quantile(prof, 0.5, rng.uniform(size=100_000))
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.75) <= max(4 * se, 1e-3)


def test_uniform_cdf_examples():
    prof = linear_profile(0.5, uniform_noise(1.0))
    # mean 0.75 at s=0.5; symmetric support
    assert cdf(prof, 0.5, 0.75) == pytest.approx(0.5)
    assert cdf(prof, 0.5, 1.0) == pytest.approx(1.0)
    mid = constant_profile(0.5, uniform_noise(1.0))
    assert cdf(mid, 0.3, 0.5) == pytest.approx(0.5)


def test_truncnorm_cdf_against_quadrature():
    # independent oracle: numerically integrate the renormalised density
    prof = constant_profile(0.5, truncnorm_noise(0.1))
    mu, sig = 0.5, 0.1

    def density(x):
        z = math.exp(-0.5 * ((x - mu) / sig) ** 2) / (sig * math.sqrt(2 * math.pi))
        return z

    total, _ = quad(density, 0.0, 1.0)
    for x in (0.3, 0.5, 0.62, 0.9):
        part, _ = quad(density, 0.0, x)
        assert cdf(prof, 0.1, x) == pytest.approx(part / total, abs=1e-9)
    assert cdf(prof, 0.1, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_quantile_examples():
    prof = constant_profile(0.5, uniform_noise(1.0))
    assert quantile(prof, 0.2, 0.5) == pytest.approx(0.5)
    assert quantile(prof, 0.2, 0.0) == pytest.approx(0.0)  # lower support endpoint
    tn = linear_profile(0.22, truncnorm_noise(0.0806))
    # bisection against our cdf as the oracle
    target = 0.9
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if cdf(tn, 0.5, mid) < target:
            lo = mid
        else:
            hi = mid
    assert quantile(tn, 0.5, target) == pytest.approx((lo + hi) / 2, abs=1e-6)


@pytest.mark.parametrize("noise", [uniform_noise(0.3), truncnorm_noise(0.15)])
def test_quantile_cdf_round_trip(noise):
    prof = linear_profile(0.4, noise)
    qs = np.arange(0.01, 1.0, 0.01)
    for s in (0.1, 0.5, 0.9):
        x = quantile(prof, s, qs)
        back = cdf(prof, s, x)
        assert np.max(np.abs(back - qs)) <= 1e-6
        # inverse direction on interior points
        xs = np.linspace(*np.quantile(x, [0.05, 0.95]), 17)
        again = quantile(prof, s, cdf(prof, s, xs))
        assert np.max(np.abs(again - xs)) <= 1e-9


def test_dominance_within_families():
    s_grid = np.linspace(0.0, 1.0, 20)
    x_grid = np.linspace(0.0, 1.0, 20)
    pairs = [
        (linear_profile(0.6, uniform_noise(0.4)), linear_profile(0.4, uniform_noise(0.4))),
        (constant_profile(0.7, uniform_noise(0.4)), constant_profile(0.5, uniform_noise(0.4))),
        (polynomial_profile(2.0, uniform_noise(0.4)), polynomial_profile(1.0, uniform_noise(0.4))),
        (linear_profile(0.6, truncnorm_noise(0.1)), linear_profile(0.4, truncnorm_noise(0.1))),
    ]
    for strong, weak in pairs:
        res = check_dominance(strong, weak, s_grid, x_grid)
        assert res.dominates, res
    same = linear_profile(0.5, uniform_noise(0.2))
    res = check_dominance(same, same, s_grid, x_grid)
    assert res.dominates and res.worst_violation == 0.0


def test_dominance_violation_reported():
    # closed-form uniform supports: c=0.3 -> [0.15, 0.45], c=0.7 -> [0.55, 0.85]
    weak_is_stronger = check_dominance(
        constant_profile(0.3, uniform_noise(0.5)),
        constant_profile(0.7, uniform_noise(0.5)),
        [0.5],
        [0.5],
    )
    assert not weak_is_stronger.dominates
    assert weak_is_stronger.worst_violation == pytest.approx(1.0)


def test_survival_point_mass():
    prof = constant_profile(0.6, uniform_noise(0.0))
    assert survival(prof, 0.2, 0.6) == 1.0
    assert survival(prof, 0.2, 0.61) == 0.0


def test_fit_linear_profile():
    pts = [(s, 1 - 0.5 * s) for s in (0.1, 0.4, 0.8)]
    a, var = fit_linear_profile(pts)
    assert a == pytest.approx(0.5, abs=1e-12)
    assert var == pytest.approx(0.0, abs=1e-18)
    # slope steeper than 1 clamps a at 0
    a, _ = fit_linear_profile([(0.2, 0.7), (0.8, 0.05)])
    assert 0.0 <= a <= 1.0
    with pytest.raises(DegenerateFitError):
        fit_linear_profile([(0.5, 0.6), (0.5, 0.8)])
    with pytest.raises(DegenerateFitError):
        fit_linear_profile([(0.5, 0.6)])


def test_piecewise_and_select():
    pw = piecewise_profile([(0.0, 1.0), (0.3, 0.9), (1.0, 0.2)], uniform_noise(0.1))
    assert mean_ability(pw, 0.3) == pytest.approx(0.9)
    assert mean_ability(pw, 0.65) == pytest.approx(0.55)
    with pytest.raises(ParameterError):
        piecewise_profile([(0.0, 0.5), (0.5, 0.9)], uniform_noise(0.1))  # increasing mean
    a = linear_profile(0.22, truncnorm_var(0.0065))
    b = constant_profile(0.8, truncnorm_var(0.0145))
    sel = select_profile(a, b)
    # B chosen exactly where its mean is higher
    for s in (0.1, 0.2564, 0.3, 0.8):
        expect = max(mean_ability(a, s), mean_ability(b, s))
        assert mean_ability(sel, s) == pytest.approx(expect)
    assert quantile(sel, 0.1, 0.3) == quantile(a, 0.1, 0.3)
    assert quantile(sel, 0.8, 0.3) == quantile(b, 0.8, 0.3)


def reference_quantile(profile, s, q):
    """``quantile`` as it was before it transformed one output in place,
    kept verbatim (out-of-place formulas) as the bit-for-bit reference."""
    s_arr = np.asarray(s, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if profile.family == SELECT:
        mask = _select_mask(profile, s_arr)
        xa = reference_quantile(profile.sources[0], s_arr, q_arr)
        xb = reference_quantile(profile.sources[1], s_arr, q_arr)
        x = np.where(mask, xb, xa)
        return x if x.shape else float(x)

    e = np.asarray(mean_ability(profile, s_arr), dtype=float)
    sigma = profile.noise.sigma
    if sigma == 0.0:
        x = np.broadcast_to(e, np.broadcast_shapes(e.shape, q_arr.shape)).copy()
    elif profile.noise.kind == UNIFORM:
        half = np.minimum(e, 1.0 - e) * sigma
        x = e + half * (2.0 * q_arr - 1.0)
    else:
        with np.errstate(over="ignore"):
            pa = ndtr((0.0 - e) / sigma)
            pb = ndtr((1.0 - e) / sigma)
        x = e + sigma * ndtri(pa + q_arr * (pb - pa))
    x = np.clip(x, 0.0, 1.0)
    return x if x.shape else float(x)


NOISES = [uniform_noise(0.0), uniform_noise(0.4), uniform_noise(1.0),
          truncnorm_noise(0.0), truncnorm_noise(0.1), truncnorm_noise(0.5), truncnorm_noise(3.0)]


def family_profiles(noise):
    return [
        constant_profile(0.6, noise),
        AbilityProfile(LINEAR, (0.3, 0.9), noise),
        polynomial_profile(1.7, noise),
        piecewise_profile([(0.0, 1.0), (0.5, 0.7), (1.0, 0.2)], noise),
        select_profile(linear_profile(0.22, noise), constant_profile(0.7, truncnorm_noise(0.2)), 1.1),
    ]


def quantile_inputs():
    rng = np.random.default_rng(11)
    n = 5
    q_edges = rng.random((40, n))
    q_edges[0], q_edges[1] = 0.0, 1.0
    return [
        (0.3, 0.7),
        (np.array(0.3), np.array(0.7)),
        (rng.random((1, n)), q_edges),
        (rng.random((1, n)), rng.random((40, 1))),
        (rng.random((3, 4)), rng.random((3, 4))),
    ]


def same_bits(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@pytest.mark.parametrize("noise", NOISES, ids=lambda nm: f"{nm.kind}-{nm.sigma}")
def test_quantile_in_place_equals_reference_bits(noise):
    for prof in family_profiles(noise):
        for s, q in quantile_inputs():
            s_before, q_before = np.array(s, copy=True), np.array(q, copy=True)
            got = quantile(prof, s, q)
            assert same_bits(got, reference_quantile(prof, s, q)), (prof.family, np.shape(s), np.shape(q))
            assert np.array_equal(s, s_before) and np.array_equal(q, q_before)


def select_sources():
    noises = [uniform_noise(0.4), truncnorm_noise(0.3), uniform_noise(0.0), truncnorm_noise(0.0)]
    return [prof for noise in noises for prof in (
        constant_profile(0.55, noise),
        AbilityProfile(LINEAR, (0.3, 0.9), noise),
        polynomial_profile(1.7, noise),
        piecewise_profile([(0.0, 1.0), (0.4, 0.75), (1.0, 0.1)], noise),
    )]


def select_shapes():
    # (s, q) as the engine's blocks, a one-trial block, both branches of
    # brute_force_success_probability, a vector and a scalar pass them.
    rng = np.random.default_rng(5)
    n, res = 6, 50
    s = np.linspace(0.05, 0.95, n)
    q = rng.random((64, n))
    q[0], q[1] = 0.0, 1.0
    return [(s[None, :], q), (s[None, :], rng.random((1, n))), (0.7, (np.arange(res) + 0.5) / res),
            (s[None, :], ((np.arange(res) + 0.5) / res)[:, None]), (s, rng.random(n)), (0.2, 0.35)]


def test_select_quantile_transforms_each_source_only_where_chosen_same_bits():
    sources = select_sources()
    mixed = 0
    for pa, pb in itertools.product(sources, repeat=2):
        for prof in (select_profile(pa, pb, 1.1), select_profile(select_profile(pb, pa, 0.9), pa, 1.2)):
            for s, q in select_shapes():
                got = quantile(prof, s, q)
                assert same_bits(got, reference_quantile(prof, s, q)), (pa, pb, np.shape(s), np.shape(q))
        mixed += 0 < _select_mask(select_profile(pa, pb, 1.1), np.linspace(0.05, 0.95, 6)).sum() < 6
    assert mixed > len(sources) ** 2 // 4


def test_select_quantile_skips_the_unchosen_source(monkeypatch):
    # A truncated-normal source goes through ndtri once per element it
    # transforms, so a select profile costs one ndtri per element in all.
    from jobfit import ability

    calls = []

    def counting_ndtri(x, out=None):
        calls.append(np.size(x))
        return ndtri(x, out=out)

    monkeypatch.setattr(ability, "ndtri", counting_ndtri)
    prof = select_profile(linear_profile(0.3, truncnorm_noise(0.3)), constant_profile(0.6, truncnorm_noise(0.2)))
    s = np.linspace(0.05, 0.95, 6)[None, :]
    picks_b = int(_select_mask(prof, s).sum())
    quantile(prof, s, np.random.default_rng(1).random((100, 6)))
    assert 0 < picks_b < 6 and calls == [100 * (6 - picks_b), 100 * picks_b]
