import numpy as np
import pytest

from jobfit.ability import (
    constant_profile,
    linear_profile,
    mean_ability,
    truncnorm_var,
    uniform_noise,
)
from jobfit.errors import ParameterError
from jobfit.job import ErrorModel, FIXTURE_MODEL, JobSpec, balanced_job
from jobfit.merging import (
    evaluate_merge_gain,
    merge_per_subskill,
    merge_uniform,
    merge_with_trust,
)
from jobfit.simulate import SimConfig, Worker, estimate_success_probability

AVG = ErrorModel()


@pytest.fixture(scope="module")
def fixture_spec():
    from jobfit.dataio import load_fixture_job

    return load_fixture_job()


def human_worker():
    prof = linear_profile(0.22, truncnorm_var(0.0065))
    return Worker(prof, prof)


def genai_worker(a, c):
    return Worker(linear_profile(a, truncnorm_var(0.0145)),
                  constant_profile(c, truncnorm_var(0.0145)))


def test_merge_uniform_picks():
    wa = Worker(linear_profile(0.5, uniform_noise(0.1)), linear_profile(0.4, uniform_noise(0.1)), 0.2)
    wb = Worker(linear_profile(0.4, uniform_noise(0.2)), linear_profile(0.5, uniform_noise(0.2)), 0.6)
    w12 = merge_uniform(wa, wb, ("A", "B"))
    assert w12.alpha1 == wa.alpha1 and w12.alpha2 == wb.alpha2
    assert w12.p == 0.6  # conservative max
    w21 = merge_uniform(wa, wb, ("B", "A"))
    assert w21.alpha1 == wb.alpha1 and w21.alpha2 == wa.alpha2
    assert merge_uniform(wa, wb, ("A", "A")).alpha2 == wa.alpha2
    with pytest.raises(ParameterError):
        merge_uniform(wa, wb, ("A", "X"))


@pytest.mark.parametrize("pick", [("A",), "A", (), "ABX", ("A", "B", "B"), ("A", "b"), ("AB", "A")])
def test_merge_uniform_needs_exactly_two_picks(pick):
    # One entry used to raise IndexError and a third entry was ignored.
    w = Worker(linear_profile(0.5, uniform_noise(0.1)), linear_profile(0.4, uniform_noise(0.1)))
    with pytest.raises(ParameterError, match="exactly two entries"):
        merge_uniform(w, w, pick)


def test_per_subskill_breakpoint_plan(fixture_spec):
    # action level: the linear mean 1 - 0.78 s beats the constant 0.8
    # exactly below s = (1 - 0.8) / 0.78
    wa = human_worker()
    wb = genai_worker(0.1, 0.8)
    merged, plan = merge_per_subskill(wa, wb, fixture_spec)
    cut = (1 - 0.8) / 0.78
    assert plan.decision == ("A",) * fixture_spec.n  # a=0.1 < 0.22 keeps decisions human
    for j, s in enumerate(fixture_spec.s2):
        assert plan.action[j] == ("A" if s <= cut else "B")
    assert merged.alpha1 == wa.alpha1


def test_per_subskill_dominated_and_ties(fixture_spec):
    wa = human_worker()
    weak = genai_worker(0.05, 0.2)
    merged, plan = merge_per_subskill(wa, weak, fixture_spec)
    assert set(plan.decision) == {"A"} and set(plan.action) == {"A"}
    assert merged == wa  # identity merge
    same, plan2 = merge_per_subskill(wa, wa, fixture_spec)
    assert set(plan2.decision) == {"A"} and set(plan2.action) == {"A"}  # ties go to A
    assert same == wa


def test_merged_mean_is_pointwise_max(fixture_spec):
    wa = human_worker()
    wb = genai_worker(0.3, 0.8)
    merged, _ = merge_per_subskill(wa, wb, fixture_spec)
    for level, s in ((1, fixture_spec.s1), (2, fixture_spec.s2)):
        got = np.asarray(mean_ability(merged.profile(level), s))
        want = np.maximum(mean_ability(wa.profile(level), s),
                          mean_ability(wb.profile(level), s))
        assert np.allclose(got, want, atol=1e-12)


def test_trust_one_equals_per_subskill(fixture_spec):
    wa = human_worker()
    wb = genai_worker(0.1, 0.8)
    m1, p1 = merge_per_subskill(wa, wb, fixture_spec)
    m2, p2 = merge_with_trust(wa, wb, fixture_spec, trust=1.0)
    assert p1.decision == p2.decision and p1.action == p2.action
    assert m1.alpha1 == m2.alpha1 and m1.alpha2 == m2.alpha2


def test_trust_zero_keeps_worker_a(fixture_spec):
    wa = human_worker()
    wb = genai_worker(0.5, 0.9)
    merged, plan = merge_with_trust(wa, wb, fixture_spec, trust=0.0)
    assert set(plan.decision) == {"A"} and set(plan.action) == {"A"}
    assert merged == wa


def test_trust_flips_decision_level(fixture_spec):
    # scaled comparison hands the whole decision level to B once the
    # estimated slope crosses the human's
    wa = human_worker()
    wb = genai_worker(0.2, 0.2)
    merged, plan = merge_with_trust(wa, wb, fixture_spec, trust=1.14)
    assert set(plan.action) == {"A"}
    flipped = [plan.decision[j] for j in range(fixture_spec.n) if fixture_spec.s1[j] > 0]
    assert set(flipped) == {"B"}
    assert merged.alpha1 == wb.alpha1  # full-level winner keeps its true profile
    assert merged.alpha2 == wa.alpha2


def test_gain_nonnegative_same_noise():
    n = 12
    rng = np.random.default_rng(5)
    spec = balanced_job(n, n, 3, rng.uniform(size=n), rng.uniform(size=n), 0.3)
    wa = Worker(linear_profile(0.5, uniform_noise(0.3)), linear_profile(0.3, uniform_noise(0.3)))
    wb = Worker(linear_profile(0.3, uniform_noise(0.3)), linear_profile(0.6, uniform_noise(0.3)))
    merged, _ = merge_per_subskill(wa, wb, spec)
    result = evaluate_merge_gain({"A": wa, "B": wb}, {"merged": merged}, spec, AVG,
                                 SimConfig(trials=20_000, seed=6))
    worst_se = max(e.stderr for e in result.table.values())
    assert result.delta >= -2 * worst_se


def test_trust_damage_monotone(fixture_spec):
    wa = human_worker()
    wb = genai_worker(0.2, 0.2)
    config = SimConfig(trials=10_000, seed=7)
    deltas = []
    for trust in (1.0, 1.1, 1.3, 3.0):
        merged, _ = merge_with_trust(wa, wb, fixture_spec, trust)
        res = evaluate_merge_gain({"A": wa, "B": wb}, {"merged": merged},
                                  fixture_spec, FIXTURE_MODEL, config)
        deltas.append(res.delta)
    se = 2 * 0.01
    assert all(later <= earlier + se for earlier, later in zip(deltas, deltas[1:]))
    assert deltas[0] == pytest.approx(0.0, abs=0.02)  # truthful estimate keeps A


def test_bright_region_level_swap():
    # complementary workers around the threshold: swapping levels turns two
    # borderline workers into a near-certain one
    n = 20
    rng = np.random.default_rng(111225)
    spec = balanced_job(n, n, 4, rng.uniform(size=n), rng.uniform(size=n), 0.25)
    wa = Worker(linear_profile(0.5, uniform_noise(0.5)), linear_profile(0.2, uniform_noise(0.5)))
    wb = Worker(linear_profile(0.3, uniform_noise(0.5)), linear_profile(0.6, uniform_noise(0.5)))
    merged = merge_uniform(wa, wb, ("A", "B"))
    res = evaluate_merge_gain({"A": wa, "B": wb}, {"AB": merged}, spec,
                              AVG, SimConfig(trials=10_000, seed=12))
    assert res.table["AB"].value >= 0.9
    assert res.delta >= 0.3


def test_evaluate_merge_gain_identity():
    n = 6
    spec = balanced_job(n, n, 2, np.full(n, 0.4), np.full(n, 0.4), 0.3)
    w = Worker(linear_profile(0.5, uniform_noise(0.2)), linear_profile(0.5, uniform_noise(0.2)))
    res = evaluate_merge_gain({"A": w}, {"same": w}, spec, AVG, SimConfig(trials=2000, seed=8))
    assert res.delta == 0.0
    with pytest.raises(ParameterError):
        evaluate_merge_gain({"A": w}, {}, spec, AVG)
    with pytest.raises(ParameterError):
        evaluate_merge_gain({"A": w}, {"A": w}, spec, AVG)


def test_mixed_level_with_same_noise_becomes_piecewise():
    n = 4
    spec = balanced_job(n, n, 2, np.linspace(0.1, 0.9, n), np.linspace(0.1, 0.9, n), 0.3)
    noise = uniform_noise(0.2)
    wa = Worker(linear_profile(0.6, noise), linear_profile(0.22, noise))
    wb = Worker(linear_profile(0.2, noise), constant_profile(0.8, noise))
    merged, _ = merge_per_subskill(wa, wb, spec)
    assert merged.alpha1 == wa.alpha1
    assert merged.alpha2.family == "piecewise"
    assert merged.alpha2.noise == noise
    grid = np.linspace(0, 1, 101)
    want = np.maximum(mean_ability(wa.alpha2, grid), mean_ability(wb.alpha2, grid))
    assert np.allclose(mean_ability(merged.alpha2, grid), want, atol=1e-12)


def test_mixed_level_same_kind_inherits_baseline_noise(fixture_spec):
    # one merged profile per level: the envelope keeps worker A's noise
    # scale even when B's differs (single-profile merged-worker model)
    wa = human_worker()
    wb = genai_worker(0.1, 0.8)
    merged, _ = merge_per_subskill(wa, wb, fixture_spec)
    assert merged.alpha2.family == "piecewise"
    assert merged.alpha2.noise == wa.alpha2.noise
    grid = np.linspace(0, 1, 201)
    want = np.maximum(mean_ability(wa.alpha2, grid), mean_ability(wb.alpha2, grid))
    assert np.allclose(mean_ability(merged.alpha2, grid), want, atol=1e-12)


def test_mixed_level_distinct_kind_keeps_true_sources():
    n = 4
    spec = balanced_job(n, n, 2, np.linspace(0.1, 0.9, n), np.linspace(0.1, 0.9, n), 0.3)
    wa = Worker(linear_profile(0.22, uniform_noise(0.1)), linear_profile(0.22, uniform_noise(0.1)))
    wb = Worker(linear_profile(0.1, truncnorm_var(0.0145)),
                constant_profile(0.8, truncnorm_var(0.0145)))
    merged, _ = merge_per_subskill(wa, wb, spec)
    assert merged.alpha2.family == "select"
    from jobfit.ability import quantile

    hard, easy = 0.9, 0.1
    assert quantile(merged.alpha2, hard, 0.3) == quantile(wb.alpha2, hard, 0.3)
    assert quantile(merged.alpha2, easy, 0.3) == quantile(wa.alpha2, easy, 0.3)
