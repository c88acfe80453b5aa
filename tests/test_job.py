import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jobfit.errors import NotLinearError, ParameterError, ShapeError
from jobfit.job import (
    ErrorModel,
    FIXTURE_MODEL,
    JobSpec,
    _task_vector,
    _task_weight_matrix,
    balanced_job,
    effective_coefficients,
    job_error,
    lipschitz_bound,
    make_error_evaluator,
)


def small_spec(tau=0.5):
    return JobSpec(
        s1=[0.2, 0.6],
        s2=[0.4, 0.1],
        tasks=((0, 1),),
        w=[0.5, 1.0],
        v=[1.0],
        tau=tau,
    )


def random_spec(rng, weighted=True):
    n = rng.integers(2, 8)
    m = rng.integers(1, 8)
    tasks = []
    for _ in range(m):
        k = rng.integers(1, n + 1)
        tasks.append(tuple(sorted(rng.choice(n, size=k, replace=False).tolist())))
    # ensure no isolated skills so weighted sums stay meaningful
    used = {j for t in tasks for j in t}
    for j in range(n):
        if j not in used:
            tasks[rng.integers(0, m)] = tuple(sorted(set(tasks[rng.integers(0, m)]) | {j}))
    w = rng.uniform(0.2, 1.0, size=n) if weighted else np.ones(n)
    v = rng.uniform(0.2, 1.0, size=m) if weighted else np.ones(m)
    return JobSpec(rng.uniform(size=n), rng.uniform(size=n), tuple(tasks), w, v, 0.5)


MODELS = [
    ErrorModel(),
    ErrorModel(h="sum", g="weighted", f="weighted"),
    ErrorModel(h="max", g="average", f="average"),
    ErrorModel(h="average", g="max", f="weighted"),
    ErrorModel(h="average", g="weighted", f="max"),
]


def test_job_error_hand_composed():
    spec = JobSpec([0.5, 0.5], [0.5, 0.5], ((0, 1),), [1, 1], [1], 0.5)
    zeta = [[0.2, 0.4], [0.6, 0.8]]
    # h averages pairs to (0.3, 0.7); g averages to 0.5; f is identity on one task
    assert job_error(spec, ErrorModel(), zeta) == pytest.approx(0.5)


def test_all_zero_error():
    spec = small_spec()
    for model in MODELS:
        assert job_error(spec, model, np.zeros((2, 2))) == pytest.approx(0.0)


def test_monotone_in_every_coordinate():
    rng = np.random.default_rng(3)
    for model in MODELS:
        spec = random_spec(rng)
        evaluate = make_error_evaluator(spec, model)
        for _ in range(200):
            zeta = rng.uniform(size=(spec.n, 2))
            bump = rng.uniform(size=(spec.n, 2)) * rng.integers(0, 2, size=(spec.n, 2))
            hi = np.clip(zeta + bump, 0, 1)
            assert evaluate(hi) >= evaluate(zeta) - 1e-12


def test_lipschitz_soundness():
    rng = np.random.default_rng(4)
    for model in MODELS:
        spec = random_spec(rng)
        evaluate = make_error_evaluator(spec, model)
        L = lipschitz_bound(spec, model)
        for _ in range(200):
            za = rng.uniform(size=(spec.n, 2))
            zb = rng.uniform(size=(spec.n, 2))
            gap = abs(float(evaluate(za)) - float(evaluate(zb)))
            assert gap <= L * np.abs(za - zb).sum() + 1e-12


def test_effective_coefficients_oracle():
    # naive double loop as the independent oracle
    rng = np.random.default_rng(5)
    for _ in range(20):
        spec = random_spec(rng)
        model = ErrorModel(h="sum", g="weighted", f="weighted")
        coeff = effective_coefficients(spec, model)
        vsum = spec.v.sum()
        expect = np.zeros(spec.n)
        for i, task in enumerate(spec.tasks):
            wsum = sum(spec.w[j] for j in task)
            for j in task:
                expect[j] += (spec.v[i] / vsum) * (spec.w[j] / wsum)
        assert np.allclose(coeff, expect, atol=1e-12)
        assert coeff.sum() == pytest.approx(1.0)


def test_linear_model_matches_coefficients():
    rng = np.random.default_rng(6)
    for model in (ErrorModel(), ErrorModel(h="sum", g="weighted", f="weighted")):
        spec = random_spec(rng)
        coeff = effective_coefficients(spec, model) * model.h_scale
        evaluate = make_error_evaluator(spec, model)
        zeta = rng.uniform(size=(50, spec.n, 2))
        direct = (zeta[..., 0] + zeta[..., 1]) @ coeff
        assert np.allclose(evaluate(zeta), direct, atol=1e-12)


def test_effective_coefficients_rejects_max():
    with pytest.raises(NotLinearError):
        effective_coefficients(small_spec(), ErrorModel(h="max"))


def test_single_task_single_skill():
    spec = JobSpec([0.5], [0.5], ((0,),), [0.7], [0.9], 0.5)
    coeff = effective_coefficients(spec, ErrorModel(h="sum", g="weighted", f="weighted"))
    assert coeff[0] == pytest.approx(1.0)


def test_balanced_job_identity():
    rng = np.random.default_rng(7)
    n, m, k = 10, 20, 4
    spec = balanced_job(n, m, k, rng.uniform(size=n), rng.uniform(size=n), 0.25)
    coeff = effective_coefficients(spec, ErrorModel())
    assert np.allclose(coeff, 1.0 / n, atol=1e-12)
    evaluate = make_error_evaluator(spec, ErrorModel())
    zeta = rng.uniform(size=(10, n, 2))
    assert np.allclose(evaluate(zeta), zeta.sum(axis=(1, 2)) / (2 * n), atol=1e-12)
    assert lipschitz_bound(spec, ErrorModel()) == pytest.approx(1.0 / (2 * n))


def test_lipschitz_examples():
    assert lipschitz_bound(small_spec(), ErrorModel(h="max")) == 1.0
    # brute-force slope of each coordinate matches the analytic bound
    rng = np.random.default_rng(8)
    spec = random_spec(rng)
    model = ErrorModel(h="sum", g="weighted", f="weighted")
    evaluate = make_error_evaluator(spec, model)
    coeff = effective_coefficients(spec, model)
    base = rng.uniform(0.2, 0.8, size=(spec.n, 2))
    eps = 1e-6
    slopes = np.zeros(spec.n)
    for j in range(spec.n):
        bumped = base.copy()
        bumped[j, 0] += eps
        slopes[j] = (float(evaluate(bumped)) - float(evaluate(base))) / eps
    assert np.allclose(slopes, coeff, atol=1e-6)
    assert lipschitz_bound(spec, model) == pytest.approx(coeff.max())


def test_validation_errors():
    with pytest.raises(ParameterError):
        JobSpec([0.5], [0.5], ((),), [1.0], [1.0], 0.5)  # empty task
    with pytest.raises(ParameterError):
        JobSpec([0.5], [0.5], ((0, 0),), [1.0], [1.0], 0.5)  # duplicate
    with pytest.raises(ParameterError):
        JobSpec([0.5], [0.5], ((1,),), [1.0], [1.0], 0.5)  # out of range
    with pytest.raises(ParameterError):
        JobSpec([1.5], [0.5], ((0,),), [1.0], [1.0], 0.5)  # difficulty > 1
    with pytest.raises(ShapeError):
        JobSpec([0.5, 0.2], [0.5], ((0,),), [1.0, 1.0], [1.0], 0.5)
    with pytest.raises(ShapeError):
        job_error(small_spec(), ErrorModel(), np.zeros((3, 2)))


def test_isolated_skills_reported():
    spec = JobSpec([0.5, 0.6], [0.1, 0.2], ((0,),), [1.0, 1.0], [1.0], 0.5)
    assert spec.isolated_skills() == [1]


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 9), st.integers(1, 9), st.integers(0, 10_000))
def test_fixture_model_monotone(n, m, seed):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng)
    evaluate = make_error_evaluator(spec, FIXTURE_MODEL)
    zeta = rng.uniform(size=(spec.n, 2))
    j = int(rng.integers(0, spec.n))
    hi = zeta.copy()
    hi[j, 1] = min(1.0, hi[j, 1] + 0.25)
    assert evaluate(hi) >= evaluate(zeta) - 1e-12


def reference_evaluator(spec, model):
    """The gather-and-stack evaluator that the skill-major one replaced,
    kept verbatim as the bit-for-bit reference."""
    if model.is_linear:
        coeff = effective_coefficients(spec, model) * model.h_scale
        return lambda zeta: (zeta[..., 0] + zeta[..., 1]) @ coeff
    gw = None if model.g == "max" else _task_weight_matrix(spec, model)
    fv = None if model.f == "max" else _task_vector(spec, model)
    task_idx = [np.array(t) for t in spec.tasks]

    def general_eval(zeta):
        if model.h == "max":
            skill = zeta.max(axis=-1)
        elif model.h == "sum":
            skill = zeta.sum(axis=-1)
        else:
            skill = zeta.mean(axis=-1)
        if gw is None:
            task = np.stack([skill[..., idx].max(axis=-1) for idx in task_idx], axis=-1)
        else:
            task = skill @ gw.T
        return task.max(axis=-1) if fv is None else task @ fv

    return general_eval


ALL_MODELS = [ErrorModel(h, g, f) for h, g, f in itertools.product(
    ("average", "sum", "max"), ("average", "weighted", "max"), ("average", "weighted", "max"))]


def test_evaluator_bit_identical_to_reference():
    rng = np.random.default_rng(11)
    specs = [random_spec(rng) for _ in range(4)]
    # a single-skill task beside a wider one, skill 3 in no task
    specs.append(JobSpec([0.2, 0.4, 0.6, 0.8], [0.3, 0.5, 0.7, 0.9], ((2,), (0, 1, 2)),
                         [0.3, 0.9, 0.5, 0.7], [0.4, 1.0], 0.5))
    # a job with one task, skill 1 in no task
    specs.append(JobSpec([0.1, 0.5, 0.9], [0.2, 0.6, 0.8], ((0, 2),), [0.6, 1.0, 0.8], [0.7], 0.5))
    assert len(ALL_MODELS) == 27
    for spec in specs:
        for model in ALL_MODELS:
            evaluate, reference = make_error_evaluator(spec, model), reference_evaluator(spec, model)
            for lead in ((), (7,), (3, 4)):
                zeta = rng.uniform(size=lead + (spec.n, 2))
                got, want = evaluate(zeta), reference(zeta)
                assert type(got) is type(want) and np.shape(got) == np.shape(want) == lead
                assert np.array_equal(got, want), (spec.tasks, model, lead)
