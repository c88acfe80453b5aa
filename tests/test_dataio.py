import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jobfit.ability import mean_ability, quantile
from jobfit.dataio import (
    PSI_CHOICES,
    divide_subskills,
    fixture_path,
    load_benchmark_table,
    load_fixture_job,
    load_job_spec,
    named_worker,
    parse_job_record,
)
from jobfit.errors import DegenerateFitError, ParameterError, SchemaError

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_divide_examples():
    assert divide_subskills(0.70, 0.4) == (pytest.approx(0.28), pytest.approx(0.42))
    assert divide_subskills(0.63, 0.0) == (0.0, 0.63)
    assert divide_subskills(0.45, 1.0) == (0.45, 0.0)


@settings(deadline=None, max_examples=100)
@given(UNIT, UNIT, st.sampled_from(sorted(PSI_CHOICES)))
def test_divide_invariants(s, lam, psi):
    s1, s2 = divide_subskills(s, lam, psi)
    assert s1 + s2 == pytest.approx(s, abs=1e-12)
    assert 0.0 <= s1 <= s and 0.0 <= s2 <= s


def test_divide_monotone_in_degree():
    lams = np.linspace(0, 1, 21)
    for psi in sorted(PSI_CHOICES):
        # Each division map fixes both ends: psi(0) = 0 and psi(1) = 1.
        assert PSI_CHOICES[psi](0.0) == 0.0 and PSI_CHOICES[psi](1.0) == 1.0
        parts = [divide_subskills(0.7, lam, psi) for lam in lams]
        s1s = [p[0] for p in parts]
        s2s = [p[1] for p in parts]
        assert all(b >= a - 1e-12 for a, b in zip(s1s, s1s[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(s2s, s2s[1:]))
        assert s1s[0] == 0.0 and s1s[-1] == pytest.approx(0.7)


def test_divide_validation():
    with pytest.raises(ParameterError):
        divide_subskills(1.2, 0.5)
    with pytest.raises(ParameterError):
        divide_subskills(0.5, 0.5, psi="cubic")


def test_split_consistency_distribution():
    # zeta1 + zeta2 from the split preset vs 1 - X from the unsplit one
    half, skill = named_worker("human").alpha1, named_worker("human-skill").alpha1
    assert half.noise.sigma**2 == pytest.approx(skill.noise.sigma**2 / 2)
    rng = np.random.default_rng(0)
    for s, lam in ((0.7, 0.4), (0.5, 0.3), (0.46, 0.7)):
        s1, s2 = divide_subskills(s, lam)
        u = rng.uniform(size=(10_000, 3))
        z_split = (1 - quantile(half, s1, u[:, 0])) + (1 - quantile(half, s2, u[:, 1]))
        z_skill = 1 - quantile(skill, s, u[:, 2])
        assert abs(z_split.mean() - z_skill.mean()) <= 0.02
        ratio = z_split.var() / z_skill.var()
        assert 0.7 <= ratio <= 1.3


def test_fixture_loads_published_structure():
    spec = load_fixture_job()
    assert spec.n == 18 and spec.m == 17
    assert spec.tau == 0.45
    assert spec.tasks[0] == (5, 7, 8, 15, 17)  # published task 1 is {6,8,9,16,18}, 1-based
    assert spec.skill_names[17] == "Programming"
    # 0-based skills that appear in no task
    assert sorted(set(range(spec.n)) - {j for t in spec.tasks for j in t}) == [2, 11, 14]
    # division applied: decision difficulty of Programming is 0.4 * 0.7
    assert spec.s1[17] == pytest.approx(0.28)
    assert spec.s2[17] == pytest.approx(0.42)


def test_fixture_no_divide_variant():
    spec = load_fixture_job(divide=False)
    assert np.allclose(spec.s1, spec.s2)
    assert spec.s1[17] == pytest.approx(0.70)


def test_isolated_skill_rejected_without_flag(tmp_path):
    doc = json.loads(fixture_path("computer_programmers.json").read_text())
    doc["allow_isolated_skills"] = False
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="appear in no task"):
        load_job_spec(path)


def test_schema_errors_name_fields(tmp_path):
    doc = json.loads(fixture_path("computer_programmers.json").read_text())
    doc["skills"][3]["proficiency"] = 1.7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"skills\[4\].proficiency"):
        load_job_spec(path)
    doc = json.loads(fixture_path("computer_programmers.json").read_text())
    doc["tasks"][2]["skills"] = [1, 99]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"tasks\[3\].skills"):
        load_job_spec(path)
    doc = json.loads(fixture_path("computer_programmers.json").read_text())
    del doc["tau"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="tau"):
        load_job_spec(path)


def test_benchmark_fits_match_published():
    table, fits = load_benchmark_table(fixture_path("bigbench_lite.csv"))
    assert len(table.skills) == 24
    a_h, var_h = fits["human"]
    a_l, var_l = fits["llm"]
    assert a_h == pytest.approx(0.22, abs=0.01)
    assert var_h == pytest.approx(0.013, abs=0.002)
    assert a_l == pytest.approx(0.08, abs=0.01)
    assert var_l == pytest.approx(0.029, abs=0.002)
    # NA cells excluded from that column only
    assert table.columns["human"][4] is None  # conlang_translation
    assert table.columns["llm"][4] == pytest.approx(0.5)


def test_benchmark_single_row_column_fails(tmp_path):
    path = tmp_path / "thin.csv"
    path.write_text("skill,proficiency,solo\nalpha,0.2,0.9\nbeta,0.6,NA\n")
    with pytest.raises(DegenerateFitError):
        load_benchmark_table(path)


def test_benchmark_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("skill,wrong\n")
    with pytest.raises(SchemaError):
        load_benchmark_table(path)


def test_named_workers():
    human = named_worker("human")
    assert human.alpha1.params[0] == 0.22
    assert human.alpha1.noise.sigma**2 == pytest.approx(0.0065)
    skill = named_worker("human-skill")
    assert skill.alpha1.noise.sigma**2 == pytest.approx(0.013)
    ai = named_worker("ai", p=0.4)
    assert ai.p == 0.4 and ai.alpha2.params[0] == 0.08
    with pytest.raises(ParameterError):
        named_worker("cyborg")


def test_parse_rejects_wrong_version():
    with pytest.raises(SchemaError, match="format_version"):
        parse_job_record({"format_version": 99})
