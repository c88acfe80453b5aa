"""Self-tests of the benchmark: checks catch bad payloads, the tracer
counts what the engine must do and changes nothing, and the comparison
rules say what NOTES.md says they do.

    python3 -m pytest -q jobbench/selftest.py     (about a minute)

The file name keeps the repository's own test run from collecting it.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math

import program

program.pin_threads()
program.use_tree(program.DEFAULT_ROOT)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jobfit import simulate  # noqa: E402

REFERENCE_SEED = 0
OTHER_SEED = 7


def _cycle(name, seed, cycles=range(1), traced=False):
    wl = workloads.build(name, seed, workloads.load_job(name, seed))
    if not traced:
        return run.run_cycles(wl, cycles), None
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        records = run.run_cycles(wl, cycles)
    return records, tracing.layer_metrics(tracer, sum(r[3] for r in records))


def _with_result(record, result):
    c, i, op, dt, _, err = record
    return (c, i, op, dt, result, err)


def test_reference_covers_both_seeds():
    assert REFERENCE_SEED in reference.SEEDS
    for seed in reference.SEEDS:
        for name in workloads.WORKLOADS:
            assert run.load_reference(name, seed), (name, seed)


def test_perturbed_payload_is_counted_as_failed():
    records, _ = _cycle("fixture-p30", REFERENCE_SEED)
    reference = run.load_reference("fixture-p30", REFERENCE_SEED)
    problems, _ = run.check_records(records, reference)
    assert problems == [[]]

    est = records[0][4]
    one_ulp = dataclasses.replace(est, value=float(np.nextafter(est.value, 1.0)))
    problems, _ = run.check_records([_with_result(records[0], one_ulp)], reference)
    assert len(problems[0]) == 1 and "digest" in problems[0][0]

    outside = copy.copy(est)  # bypasses the constructor's own CI assertion
    object.__setattr__(outside, "ci", (est.value + 0.1, est.value + 0.2))
    problems, _ = run.check_records([_with_result(records[0], outside)], [])
    assert problems[0] and "outside CI" in problems[0][0]


def test_invariants_catch_inconsistent_reports():
    records, _ = _cycle("shared-draws", OTHER_SEED)
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec[2].kind, rec)
    assert set(by_kind) == {"sweep", "merge-row", "phase", "compress", "err-avg"}
    problems, _ = run.check_records(records, [])
    assert not any(problems)

    row = by_kind["merge-row"][4]
    plan, res = row[-1]
    bad_merge = row[:-1] + [(plan, dataclasses.replace(res, delta=res.delta + 1e-12))]
    sweep = by_kind["sweep"][4]
    bad_sweep = list(reversed(sweep)) if sweep[0].estimate.value != sweep[-1].estimate.value else None
    err = by_kind["err-avg"][4]
    far = err.exact + 5.0 * err.estimate.stderr
    bad_err = dataclasses.replace(err, estimate=dataclasses.replace(err.estimate, value=far, ci=(far, far)))
    comp = by_kind["compress"][4]
    bad_comp = dataclasses.replace(comp, pc=comp.pc + 1e-9)
    for kind, bad in (("merge-row", bad_merge), ("sweep", bad_sweep), ("err-avg", bad_err), ("compress", bad_comp)):
        assert bad is not None
        problems, _ = run.check_records([_with_result(by_kind[kind], bad)], [])
        assert problems[0], kind


def test_run_exits_nonzero_when_outputs_change(monkeypatch, capsys):
    original = simulate._binomial_estimate

    def one_ulp_off(*args):
        est = original(*args)
        return dataclasses.replace(est, value=float(np.nextafter(est.value, 1.0)))

    monkeypatch.setattr(simulate, "_binomial_estimate", one_ulp_off)
    code = run.main(["--workload", "fixture-p30", "--seed", str(REFERENCE_SEED), "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] >= run.MIN_OPS


@pytest.mark.parametrize("name, p", [("fixture-p30", 0.3), ("max-balanced", 0.0)])
def test_traced_counts_equal_analytic_counts(name, p):
    plain, _ = _cycle(name, OTHER_SEED)
    records, layers = _cycle(name, OTHER_SEED, traced=True)
    trials = records[0][2].work
    chunks = math.ceil(trials / simulate.CHUNK_TRIALS)
    assert layers["simulate.estimates"] == 1 and layers["simulate.trials"] == trials
    assert layers["rng.calls"] == chunks
    assert layers["quantile.calls"] == chunks * (4 if p > 0 else 2)
    assert layers["aggregate.calls"] == chunks
    assert layers["theory.err_avg_mc"] == 0 and layers["merging.plans"] == 0
    n = workloads.load_job(name, OTHER_SEED).n
    assert layers["rng.sel_unused_frac"] == (0.0 if p > 0 else 2 * n / (4 * n + 1))
    assert workloads.digest(plain[0][4]) == workloads.digest(records[0][4])


def test_traced_shared_draws_counts_and_payloads():
    plain, _ = _cycle("shared-draws", OTHER_SEED)
    records, layers = _cycle("shared-draws", OTHER_SEED, traced=True)
    assert [workloads.digest(r[4]) for r in records] == [workloads.digest(r[4]) for r in plain]
    chunk = simulate.CHUNK_TRIALS
    n_map = len(workloads.MAP_A) * len(workloads.MAP_C) + len(workloads.TRUST)
    estimates = (len(workloads.SWEEP_GRID) * math.ceil(workloads.SWEEP_TRIALS / chunk)
                 + 3 * n_map * math.ceil(workloads.MAP_TRIALS / chunk)
                 + workloads.PHASE_EVALS * math.ceil(workloads.PHASE_TRIALS / chunk)
                 + 4 * math.ceil(workloads.MAP_TRIALS / chunk)
                 + math.ceil(workloads.ERR_AVG_TRIALS / chunk))
    assert layers["rng.calls"] == estimates
    assert layers["quantile.calls"] == 2 * estimates  # every worker here has p = 0
    assert layers["theory.err_avg_evals"] == layers["theory.err_avg_mc"] == workloads.PHASE_EVALS - 2
    assert layers["merging.plans"] == n_map + 2  # compression_bound merges both humans
    assert layers["rng.reuse_ratio"] < 0.1
    assert layers["quantile.select_discard_frac"] > 0.0


def test_tracing_restores_every_entry_point():
    import jobfit.ability
    import jobfit.simulate

    before = (jobfit.simulate.quantile, jobfit.ability.quantile, jobfit.simulate._chunk_uniforms)
    with tracing.traced(tracing.Tracer()):
        assert jobfit.simulate.quantile is not before[0]
        assert jobfit.simulate.quantile is jobfit.ability.quantile
    assert (jobfit.simulate.quantile, jobfit.ability.quantile, jobfit.simulate._chunk_uniforms) == before


def test_tail_has_ten_samples_beyond_it():
    value, pct = workloads.tail([float(v) for v in range(1, 31)])
    assert value == 20.0 and pct == 66
    with pytest.raises(ValueError):
        workloads.tail([1.0] * 10)


def test_benchmark_json_names_what_run_prints():
    doc = json.loads((program.DEFAULT_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] < setup["bound"] for m in doc["end_to_end"] if m is not setup)


def test_comparison_rules():
    parent = [100.0 + k % 3 for k in range(10)]
    faster = [v * 1.2 for v in parent]
    assert compare.judge(parent, faster, "higher", 0.1, 0, 0)[0] == "better"
    assert compare.judge(parent, faster, "higher", 0.1, 0, 1)[0] == "no regression"
    assert compare.judge(parent, [v * 0.7 for v in parent], "higher", 0.1, 0, 0)[0] == "REGRESSION"
    assert compare.judge(parent, [v * 0.97 for v in parent], "higher", 0.1, 0, 0)[0] == "no regression"
    noisy = [50.0, 150.0] * 5
    assert compare.judge(noisy, noisy[::-1], "higher", 0.1, 0, 0)[0] == "unresolved"
    assert compare.judge(parent[:5], faster[:5], "higher", 0.1, 0, 0)[0] == "no regression"


def test_pairs_with_different_payloads_fail():
    spec = json.loads((program.DEFAULT_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}

    def rec(side, pair, digests):
        return {"side": side, "pair": pair, "workload": "fixture-p30", "seed": 100 + pair,
                "result": {"correct": True, "attempted": len(digests), "failed": 0, "metrics": metrics},
                "digests": digests}

    same = [rec(side, k, ["a", "b", "c"][: 2 + (side == "parent")]) for k in range(10) for side in ("parent", "change")]
    assert compare.report_pairs(same, spec)
    changed = same[:-1] + [rec("change", 9, ["a", "x"])]
    assert not compare.report_pairs(changed, spec)
