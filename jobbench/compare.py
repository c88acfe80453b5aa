#!/usr/bin/env python3
"""Repeat runs of the benchmark and judge them.

    # spread of one tree: N runs per workload, each on another seed
    python3 jobbench/compare.py sample --root . --runs 10 --out base.jsonl
    # a change against its parent: alternating-order pairs, same seed per pair
    python3 jobbench/compare.py pairs --parent ../parent --change . --pairs 10 --out cmp.jsonl
    # print the verdict table again from saved runs
    python3 jobbench/compare.py report cmp.jsonl

Every run uses this benchmark's code (``run.py --root TREE``), so both
sides of a comparison are measured with identical benchmark code and
settings.  Bounds and directions come from BENCHMARK.json beside this
directory.  Rules (see NOTES.md):

* gain: the change wins at least 9/10 of at least 10 pairs (ties count
  for neither), its median differs from the parent's by more than the
  parent's interquartile range, and it fails no more ops than the parent;
* regression: the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median);
* unresolved: the parent's own spread (IQR / median) exceeds the bound,
  unless every change run reads better than every parent run;
* a pair whose two runs give different payload digests for the same op
  (same seed, same cycle) counts as a failed check of the change.

Every run lasts BENCHMARK.json's run_seconds and every workload is run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import program
import run

RUN = program.BENCH_DIR / "run.py"
SPEC = program.DEFAULT_ROOT / "BENCHMARK.json"
WIN_SHARE = 0.9
MIN_PAIRS = 10


def _spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def _run(side: str, pair: int, tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run as a record: its result line and its op digests."""
    done = subprocess.run([sys.executable, str(RUN), "--root", str(tree), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"run failed on {tree} ({workload}, seed {seed}):\n{done.stderr}")
    full = json.loads(run.out_path(workload, seed, 0).read_text(encoding="utf-8"))
    return {"side": side, "pair": pair, "workload": workload, "seed": seed,
            "result": json.loads(lines[-1]), "digests": full["digests"]}


def payload_mismatch(parent: list, change: list) -> bool:
    """True when the two runs' payloads differ on an op both ran.  Ops are
    fixed by (seed, cycle, index), so the shorter run's ops are a prefix
    of the longer run's."""
    n = min(len(parent), len(change))
    return parent[:n] != change[:n]


def _emit(out, rec: dict) -> None:
    out.write(json.dumps(rec) + "\n")
    out.flush()
    m = rec["result"]["metrics"]
    print(f"{rec['side']:7s} {rec['workload']:13s} seed {rec['seed']:4d} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in m.items()), file=sys.stderr)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def _series(recs, side, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in recs
            if r["side"] == side and r["workload"] == workload]


def report_sample(recs, spec, summary: dict) -> bool:
    """Median, quartiles and spread per metric, also filled into
    ``summary``; True when every spread is within its bound."""
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in recs):
        n = sum(1 for r in recs if r["workload"] == workload)
        print(f"{workload} ({n} runs)")
        for m in spec["end_to_end"]:
            vals = _series(recs, "tree", workload, m["name"])
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            summary.setdefault(workload, {})[m["name"]] = {
                "unit": m["unit"], "median": q2, "q1": q1, "q3": q3, "spread": s, "runs": len(vals),
                "seeds": [r["seed"] for r in recs if r["side"] == "tree" and r["workload"] == workload]}
            if s <= m["bound"] / 3:
                verdict = "steady (< bound/3)"
            elif s <= m["bound"]:
                verdict = "within bound"
            else:
                verdict, ok = "UNSTEADY", False
            print(f"  {m['name']:14s} median {q2:12.6g} {m['unit']:16s} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {s:7.2%} bound {m['bound']:.0%}  {verdict}")
    return ok


def judge(parent: list[float], change: list[float], better: str, bound: float,
          parent_failed: int, change_failed: int) -> tuple[str, str]:
    """Verdict for one metric on one workload, with its evidence."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq1, pm, pq3 = quartiles(parent)
    cm = statistics.median(change)
    rel = (cm - pm) / abs(pm) if pm else float("inf")
    evidence = f"{rel:+.1%} ({wins}/{len(parent)} wins; parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}], change {cm:.6g})"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    gain = (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and abs(cm - pm) > pq3 - pq1 and change_failed <= parent_failed)
    if spread(parent) > bound and not all_better:
        return "unresolved", evidence
    if gain:
        return "better", evidence
    if sign * (pm - cm) > bound * abs(pm):
        return "REGRESSION", evidence
    return "no regression", evidence


def report_pairs(recs, spec) -> bool:
    """One row per workload; True when no metric regressed and every pair
    gave identical payloads."""
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in recs):
        by_pair = {}
        for r in recs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in by_pair.values() if {"parent", "change"} <= set(p)]
        failed = {side: sum(p[side]["result"]["failed"] for p in pairs) for side in ("parent", "change")}
        mismatched = sum(1 for p in pairs if payload_mismatch(p["parent"]["digests"], p["change"]["digests"]))
        failed["change"] += mismatched
        ok &= mismatched == 0
        cells = []
        for m in spec["end_to_end"]:
            parent = [p["parent"]["result"]["metrics"][m["name"]]["value"] for p in pairs]
            change = [p["change"]["result"]["metrics"][m["name"]]["value"] for p in pairs]
            verdict, evidence = judge(parent, change, m["better"], m["bound"], failed["parent"], failed["change"])
            ok &= verdict != "REGRESSION"
            cells.append(f"{m['name']}: {verdict} {evidence}")
        print(f"{workload} ({len(pairs)} pairs, payloads differ in {mismatched}, "
              f"failed checks parent {failed['parent']} change {failed['change']}) | "
              + " | ".join(cells))
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    for mode in ("sample", "pairs"):
        p = sub.add_parser(mode)
        p.add_argument("--seed0", type=int, default=100, help="first seed; run k uses seed0 + k")
        p.add_argument("--out", type=Path, required=True)
        if mode == "sample":
            p.add_argument("--root", type=Path, default=program.DEFAULT_ROOT)
            p.add_argument("--runs", type=int, default=10)
            p.add_argument("--summary", type=Path, help="also write medians and quartiles as JSON here")
        else:
            p.add_argument("--parent", type=Path, required=True)
            p.add_argument("--change", type=Path, required=True)
            p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p = sub.add_parser("report")
    p.add_argument("file", type=Path)
    args = ap.parse_args()

    if args.mode == "report":
        recs = [json.loads(line) for line in args.file.read_text(encoding="utf-8").splitlines() if line]
    else:
        recs = []
        with open(args.out, "w", encoding="utf-8") as out:
            for workload in names:
                if args.mode == "sample":
                    for k in range(args.runs):
                        rec = _run("tree", k, args.root.resolve(), workload, args.seed0 + k, seconds)
                        recs.append(rec)
                        _emit(out, rec)
                    continue
                for k in range(args.pairs):
                    order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                    for side in order:
                        rec = _run(side, k, getattr(args, side).resolve(), workload, args.seed0 + k, seconds)
                        recs.append(rec)
                        _emit(out, rec)
    if any(r["side"] == "tree" for r in recs):
        summary: dict = {}
        ok = report_sample(recs, spec, summary)
        if getattr(args, "summary", None):
            args.summary.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0 if ok else 1
    return 0 if report_pairs(recs, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
