#!/usr/bin/env python3
"""jobfit benchmark: one workload, timed, checked, optionally traced.

    python3 jobbench/run.py --workload fixture-p30 --seed 0 --seconds 25 --trace 0

Runs the workload's op cycles in this process until ``--seconds`` have
passed (whole cycles, at least 11 ops), checks every op's output, and
prints a table followed by one JSON line with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``, which adds a
traced pass over the first cycles).  Exit code 0 when every check
passes, 1 when any output check fails, 2 when the tree has no program
to run or the arguments are invalid.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import program

SETUP_RUNS = 21
MIN_OPS = 11  # the tail statistic needs ten samples beyond it
WARMUP_CYCLE = 1 << 20  # a cycle index no measured run reaches

END_TO_END = (
    ("trials_per_s", "worker-trials/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)
PER_LAYER = (
    ("rng.calls", "count"), ("rng.busy_s", "s"), ("rng.share", "ratio"), ("rng.mb", "MB"),
    ("rng.reuse_ratio", "ratio"), ("rng.sel_unused_frac", "ratio"),
    ("simulate.estimates", "count"), ("simulate.trials", "count"), ("simulate.self_s", "s"),
    ("quantile.calls", "count"), ("quantile.busy_s", "s"), ("quantile.share", "ratio"),
    ("quantile.melems", "Melem"), ("quantile.ns_per_elem", "ns/elem"),
    ("quantile.select_discard_frac", "ratio"),
    ("aggregate.calls", "count"), ("aggregate.busy_s", "s"), ("aggregate.share", "ratio"),
    ("aggregate.ns_per_trial", "ns/trial"),
    ("theory.err_avg_evals", "count"), ("theory.err_avg_mc", "count"), ("theory.mc_trials", "count"),
    ("theory.self_share", "ratio"),
    ("merging.plans", "count"), ("merging.busy_share", "ratio"),
    ("setup.import_s", "s"), ("setup.load_s", "s"), ("setup.inputs_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

REFERENCE = program.BENCH_DIR / "reference.json"
OUT_DIR = program.BENCH_DIR / "out"


def out_path(workload: str, seed: int, trace: int) -> Path:
    """Where a run writes its full record, the timed ops' payload digests
    (in op order) included."""
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("fixture-p30", "shared-draws", "max-balanced"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, default=program.DEFAULT_ROOT,
                    help="tree whose src/jobfit is measured (default: the tree holding this file)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def measure_setup(root: Path, workload: str, seed: int, runs: int = SETUP_RUNS) -> dict:
    """Median over fresh interpreters of spawn -> inputs ready, plus its split."""
    probe = program.BENCH_DIR / "probe.py"
    samples = []
    for _ in range(runs):
        t_spawn = time.monotonic()
        done = subprocess.run([sys.executable, str(probe), "--root", str(root), "--workload", workload,
                               "--seed", str(seed)], capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        rec = json.loads(done.stdout.strip().splitlines()[-1])
        rec["setup_s"] = rec["ready"] - t_spawn
        samples.append(rec)
    return {key: statistics.median(s[key] for s in samples)
            for key in ("setup_s", "import_s", "load_s", "inputs_s")}


def run_cycles(wl, cycles, stop=None):
    """Run the given cycles, asking ``stop(records)`` after each whether to
    end early; one record per op: (cycle, index, op, seconds, result, error)."""
    records = []
    for c in cycles:
        for i, op in enumerate(wl.cycle(c)):
            t = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception:  # a failed op is counted, and the run goes on
                result, error = None, traceback.format_exc()
            records.append((c, i, op, time.perf_counter() - t, result, error))
        if stop is not None and stop(records):
            break
    return records


def timed_run(wl, seconds: float):
    """Whole cycles until ``seconds`` have passed and MIN_OPS ops ran."""
    start = time.perf_counter()

    def enough(records):
        return time.perf_counter() - start >= seconds and len(records) >= MIN_OPS

    records = run_cycles(wl, itertools.count(), enough)
    return records, time.perf_counter() - start


def load_reference(workload: str, seed: int) -> list[list[str]]:
    if not REFERENCE.is_file():
        return []
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return doc["digests"].get(str(seed), {}).get(workload, [])


def check_records(records, reference) -> tuple[list[list[str]], list]:
    """Problems per op (empty list: passed) and the payload digest per op."""
    import workloads

    problems, digests = [], []
    for c, i, op, _, result, error in records:
        if error is not None:
            problems.append([f"cycle {c} op {i} ({op.kind}) raised:\n{error}"])
            digests.append(None)
            continue
        found = [f"cycle {c} op {i}: {p}" for p in workloads.check(op.kind, result)]
        d = workloads.digest(result)
        if c < len(reference) and reference[c][i] != d:
            found.append(f"cycle {c} op {i} ({op.kind}): payload digest {d} != reference {reference[c][i]}")
        problems.append(found)
        digests.append(d)
    return problems, digests


def end_to_end(records, wall: float, setup: dict, failed: int) -> tuple[dict, dict]:
    import workloads

    times = [r[3] for r in records]
    tail_value, tail_pct = workloads.tail(times)
    metrics = {
        "trials_per_s": sum(r[2].work for r in records) / wall,
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / len(records),
    }
    notes = {"op_tail_ms": f"p{tail_pct} of {len(records)} ops",
             "op_p50_ms": f"{len(records)} ops", "trials_per_s": f"over {wall:.2f} s",
             "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
             "ok_frac": f"fail_frac = {failed}/{len(records)}"}
    return metrics, notes


def traced_pass(wl, records, seconds: float):
    """Re-run the first cycles, about a third of ``seconds`` of work, each
    once untraced and once under the tracer, alternating which goes
    first so that drift in machine speed cancels from the overhead.
    Returns the tracer, the per-layer metrics and the traced records."""
    import tracing

    per_cycle: dict[int, float] = {}
    for c, _, _, dt, _, _ in records:
        per_cycle[c] = per_cycle.get(c, 0.0) + dt
    n_cycles, spent = 0, 0.0
    for c in sorted(per_cycle):
        n_cycles, spent = c + 1, spent + per_cycle[c]
        if spent >= seconds / 3:
            break
    tracer = tracing.Tracer()
    traced, untraced_wall = [], 0.0
    for c in range(n_cycles):
        if c % 2:
            with tracing.traced(tracer):
                traced += run_cycles(wl, [c])
        untraced_wall += sum(r[3] for r in run_cycles(wl, [c]))
        if not c % 2:
            with tracing.traced(tracer):
                traced += run_cycles(wl, [c])
    traced_wall = sum(r[3] for r in traced)
    layers = tracing.layer_metrics(tracer, traced_wall)
    layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return tracer, layers, traced


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:30s} {value:>16.6g} {unit:16s} {note}")


def main(argv=None) -> int:
    args = _args(argv)
    root = args.root.resolve()
    try:
        program.pin_threads()
        program.use_tree(root)
        program.check_import(root)
    except (program.ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    import workloads

    env = program.describe(root)
    setup = measure_setup(root, args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed, workloads.load_job(args.workload, args.seed))
    wl.cycle(WARMUP_CYCLE)[0].run()  # lazy set-up out of the timed region

    records, wall = timed_run(wl, args.seconds)
    problems, digests = check_records(records, load_reference(args.workload, args.seed))
    failed = sum(1 for p in problems if p)
    e2e, notes = end_to_end(records, wall, setup, failed)
    attempted = len(records)

    layers = None
    if args.trace:
        tracer, layers, traced = traced_pass(wl, records, args.seconds)
        t_problems, t_digests = check_records(traced, [])
        for k, (found, d) in enumerate(zip(t_problems, t_digests)):
            if d != digests[k]:
                found.append(f"traced payload of cycle {traced[k][0]} op {traced[k][1]} differs from untraced")
        attempted += len(traced)
        failed += sum(1 for p in t_problems if p)
        problems += t_problems
        layers.update({"setup.import_s": setup["import_s"], "setup.load_s": setup["load_s"],
                       "setup.inputs_s": setup["inputs_s"]})

    for found in problems:
        for line in found:
            print(f"check failed: {line}", file=sys.stderr)

    label = f"{args.workload} seed={args.seed} seconds={args.seconds:g}"
    _print_table(f"end to end [{label}]", [(n, e2e[n], u, notes.get(n, "")) for n, u in END_TO_END])
    if layers is not None:
        _print_table(f"per layer, traced [{label}]", [(n, layers[n], u, "") for n, u in PER_LAYER])
    print("env " + json.dumps(env, sort_keys=True))

    shown = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": values[n], "unit": u} for n, u in shown}}
    OUT_DIR.mkdir(exist_ok=True)
    out = out_path(args.workload, args.seed, args.trace)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "end_to_end": e2e, "notes": notes, "per_layer": layers,
                   "env": env, "args": {k: str(v) for k, v in vars(args).items()},
                   "digests": digests}, fh, indent=1)
    if args.trace:
        tracer.write(out.with_suffix(".spans.json"))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
