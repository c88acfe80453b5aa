#!/usr/bin/env python3
"""Merging experiments: gain heatmap for distinct-profile merges over the
assistant's (a, c) plane, and the trust-parameter slice."""

import argparse
from pathlib import Path

import numpy as np

from jobfit.ability import constant_profile, linear_profile, truncnorm_var
from jobfit.cli import parse_grid
from jobfit.dataio import AI_VARIANCE, load_fixture_job, named_worker
from jobfit.job import FIXTURE_MODEL
from jobfit.merging import evaluate_merge_gain, merge_per_subskill, merge_with_trust
from jobfit.simulate import SimConfig, Worker


def assistant(a: float, c: float) -> Worker:
    return Worker(linear_profile(a, truncnorm_var(AI_VARIANCE / 2)),
                  constant_profile(c, truncnorm_var(AI_VARIANCE / 2)))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--a-grid", default="0:0.4:9")
    ap.add_argument("--c-grid", default="0.6:1.0:9")
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    spec = load_fixture_job()
    config = SimConfig(trials=args.trials, seed=args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    base = named_worker("human")
    lines = ["a,c,p_merge,p1,p2,delta"]
    for a in parse_grid(args.a_grid):
        for c in parse_grid(args.c_grid):
            other = assistant(a, c)
            merged, _ = merge_per_subskill(base, other, spec)
            res = evaluate_merge_gain({"p1": base, "p2": other}, {"merge": merged},
                                      spec, FIXTURE_MODEL, config)
            lines.append(",".join(map(str, (
                a, c, res.table["merge"].value, res.table["p1"].value,
                res.table["p2"].value, res.delta))))
    (outdir / "merge_gain_map.csv").write_text("\n".join(lines) + "\n")

    lines = ["trust,delta,p_merge"]
    other = assistant(0.2, 0.2)
    for trust in np.linspace(0.8, 2.0, 25):
        merged, _ = merge_with_trust(base, other, spec, float(trust))
        res = evaluate_merge_gain({"p1": base, "p2": other}, {"merge": merged},
                                  spec, FIXTURE_MODEL, config)
        lines.append(f"{trust},{res.delta},{res.table['merge'].value}")
    (outdir / "trust_slice.csv").write_text("\n".join(lines) + "\n")

    print(f"wrote heatmap and trust slice under {outdir}/")


if __name__ == "__main__":
    main()
