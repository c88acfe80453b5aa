#!/usr/bin/env python3
"""Dependent-ability curves on the fixture job: P against the decision
slope for several coupling strengths, and P against the coupling at
fixed ability."""

import argparse
from pathlib import Path

import numpy as np

from jobfit.dataio import load_fixture_job, named_worker
from jobfit.job import FIXTURE_MODEL
from jobfit.simulate import SimConfig, Worker, apply_knob, sweep


def worker(a: float, p: float) -> Worker:
    return apply_knob(named_worker("human", p), "a1", a)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--ps", type=float, nargs="+", default=[0.0, 0.2, 0.4, 0.8])
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    spec = load_fixture_job()
    config = SimConfig(trials=args.trials, seed=args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    grid = np.linspace(0.0, 1.0, 101)
    lines = ["p,a,p_hat,stderr"]
    for p in args.ps:
        for pt in sweep(lambda a, _p=p: worker(a, _p), spec, FIXTURE_MODEL, "a1",
                        grid, config):
            lines.append(f"{p},{pt.value},{pt.estimate.value},{pt.estimate.stderr}")
    (outdir / "dependency_ability_curves.csv").write_text("\n".join(lines) + "\n")

    pgrid = np.linspace(0.0, 1.0, 51)
    lines = ["a,p,p_hat,stderr"]
    for a in (0.1, 0.22, 0.34):
        for pt in sweep(lambda p, _a=a: worker(_a, p), spec, FIXTURE_MODEL, "p",
                        pgrid, config):
            lines.append(f"{a},{pt.value},{pt.estimate.value},{pt.estimate.stderr}")
    (outdir / "dependency_coupling_curves.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {outdir}/dependency_ability_curves.csv and "
          f"{outdir}/dependency_coupling_curves.csv")


if __name__ == "__main__":
    main()
