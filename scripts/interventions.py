#!/usr/bin/env python3
"""Intervention sensitivities on the fixture job: finite-difference
derivatives of P with respect to the decision slope and to the shared
noise scale."""

import argparse
from pathlib import Path

import numpy as np

from jobfit.ability import linear_profile, truncnorm_var
from jobfit.dataio import HUMAN_SLOPE, load_fixture_job
from jobfit.job import FIXTURE_MODEL
from jobfit.simulate import SimConfig, Worker, finite_diff_derivative


def worker_at(a: float, sigma: float) -> Worker:
    var = sigma * sigma / 2.0
    return Worker(linear_profile(a, truncnorm_var(var)),
                  linear_profile(HUMAN_SLOPE, truncnorm_var(var)))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--sigma", type=float, default=0.08)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    spec = load_fixture_job()
    config = SimConfig(trials=args.trials, seed=args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    lines = ["a,dP_da,dP_dsigma"]
    for a in np.linspace(0.02, 0.98, 25):
        da = finite_diff_derivative(lambda x: worker_at(x, args.sigma), spec,
                                    FIXTURE_MODEL, "a1", float(a), 0.01, config)
        ds = finite_diff_derivative(lambda x, _a=float(a): worker_at(_a, x), spec,
                                    FIXTURE_MODEL, "sigma", args.sigma, 0.005, config)
        lines.append(f"{a},{da},{ds}")
    (outdir / "derivatives_vs_ability.csv").write_text("\n".join(lines) + "\n")

    lines = ["sigma,dP_da,dP_dsigma"]
    for sigma in np.linspace(0.02, 0.9, 23):
        da = finite_diff_derivative(lambda x, _s=float(sigma): worker_at(x, _s), spec,
                                    FIXTURE_MODEL, "a1", HUMAN_SLOPE, 0.01, config)
        ds = finite_diff_derivative(lambda x: worker_at(HUMAN_SLOPE, x), spec,
                                    FIXTURE_MODEL, "sigma", float(sigma), 0.005, config)
        lines.append(f"{sigma},{da},{ds}")
    (outdir / "derivatives_vs_noise.csv").write_text("\n".join(lines) + "\n")

    print(f"wrote derivative curves under {outdir}/")


if __name__ == "__main__":
    main()
