"""Command-line front end.

Subcommands: estimate, sweep, phase, merge, compress, bias, divide, fit,
rerun.  Every run that writes artifacts also writes a manifest
(<out>.manifest.json) holding the resolved invocation; ``jobfit rerun``
replays a manifest and reproduces the payload files byte for byte
(payloads carry no timestamps).

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, ability, dataio, merging, theory
from .ability import linear_profile, constant_profile, polynomial_profile, NoiseModel
from .errors import NumericalError, ParameterError, ValidationError
from .job import ErrorModel, JobSpec, balanced_job
from .simulate import (
    SimConfig,
    SimEstimate,
    Worker,
    apply_knob,
    estimate_success_probability,
    sweep,
)

DEFAULT_SEED = 1234  # fixed so runs without --seed stay reproducible
DEFAULT_TRIALS = 10_000

SWEEP_COLUMNS = ("param", "value", "p_hat", "stderr", "ci_lo", "ci_hi", "trials", "seed")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(args, argv if argv is not None else sys.argv[1:])
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


# --- argument plumbing ------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, job: bool = True) -> None:
    if job:
        p.add_argument("--job", default=None,
                       help="job JSON path or 'balanced:n=..,m=..,k=..,seed=..,tau=..' "
                            "(default: bundled computer_programmers fixture)")
        p.add_argument("--no-divide", action="store_true",
                       help="skip subskill division: both levels carry the full skill "
                            "difficulty and the skill aggregator averages them")
        p.add_argument("--psi", default="identity", choices=sorted(dataio.PSI_CHOICES),
                       help="difficulty-division map applied to the decision degree")
        p.add_argument("--h", dest="h_agg", choices=("average", "sum", "max"), default=None)
        p.add_argument("--g", dest="g_agg", choices=("average", "weighted", "max"), default=None)
        p.add_argument("--f", dest="f_agg", choices=("average", "weighted", "max"), default=None)
        p.add_argument("--tau", type=float, default=None, help="success threshold override")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--out", default=None, help="write report/table to this path")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="output format where both make sense (sweep tables)")


def _add_worker(p: argparse.ArgumentParser, prefix: str = "", default_preset: str | None = "human") -> None:
    d = f"--{prefix}" if prefix else "--"
    p.add_argument(f"{d}worker", default=default_preset,
                   help=f"worker preset: {', '.join(dataio.WORKER_PRESETS)}")
    for level in (1, 2):
        p.add_argument(f"{d}a{level}", type=float, default=None,
                       help=f"linear slope parameter for level {level} (intercept 1)")
        p.add_argument(f"{d}c{level}", type=float, default=None,
                       help=f"constant ability for level {level}")
        p.add_argument(f"{d}beta{level}", type=float, default=None,
                       help=f"polynomial exponent for level {level}")
        p.add_argument(f"{d}sigma{level}", type=float, default=None)
        p.add_argument(f"{d}var{level}", type=float, default=None,
                       help=f"noise variance alternative to sigma{level}")
    p.add_argument(f"{d}noise", choices=("uniform", "trunc"), default="uniform")
    p.add_argument(f"{d}sigma", type=float, default=None, help="noise level for both levels")
    p.add_argument(f"{d}p", type=float, default=0.0, help="dependency parameter")


def _get(args, prefix: str, name: str):
    return getattr(args, f"{prefix}{name}" if prefix else name)


def _noise(args, prefix: str, level: int) -> NoiseModel:
    kind = ability.TRUNCNORM if _get(args, prefix, "noise") == "trunc" else ability.UNIFORM
    var = _get(args, prefix, f"var{level}")
    sigma = _get(args, prefix, f"sigma{level}")
    if var is not None and sigma is not None:
        raise ParameterError(f"give either sigma{level} or var{level}, not both")
    if var is not None:
        sigma = math.sqrt(var)
    if sigma is None:
        sigma = _get(args, prefix, "sigma")
    if sigma is None:
        sigma = 0.1
    return NoiseModel(kind, float(sigma))


def _resolve_worker(args, prefix: str = "") -> Worker:
    explicit = any(
        _get(args, prefix, f"{knob}{level}") is not None
        for level in (1, 2) for knob in ("a", "c", "beta")
    )
    p = float(_get(args, prefix, "p"))
    if not explicit:
        preset = _get(args, prefix, "worker")
        if preset is None:
            raise ParameterError("no worker given: use a preset or explicit profile flags")
        if args_no_divide(args) and preset in ("human", "ai"):
            preset = preset + "-skill"
        return dataio.named_worker(preset, p=p)
    profiles = []
    for level in (1, 2):
        noise = _noise(args, prefix, level)
        a = _get(args, prefix, f"a{level}")
        c = _get(args, prefix, f"c{level}")
        beta = _get(args, prefix, f"beta{level}")
        if sum(v is not None for v in (a, c, beta)) != 1:
            raise ParameterError(
                f"level {level}: give exactly one of a{level}, c{level}, beta{level}"
            )
        if a is not None:
            profiles.append(linear_profile(a, noise))
        elif c is not None:
            profiles.append(constant_profile(c, noise))
        else:
            profiles.append(polynomial_profile(beta, noise))
    return Worker(profiles[0], profiles[1], p)


def args_no_divide(args) -> bool:
    return bool(getattr(args, "no_divide", False))


def _resolve_job(args) -> tuple[JobSpec, ErrorModel]:
    spec_str = getattr(args, "job", None)
    if spec_str and spec_str.startswith("balanced:"):
        b = _parse_balanced(spec_str[len("balanced:"):])
        rng = np.random.default_rng(b["seed"])
        spec = balanced_job(b["n"], b["m"], b["k"], rng.uniform(size=b["n"]), rng.uniform(size=b["n"]), b["tau"])
        model = ErrorModel()
    elif spec_str:
        spec = dataio.load_job_spec(spec_str, psi=args.psi, divide=not args_no_divide(args))
        model = _fixture_model(args)
    else:
        spec = dataio.load_fixture_job(psi=args.psi, divide=not args_no_divide(args))
        model = _fixture_model(args)
    if args.tau is not None:
        spec = spec.with_tau(args.tau)
    if args.h_agg or args.g_agg or args.f_agg:
        model = ErrorModel(
            h=args.h_agg or model.h, g=args.g_agg or model.g, f=args.f_agg or model.f
        )
    return spec, model


def _parse_balanced(text: str) -> dict:
    """n, m, k, seed and tau from 'n=..,m=..,k=..,seed=..,tau=..'; unset keys keep their defaults."""
    params = {"n": 20, "m": 20, "k": 4, "seed": 0, "tau": 0.25}
    for kv in filter(None, text.split(",")):
        key, _, value = kv.partition("=")
        try:
            params[key] = type(params[key])(value)
        except (KeyError, ValueError):
            raise ParameterError(f"balanced job entries must be k=v with k in {sorted(params)}, got {kv!r}") from None
    if params["n"] < 1 or params["m"] < 1 or params["seed"] < 0:
        raise ParameterError(f"balanced job needs n, m >= 1 and seed >= 0, got {text!r}")
    return params


def _fixture_model(args) -> ErrorModel:
    if args_no_divide(args):
        return ErrorModel(h="average", g="weighted", f="weighted")
    return ErrorModel(h="sum", g="weighted", f="weighted")


def _config(args) -> SimConfig:
    return SimConfig(trials=args.trials, seed=args.seed)


def _grid(text: str) -> list[float]:
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise ParameterError(f"grid must be lo:hi:steps, got {text!r}")
    if steps < 1:
        raise ParameterError("grid needs at least one step")
    if steps == 1:
        return [lo]
    return list(np.linspace(lo, hi, steps))


# --- output helpers ---------------------------------------------------------


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _write_outputs(args, argv, payloads: dict[str, str]) -> None:
    """payloads: {suffix or '': text}; '' uses --out as given."""
    if not args.out:
        return
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    written = []
    for suffix, text in payloads.items():
        path = out if not suffix else out.with_name(out.name + suffix)
        path.write_text(text, encoding="utf-8")
        written.append(str(path))
    manifest = {
        "tool": "jobfit",
        "version": __version__,
        "argv": list(argv),
        "outputs": written,
    }
    Path(str(out) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _report_text(doc) -> str:
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


def _sweep_csv(points) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for pt in points:
        e = pt.estimate
        lines.append(",".join(map(str, (
            pt.param, pt.value, e.value, e.stderr, e.ci[0], e.ci[1], e.trials, e.seed
        ))))
    return "\n".join(lines) + "\n"


# --- subcommands ------------------------------------------------------------


def _cmd_estimate(args, argv) -> None:
    spec, model = _resolve_job(args)
    worker = _resolve_worker(args)
    est = estimate_success_probability(worker, spec, model, _config(args))
    doc = {"kind": "estimate", "tau": spec.tau, "estimate": est}
    print(f"P = {est.value:.4f} +- {est.stderr:.4f} (tau={spec.tau}, trials={est.trials})")
    _write_outputs(args, argv, {"": _report_text(doc)})


def _cmd_sweep(args, argv) -> None:
    spec, model = _resolve_job(args)
    worker = _resolve_worker(args)
    grid = _grid(args.grid)
    config = _config(args)
    if args.param2:
        if not args.grid2:
            raise ParameterError("--param2 requires --grid2")
        grid2 = _grid(args.grid2)
        values = []
        for v1 in grid:
            w1 = worker if args.param == "tau" else apply_knob(worker, args.param, v1)
            tau1 = v1 if args.param == "tau" else None
            pts = sweep(w1, spec, model, args.param2, grid2, config, crn=args.crn, tau=tau1)
            values.extend(pt.estimate.value for pt in pts)
        doc = {
            "kind": "heatmap", "param1": args.param, "grid1": grid,
            "param2": args.param2, "grid2": grid2, "values": values,
            "trials": config.trials, "seed": config.seed,
        }
        print(f"heatmap {args.param} x {args.param2}: {len(grid)}x{len(grid2)} points")
        _write_outputs(args, argv, {"": _report_text(doc)})
        return
    points = sweep(worker, spec, model, args.param, grid, config, crn=args.crn)
    lo, hi = points[0].estimate.value, points[-1].estimate.value
    print(f"sweep {args.param}: {len(points)} points, P {lo:.3f} -> {hi:.3f}")
    if args.format == "json":
        doc = {"kind": "sweep", "points": [
            {"param": pt.param, "value": pt.value, "estimate": pt.estimate} for pt in points
        ]}
        _write_outputs(args, argv, {"": _report_text(doc)})
    else:
        _write_outputs(args, argv, {"": _sweep_csv(points)})


def _cmd_phase(args, argv) -> None:
    spec, model = _resolve_job(args)
    worker = _resolve_worker(args)
    report = theory.verify_phase_transition(
        spec, model, worker, args.vary, args.theta,
        config=_config(args), convention=args.convention,
    )
    print(f"critical {args.vary} = {report.mu1_c:.4f}, gamma = {report.gamma1:.4f}, "
          f"verified = {report.verified}")
    _write_outputs(args, argv, {"": _report_text({"kind": "phase", "report": report})})


def _cmd_merge(args, argv) -> None:
    spec, model = _resolve_job(args)
    worker_a = _resolve_worker(args)
    worker_b = _resolve_worker(args, prefix="b_")
    config = _config(args)
    if args.strategy == "uniform":
        merged = merging.merge_uniform(worker_a, worker_b, tuple(args.pick))
        plan_doc = {"strategy": "uniform", "pick": args.pick}
    elif args.strategy == "per-subskill":
        merged, plan = merging.merge_per_subskill(worker_a, worker_b, spec)
        plan_doc = plan.to_dict()
    else:
        merged, plan = merging.merge_with_trust(worker_a, worker_b, spec, args.trust)
        plan_doc = plan.to_dict()
    result = merging.evaluate_merge_gain(
        {"A": worker_a, "B": worker_b}, {"merged": merged}, spec, model, config
    )
    doc = {"kind": "merge", "plan": plan_doc, "delta": result.delta,
           "table": result.table}
    print(f"delta = {result.delta:+.4f} "
          f"(P_A={result.table['A'].value:.3f}, P_B={result.table['B'].value:.3f}, "
          f"P_merged={result.table['merged'].value:.3f})")
    _write_outputs(args, argv, {"": _report_text(doc)})


def _cmd_compress(args, argv) -> None:
    spec, model = _resolve_job(args)
    human = dataio.named_worker("human")
    low, high = apply_knob(human, "a2", args.a_low), apply_knob(human, "a2", args.a_high)
    ai_noise = dataio.truncnorm_var(dataio.AI_VARIANCE / 2)
    ai = Worker(linear_profile(args.ai_a, ai_noise), constant_profile(args.ai_c, ai_noise))
    report = theory.compression_bound(low, high, ai, spec, model, args.theta, config=_config(args))
    print(f"PC = {report.pc:.4f} (P1={report.p1.value:.3f}, P2={report.p2.value:.3f}, "
          f"P1'={report.p1_merged.value:.3f}, P2'={report.p2_merged.value:.3f})")
    _write_outputs(args, argv, {"": _report_text({"kind": "compress", "report": report})})


def _cmd_bias(args, argv) -> None:
    spec, model = _resolve_job(args)
    config = SimConfig(trials=args.curve_trials, seed=args.seed)
    grid = _grid(args.curve_grid)
    points = sweep(dataio.named_worker("human"), spec, model, "a1", grid, config, crn=True)
    curve_p = [pt.estimate.value for pt in points]
    rates = {}
    for beta in args.beta:
        rates[str(beta)] = theory.bias_misclassification_rate(
            beta, grid, curve_p, qualify_p=args.qualify_p, reject_p=args.reject_p
        )
    doc = {"kind": "bias", "qualify_p": args.qualify_p, "reject_p": args.reject_p,
           "rates": rates, "curve_a": list(grid), "curve_p": curve_p}
    for beta, r in rates.items():
        print(f"beta={beta}: misclassification rate = {r:.4f}")
    _write_outputs(args, argv, {"": _report_text(doc)})


def _cmd_divide(args, argv) -> None:
    s1, s2 = dataio.divide_subskills(args.s, args.decision_degree, args.psi)
    doc = {"kind": "divide", "proficiency": args.s, "decision_degree": args.decision_degree,
           "psi": args.psi, "s1": s1, "s2": s2}
    print(f"s1 = {s1:.6g}, s2 = {s2:.6g}")
    _write_outputs(args, argv, {"": _report_text(doc)})


def _cmd_fit(args, argv) -> None:
    path = args.table or dataio.fixture_path(dataio.FIXTURE_BENCHMARK)
    table, fits = dataio.load_benchmark_table(path)
    doc = {"kind": "fit", "table": str(path),
           "fits": {name: {"a": a, "sigma_sq": v} for name, (a, v) in fits.items()}}
    for name, (a, var) in fits.items():
        print(f"{name}: a = {a:.4f}, sigma_sq = {var:.5f}")
    _write_outputs(args, argv, {"": _report_text(doc)})


def _cmd_rerun(args, argv) -> None:
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
        replay = manifest["argv"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise ParameterError(f"cannot read manifest {args.manifest!r}: {exc}")
    code = main(replay)
    if code != 0:
        raise ParameterError(f"replayed command failed with exit code {code}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jobfit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"jobfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="job success probability for one worker")
    _add_common(p)
    _add_worker(p)
    p.set_defaults(run=_cmd_estimate)

    p = sub.add_parser("sweep", help="P along a parameter grid (CSV) or two grids (heatmap JSON)")
    _add_common(p)
    _add_worker(p)
    p.add_argument("--param", required=True)
    p.add_argument("--grid", required=True, help="lo:hi:steps")
    p.add_argument("--param2", default=None)
    p.add_argument("--grid2", default=None)
    p.add_argument("--crn", dest="crn", action="store_true", default=True)
    p.add_argument("--no-crn", dest="crn", action="store_false")
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("phase", help="critical ability, transition width, empirical check")
    _add_common(p)
    _add_worker(p)
    p.add_argument("--vary", default="a1")
    p.add_argument("--theta", type=float, default=0.1)
    p.add_argument("--convention", choices=(theory.PAPER_MAIN, theory.APPENDIX_GENERAL),
                   default=theory.PAPER_MAIN)
    p.set_defaults(run=_cmd_phase)

    p = sub.add_parser("merge", help="merge two workers and evaluate the gain")
    _add_common(p)
    _add_worker(p)
    _add_worker(p, prefix="b-", default_preset="ai")
    p.add_argument("--strategy", choices=("uniform", "per-subskill", "trust"),
                   default="per-subskill")
    p.add_argument("--pick", default="AB", help="level sources for the uniform strategy")
    p.add_argument("--trust", type=float, default=1.0)
    p.set_defaults(run=_cmd_merge)

    p = sub.add_parser("compress", help="productivity compression from a shared assistant")
    _add_common(p)
    p.add_argument("--a-low", type=float, default=0.1)
    p.add_argument("--a-high", type=float, default=0.8)
    p.add_argument("--ai-a", type=float, default=dataio.AI_SLOPE)
    p.add_argument("--ai-c", type=float, default=0.8)
    p.add_argument("--theta", type=float, default=0.1)
    p.set_defaults(run=_cmd_compress)

    p = sub.add_parser("bias", help="misclassification rate under biased ability evaluation")
    _add_common(p)
    p.add_argument("--beta", type=float, nargs="+", default=[0.5])
    p.add_argument("--qualify-p", type=float, default=0.8)
    p.add_argument("--reject-p", type=float, default=0.6)
    p.add_argument("--curve-grid", default="0:0.6:61")
    p.add_argument("--curve-trials", type=int, default=20_000)
    p.set_defaults(run=_cmd_bias)

    p = sub.add_parser("divide", help="split a skill difficulty into subskill difficulties")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--decision-degree", "--lambda", dest="decision_degree",
                   type=float, required=True)
    p.add_argument("--psi", default="identity", choices=sorted(dataio.PSI_CHOICES))
    _add_common(p, job=False)
    p.set_defaults(run=_cmd_divide)

    p = sub.add_parser("fit", help="fit linear profiles from a benchmark accuracy table")
    p.add_argument("--table", default=None)
    _add_common(p, job=False)
    p.set_defaults(run=_cmd_fit)

    p = sub.add_parser("rerun", help="replay a manifest and regenerate its outputs")
    p.add_argument("manifest")
    p.set_defaults(run=_cmd_rerun)

    return parser


if __name__ == "__main__":
    raise SystemExit(main())
