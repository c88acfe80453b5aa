"""The benchmark's three workloads, their output checks and payload digests.

A workload is built once from its seed (``load_job`` then ``build``) and
then hands out op cycles: cycle ``c`` is a list of ops whose simulation
seeds derive from (workload seed, c).  No two cycles of a run repeat work,
so a cache keyed on inputs cannot make a run faster.  Ops call the library
through module attributes (``simulate.sweep``, not a name bound at import)
so that the traced run sees every call.

See NOTES.md for why each workload exists and what it should move.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

import numpy as np

from jobfit import ability, dataio, job, merging, simulate, theory

WORKLOADS = ("fixture-p30", "shared-draws", "max-balanced")

FIXTURE_P = 0.3
FIXTURE_TRIALS = 200_000

SWEEP_GRID = tuple(float(v) for v in np.linspace(0.0, 1.0, 41))
SWEEP_TRIALS = 20_000
MAP_A = tuple(float(v) for v in np.linspace(0.0, 0.4, 9))
MAP_C = tuple(float(v) for v in np.linspace(0.6, 1.0, 9))
TRUST = tuple(float(v) for v in np.linspace(0.8, 2.0, 9))
# Trust-scaled partner whose level-2 pick is mixed for most trust values,
# so these cells run on select (per-difficulty) merged profiles.
TRUST_PARTNER = (0.1, 0.7)
MAP_TRIALS = 10_000
PHASE_THETA = 0.2
PHASE_TRIALS = 10_000
# verify_phase_transition bisects a1 on [0, 1] to tol 1e-6: two bracket
# ends plus 20 halvings of Err_avg, then P on both sides of the window.
PHASE_EVALS = 2 + 20 + 2
COMPRESS_THETA = 0.1
ERR_AVG_TRIALS = 20_000
ASSISTANT_VAR = dataio.AI_VARIANCE / 2.0

MAX_SHAPE = (32, 128, 6)  # n skills, m tasks, k skills per task
MAX_TRIALS = 65_536
MAX_MODEL = job.ErrorModel(h=job.H_MAX, g=job.AGG_MAX, f=job.AGG_MAX)
MAX_A, MAX_SIGMA, MAX_TAU = 0.7, 0.5, 0.39

_JOB_STREAM, _SIM_STREAM = 0, 1


def derive_seed(seed: int, workload: str, stream: int, index: int = 0) -> int:
    """A 32-bit seed that depends on every argument and on nothing else."""
    key = [seed, zlib.crc32(workload.encode()), stream, index]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


@dataclass(frozen=True)
class Op:
    kind: str
    work: int  # worker-trials at the workload's stated size
    run: Callable[[], object]


def load_job(name: str, seed: int) -> job.JobSpec:
    """The job a workload runs on: the bundled fixture, or a balanced job
    generated from the seed."""
    if name == "max-balanced":
        n, m, k = MAX_SHAPE
        rng = np.random.default_rng(derive_seed(seed, name, _JOB_STREAM))
        return job.balanced_job(n, m, k, rng.uniform(size=n), rng.uniform(size=n), MAX_TAU)
    if name in WORKLOADS:
        return dataio.load_fixture_job()
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _assistant(a: float, c: float) -> simulate.Worker:
    noise = ability.truncnorm_var(ASSISTANT_VAR)
    return simulate.Worker(ability.linear_profile(a, noise), ability.constant_profile(c, noise))


class Workload:
    def __init__(self, name: str, seed: int, spec: job.JobSpec):
        self.name = name
        self.seed = seed
        self.spec = spec

    def sim_config(self, cycle: int, trials: int) -> simulate.SimConfig:
        return simulate.SimConfig(trials=trials, seed=derive_seed(self.seed, self.name, _SIM_STREAM, cycle))

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError


class FixtureP30(Workload):
    """One status-coupled (p > 0) human estimate at 200k trials per op."""

    def __init__(self, name, seed, spec):
        super().__init__(name, seed, spec)
        self.worker = dataio.named_worker("human", p=FIXTURE_P)

    def cycle(self, c):
        cfg = self.sim_config(c, FIXTURE_TRIALS)
        return [Op("estimate", FIXTURE_TRIALS, lambda: simulate.estimate_success_probability(
            self.worker, self.spec, job.FIXTURE_MODEL, cfg))]


class MaxBalanced(Workload):
    """One single-chunk estimate per op on a max-aggregated balanced job."""

    def __init__(self, name, seed, spec):
        super().__init__(name, seed, spec)
        prof = ability.linear_profile(MAX_A, ability.uniform_noise(MAX_SIGMA))
        self.worker = simulate.Worker(prof, prof)

    def cycle(self, c):
        cfg = self.sim_config(c, MAX_TRIALS)
        return [Op("estimate", MAX_TRIALS, lambda: simulate.estimate_success_probability(
            self.worker, self.spec, MAX_MODEL, cfg))]


class SharedDraws(Workload):
    """Many workers on the same draws, all on one seed per cycle: an a1
    sweep, the per-subskill merge-gain map one row of cells per op, a row
    of trust-scaled merge cells, a phase report, a compression bound and a
    uniform-noise Err_avg check.  Rows keep most ops of a similar size, so
    the median and the tail do not depend on how many cycles a run does."""

    def __init__(self, name, seed, spec):
        super().__init__(name, seed, spec)
        self.human = dataio.named_worker("human")
        self.rows = [[(_assistant(a, c), None) for c in MAP_C] for a in MAP_A]
        partner = _assistant(*TRUST_PARTNER)
        self.rows.append([(partner, t) for t in TRUST])
        self.low = simulate.Worker(self.human.alpha1, ability.linear_profile(0.1, self.human.alpha2.noise))
        self.high = simulate.Worker(self.human.alpha1, ability.linear_profile(0.8, self.human.alpha2.noise))
        self.compress_ai = _assistant(0.08, 0.8)
        self.uniform = simulate.Worker(ability.linear_profile(0.6, ability.uniform_noise(0.3)),
                                       ability.linear_profile(0.4, ability.uniform_noise(0.3)))

    def _merge_row(self, row, cfg):
        def run():
            cells = []
            for other, trust in row:
                if trust is None:
                    merged, plan = merging.merge_per_subskill(self.human, other, self.spec)
                else:
                    merged, plan = merging.merge_with_trust(self.human, other, self.spec, trust)
                cells.append((plan, merging.evaluate_merge_gain(
                    {"p1": self.human, "p2": other}, {"merge": merged}, self.spec, job.FIXTURE_MODEL, cfg)))
            return cells
        return run

    def cycle(self, c):
        spec, model = self.spec, job.FIXTURE_MODEL
        sweep_cfg = self.sim_config(c, SWEEP_TRIALS)
        map_cfg = self.sim_config(c, MAP_TRIALS)
        phase_cfg = self.sim_config(c, PHASE_TRIALS)
        err_cfg = self.sim_config(c, ERR_AVG_TRIALS)
        ops = [Op("sweep", len(SWEEP_GRID) * SWEEP_TRIALS,
                  lambda: simulate.sweep(self.human, spec, model, "a1", SWEEP_GRID, sweep_cfg))]
        ops += [Op("merge-row", 3 * len(row) * MAP_TRIALS, self._merge_row(row, map_cfg)) for row in self.rows]
        ops.append(Op("phase", PHASE_EVALS * PHASE_TRIALS, lambda: theory.verify_phase_transition(
            spec, model, self.human, "a1", PHASE_THETA, config=phase_cfg)))
        ops.append(Op("compress", 4 * MAP_TRIALS, lambda: theory.compression_bound(
            self.low, self.high, self.compress_ai, spec, model, COMPRESS_THETA, config=map_cfg)))
        ops.append(Op("err-avg", ERR_AVG_TRIALS, lambda: simulate.estimate_err_avg(
            self.uniform, spec, model, err_cfg)))
        return ops


_CLASSES = {"fixture-p30": FixtureP30, "shared-draws": SharedDraws, "max-balanced": MaxBalanced}


def build(name: str, seed: int, spec: job.JobSpec) -> Workload:
    return _CLASSES[name](name, seed, spec)


# --- output checks -------------------------------------------------------


def _flatten(obj, out: list[str]) -> None:
    if isinstance(obj, float):
        out.append(obj.hex())
    elif isinstance(obj, (bool, int, str)) or obj is None:
        out.append(repr(obj))
    elif isinstance(obj, np.floating):
        out.append(float(obj).hex())
    elif is_dataclass(obj):
        for f in fields(obj):
            out.append(f.name)
            _flatten(getattr(obj, f.name), out)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            out.append(repr(key))
            _flatten(obj[key], out)
    elif isinstance(obj, (list, tuple)):
        out.append(f"[{len(obj)}")
        for item in obj:
            _flatten(item, out)
    else:
        raise TypeError(f"cannot digest a {type(obj).__name__}")


def digest(result) -> str:
    """64-bit digest of every number in an op's payload, bit for bit."""
    tokens: list[str] = []
    _flatten(result, tokens)
    return hashlib.sha256("|".join(tokens).encode()).hexdigest()[:16]


def _estimate_problems(est: simulate.SimEstimate, where: str) -> list[str]:
    lo, hi = est.ci
    if not (est.stderr >= 0.0 and lo <= est.value <= hi):
        return [f"{where}: value {est.value!r} outside CI {est.ci!r} or stderr {est.stderr!r} < 0"]
    return []


def check(kind: str, result) -> list[str]:
    """Invariants that need no reference output; an empty list means pass."""
    if kind == "estimate":
        return _estimate_problems(result, "estimate")
    if kind == "sweep":
        problems = [p for pt in result for p in _estimate_problems(pt.estimate, f"sweep a1={pt.value}")]
        values = [pt.estimate.value for pt in result]
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append("common-random-numbers a1 sweep is not non-decreasing")
        return problems
    if kind == "merge-row":
        problems = []
        for k, (_, res) in enumerate(result):
            problems += [p for name, est in res.table.items() for p in _estimate_problems(est, f"cell {k} {name}")]
            want = res.table["merge"].value - max(res.table["p1"].value, res.table["p2"].value)
            if res.delta != want:
                problems.append(f"cell {k}: merge delta {res.delta!r} != max(candidates) - max(base) = {want!r}")
        return problems
    if kind == "phase":
        problems = _estimate_problems(result.p_low, "phase p_low") + _estimate_problems(result.p_high, "phase p_high")
        if not (result.at_low <= result.mu1_c <= result.at_high and result.gamma1 >= 0.0):
            problems.append("phase window does not bracket the critical ability")
        return problems
    if kind == "compress":
        r = result
        problems = [p for name in ("p1", "p2", "p1_merged", "p2_merged")
                    for p in _estimate_problems(getattr(r, name), f"compress {name}")]
        want = abs(r.p2.value - r.p1.value) - abs(r.p2_merged.value - r.p1_merged.value)
        if r.pc != want:
            problems.append(f"compression pc {r.pc!r} != {want!r}")
        return problems
    if kind == "err-avg":
        est, exact = result.estimate, result.exact
        if exact is None:
            return ["uniform-noise linear Err_avg has no exact value"]
        if not abs(est.value - exact) <= 4.0 * est.stderr:
            return [f"Monte Carlo Err_avg {est.value!r} more than 4 stderr ({est.stderr!r}) from exact {exact!r}"]
        return []
    raise ValueError(f"unknown op kind {kind!r}")


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest order statistic with at least ten samples beyond it,
    and the percentile it stands for."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        raise ValueError("need at least 11 samples for a tail with ten beyond it")
    return ordered[-11], math.floor(100.0 * (len(ordered) - 10) / len(ordered))
