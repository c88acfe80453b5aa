"""Monte Carlo engine for job success probability and average error.

Determinism contract: every uniform variate consumed by trial t lives in
a fixed-layout block addressed by (master seed, stream tag, chunk index),
with chunks of :data:`CHUNK_TRIALS` trials.  Results are therefore
bit-identical across runs and independent of how work is scheduled, and
two runs with the same seed see the same underlying uniforms (common
random numbers) no matter which worker parameters they map them through.

Stream layout of a chunk of ``count`` trials over n skills: one PCG64
stream seeded by ``SeedSequence([seed, tag, chunk])`` holds ``u``
(count, n, 2) at draw offset 0, ``beta`` (count,) at ``count*2n`` and
``sel`` (count, n, 2) at ``count*(2n+1)``, each row-major, one 64-bit
draw per double.  Row a of a section therefore starts at the section's
offset plus ``a*2n`` (``a`` for beta), and a block of rows is read by
advancing the seeded stream there.  The engine runs each chunk in blocks
of :data:`BLOCK_TRIALS` trials, so its working set is a block, not a
chunk; the block size changes no bit of any result.

Calls on the same draws (seed, stream tag, trials, model and job
content) share a carry, kept from the most recent call and replaced
whole when a call ends.  It holds that call's integer success counts,
which ``estimate_many`` reuses for the (worker, tau) pairs it counted,
and level columns: the (trials, n) errors of one (level, profile, p),
which depend on nothing but the draws.  A call keeps a column it uses
only if the previous call used it too (a worker served from the counts
counts as used), and reads kept columns instead of computing them; a
block whose columns all come from the carry draws no uniforms.  Kept
columns never exceed ``CHUNK_TRIALS * 2n`` doubles, the size of one
chunk's ``u`` section.  Neither part of the carry changes any bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtri

from . import ability
from .ability import AbilityProfile, NoiseModel, UNIFORM, mean_ability, quantile
from .errors import CapacityError, ParameterError
from .job import ErrorModel, JobSpec, effective_coefficients, make_error_evaluator

CHUNK_TRIALS = 1 << 16
# Trials per engine block.  Block boundaries stay multiples of 8 rows:
# BLAS groups rows, and other splits change the bits of the weighted sums.
BLOCK_TRIALS = 1 << 12
_BRUTE_BLOCK = 1 << 22


@dataclass(frozen=True)
class Worker:
    """Decision-level and action-level profiles plus a dependency parameter.

    ``p`` is the per-subskill probability that a realisation is tied to a
    shared latent status instead of drawn independently; p = 0 recovers
    fully independent noise.
    """

    alpha1: AbilityProfile
    alpha2: AbilityProfile
    p: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"dependency parameter must lie in [0,1], got {self.p}")

    def profile(self, level: int) -> AbilityProfile:
        if level not in (1, 2):
            raise ParameterError(f"subskill level must be 1 or 2, got {level}")
        return self.alpha1 if level == 1 else self.alpha2


@dataclass(frozen=True)
class SimConfig:
    trials: int = 10_000
    seed: int = 1234
    ci_level: float = 0.95

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.ci_level < 1.0:
            raise ParameterError(f"ci_level must lie in (0,1), got {self.ci_level}")


@dataclass(frozen=True)
class SimEstimate:
    value: float
    stderr: float
    ci: tuple[float, float]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        lo, hi = self.ci
        if not (self.stderr >= 0.0 and lo <= self.value <= hi):
            raise ParameterError(f"estimate {self.value} outside its CI {self.ci} or stderr {self.stderr} < 0")


def _chunk_streams(trials: int):
    start = 0
    idx = 0
    while start < trials:
        count = min(CHUNK_TRIALS, trials - start)
        yield idx, count
        start += count
        idx += 1


def _chunk_uniforms(seed: int, tag: int, chunk: int, count: int, n: int, *,
                    need_sel: bool = True, rows: tuple[int, int] | None = None):
    """Fixed-layout uniforms for one chunk: (u, beta, selector), or with
    ``rows=(a, b)`` only trials a..b-1 of each.

    The chunk's stream holds ``u`` at draw offset 0, ``beta`` at
    ``count*2n`` and ``sel`` at ``count*(2n+1)``, one 64-bit draw per
    double (``Generator.random`` consumes the stream as ``uniform(0, 1)``
    does).  Each section's rows are read by resetting the once-seeded
    PCG64 and advancing it to the section offset plus the first row's
    offset.  The selector is drawn last, so skipping it leaves ``u`` and
    ``beta`` unchanged."""
    a, b = (0, count) if rows is None else rows
    bitgen = np.random.PCG64(np.random.SeedSequence([seed, tag, chunk]))
    start, gen = bitgen.state, np.random.Generator(bitgen)

    def section(offset: int, width: int, shape):
        bitgen.state = start
        bitgen.advance(offset + a * width)
        return gen.random(shape)

    u = section(0, 2 * n, (b - a, n, 2))
    beta = section(count * 2 * n, 1, b - a)
    sel = section(count * (2 * n + 1), 2 * n, (b - a, n, 2)) if need_sel else None
    return u, beta, sel


def _level_errors(profile: AbilityProfile, s: np.ndarray, p: float, col: int, u, beta, sel) -> np.ndarray:
    """Errors 1 - X (count, n) of level ``col + 1`` from a chunk's uniforms.

    Status coupling picks the uniform, not the quantile: where sel < p a
    subskill takes the shared status beta, else its own u, and the pick
    goes through one inverse transform.  ``quantile`` is elementwise, so
    this equals transforming both and picking, bit for bit."""
    q = u[:, :, col]
    if p > 0.0:
        q = np.where(sel[:, :, col] < p, beta[:, None], q)
    x = quantile(profile, s[None, :], q)
    return np.subtract(1.0, x, out=x)


def draw_error_matrix(worker: Worker, spec: JobSpec, rng: np.random.Generator) -> np.ndarray:
    """One job realisation (n, 2): shared status drawn once, then per
    subskill the uniform is mixed between the status and an independent
    variate before one inverse transform."""
    u, beta, sel = rng.uniform(size=(1, spec.n, 2)), rng.uniform(size=1), rng.uniform(size=(1, spec.n, 2))
    return np.stack([_level_errors(prof, s, worker.p, col, u, beta, sel)[0] for col, (prof, s)
                     in enumerate(((worker.alpha1, spec.s1), (worker.alpha2, spec.s2)))], axis=-1)


def _column_keys(workers) -> dict:
    """The (level column, profile, p) keys of the workers' level columns,
    in order of first use."""
    return dict.fromkeys((col, prof, w.p) for w in workers for col, prof in enumerate((w.alpha1, w.alpha2)))


def _shared_draw_errors(workers: list[Worker], spec: JobSpec, model: ErrorModel,
                        trials: int, seed: int, tag: int, carried=None, keep=None):
    """Yield ``(i, job errors)`` per chunk for every worker i, all workers on
    the chunk's one draw.  Each chunk runs in blocks of :data:`BLOCK_TRIALS`
    trials that write into one (workers, count) error array; within a
    block, a level column that several workers share (same level, profile
    and p) is computed once and kept only until its last use.

    ``carried`` and ``keep`` map column keys to whole (trials, n) columns:
    a carried column is read instead of computed, and a computed column
    whose key is in ``keep`` is also written there.  A block that needs no
    column beyond the carried ones draws no uniforms."""
    carried, keep = carried or {}, keep or {}
    evaluate = make_error_evaluator(spec, model)
    uses = Counter((col, prof, w.p) for w in workers for col, prof in enumerate((w.alpha1, w.alpha2)))
    missing = [key for key in uses if key not in carried]
    need_sel = any(p > 0.0 for _, _, p in missing)
    for chunk, count in _chunk_streams(trials):
        err = np.empty((len(workers), count))
        for a in range(0, count, BLOCK_TRIALS):
            b = min(a + BLOCK_TRIALS, count)
            rows = slice(chunk * CHUNK_TRIALS + a, chunk * CHUNK_TRIALS + b)
            if missing:
                u, beta, sel = _chunk_uniforms(seed, tag, chunk, count, spec.n, need_sel=need_sel, rows=(a, b))
            left, memo = Counter(uses), {key: column[rows] for key, column in carried.items()}
            # Level-major, so that each level column is contiguous; every
            # worker overwrites both columns before its evaluation.
            zeta = np.empty((2, b - a, spec.n)).transpose(1, 2, 0)
            for i, w in enumerate(workers):
                for col, (prof, s) in enumerate(((w.alpha1, spec.s1), (w.alpha2, spec.s2))):
                    key = (col, prof, w.p)
                    errs = memo.pop(key, None)
                    if errs is None:
                        errs = _level_errors(prof, s, w.p, col, u, beta, sel)
                        if key in keep:
                            keep[key][rows] = errs
                    left[key] -= 1
                    if left[key]:
                        memo[key] = errs
                    zeta[:, :, col] = errs
                err[i, a:b] = evaluate(zeta)
        yield from enumerate(err)
        del err


def _binomial_estimate(successes: int, trials: int, seed: int, ci_level: float) -> SimEstimate:
    p = successes / trials
    stderr = math.sqrt(p * (1.0 - p) / trials)
    z = float(ndtri(0.5 + ci_level / 2.0))
    ci = (max(0.0, p - z * stderr), min(1.0, p + z * stderr))
    return SimEstimate(p, stderr, ci, trials, seed)


@dataclass(frozen=True)
class _Carry:
    """What the most recent call leaves for the next call on its draws:
    the draws key, the success count of each (worker, tau) it counted, the
    column keys it used and the level columns it kept."""

    key: tuple | None = None
    counts: dict = field(default_factory=dict)
    used: frozenset = frozenset()
    columns: dict = field(default_factory=dict)


# A call reads the carry once and replaces it whole when it ends.
_carry = _Carry()


def _carry_for(spec: JobSpec, model: ErrorModel, config: SimConfig, tag: int) -> _Carry:
    """The carry if the most recent call ran on these draws, else an empty
    carry for them."""
    key = (config.seed, tag, config.trials, model, spec.tasks,
           spec.s1.tobytes(), spec.s2.tobytes(), spec.w.tobytes(), spec.v.tobytes())
    carry = _carry
    return carry if carry.key == key else _Carry(key)


def _plan_columns(carry: _Carry, used: dict, todo: list[Worker], trials: int, n: int):
    """The carried columns a call uses, and fresh (trials, n) arrays for
    the columns it computes whose keys the previous call also used, as
    many as fit beside the carried ones in ``CHUNK_TRIALS * 2n`` doubles.
    Both go into the next carry."""
    carried = {key: carry.columns[key] for key in used if key in carry.columns}
    room = 2 * CHUNK_TRIALS // trials - len(carried)
    fresh = [key for key in _column_keys(todo) if key in carry.used and key not in carried][:room]
    return carried, {key: np.empty((trials, n)) for key in fresh}


def estimate_many(workers, spec: JobSpec, model: ErrorModel, config: SimConfig | None = None,
                  taus=None, _tag: int = 0) -> list[SimEstimate]:
    """P for every (worker, tau) pair, worker-major, all on the same draws.

    Each chunk is drawn once per call; equal workers are evaluated once
    and one error vector is counted against every tau (None means the
    job's own tau).  A (worker, tau) pair that the previous call counted
    on the same draws (seed, tag, trials, model and job content) takes
    that call's integer count instead of being evaluated again, and the
    level columns the carry holds are read instead of computed (see the
    module docstring).  Each estimate equals a call with that worker and
    tau alone, bit for bit.
    """
    global _carry
    config = config or SimConfig()
    workers = list(workers)
    if not workers:
        raise ParameterError("need at least one worker")
    taus = [float(spec.tau if t is None else t) for t in ([None] if taus is None else taus)]
    carry = _carry_for(spec, model, config, _tag)
    successes = {(w, t): carry.counts.get((w, t)) for w in workers for t in taus}
    todo = list(dict.fromkeys(w for (w, _), k in successes.items() if k is None))
    distinct_taus = list(dict.fromkeys(taus))
    successes.update(((w, t), 0) for w in todo for t in distinct_taus)
    used = _column_keys(workers)
    carried, keep = _plan_columns(carry, used, todo, config.trials, spec.n)
    if todo:
        for i, err in _shared_draw_errors(todo, spec, model, config.trials, config.seed, _tag, carried, keep):
            for t in distinct_taus:
                successes[todo[i], t] += int((err <= t).sum())
            del err  # a row view would keep its chunk's error array alive through the next chunk
    _carry = _Carry(carry.key, successes, frozenset(used), {**carried, **keep})
    return [_binomial_estimate(successes[w, t], config.trials, config.seed, config.ci_level)
            for w in workers for t in taus]


def estimate_success_probability(
    worker: Worker,
    spec: JobSpec,
    model: ErrorModel,
    config: SimConfig | None = None,
    tau: float | None = None,
    _tag: int = 0,
) -> SimEstimate:
    """Fraction of trials with job error <= tau, with binomial stderr/CI."""
    return estimate_many([worker], spec, model, config, [tau], _tag)[0]


def exact_err_avg(worker: Worker, spec: JobSpec, model: ErrorModel) -> float | None:
    """Closed-form expected job error, or None when no exact form applies.

    Requires a linear model and zero-mean noise everywhere, which holds
    exactly for scaled-uniform noise (any family, any dependency p, since
    the status coupling preserves marginals).  Truncated-normal noise has
    a boundary-dependent mean shift and goes through Monte Carlo.
    """
    if not model.is_linear:
        return None
    for level in (1, 2):
        if not _zero_mean_noise(worker.profile(level)):
            return None
    coeff = effective_coefficients(spec, model) * model.h_scale
    zbar = (1.0 - mean_ability(worker.alpha1, spec.s1)) + (1.0 - mean_ability(worker.alpha2, spec.s2))
    return float(coeff @ zbar)


def _zero_mean_noise(profile: AbilityProfile) -> bool:
    if profile.family == ability.SELECT:
        return all(_zero_mean_noise(src) for src in profile.sources)
    return profile.noise.kind == UNIFORM


@dataclass(frozen=True)
class ErrAvgResult:
    estimate: SimEstimate
    exact: float | None


def estimate_err_avg(
    worker: Worker,
    spec: JobSpec,
    model: ErrorModel,
    config: SimConfig | None = None,
    _tag: int = 0,
) -> ErrAvgResult:
    """Monte Carlo mean of the job error; exact value attached when available.

    It shares the level columns of the carry with ``estimate_many`` and
    leaves the carried success counts as they are."""
    global _carry
    config = config or SimConfig()
    carry = _carry_for(spec, model, config, _tag)
    used = _column_keys([worker])
    carried, keep = _plan_columns(carry, used, [worker], config.trials, spec.n)
    total = 0.0
    total_sq = 0.0
    for _, err in _shared_draw_errors([worker], spec, model, config.trials, config.seed, _tag, carried, keep):
        total += float(err.sum())
        total_sq += float((err**2).sum())
    _carry = _Carry(carry.key, carry.counts, frozenset(used), {**carried, **keep})
    nt = config.trials
    mean = total / nt
    var = max(0.0, (total_sq - nt * mean * mean) / max(1, nt - 1))
    stderr = math.sqrt(var / nt)
    z = float(ndtri(0.5 + config.ci_level / 2.0))
    est = SimEstimate(mean, stderr, (mean - z * stderr, mean + z * stderr), nt, config.seed)
    return ErrAvgResult(est, exact_err_avg(worker, spec, model))


# --- parameter knobs -------------------------------------------------------

KNOBS = ("a1", "a2", "c1", "c2", "beta1", "beta2", "sigma", "sigma1", "sigma2", "p", "tau")


def _set_family_param(profile: AbilityProfile, value: float, expect: str) -> AbilityProfile:
    if profile.family != expect:
        raise ParameterError(f"knob needs a {expect} profile, worker has {profile.family}")
    if expect == ability.LINEAR:
        return replace(profile, params=(float(value), profile.params[1]))
    return replace(profile, params=(float(value),))


def _set_sigma(profile: AbilityProfile, value: float) -> AbilityProfile:
    if profile.family == ability.SELECT:
        raise ParameterError("cannot retune noise of a merged profile")
    return replace(profile, noise=NoiseModel(profile.noise.kind, float(value)))


_KNOB_FAMILIES = {"a": ability.LINEAR, "c": ability.CONSTANT, "beta": ability.POLYNOMIAL}


def apply_knob(worker: Worker, name: str, value: float) -> Worker:
    """Return a copy of the worker with one named parameter replaced."""
    if name == "p":
        return replace(worker, p=float(value))
    if name == "sigma":
        return replace(worker, alpha1=_set_sigma(worker.alpha1, value),
                       alpha2=_set_sigma(worker.alpha2, value))
    stem, level = name[:-1], name[-1:]
    if level not in ("1", "2") or (stem != "sigma" and stem not in _KNOB_FAMILIES):
        raise ParameterError(f"unknown parameter knob {name!r} (choose from {KNOBS})")
    attr = f"alpha{level}"
    prof = getattr(worker, attr)
    new = _set_sigma(prof, value) if stem == "sigma" else _set_family_param(prof, value, _KNOB_FAMILIES[stem])
    return replace(worker, **{attr: new})


def _worker_factory(worker_or_factory, param: str):
    if callable(worker_or_factory):
        return worker_or_factory
    return lambda value: apply_knob(worker_or_factory, param, value)


@dataclass(frozen=True)
class SweepPoint:
    param: str
    value: float
    estimate: SimEstimate


def sweep(
    worker,
    spec: JobSpec,
    model: ErrorModel,
    param: str,
    grid,
    config: SimConfig | None = None,
    crn: bool = True,
    tau: float | None = None,
) -> list[SweepPoint]:
    """Estimate P along a parameter grid.

    ``worker`` is either a base :class:`Worker` (the named knob is applied
    per grid value) or a factory ``value -> Worker``.  With ``crn`` every
    grid point reuses the same underlying uniforms, so curves are smooth
    and differences across the grid have reduced variance; without it each
    point gets an independent substream.
    """
    grid = [float(v) for v in grid]
    if not grid:
        raise ParameterError("sweep grid must be nonempty")
    if param == "tau":
        if callable(worker):
            raise ParameterError("tau sweep requires a concrete worker")
        cases = [(worker, t) for t in grid]
    else:
        factory = _worker_factory(worker, param)
        cases = [(factory(value), tau) for value in grid]
    if not crn:
        ests = [estimate_many([w], spec, model, config, [t], 1 + i)[0] for i, (w, t) in enumerate(cases)]
    elif param == "tau":
        ests = estimate_many([worker], spec, model, config, grid)
    else:
        ests = estimate_many([w for w, _ in cases], spec, model, config, [tau])
    return [SweepPoint(param, value, est) for value, est in zip(grid, ests)]


def finite_diff_derivative(
    worker,
    spec: JobSpec,
    model: ErrorModel,
    param: str,
    at: float,
    step: float,
    config: SimConfig | None = None,
    tau: float | None = None,
) -> float:
    """|P(at+step) - P(at-step)| / (2 step), both sides on common random numbers."""
    if step <= 0.0:
        raise ParameterError(f"step must be > 0, got {step}")
    factory = _worker_factory(worker, param)
    hi, lo = estimate_many([factory(at + step), factory(at - step)], spec, model, config, [tau])
    return abs(hi.value - lo.value) / (2.0 * step)


def brute_force_success_probability(
    worker: Worker,
    spec: JobSpec,
    model: ErrorModel,
    resolution: int,
    tau: float | None = None,
) -> float:
    """Exact P by midpoint-rule tensor quadrature over the noise space.

    Only defined for p = 0 (one quadrature dimension per subskill,
    capped at 6) and p = 1 (a single shared-status dimension).
    """
    if resolution < 1:
        raise ParameterError(f"resolution must be >= 1, got {resolution}")
    tau = spec.tau if tau is None else float(tau)
    evaluate = make_error_evaluator(spec, model)
    n = spec.n
    mid = (np.arange(resolution) + 0.5) / resolution

    if worker.p == 1.0:
        zeta = np.empty((resolution, n, 2))
        for level, s in ((1, spec.s1), (2, spec.s2)):
            zeta[:, :, level - 1] = 1.0 - quantile(worker.profile(level), s[None, :], mid[:, None])
        return float((evaluate(zeta) <= tau).mean())
    if worker.p != 0.0:
        raise ParameterError("brute force requires a worker with p = 0 or p = 1")

    dims = 2 * n
    if dims > 6:
        raise CapacityError(f"{dims} subskill dimensions exceed the exact-quadrature cap of 6")
    # Per-dimension error values at the quadrature nodes, dimension order
    # (skill 0 level 1, skill 0 level 2, skill 1 level 1, ...).
    zvals = np.empty((dims, resolution))
    for j in range(n):
        zvals[2 * j] = 1.0 - quantile(worker.alpha1, float(spec.s1[j]), mid)
        zvals[2 * j + 1] = 1.0 - quantile(worker.alpha2, float(spec.s2[j]), mid)

    total = resolution**dims
    strides = [resolution ** (dims - 1 - d) for d in range(dims)]
    successes = 0
    for start in range(0, total, _BRUTE_BLOCK):
        flat = np.arange(start, min(start + _BRUTE_BLOCK, total))
        zeta = np.empty((flat.size, n, 2))
        for d in range(dims):
            idx = (flat // strides[d]) % resolution
            zeta[:, d // 2, d % 2] = zvals[d][idx]
        successes += int((evaluate(zeta) <= tau).sum())
    return successes / total
