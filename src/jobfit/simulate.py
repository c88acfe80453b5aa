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
advancing the seeded stream there.  One walk draws every block of
:data:`BLOCK_TRIALS` trials for every path, and each path holds one
block's uniforms and errors at a time, for any number of workers, so its
working set is a block, not a chunk; the block size changes no bit of
any result.  A block draws beta and ``sel`` only if a column it computes
has p > 0, and holds both level columns in one level-major (2, rows, n)
array; the errors of a column that one worker uses are written straight
into its contiguous slot.

Each call splits its blocks among P processes, P being the number of
CPUs in the caller's affinity mask (``os.sched_getaffinity``): global
block g, counted in stream order across chunks, goes to share
g % min(P, blocks).  The caller computes share 0 while P - 1 peer
processes, forked on first need and kept for the life of the caller,
compute one share each from an explicit request (the share function,
the call's draws and arguments, and the share's block ranges), so no
module state of a peer sets a bit.  Replies are integer success counts,
each block's error vector or first-success histograms; the caller sums the
counts and rebuilds each chunk's error vector before summing it, so
every bit is the same for every P.  Peers are forked (not spawned) and
only from a process with one thread; a call from a process with more
threads, before its peers exist, runs alone, as does every call on one
CPU, at one block, or after a peer's pipe broke.

``estimate_many`` counts on one of three paths, chosen once per call
from its workers, job, model, trials and taus alone, so no earlier call
and no number of processes changes which path a call takes.  The
threshold path takes an all-max call whose chosen leaves all have
uniform noise or none and that counts at most :data:`_THRESHOLD_TAUS`
distinct taus; else the bracket path takes a call of at least
:data:`_BRACKET_TRIALS` trials with a truncated-normal leaf; else the
column path computes every level column and evaluates every trial.
``estimate_err_avg`` always takes the column path, and bisected sweeps
(below) count by bisection.  The threshold and bracket paths give the
column path's counts, bit for bit (see below).

Only the column path touches the carry, this process's store of level
columns: the (trials, n) errors of one (level, profile, p), which depend
on nothing but the draws (seed, stream tag, trials and difficulties).
The carry is keyed by the draws and the blocks of the share that kept
it, which are exactly the rows its columns hold, so kept columns are
read only by a share over the same blocks.  A share keeps the columns it
uses that the previous share on its key also used, reads kept columns
instead of computing them, and replaces the carry whole when it ends; a
block whose columns all come from the carry draws no uniforms.  Kept
columns never exceed ``CHUNK_TRIALS * 2n`` doubles, the size of one
chunk's ``u`` section.  The carry changes no bit.

With h = g = f = max a trial succeeds iff every covered subskill error
is at most tau, so the threshold path counts successes from the uniforms
alone.  Every uniform is k * 2**-53 for an integer 0 <= k < 2**53.  The
transform ``e + half*(2q - 1)``, its clip and the error ``1 - x`` are
chains of correctly rounded operations, each monotone in q (Goldberg
1991, "What every computer scientist should know about floating-point
arithmetic"), so a subskill's success at tau is monotone on that
lattice: the monotone-coupling argument below, made exact per subskill.
Each (worker, level, tau, difficulty) gets the least k that passes, or
2**53 when none does, certified with the unchanged transform (k passes
and k - 1 fails).  A block compares each covered subskill's picked
uniform (its own u, or beta where sel < p) with its threshold: no
transform, no job error and no evaluator call per trial.
Truncated-normal leaves are left to the other paths, since ``ndtri`` is
not provably monotone.

On the bracket path each level of each worker gets a table of its errors
at the K + 1 uniforms k/K (K = :data:`_BRACKET_CELLS`), from the unchanged
``quantile``, which is elementwise, so select and piecewise profiles
need nothing special.  A block picks each subskill's uniform q as the
column path does and reads, at its cell k = floor(q*K), the errors at
(k+1)/K and at k/K, padded outward by :data:`_BRACKET_PAD` (2**-30), as
lower and upper bounds of its error.  Every (h, g, f) composition is
monotone in each subskill error with non-negative weights, so the
evaluator on the two bound matrices brackets each trial's job error: a
trial whose upper bound is at most tau succeeds, one whose lower bound
exceeds it fails, and only the trials some tau falls inside of (about
1 % on the fixture human at p = 0.3) go through the transform.  They are
written at their own rows of a block-shaped zeta array, so that one
evaluation gives the column path's bits (BLAS results depend on a row's
position).  The pad covers two departures from exact monotonicity.
``ndtri`` is not monotone on the doubles: 4,330 of 20 M sampled pairs of
neighbouring lattice uniforms step down, by at most 8.9e-16, and it departs from
the exact normal quantile by at most 2.1e-14 (tails included; 9.6e-16
relative).  A tier-1 test checks both against 10**-4 of the pad, with
``statistics.NormalDist().inv_cdf`` as the exact quantile.  And the
bounds are evaluated :data:`_BRACKET_ROWS_PER_PASS` rows at a time, so
their sums may round in another order than the block's.  That part is
proved: in any order, a sum S of n terms c_j z_j rounds to within
gamma_n * sum |c_j z_j| of its exact value, gamma_n = n u / (1 - n u)
with u = 2**-53 (Higham 2002, "Accuracy and Stability of Numerical
Algorithms", 2nd ed., ch. 4; a max rounds nothing), about 4e-15 of the
sum at n = 36 (the fixture's subskills) against the 2**-30 pad.  So
every count equals the column path's, with only ``ndtri``'s part of the
pad resting on measurement rather than proof.

CRN ability sweeps rest on monotone coupling (Glasserman & Yao 1992,
"Some guidelines and guarantees for common random numbers", Management
Science 38(6)).  Raising a base profile's a, c or beta raises its mean
ability; at a fixed uniform, the inverse transform of either noise kind
does not fall as the mean rises; and every (h, g, f) composition does
not fall as any subskill error falls.  So on common draws each trial's
success is non-decreasing along a sorted grid of one such knob, and
:func:`sweep` finds each trial's first successful grid point by
bisection instead of evaluating every point.  Rounding could, in
principle, make an error non-monotone by a few ulps at a trial that sits
on tau, so the bisected counts equal the per-point counts by test (every
reference digest, every committed experiment and a many-seed property
test), not by proof.
"""

from __future__ import annotations

import itertools
import math
import os
import signal
import threading
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import ability
from .ability import TRUNCNORM, UNIFORM, AbilityProfile, NoiseModel, _terms, _transform, mean_ability, quantile
from .errors import CapacityError, ParameterError
from .job import ErrorModel, JobSpec, check_tau, effective_coefficients, make_error_evaluator

CHUNK_TRIALS = 1 << 16
# Trials per engine block.  Block boundaries stay multiples of 8 rows:
# BLAS groups rows, and other splits change the bits of the weighted sums.
BLOCK_TRIALS = 1 << 12
_BRUTE_BLOCK = 1 << 22
# ``Generator.random`` returns k * 2**-53 for an integer 0 <= k < 2**53.
_LATTICE = 1 << 53
# Most distinct taus a call counts on the threshold path.  Each tau costs
# that path one comparison pass over a block's uniforms, while the column
# path counts any number of taus from one error vector: on the
# max-balanced job (one process) four taus at p = 0.3 ran as slowly as
# the column path, and 21 taus at p = 0 four times as slowly.
_THRESHOLD_TAUS = 3
# The bracket path's error tables hold each level's errors at the uniforms
# k/K, k = 0..K, with K = _BRACKET_CELLS, and pad each cell's bounds
# outward by _BRACKET_PAD (see the module docstring).
_BRACKET_CELLS = 1 << 10
_BRACKET_PAD = 2.0**-30
# Fewest trials a call needs for the bracket path.  A lone fixture
# estimate (one process) breaks even near 2k trials and runs 1.3x as fast
# at 4k; at 16k a worker's tables cost 1/16 of the transforms they save,
# and 10k-trial calls (the CLI's default, and the merge, phase and
# compression calls that read most of their columns from the carry) keep
# the column path.
_BRACKET_TRIALS = 1 << 14
# Rows whose bounds the bracket path gathers and evaluates at once: on the
# fixture at p = 0.3, 512 ran as fast as 1,024 with half the buffers, and
# 2,048 or whole blocks 1.5x as slowly.
_BRACKET_ROWS_PER_PASS = 1 << 9
# Processes a call splits its blocks among; None means one per CPU of the
# affinity mask.  The split changes no bit of any result.
_PROCESSES: int | None = None
# z of every two-sided 95 % confidence interval, ndtri(0.5 + 0.95 / 2),
# as a literal so that no import of scipy.special is needed for it.
_Z = float.fromhex("0x1.f5c0331eeff84p+0")


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
    """Trials and master seed of a Monte Carlo call.  Every estimate's CI
    is the two-sided 95 % normal interval; the success threshold is the
    job's own tau (``JobSpec.with_tau`` moves it)."""

    trials: int = 10_000
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


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


def _call_blocks(trials: int) -> list[tuple[int, int, int, int]]:
    """Every (chunk, count, a, b) block of a call on ``trials`` trials, in
    stream order: rows a..b-1 of a chunk of ``count`` trials."""
    counts = [min(CHUNK_TRIALS, trials - start) for start in range(0, trials, CHUNK_TRIALS)]
    return [(chunk, count, a, min(a + BLOCK_TRIALS, count))
            for chunk, count in enumerate(counts) for a in range(0, count, BLOCK_TRIALS)]


def _chunk_uniforms(seed: int, tag: int, chunk: int, count: int, n: int, *,
                    coupled: bool = True, rows: tuple[int, int] | None = None, out=None):
    """Fixed-layout uniforms for one chunk: (u, beta, selector), or with
    ``rows=(a, b)`` only trials a..b-1 of each; beta and the selector only
    if ``coupled`` (else None), as only status coupling (p > 0) reads
    them.  With ``out``, a (u, beta) pair of arrays with at least b - a
    rows, u and beta are written into their first rows and returned as
    those slices.

    The chunk's stream holds ``u`` at draw offset 0, ``beta`` at
    ``count*2n`` and ``sel`` at ``count*(2n+1)``, one 64-bit draw per
    double (``Generator.random`` consumes the stream as ``uniform(0, 1)``
    does).  Each section's rows are read by resetting the once-seeded
    PCG64 and advancing it to the section offset plus the first row's
    offset, so skipping beta and the selector leaves ``u`` unchanged."""
    a, b = (0, count) if rows is None else rows
    bitgen = np.random.PCG64(np.random.SeedSequence([seed, tag, chunk]))
    start, gen = bitgen.state, np.random.Generator(bitgen)
    u_out, beta_out = (None, None) if out is None else out

    def section(offset: int, width: int, shape, into=None):
        bitgen.state = start
        bitgen.advance(offset + a * width)
        return gen.random(shape) if into is None else gen.random(out=into[:b - a])

    u = section(0, 2 * n, (b - a, n, 2), u_out)
    if not coupled:
        return u, None, None
    return u, section(count * 2 * n, 1, b - a, beta_out), section(count * (2 * n + 1), 2 * n, (b - a, n, 2))


def _level_uniforms(p: float, col: int, u, beta, sel) -> np.ndarray:
    """The (count, n) uniforms of level ``col + 1``: where sel < p a
    subskill takes the shared status beta, else its own u."""
    q = u[:, :, col]
    return np.where(sel[:, :, col] < p, beta[:, None], q) if p > 0.0 else q


def _level_errors(profile: AbilityProfile, s: np.ndarray, p: float, col: int, u, beta, sel,
                  out=None) -> np.ndarray:
    """Errors 1 - X (count, n) of level ``col + 1`` from a chunk's uniforms,
    written into ``out`` if given (a (count, n) array), else in place over
    the quantiles.

    Status coupling picks the uniform, not the quantile, and the pick goes
    through one inverse transform.  ``quantile`` is elementwise, so this
    equals transforming both and picking, bit for bit."""
    x = quantile(profile, s[None, :], _level_uniforms(p, col, u, beta, sel))
    return np.subtract(1.0, x, out=x if out is None else out)


@dataclass(frozen=True, eq=False)
class _Draws:
    """What fixes a call's uniforms and the job they go through."""

    spec: JobSpec
    model: ErrorModel
    seed: int
    tag: int
    trials: int

    def key(self) -> tuple:
        """What a level column depends on besides its (level, profile, p)."""
        return (self.seed, self.tag, self.trials, self.spec.s1.tobytes(), self.spec.s2.tobytes())


# Per-thread u and beta arrays of the block walk (see _drawn_blocks).
_scratch = threading.local()


def _drawn_blocks(draws: _Draws, blocks, coupled: bool, draw: bool):
    """Yield ``(chunk, a, b, u, beta, sel)`` for each of ``blocks``, in
    order: the block's uniforms from :func:`_chunk_uniforms`, beta and sel
    only if ``coupled`` (else None), and none at all (all None) unless
    ``draw``.  Every share walks its blocks here, and every block looks
    ``_chunk_uniforms`` up as a module attribute, so a wrapper set there
    sees every draw.

    u and beta are drawn into this thread's pair of arrays, sized for the
    largest of ``blocks``.  Drawn into fresh arrays, they went back to the
    kernel and were faulted in again, block after block and call after
    call; kept here (with each call's zeta array reused across its blocks),
    a 200k-trial fixture estimate at p = 0.3 takes 1.2k page faults
    instead of 7.7k, and a shared-draws merge-map row 0.9k instead of
    9.3k.  Keeping sel and zeta per thread as well faulted more, not less,
    on the max-job and fixture benchmark workloads.  No block reads what an
    earlier block drew, so walks of one thread may interleave at their
    yields."""
    n, rows = draws.spec.n, max(b - a for *_, a, b in blocks)
    out = getattr(_scratch, "uniforms", None)
    if out is None or out[0].shape != (rows, n, 2):
        out = _scratch.uniforms = (np.empty((rows, n, 2)), np.empty(rows))
    for chunk, count, a, b in blocks:
        yield chunk, a, b, *(_chunk_uniforms(draws.seed, draws.tag, chunk, count, n, coupled=coupled,
                                              rows=(a, b), out=out) if draw else (None, None, None))


def _shared_draw_errors(workers: list[Worker], draws: _Draws, blocks, carried=None, keep=None):
    """Yield ``(chunk, a, b, err)`` for each of ``blocks``, in order, all
    workers on the block's one draw: ``err`` is the block's fresh
    (workers, b - a) job error array.  Within a block, the errors of a
    level column that one worker uses are written straight into its slot
    of the level-major zeta array; a column that several workers share
    (same level, profile and p) is computed once and kept only until its
    last use.  A (level, profile) computed at two or more p transforms u
    and beta once each per block (its p = 0 and p = 1 columns) and picks
    per p; ``quantile`` is elementwise, so each pick equals its own
    transform, bit for bit.

    ``carried`` and ``keep`` map column keys to whole (trials, n) columns:
    a carried column is read instead of computed, and a computed column
    whose key is in ``keep`` is also written there.  A block that needs no
    column beyond the carried ones draws no uniforms."""
    spec = draws.spec
    carried, keep = carried or {}, keep or {}
    evaluate = make_error_evaluator(spec, draws.model)
    uses = Counter((col, prof, w.p) for w in workers for col, prof in enumerate((w.alpha1, w.alpha2)))
    missing = [key for key in uses if key not in carried]
    coupled = any(p > 0.0 for _, _, p in missing)
    at_many_p = {pair for pair, k in Counter((col, prof) for col, prof, _ in missing).items() if k > 1}
    pair_uses = Counter((col, prof) for w in workers for col, prof in enumerate((w.alpha1, w.alpha2)))
    zetas = np.empty((2, max(b - a for *_, a, b in blocks), spec.n))
    for chunk, a, b, u, beta, sel in _drawn_blocks(draws, blocks, coupled, bool(missing)):
        rows = slice(chunk * CHUNK_TRIALS + a, chunk * CHUNK_TRIALS + b)
        err = np.empty((len(workers), b - a))
        left, memo = Counter(uses), {key: column[rows] for key, column in carried.items()}
        pair_left, ends = Counter(pair_uses), {}
        # Level-major, so that each level column is a contiguous slot;
        # every worker overwrites both slots before its evaluation.
        zeta = zetas[:, :b - a].transpose(1, 2, 0)
        for i, w in enumerate(workers):
            for col, (prof, s) in enumerate(((w.alpha1, spec.s1), (w.alpha2, spec.s2))):
                key, pair, slot = (col, prof, w.p), (col, prof), zetas[col, :b - a]
                errs = memo.pop(key, None)
                if errs is None:
                    if pair in at_many_p:
                        if pair not in ends:
                            ends[pair] = [_level_errors(prof, s, p, col, u, beta, sel) for p in (0.0, 1.0)]
                        errs = np.where(sel[:, :, col] < w.p, ends[pair][1], ends[pair][0])
                    else:
                        # One worker's column goes straight into its slot.
                        errs = _level_errors(prof, s, w.p, col, u, beta, sel,
                                             out=slot if uses[key] == 1 else None)
                    if key in keep:
                        keep[key][rows] = errs
                left[key] -= 1
                if left[key]:
                    memo[key] = errs
                pair_left[pair] -= 1
                if not pair_left[pair]:
                    ends.pop(pair, None)
                if errs is not slot:
                    slot[...] = errs
            err[i] = evaluate(zeta)
        yield chunk, a, b, err


def _chosen_leaves(workers: list[Worker], spec: JobSpec):
    """Every leaf profile of the workers' levels that some difficulty chooses."""
    return (leaf for w in workers for prof, s in ((w.alpha1, spec.s1), (w.alpha2, spec.s2))
            for leaf, chosen in ability._select_sources(prof, s[None, :], True) if np.any(chosen))


def _thresholds_apply(workers: list[Worker], spec: JobSpec, model: ErrorModel) -> bool:
    """Whether uniform thresholds decide every trial of ``workers``: the
    model is all-max, and every leaf profile that some difficulty chooses
    has uniform noise or none (``ndtri`` is not provably monotone)."""
    return model.is_all_max and all(leaf.noise.kind == UNIFORM or leaf.noise.sigma == 0.0
                                    for leaf in _chosen_leaves(workers, spec))


def _uniform_thresholds(profile: AbilityProfile, s: np.ndarray, taus: list[float]) -> np.ndarray:
    """The (taus, n) thresholds of one level: at each tau and difficulty,
    the least uniform k * 2**-53 whose error 1 - x is at most tau, or 1.0
    when none is.

    The search starts at each leaf's closed-form guess of k, steps away
    from it in doubling steps until it has probed a passing and a failing
    k, and bisects between them.  Every k probed goes through the
    unchanged transform, so the returned k passes and k - 1 fails (or
    k = 0), which with monotonicity in the uniform is exact."""
    s_row, tau = s[None, :], np.asarray(taus)[:, None]
    guess = np.zeros((len(taus), len(s)))
    for leaf, chosen in ability._select_sources(profile, s_row, True):
        e, *half = _terms(leaf, s_row)
        with np.errstate(divide="ignore", invalid="ignore"):  # no noise: half is 0
            guess = np.where(chosen, ((1.0 - tau - e) / (half[0] if half else 0.0) + 1.0) / 2.0, guess)
    k = np.minimum(np.ceil(np.nan_to_num(np.clip(guess, 0.0, 1.0)) * _LATTICE), _LATTICE - 1).astype(np.int64)
    # lo = -1 and hi = 2**53 stand for a failing and a passing k not probed.
    lo, hi, step = np.full_like(k, -1), np.full_like(k, _LATTICE), 1
    while (unsettled := hi - lo > 1).any():
        ok = 1.0 - quantile(profile, s_row, k * 2.0**-53) <= tau
        hi, lo = np.where(unsettled & ok, k, hi), np.where(unsettled & ~ok, k, lo)
        k = np.where(lo < 0, hi - step, np.where(hi == _LATTICE, lo + step, (lo + hi) // 2))
        k = np.minimum(np.maximum(k, lo + 1), hi - 1)
        step *= 2
    return hi * 2.0**-53


def _threshold_counts(draws: _Draws, workers: list[Worker], taus: list[float], blocks):
    """Share of ``estimate_many`` on the threshold path (see the module
    docstring): the (worker, tau) success counts of ``workers`` on
    ``blocks``, from the draws alone.  A trial succeeds iff every picked
    uniform of a covered subskill is at least its threshold."""
    spec, n = draws.spec, draws.spec.n
    levels = (spec.s1, spec.s2)
    thresholds = {(col, prof): _uniform_thresholds(prof, levels[col], taus)
                  for w in workers for col, prof in enumerate((w.alpha1, w.alpha2))}
    # Per worker and tau, its 2n thresholds in the (n, 2) order of u's rows;
    # those of an uncovered skill are 0, which every uniform passes.
    limits = np.empty((len(workers), len(taus), n, 2))
    for i, w in enumerate(workers):
        for col, prof in enumerate((w.alpha1, w.alpha2)):
            limits[i, :, :, col] = thresholds[col, prof]
    uncovered = np.ones(n, dtype=bool)
    uncovered[[j for t in spec.tasks for j in t]] = False
    limits[:, :, uncovered] = 0.0
    limits = limits.reshape(len(workers), len(taus), 2 * n)
    by_p: dict[float, list[int]] = {}
    for i, w in enumerate(workers):
        by_p.setdefault(w.p, []).append(i)
    coupled = any(p > 0.0 for p in by_p)
    rows = max(b - a for *_, a, b in blocks)
    passed = np.empty((rows, 2 * n), dtype=bool)
    picked = np.empty((rows, n, 2)) if coupled else None
    counts = np.zeros((len(workers), len(taus)), dtype=np.int64)
    for _, a, b, u, beta, sel in _drawn_blocks(draws, blocks, coupled, True):
        for p, group in by_p.items():
            q = u
            if p > 0.0:  # where sel < p a subskill takes the shared status beta
                q = picked[:b - a]
                np.copyto(q, u)
                np.copyto(q, beta[:, None, None], where=sel < p)
            q, ok = q.reshape(b - a, 2 * n), passed[:b - a]
            for i in group:
                for j, limit in enumerate(limits[i]):
                    counts[i, j] += np.count_nonzero(np.greater_equal(q, limit, out=ok).all(axis=1))
    return counts


def _error_tables(workers: list[Worker], spec: JobSpec) -> dict:
    """The bracket path's (lo, hi) error tables of each worker's pair of
    levels, each flat over (difficulty j, level, cell k): entry
    ``(2j + level)*K + k`` bounds the level's error at difficulty j for
    every uniform in cell k, [k/K, (k+1)/K), by the errors at the cell's
    ends, padded outward by :data:`_BRACKET_PAD`."""
    grid = np.arange(_BRACKET_CELLS + 1)[:, None] / _BRACKET_CELLS
    levels = (spec.s1, spec.s2)
    errs = {(col, prof): 1.0 - quantile(prof, levels[col][None, :], grid)
            for w in workers for col, prof in enumerate((w.alpha1, w.alpha2))}
    tables = {}
    for pair in dict.fromkeys((w.alpha1, w.alpha2) for w in workers):
        err = np.stack([errs[0, pair[0]], errs[1, pair[1]]], axis=-1).transpose(1, 2, 0)
        tables[pair] = (err[..., 1:] - _BRACKET_PAD).ravel(), (err[..., :-1] + _BRACKET_PAD).ravel()
    return tables


def _bracket_cells(p: float, u, beta, sel, out, scratch) -> None:
    """Write into ``out`` the table index of each of a sub-block's (rows,
    n, 2) picked uniforms (its own u, or beta where sel < p): its cell
    plus its (difficulty, level) offset.  ``scratch`` is an integer array
    of ``out``'s shape."""
    # q * K is exact and non-negative, so the cast floors it to the cell.
    np.multiply(u, _BRACKET_CELLS, out=out, casting="unsafe")
    if p > 0.0:  # picked in integers: a masked copy ran slower
        np.subtract((beta * _BRACKET_CELLS).astype(np.intp)[:, None, None], out, out=scratch)
        scratch *= sel < p
        out += scratch
    out += np.arange(out[0].size).reshape(out[0].shape) * _BRACKET_CELLS


def _bracket_counts(draws: _Draws, workers: list[Worker], taus: list[float], blocks):
    """Share of ``estimate_many`` on the bracket path (see the module
    docstring): the (worker, tau) success counts of ``workers`` on
    ``blocks``.  Each trial's job error is bracketed from the error tables
    at its uniforms' cells, a sub-block at a time; only the trials that
    some tau falls inside of go through the transform, at their own rows
    of a block-shaped zeta array, and one evaluation of that array gives
    their errors with the column path's bits."""
    spec, n = draws.spec, draws.spec.n
    tables = _error_tables(workers, spec)
    evaluate = make_error_evaluator(spec, draws.model)
    coupled = any(w.p > 0.0 for w in workers)
    rows = max(b - a for *_, a, b in blocks)
    # Rows that no trial has written read as errors of 0 until one does.
    zetas = np.zeros((2, rows, n))
    sub = (min(rows, _BRACKET_ROWS_PER_PASS), n, 2)
    cells = {w.p: np.empty(sub, dtype=np.intp) for w in workers}
    scratch, lo_zeta, hi_zeta = np.empty(sub, dtype=np.intp), np.empty(sub), np.empty(sub)
    counts = np.zeros((len(workers), len(taus)), dtype=np.int64)
    for _, a, b, u, beta, sel in _drawn_blocks(draws, blocks, coupled, True):
        lo, hi = np.empty((len(workers), b - a)), np.empty((len(workers), b - a))
        for c in range(0, b - a, _BRACKET_ROWS_PER_PASS):
            d = min(c + _BRACKET_ROWS_PER_PASS, b - a)
            for p, cell in cells.items():
                _bracket_cells(p, u[c:d], beta[c:d] if coupled else None, sel[c:d] if coupled else None,
                               cell[:d - c], scratch[:d - c])
            for i, w in enumerate(workers):
                lo_table, hi_table = tables[w.alpha1, w.alpha2]
                np.take(lo_table, cells[w.p][:d - c], out=lo_zeta[:d - c], mode="clip")
                np.take(hi_table, cells[w.p][:d - c], out=hi_zeta[:d - c], mode="clip")
                lo[i, c:d], hi[i, c:d] = evaluate(lo_zeta[:d - c]), evaluate(hi_zeta[:d - c])
        zeta = zetas[:, :b - a].transpose(1, 2, 0)
        for i, w in enumerate(workers):
            inside = np.zeros(b - a, dtype=bool)
            for t in taus:
                inside |= (lo[i] <= t) & (hi[i] > t)
            undecided = np.flatnonzero(inside)
            if undecided.size:
                for col, (prof, s) in enumerate(((w.alpha1, spec.s1), (w.alpha2, spec.s2))):
                    q = _level_uniforms(w.p, col, u[undecided], beta[undecided] if coupled else None,
                                        sel[undecided] if coupled else None)
                    zetas[col, undecided] = 1.0 - quantile(prof, s[None, :], q)
                hi[i, undecided] = evaluate(zeta)[undecided]
            # hi now holds each trial's error where some tau fell inside its
            # bracket, and decides every tau as that error would elsewhere.
            for j, t in enumerate(taus):
                counts[i, j] += np.count_nonzero(hi[i] <= t)
    return counts


def _brackets_apply(workers: list[Worker], draws: _Draws) -> bool:
    """Whether the bracket path may count a call on ``draws``: it has at
    least :data:`_BRACKET_TRIALS` trials and some chosen leaf has
    truncated-normal noise (the one law whose transform costs more than a
    table lookup)."""
    return draws.trials >= _BRACKET_TRIALS and any(
        leaf.noise.kind == TRUNCNORM and leaf.noise.sigma > 0.0 for leaf in _chosen_leaves(workers, draws.spec))


@dataclass(frozen=True)
class _Carry:
    """What the most recent column-path share leaves for the next: its key
    (the draws key and the share's blocks, the rows its columns hold), the
    column keys it used and the level columns it kept."""

    key: tuple | None = None
    used: frozenset = frozenset()
    columns: dict = field(default_factory=dict)


# This process's carry, read and replaced by :func:`_carried_errors`.
_carry = _Carry()


def _carried_errors(workers: list[Worker], draws: _Draws, blocks):
    """:func:`_shared_draw_errors` on this process's carry.  A share whose
    key (draws and blocks) is the carry's reads the carried columns it
    uses, and keeps fresh (trials, n) arrays for the others that the
    previous share on that key also used, as many as fit beside the
    carried ones in ``CHUNK_TRIALS * 2n`` doubles.  When the share ends,
    its carried and kept columns replace the carry whole."""
    global _carry
    key, carry = (draws.key(), tuple(blocks)), _carry
    used = dict.fromkeys((col, prof, w.p) for w in workers for col, prof in enumerate((w.alpha1, w.alpha2)))
    if carry.key != key:
        carry = _Carry()
    carried = {column: carry.columns[column] for column in used if column in carry.columns}
    room = 2 * CHUNK_TRIALS // draws.trials - len(carried)
    fresh = [column for column in used if column in carry.used and column not in carried][:room]
    keep = {column: np.empty((draws.trials, draws.spec.n)) for column in fresh}
    yield from _shared_draw_errors(workers, draws, blocks, carried, keep)
    _carry = _Carry(key, frozenset(used), {**carried, **keep})


def _column_counts(draws: _Draws, workers: list[Worker], taus: list[float], blocks):
    """Share of ``estimate_many`` on the column path: the (worker, tau)
    success counts of ``workers`` on ``blocks``, from each trial's job
    error, every level column computed or read from the carry."""
    counts = np.zeros((len(workers), len(taus)), dtype=np.int64)
    for *_, err in _carried_errors(workers, draws, blocks):
        for j, t in enumerate(taus):
            counts[:, j] += np.count_nonzero(err <= t, axis=1)
    return counts


def _error_share(draws: _Draws, worker: Worker, blocks):
    """Share of ``estimate_err_avg``, on the column path: the (chunk, a, b,
    errors) of each of ``blocks``."""
    return [(chunk, a, b, err[0]) for chunk, a, b, err in _carried_errors([worker], draws, blocks)]


def _bisected_counts(draws: _Draws, worker: Worker, col: int, profiles: list[AbilityProfile], blocks):
    """Share of a bisected sweep: on ``blocks``, how many trials of
    ``worker``, with level ``col + 1`` set to each of ``profiles`` (in
    order of non-decreasing mean ability), first succeed (job error at
    most the job's tau) at each index in [0, K] (K when none succeeds), by
    bisection per trial.

    Each block computes the other level's column once into its slot, and this
    level's uniforms once.  Each trial's first successful index then takes
    ``K.bit_length()``, that is ceil(log2(K + 1)), whole-block evaluations,
    each at every row's own midpoint: the row's per-difficulty terms are
    gathered from its profile and go through the unchanged transform,
    straight into this level's slot, and the evaluator, with every row at
    its position in the block.  The success count at index k is the number
    of trials whose first success is at most k."""
    spec = draws.spec
    n, p, fixed = spec.n, worker.p, 1 - col
    levels = ((worker.alpha1, spec.s1), (worker.alpha2, spec.s2))
    (fixed_prof, fixed_s), s = levels[fixed], levels[col][1]
    terms = [np.concatenate(parts) for parts in zip(*(_terms(prof, s[None, :]) for prof in profiles))]
    last = len(profiles) - 1
    evaluate = make_error_evaluator(spec, draws.model)
    firsts = np.zeros(len(profiles) + 1, dtype=np.int64)
    zetas = np.empty((2, max(b - a for *_, a, b in blocks), n))
    for _, a, b, u, beta, sel in _drawn_blocks(draws, blocks, p > 0.0, True):
        zeta, slot = zetas[:, :b - a].transpose(1, 2, 0), zetas[col, :b - a]
        _level_errors(fixed_prof, fixed_s, p, fixed, u, beta, sel, out=zetas[fixed, :b - a])
        q = _level_uniforms(p, col, u, beta, sel)
        lo, hi = np.zeros(b - a, dtype=np.intp), np.full(b - a, last + 1, dtype=np.intp)
        for _ in range(len(profiles).bit_length()):
            # A settled row (lo == hi) keeps its bounds whatever it reads.
            mid = (lo + hi) // 2
            _transform(profiles[0], [term[np.minimum(mid, last)] for term in terms], q, slot)
            np.subtract(1.0, slot, out=slot)
            ok = evaluate(zeta) <= spec.tau
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, np.minimum(mid + 1, hi))
        firsts += np.bincount(lo, minlength=last + 2)
    return firsts


def _binomial_estimate(successes: int, trials: int, seed: int) -> SimEstimate:
    p = successes / trials
    stderr = math.sqrt(p * (1.0 - p) / trials)
    ci = (max(0.0, p - _Z * stderr), min(1.0, p + _Z * stderr))
    return SimEstimate(p, stderr, ci, trials, seed)


# --- splitting a call's blocks among processes -----------------------------

# The share functions a request may name.
_SHARES = frozenset({"_threshold_counts", "_bracket_counts", "_column_counts", "_error_share", "_bisected_counts"})


def _share(name: str):
    """The share function named ``name``, looked up by name when a share
    runs, so that the module's own attribute runs."""
    if name not in _SHARES:
        raise ParameterError(f"no share function {name!r}")
    return globals()[name]


def _processes() -> int:
    """P: :data:`_PROCESSES`, else the CPUs this process may run on."""
    if _PROCESSES is not None:
        return _PROCESSES
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class _Peers:
    """Peer processes forked from this process, each with the caller's end
    of its pipe, kept until the process exits or a round trip breaks."""

    def __init__(self) -> None:
        self.lock = threading.Lock()  # held for a whole round trip
        self.owner = os.getpid()
        self.peers: list = []
        self.broken = False

    def take(self, count: int) -> list:
        """Up to ``count`` live peers.  Missing peers are forked, but only
        while this process runs one thread: ``fork`` copies no other
        thread, whatever locks those hold."""
        if self.owner != os.getpid():  # inherited through os.fork: the parent's
            self.owner, self.peers, self.broken = os.getpid(), [], False
        while not self.broken and len(self.peers) < count and threading.active_count() == 1:
            import multiprocessing  # here, so that importing jobfit costs nothing

            context = multiprocessing.get_context("fork")
            ours, theirs = context.Pipe()
            process = context.Process(target=_serve, args=(ours, theirs), name="jobfit-peer", daemon=True)
            try:
                process.start()
            except OSError:  # no process to be had: this call and later ones run here
                ours.close()
                self.close()
            else:
                self.peers.append((process, ours))
            finally:
                theirs.close()
        return [] if self.broken else self.peers[:count]

    def close(self) -> None:
        """Stop every peer, so that no reply is left to read; later calls
        run in this process."""
        self.broken = True
        for process, conn in self.peers:
            conn.close()
            process.terminate()
            process.join(timeout=10)
        self.peers = []


_peers = _Peers()


def _serve(caller_end, conn) -> None:
    """A peer's loop: compute each request's share and send the result
    back (or the exception it raised), until the caller's end closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    caller_end.close()
    for _, other in _peers.peers:  # the caller's ends of earlier peers
        other.close()
    while True:
        try:
            share, draws, args, blocks = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, _share(share)(draws, *args, blocks))
        except Exception as exc:  # raised again by the caller
            reply = (False, exc)
        conn.send(reply)


def _round_trip(peers: list, requests: list, own):
    """Send each peer its request, run ``own`` meanwhile and read every
    reply: ``(own's result, the peers' results)``.  None when a pipe
    broke; every peer is then closed, as on an interrupt, so that no later
    call reads a stale reply."""
    try:
        for (_, conn), request in zip(peers, requests):
            conn.send(request)
        try:
            mine, failure = own(), None
        except Exception as exc:  # raised once the peers have replied
            mine, failure = None, exc
        replies = [conn.recv() for _, conn in peers]
    except (EOFError, OSError):
        _peers.close()
        return None
    except BaseException:
        _peers.close()
        raise
    if failure is not None:
        raise failure
    for ok, value in replies:
        if not ok:
            raise value
    return mine, [value for _, value in replies]


def _run_shares(share: str, draws: _Draws, args: tuple) -> list:
    """Run the share function ``share`` over every block of a call on
    ``draws``, split among this process and its peers (see the module
    docstring): the shares' results in share order.  A call that cannot
    use peers, or whose round trip broke, runs every block here."""
    blocks = _call_blocks(draws.trials)
    run = _share(share)
    wanted = min(_processes(), len(blocks)) - 1
    if wanted > 0 and _peers.lock.acquire(blocking=False):
        try:
            peers = _peers.take(wanted)
            shares = len(peers) + 1
            done = peers and _round_trip(
                peers, [(share, draws, args, blocks[j::shares]) for j in range(1, shares)],
                lambda: run(draws, *args, blocks[::shares]))
        finally:
            _peers.lock.release()
        if done:
            mine, theirs = done
            return [mine, *theirs]
    return [run(draws, *args, blocks)]


def estimate_many(workers, spec: JobSpec, model: ErrorModel, config: SimConfig | None = None,
                  taus=None, _tag: int = 0) -> list[SimEstimate]:
    """P for every (worker, tau) pair, worker-major, all on the same draws.

    Each chunk is drawn once per call, equal workers are counted once,
    and every tau (None means the job's own) is counted on the same
    draws.  The call counts on the threshold, bracket or column path,
    chosen from the call alone (see the module docstring).  Each
    estimate equals a call with that worker and tau alone, bit for bit.
    """
    config = config or SimConfig()
    workers = list(workers)
    if not workers:
        raise ParameterError("need at least one worker")
    taus = [check_tau(spec.tau if t is None else t) for t in ([None] if taus is None else taus)]
    distinct, distinct_taus = list(dict.fromkeys(workers)), list(dict.fromkeys(taus))
    draws = _Draws(spec, model, config.seed, _tag, config.trials)
    if len(distinct_taus) <= _THRESHOLD_TAUS and _thresholds_apply(distinct, spec, model):
        share = "_threshold_counts"
    elif _brackets_apply(distinct, draws):
        share = "_bracket_counts"
    else:
        share = "_column_counts"
    counts = sum(_run_shares(share, draws, (distinct, distinct_taus))).tolist()
    successes = {(w, t): k for w, row in zip(distinct, counts) for t, k in zip(distinct_taus, row)}
    return [_binomial_estimate(successes[w, t], config.trials, config.seed) for w in workers for t in taus]


def estimate_success_probability(worker: Worker, spec: JobSpec, model: ErrorModel,
                                 config: SimConfig | None = None) -> SimEstimate:
    """Fraction of trials with job error <= the job's tau, with binomial
    stderr/CI."""
    return estimate_many([worker], spec, model, config)[0]


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


def estimate_err_avg(worker: Worker, spec: JobSpec, model: ErrorModel,
                     config: SimConfig | None = None) -> ErrAvgResult:
    """Monte Carlo mean of the job error; exact value attached when available.

    It runs on tag 0, on the column path."""
    config = config or SimConfig()
    pieces = _run_shares("_error_share", _Draws(spec, model, config.seed, 0, config.trials), (worker,))
    # Each chunk's errors are summed whole, as one vector, whatever the split.
    errors = [np.empty(count) for _, count, a, _ in _call_blocks(config.trials) if a == 0]
    for chunk, a, b, err in itertools.chain.from_iterable(pieces):
        errors[chunk][a:b] = err
    total = 0.0
    total_sq = 0.0
    for err in errors:
        total += float(err.sum())
        total_sq += float((err**2).sum())
    nt = config.trials
    mean = total / nt
    var = max(0.0, (total_sq - nt * mean * mean) / max(1, nt - 1))
    stderr = math.sqrt(var / nt)
    est = SimEstimate(mean, stderr, (mean - _Z * stderr, mean + _Z * stderr), nt, config.seed)
    return ErrAvgResult(est, exact_err_avg(worker, spec, model))


# --- parameter knobs -------------------------------------------------------

# Each ability knob's stem (a1 and a2 share "a"): the base family whose
# first parameter it sets, that family's profile builder, and the bracket
# over which the parameter is bisected and a transition window is clipped.
ABILITY_KNOBS = {"a": (ability.LINEAR, ability.linear_profile, (0.0, 1.0)),
                 "c": (ability.CONSTANT, ability.constant_profile, (0.0, 1.0)),
                 "beta": (ability.POLYNOMIAL, ability.polynomial_profile, (0.0, 8.0))}
# The knobs apply_knob sets; tau is the job's threshold, not a worker's.
KNOBS = (*(stem + level for stem in ABILITY_KNOBS for level in "12"), "sigma", "sigma1", "sigma2", "p")


def _set_ability(profile: AbilityProfile, value: float, family: str) -> AbilityProfile:
    if profile.family != family:
        raise ParameterError(f"knob needs a {family} profile, worker has {profile.family}")
    return replace(profile, params=(float(value), *profile.params[1:]))


def _set_sigma(profile: AbilityProfile, value: float) -> AbilityProfile:
    if profile.family == ability.SELECT:
        raise ParameterError("cannot retune noise of a merged profile")
    return replace(profile, noise=NoiseModel(profile.noise.kind, float(value)))


def apply_knob(worker: Worker, name: str, value: float) -> Worker:
    """Return a copy of the worker with one named parameter replaced."""
    if name == "p":
        return replace(worker, p=float(value))
    if name == "sigma":
        return replace(worker, alpha1=_set_sigma(worker.alpha1, value),
                       alpha2=_set_sigma(worker.alpha2, value))
    stem, level = name[:-1], name[-1:]
    if level not in ("1", "2") or (stem != "sigma" and stem not in ABILITY_KNOBS):
        hint = ("; tau is the job's threshold: set it by JobSpec.with_tau, or make it an axis of sweep or "
                "a heatmap") if name == "tau" else ""
        raise ParameterError(f"unknown parameter knob {name!r} (choose from {KNOBS}{hint})")
    attr = f"alpha{level}"
    prof = getattr(worker, attr)
    new = _set_sigma(prof, value) if stem == "sigma" else _set_ability(prof, value, ABILITY_KNOBS[stem][0])
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


def _bisected_sweep(worker: Worker, col: int, grid: list[float], workers: list[Worker], spec: JobSpec,
                    model: ErrorModel, config: SimConfig | None) -> list[SimEstimate]:
    """P of each grid worker (``worker`` with level ``col + 1`` set at the
    grid value) on tag 0, by :func:`_bisected_counts`."""
    config = config or SimConfig()
    by_value = dict(zip(grid, workers))
    values = sorted(by_value)
    profiles = [by_value[v].profile(col + 1) for v in values]
    firsts = _run_shares("_bisected_counts", _Draws(spec, model, config.seed, 0, config.trials),
                         (worker, col, profiles))
    count_at = dict(zip(values, np.cumsum(sum(firsts))[:-1].tolist()))
    return [_binomial_estimate(count_at[v], config.trials, config.seed) for v in grid]


def estimate_cases(cases: list[tuple[Worker, float | None]], spec: JobSpec, model: ErrorModel,
                   config: SimConfig | None, crn: bool) -> list[SimEstimate]:
    """P of each ``(worker, tau)`` case, tau None meaning the job's own.

    With ``crn`` one :func:`estimate_many` call counts the distinct
    workers against the distinct taus, so every case sees the same draws;
    without it case k runs alone on stream tag 1 + k.  Each estimate
    equals its case alone on its tag, bit for bit."""
    if not crn:
        return [estimate_many([w], spec, model, config, [t], 1 + k)[0] for k, (w, t) in enumerate(cases)]
    workers, taus = list(dict.fromkeys(w for w, _ in cases)), list(dict.fromkeys(t for _, t in cases))
    ests = iter(estimate_many(workers, spec, model, config, taus))
    by_case = {(w, t): next(ests) for w in workers for t in taus}
    return [by_case[case] for case in cases]


def sweep(
    worker,
    spec: JobSpec,
    model: ErrorModel,
    param: str,
    grid,
    config: SimConfig | None = None,
    crn: bool = True,
) -> list[SweepPoint]:
    """Estimate P along a parameter grid.

    ``worker`` is either a base :class:`Worker` (the named knob is applied
    per grid value) or a factory ``value -> Worker``.  With ``crn`` every
    grid point reuses the same underlying uniforms, so curves are smooth
    and differences across the grid have reduced variance; without it each
    point gets an independent substream.

    A CRN sweep of a base worker's a, c or beta knob finds each trial's
    first successful grid point by bisection over the sorted distinct
    grid values (see the module docstring), so a curve is non-decreasing
    by construction and costs ceil(log2(K + 1)) evaluations per trial for
    K values, not K.  Its counts equal those of ``estimate_many`` on the
    grid workers by test, not by proof.  Every other sweep (factories,
    sigma, p and tau, and any sweep without CRN) is a grid of ``(worker,
    tau)`` cases that goes through :func:`estimate_cases`, as the CLI's
    heatmaps do.
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
        cases = [(factory(value), None) for value in grid]
    if crn and param[:-1] in ABILITY_KNOBS and not callable(worker):
        ests = _bisected_sweep(worker, int(param[-1]) - 1, grid, [w for w, _ in cases], spec, model, config)
    else:
        ests = estimate_cases(cases, spec, model, config, crn)
    return [SweepPoint(param, value, est) for value, est in zip(grid, ests)]


def finite_diff_derivative(
    worker,
    spec: JobSpec,
    model: ErrorModel,
    param: str,
    at: float,
    step: float,
    config: SimConfig | None = None,
) -> float:
    """|P(at+step) - P(at-step)| / (2 step), both sides on common random numbers."""
    if step <= 0.0:
        raise ParameterError(f"step must be > 0, got {step}")
    factory = _worker_factory(worker, param)
    hi, lo = estimate_many([factory(at + step), factory(at - step)], spec, model, config)
    return abs(hi.value - lo.value) / (2.0 * step)


def brute_force_success_probability(
    worker: Worker,
    spec: JobSpec,
    model: ErrorModel,
    resolution: int,
) -> float:
    """Exact P by midpoint-rule tensor quadrature over the noise space.

    Only defined for p = 0 (one quadrature dimension per subskill) and
    p = 1 (a single shared-status dimension).  At p = 0 an all-max model
    counts its grid points as a product of per-dimension node counts,
    exact in integers at any n.  A linear model counts them as pairs of
    half-grid sums (Horowitz & Sahni 1974), each half of at most
    ``_BRUTE_BLOCK`` points; the sums run in another order than the
    evaluator's, so near tau the count equals the tensor count by test,
    not by proof.  Other models visit every point, capped at 6
    dimensions.
    """
    if resolution < 1:
        raise ParameterError(f"resolution must be >= 1, got {resolution}")
    tau, n = spec.tau, spec.n
    mid = (np.arange(resolution) + 0.5) / resolution

    if worker.p == 1.0:
        zeta = np.empty((resolution, n, 2))
        for level, s in ((1, spec.s1), (2, spec.s2)):
            zeta[:, :, level - 1] = 1.0 - quantile(worker.profile(level), s[None, :], mid[:, None])
        return float((make_error_evaluator(spec, model)(zeta) <= tau).mean())
    if worker.p != 0.0:
        raise ParameterError("brute force requires a worker with p = 0 or p = 1")

    dims = 2 * n
    if not (model.is_all_max or model.is_linear) and dims > 6:
        raise CapacityError(f"{dims} subskill dimensions exceed the exact-quadrature cap of 6")
    # Per-dimension error values at the quadrature nodes, dimension order
    # (skill 0 level 1, skill 0 level 2, skill 1 level 1, ...).
    zvals = np.empty((dims, resolution))
    for j in range(n):
        zvals[2 * j] = 1.0 - quantile(worker.alpha1, float(spec.s1[j]), mid)
        zvals[2 * j + 1] = 1.0 - quantile(worker.alpha2, float(spec.s2[j]), mid)
    if model.is_all_max:
        # A point succeeds iff every covered subskill error is <= tau.
        covered = {j for t in spec.tasks for j in t}
        successes = math.prod(int(np.count_nonzero(z <= tau)) if d // 2 in covered else resolution
                              for d, z in enumerate(zvals))
    elif model.is_linear:
        successes = _pair_count(zvals, effective_coefficients(spec, model) * model.h_scale, tau)
    else:
        successes = _tensor_count(make_error_evaluator(spec, model), zvals, tau)
    return successes / resolution**dims


def _pair_count(zvals: np.ndarray, coeff: np.ndarray, tau: float) -> int:
    """Grid points of ``zvals`` (skill-major (2n, R) node errors) whose
    error sum_j coeff_j * (z_j1 + z_j2) is at most tau: the per-skill
    terms are summed over each half of the skills' grid, and each sum of
    the first half searches the sorted sums of the second."""
    n, resolution = len(coeff), zvals.shape[1]
    if resolution ** (2 * (n - n // 2)) > _BRUTE_BLOCK:
        raise CapacityError(f"a half grid of {resolution}^{2 * (n - n // 2)} points exceeds "
                            f"the pair-count cap of {_BRUTE_BLOCK}")

    def sums(skills) -> np.ndarray:
        total = np.zeros(1)
        for j in skills:
            term = coeff[j] * (zvals[2 * j][:, None] + zvals[2 * j + 1][None, :])
            total = (total[:, None] + term.ravel()[None, :]).ravel()
        return total

    right = np.sort(sums(range(n // 2, n)))
    return int(np.searchsorted(right, tau - sums(range(n // 2)), side="right").sum())


def _tensor_count(evaluate, zvals: np.ndarray, tau: float) -> int:
    """Grid points of ``zvals`` (skill-major (2n, R) node errors) whose
    job error is at most tau, every point through ``evaluate``."""
    dims, resolution = zvals.shape
    total = resolution**dims
    strides = [resolution ** (dims - 1 - d) for d in range(dims)]
    successes = 0
    for start in range(0, total, _BRUTE_BLOCK):
        flat = np.arange(start, min(start + _BRUTE_BLOCK, total))
        zeta = np.empty((flat.size, dims // 2, 2))
        for d in range(dims):
            idx = (flat // strides[d]) % resolution
            zeta[:, d // 2, d % 2] = zvals[d][idx]
        successes += int((evaluate(zeta) <= tau).sum())
    return successes
