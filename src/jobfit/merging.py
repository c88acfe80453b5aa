"""Construct merged workers and evaluate merge gains.

Three strategies: swap whole levels between two workers, pick the
stronger worker per subskill by mean ability, or pick using a
trust-scaled (misestimated) mean for worker B while executing with B's
true profile.  Ties always go to worker A, so plans are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ability
from .ability import AbilityProfile, mean_ability, piecewise_profile, select_profile
from .errors import ParameterError
from .job import ErrorModel, JobSpec
from .simulate import SimConfig, SimEstimate, Worker, estimate_many

UNIFORM_STRATEGY = "uniform"
PER_SUBSKILL = "per_subskill"
TRUST_SCALED = "trust_scaled"

_ENVELOPE_FAMILIES = (ability.LINEAR, ability.CONSTANT)


@dataclass(frozen=True)
class MergePlan:
    """Per-skill source choice ("A"/"B") at each level, plus the strategy."""

    decision: tuple[str, ...]
    action: tuple[str, ...]
    strategy: str
    trust: float = 1.0

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "trust": self.trust,
            "decision": list(self.decision),
            "action": list(self.action),
        }


def merge_uniform(worker_a: Worker, worker_b: Worker, pick: tuple[str, str] = ("A", "B")) -> Worker:
    """Whole-level merge: pick[0] supplies the decision level, pick[1] the
    action level.  The dependency parameter is inherited conservatively
    as the max of the two."""
    src = {"A": worker_a, "B": worker_b}
    try:
        alpha1 = src[pick[0]].alpha1
        alpha2 = src[pick[1]].alpha2
    except KeyError as exc:
        raise ParameterError(f"pick entries must be 'A' or 'B', got {pick}") from exc
    return Worker(alpha1, alpha2, max(worker_a.p, worker_b.p))


def _assign(pa: AbilityProfile, pb: AbilityProfile, s: np.ndarray, scale: float) -> np.ndarray:
    """True where B is selected: its scaled mean strictly beats A's."""
    return scale * np.asarray(mean_ability(pb, s)) > np.asarray(mean_ability(pa, s))


def _linear_coeffs(profile: AbilityProfile) -> tuple[float, float]:
    """(intercept, slope) of the mean for linear/constant families."""
    if profile.family == ability.CONSTANT:
        return profile.params[0], 0.0
    a, c = profile.params
    return c, -(1.0 - a)


def _materialize_level(pa: AbilityProfile, pb: AbilityProfile, scale: float,
                       picks: np.ndarray) -> AbilityProfile:
    """Merged profile for one level, given the per-subskill picks at the
    job's difficulties (only those matter for P).

    A single-source level is that source, unchanged.  A genuinely mixed
    level becomes a piecewise-linear upper envelope (one profile with
    worker A's noise model: the merged worker is modelled as a single
    profile per level, and A is the baseline performer) when both sources
    are linear/constant with the same noise kind and the comparison is
    unscaled; otherwise it stays a per-difficulty selection that samples
    each subskill from its true source.
    """
    if not picks.any():
        return pa
    if picks.all():
        return pb
    envelope_ok = (
        scale == 1.0
        and pa.family in _ENVELOPE_FAMILIES
        and pb.family in _ENVELOPE_FAMILIES
        and pa.noise.kind == pb.noise.kind
    )
    if not envelope_ok:
        return select_profile(pa, pb, scale)
    ca, ma = _linear_coeffs(pa)
    cb, mb = _linear_coeffs(pb)
    knots_x = {0.0, 1.0}
    if ma != mb:
        cross = (cb - ca) / (ma - mb)
        if 0.0 < cross < 1.0:
            knots_x.add(cross)
    knots = [(x, max(ca + ma * x, cb + mb * x)) for x in sorted(knots_x)]
    return piecewise_profile(knots, pa.noise)


def _merge(worker_a: Worker, worker_b: Worker, spec: JobSpec, scale: float,
           strategy: str) -> tuple[Worker, MergePlan]:
    plans = []
    profiles = []
    for level, s in ((1, spec.s1), (2, spec.s2)):
        pa, pb = worker_a.profile(level), worker_b.profile(level)
        picks = _assign(pa, pb, s, scale)
        plans.append(tuple("B" if b else "A" for b in picks))
        profiles.append(_materialize_level(pa, pb, scale, picks))
    worker = Worker(profiles[0], profiles[1], max(worker_a.p, worker_b.p))
    return worker, MergePlan(plans[0], plans[1], strategy, scale)


def merge_per_subskill(worker_a: Worker, worker_b: Worker, spec: JobSpec) -> tuple[Worker, MergePlan]:
    """Assign each (skill, level) to the worker with the higher mean
    ability at that difficulty; ties go to worker A."""
    return _merge(worker_a, worker_b, spec, 1.0, PER_SUBSKILL)


def merge_with_trust(worker_a: Worker, worker_b: Worker, spec: JobSpec,
                     trust: float) -> tuple[Worker, MergePlan]:
    """Per-subskill merge where worker B's ability estimates are biased by
    the factor ``trust`` during assignment; execution uses B's true
    profiles.  trust > 1 over-assigns work to B, trust < 1 under-assigns."""
    if trust < 0.0:
        raise ParameterError(f"trust must be >= 0, got {trust}")
    return _merge(worker_a, worker_b, spec, float(trust), TRUST_SCALED)


@dataclass(frozen=True)
class MergeGainResult:
    table: dict[str, SimEstimate]
    delta: float


def evaluate_merge_gain(
    base: dict[str, Worker],
    candidates: dict[str, Worker],
    spec: JobSpec,
    model: ErrorModel,
    config: SimConfig | None = None,
    tau: float | None = None,
) -> MergeGainResult:
    """Estimate P for every worker on shared draws and report
    max over candidates minus max over the base workers (may be negative
    when a mis-planned merge hurts)."""
    if not candidates:
        raise ParameterError("need at least one candidate worker")
    if not base:
        raise ParameterError("need at least one base worker")
    overlap = set(base) & set(candidates)
    if overlap:
        raise ParameterError(f"names appear in both base and candidates: {sorted(overlap)}")
    workers = {**base, **candidates}
    table = dict(zip(workers, estimate_many(list(workers.values()), spec, model, config, [tau])))
    best_candidate = max(table[name].value for name in candidates)
    best_base = max(table[name].value for name in base)
    return MergeGainResult(table, best_candidate - best_base)
