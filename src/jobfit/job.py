"""Job model: skills, task-skill dependency, and error aggregation.

A job error is the composition f(g(h(.))) over an n x 2 matrix of
subskill error rates: h combines a skill's two subskill errors, g
aggregates the skills required by each task, f aggregates tasks.  With
no ``max`` component the composition is linear and collapses to a single
per-skill weight vector (``effective_coefficients``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotLinearError, ParameterError, ShapeError

H_AVERAGE = "average"
H_SUM = "sum"
H_MAX = "max"
AGG_AVERAGE = "average"
AGG_WEIGHTED = "weighted"
AGG_MAX = "max"


def check_tau(tau: float) -> float:
    """``tau`` as a float; a success threshold must be finite and >= 0."""
    if not 0.0 <= tau < math.inf:
        raise ParameterError(f"tau must be finite and >= 0, got {tau}")
    return float(tau)


@dataclass(frozen=True)
class ErrorModel:
    """Aggregation triple (h, g, f).

    ``h`` in {average, sum, max} combines the two subskill errors of a
    skill; ``sum`` exists to reconstruct split skill profiles and puts the
    per-skill term on a [0, 2] scale (the success threshold is interpreted
    on whatever scale the composition produces).  ``g``/``f`` in
    {average, weighted, max}; weighted averages take their weights from
    the job's skill/task importance vectors.
    """

    h: str = H_AVERAGE
    g: str = AGG_AVERAGE
    f: str = AGG_AVERAGE

    def __post_init__(self) -> None:
        if self.h not in (H_AVERAGE, H_SUM, H_MAX):
            raise ParameterError(f"unknown skill aggregator {self.h!r}")
        if self.g not in (AGG_AVERAGE, AGG_WEIGHTED, AGG_MAX):
            raise ParameterError(f"unknown task aggregator {self.g!r}")
        if self.f not in (AGG_AVERAGE, AGG_WEIGHTED, AGG_MAX):
            raise ParameterError(f"unknown job aggregator {self.f!r}")

    @property
    def is_linear(self) -> bool:
        return self.h != H_MAX and self.g != AGG_MAX and self.f != AGG_MAX

    @property
    def is_all_max(self) -> bool:
        """h = g = f = max: the job error is the largest covered subskill error."""
        return self.h == H_MAX and self.g == AGG_MAX and self.f == AGG_MAX

    @property
    def h_scale(self) -> float:
        """Multiplier applied to (zeta_1 + zeta_2) by the skill aggregator."""
        return 0.5 if self.h == H_AVERAGE else 1.0


FIXTURE_MODEL = ErrorModel(h=H_SUM, g=AGG_WEIGHTED, f=AGG_WEIGHTED)


def _readonly(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be a 1-d vector")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class JobSpec:
    """n skills with two subskill difficulties each, m weighted tasks.

    ``tasks`` holds 0-based skill indices.  Construction validates ranges
    and task sanity; whether a skill may appear in no task is a loader
    policy (see :func:`jobfit.dataio.load_job_spec`), since downstream
    sensitivity computations silently ignore weight-zero skills.
    """

    s1: np.ndarray
    s2: np.ndarray
    tasks: tuple[tuple[int, ...], ...]
    w: np.ndarray
    v: np.ndarray
    tau: float
    skill_names: tuple[str, ...] | None = None
    task_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "s1", _readonly(self.s1, "s1"))
        object.__setattr__(self, "s2", _readonly(self.s2, "s2"))
        object.__setattr__(self, "w", _readonly(self.w, "w"))
        object.__setattr__(self, "v", _readonly(self.v, "v"))
        object.__setattr__(self, "tasks", tuple(tuple(int(j) for j in t) for t in self.tasks))
        n, m = self.n, self.m
        if n < 1 or m < 1:
            raise ShapeError("need at least one skill and one task")
        if not (len(self.s2) == len(self.w) == n and len(self.v) == m):
            raise ShapeError("s1, s2, w must share length n and v length m")
        for name, arr in (("s1", self.s1), ("s2", self.s2), ("w", self.w), ("v", self.v)):
            if np.any((arr < 0.0) | (arr > 1.0)):
                raise ParameterError(f"{name} entries must lie in [0,1]")
        check_tau(self.tau)
        for i, t in enumerate(self.tasks):
            if not t:
                raise ParameterError(f"task {i + 1} depends on no skill")
            if len(set(t)) != len(t):
                raise ParameterError(f"task {i + 1} lists a skill twice")
            if any(j < 0 or j >= n for j in t):
                raise ParameterError(f"task {i + 1} references a skill outside 1..{n}")

    @property
    def n(self) -> int:
        return len(self.s1)

    @property
    def m(self) -> int:
        return len(self.tasks)

    def with_tau(self, tau: float) -> "JobSpec":
        return JobSpec(self.s1, self.s2, self.tasks, self.w, self.v, float(tau),
                       self.skill_names, self.task_names)


def _task_weight_matrix(spec: JobSpec, model: ErrorModel) -> np.ndarray:
    """(m, n) row-normalised skill weights per task (zero outside the task)."""
    gw = np.zeros((spec.m, spec.n))
    base = spec.w if model.g == AGG_WEIGHTED else np.ones(spec.n)
    for i, t in enumerate(spec.tasks):
        idx = list(t)
        total = base[idx].sum()
        if total <= 0.0:
            raise ParameterError(f"task {i + 1} has zero total skill weight")
        gw[i, idx] = base[idx] / total
    return gw


def _task_vector(spec: JobSpec, model: ErrorModel) -> np.ndarray:
    base = spec.v if model.f == AGG_WEIGHTED else np.ones(spec.m)
    total = base.sum()
    if total <= 0.0:
        raise ParameterError("job has zero total task weight")
    return base / total


def effective_coefficients(spec: JobSpec, model: ErrorModel) -> np.ndarray:
    """Per-skill weights c_j with Err = sum_j c_j * h(zeta_j1, zeta_j2).

    Defined only for linear models; c_j sums the task weights reaching
    skill j: c_j = sum_{i: j in T_i} (v_i / sum v) * (w_j / sum_{j' in T_i} w_j').
    """
    if not model.is_linear:
        raise NotLinearError("effective coefficients are undefined with a max component")
    return _task_vector(spec, model) @ _task_weight_matrix(spec, model)


def lipschitz_bound(spec: JobSpec, model: ErrorModel) -> float:
    """L with |Err(z) - Err(z')| <= L * ||z - z'||_1.

    Linear models: the h scale times the largest effective coefficient.
    Any max component: 1 (a single coordinate can determine the output).
    """
    if not model.is_linear:
        return 1.0
    return float(model.h_scale * effective_coefficients(spec, model).max())


def make_error_evaluator(spec: JobSpec, model: ErrorModel):
    """Compile (..., n, 2) error matrices -> (...,) job errors.

    Linear models reduce to one dot product; max components fall back to
    explicit h/g/f composition.  With g = f = max the job error is the max
    of the per-skill errors over the skills that some task covers, one
    reduction along the skill axis.  With g = max under an average or
    weighted f, each task's ``max`` is taken skill-major as an elementwise
    ``max`` over contiguous skill rows, once per distinct skill set: tasks
    that need the same skills share one column of the task matrix.
    ``max`` is exact in any order and the weighted sums keep a fixed
    order, so results are bit-reproducible.
    """
    n = spec.n
    if model.is_linear:
        coeff = effective_coefficients(spec, model) * model.h_scale

        def linear_eval(zeta: np.ndarray) -> np.ndarray:
            zeta = _check_zeta(zeta, n)
            return (zeta[..., 0] + zeta[..., 1]) @ coeff

        return linear_eval

    gw = None if model.g == AGG_MAX else _task_weight_matrix(spec, model)
    fv = None if model.f == AGG_MAX else _task_vector(spec, model)
    covered = sorted({j for t in spec.tasks for j in t})
    if len(covered) == n:  # a slice takes no copy
        covered = slice(None)
    skill_sets = [tuple(sorted(t)) for t in spec.tasks]

    def general_eval(zeta: np.ndarray) -> np.ndarray:
        zeta = _check_zeta(zeta, n)
        z0, z1 = zeta[..., 0], zeta[..., 1]
        if model.h == H_MAX:
            skill = np.maximum(z0, z1)
        elif model.h == H_SUM:
            skill = z0 + z1
        else:
            skill = (z0 + z1) / 2.0
        if gw is not None:
            task = skill @ gw.T
            return task.max(axis=-1) if fv is None else task @ fv
        if fv is None:
            # max over tasks of max over their skills = max over covered skills
            return skill[..., covered].max(axis=-1)
        rows = np.ascontiguousarray(np.moveaxis(skill, -1, 0))
        maxima = {t: _max_of_rows(rows, t) for t in dict.fromkeys(skill_sets)}
        return np.stack([maxima[t] for t in skill_sets], axis=-1) @ fv

    return general_eval


def _max_of_rows(rows: np.ndarray, idx) -> np.ndarray:
    """Elementwise max of ``rows[j]`` over j in idx, as a new array."""
    out = np.array(rows[idx[0]])
    for j in idx[1:]:
        np.maximum(out, rows[j], out=out)
    return out


def _check_zeta(zeta: np.ndarray, n: int) -> np.ndarray:
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape[-2:] != (n, 2):
        raise ShapeError(f"error matrix must have shape (..., {n}, 2), got {zeta.shape}")
    return zeta


def balanced_job(n: int, m: int, k: int, s1, s2, tau: float) -> JobSpec:
    """Regular job: task i needs skills {i, i+1, ..., i+k-1} mod n, uniform weights.

    With all-average aggregation and m a multiple of n this reproduces
    Err = (1/2n) sum_j (zeta_j1 + zeta_j2) exactly.
    """
    if k < 1 or k > n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}")
    tasks = tuple(tuple(sorted((i + d) % n for d in range(k))) for i in range(m))
    return JobSpec(s1, s2, tasks, np.ones(n), np.ones(m), tau)
