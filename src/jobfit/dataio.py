"""Job/worker data ingestion: subskill division, the bundled Computer
Programmers fixture, and benchmark accuracy tables.

Fixture documents are static: every number derived upstream (importance
and proficiency tabulations, decision-level degrees, task-skill
dependencies) is frozen into the shipped files, and loading performs no
network or model calls.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .ability import linear_profile, truncnorm_var
from .errors import DegenerateFitError, ParameterError, SchemaError
from .job import JobSpec
from .simulate import Worker
from . import ability

FORMAT_VERSION = 1
NA_TOKEN = "NA"

FIXTURE_JOB = "computer_programmers.json"
FIXTURE_BENCHMARK = "bigbench_lite.csv"

# Published skill-level profile constants the fixture workers resolve to:
# slope parameters fitted with the intercept pinned at 1, and the fit
# variances, for the average human rater and the best evaluated model.
HUMAN_SLOPE = 0.22
HUMAN_VARIANCE = 0.013
AI_SLOPE = 0.08
AI_VARIANCE = 0.029


def _psi_exp_ratio(lam: float) -> float:
    # lam / (lam + (1-lam) e^{-lam}): smooth, monotone, psi(0)=0, psi(1)=1
    return lam / (lam + (1.0 - lam) * math.exp(-lam)) if lam > 0.0 else 0.0


PSI_CHOICES = {
    "identity": lambda lam: lam,
    "square": lambda lam: lam * lam,
    "exp_ratio": _psi_exp_ratio,
}


def divide_subskills(proficiency: float, degree: float, psi: str = "identity") -> tuple[float, float]:
    """Split a skill difficulty into (decision, action) parts:
    s1 = psi(degree) * s and s2 = (1 - psi(degree)) * s, so s1 + s2 = s.
    ``psi`` names one of :data:`PSI_CHOICES`, each a map of [0, 1] onto
    itself with psi(0) = 0 and psi(1) = 1."""
    if not 0.0 <= proficiency <= 1.0:
        raise ParameterError(f"proficiency must lie in [0,1], got {proficiency}")
    if not 0.0 <= degree <= 1.0:
        raise ParameterError(f"decision degree must lie in [0,1], got {degree}")
    if psi not in PSI_CHOICES:
        raise ParameterError(f"unknown psi {psi!r}; choose from {sorted(PSI_CHOICES)}")
    s1 = PSI_CHOICES[psi](degree) * proficiency
    return s1, proficiency - s1


@dataclass(frozen=True)
class RawSkill:
    name: str
    proficiency: float
    importance: float
    decision_degree: float


@dataclass(frozen=True)
class RawTask:
    name: str
    importance: float
    skills: tuple[int, ...]  # 1-based skill ids, as published


@dataclass(frozen=True)
class RawJobRecord:
    name: str
    tau: float
    skills: tuple[RawSkill, ...]
    tasks: tuple[RawTask, ...]


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing field {key!r}")
    return doc[key]


def _unit(value, where: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    if not 0.0 <= x <= 1.0:
        raise SchemaError(f"{where}: value {x} outside [0,1]")
    return x


def parse_job_record(doc: dict) -> RawJobRecord:
    if not isinstance(doc, dict):
        raise SchemaError("job document must be a JSON object")
    version = doc.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {version!r}")
    name = str(_need(doc, "name", "job"))
    tau = _unit(_need(doc, "tau", "job"), "job.tau")
    raw_skills = _need(doc, "skills", "job")
    raw_tasks = _need(doc, "tasks", "job")
    if not raw_skills or not raw_tasks:
        raise SchemaError("job: needs at least one skill and one task")
    skills = []
    for i, sk in enumerate(raw_skills, start=1):
        where = f"skills[{i}]"
        skills.append(RawSkill(
            name=str(_need(sk, "name", where)),
            proficiency=_unit(_need(sk, "proficiency", where), f"{where}.proficiency"),
            importance=_unit(_need(sk, "importance", where), f"{where}.importance"),
            decision_degree=_unit(_need(sk, "decision_degree", where), f"{where}.decision_degree"),
        ))
    n = len(skills)
    tasks = []
    used: set[int] = set()
    for i, t in enumerate(raw_tasks, start=1):
        where = f"tasks[{i}]"
        ids = _need(t, "skills", where)
        if not ids:
            raise SchemaError(f"{where}.skills: must be nonempty")
        for j in ids:
            if not isinstance(j, int) or not 1 <= j <= n:
                raise SchemaError(f"{where}.skills: id {j!r} outside 1..{n}")
        if len(set(ids)) != len(ids):
            raise SchemaError(f"{where}.skills: duplicate skill id")
        used.update(ids)
        tasks.append(RawTask(
            name=str(_need(t, "name", where)),
            importance=_unit(_need(t, "importance", where), f"{where}.importance"),
            skills=tuple(int(j) for j in ids),
        ))
    isolated = sorted(set(range(1, n + 1)) - used)
    if isolated and not doc.get("allow_isolated_skills", False):
        raise SchemaError(
            f"skills {isolated} appear in no task; set allow_isolated_skills to accept "
            "(they carry zero weight in every aggregate)"
        )
    return RawJobRecord(name, tau, tuple(skills), tuple(tasks))


def record_to_spec(record: RawJobRecord, psi: str = "identity", divide: bool = True) -> JobSpec:
    """Build the simulation-facing spec.

    ``divide=True`` applies the subskill division to every skill.  With
    ``divide=False`` both levels carry the full skill proficiency; pair
    that with unsplit skill profiles and an averaging skill aggregator to
    evaluate the job without subskill division.
    """
    if divide:
        pairs = [divide_subskills(sk.proficiency, sk.decision_degree, psi) for sk in record.skills]
        s1 = [p[0] for p in pairs]
        s2 = [p[1] for p in pairs]
    else:
        s1 = [sk.proficiency for sk in record.skills]
        s2 = [sk.proficiency for sk in record.skills]
    return JobSpec(
        s1,
        s2,
        tuple(tuple(j - 1 for j in t.skills) for t in record.tasks),
        [sk.importance for sk in record.skills],
        [t.importance for t in record.tasks],
        record.tau,
        skill_names=tuple(sk.name for sk in record.skills),
        task_names=tuple(t.name for t in record.tasks),
    )


def load_job_record(path) -> RawJobRecord:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read job file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    return parse_job_record(doc)


def load_job_spec(path, psi: str = "identity", divide: bool = True) -> JobSpec:
    return record_to_spec(load_job_record(path), psi=psi, divide=divide)


@dataclass(frozen=True)
class BenchmarkTable:
    skills: tuple[str, ...]
    proficiency: tuple[float, ...]
    columns: dict[str, tuple[float | None, ...]]


def load_benchmark_table(path) -> tuple[BenchmarkTable, dict[str, tuple[float, float]]]:
    """Read a benchmark accuracy CSV and fit a linear profile per worker
    column (rows with the NA token are skipped for that column).

    Returns the table plus {column: (slope parameter a, fit variance)}.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read table {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["skill", "proficiency"]:
            raise SchemaError(f"{path}: header must start with skill,proficiency")
        worker_cols = header[2:]
        if not worker_cols:
            raise SchemaError(f"{path}: no worker accuracy columns")
        skills, profs = [], []
        cells: list[list[float | None]] = [[] for _ in worker_cols]
        for row_idx, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SchemaError(f"{path}:{row_idx}: expected {len(header)} cells")
            skills.append(row[0])
            profs.append(_unit(row[1], f"{path}:{row_idx}:proficiency"))
            for c, cell in enumerate(row[2:]):
                if cell.strip() == NA_TOKEN:
                    cells[c].append(None)
                else:
                    cells[c].append(_unit(cell, f"{path}:{row_idx}:{worker_cols[c]}"))
    table = BenchmarkTable(tuple(skills), tuple(profs),
                           {name: tuple(col) for name, col in zip(worker_cols, cells)})
    fits = {}
    for name, col in table.columns.items():
        points = [(s, acc) for s, acc in zip(table.proficiency, col) if acc is not None]
        if len(points) < 2:
            raise DegenerateFitError(f"column {name!r} has fewer than two usable rows")
        fits[name] = ability.fit_linear_profile(points)
    return table, fits


def fixture_path(name: str) -> Path:
    return Path(resources.files("jobfit") / "fixtures" / name)


def load_fixture_job(divide: bool = True) -> JobSpec:
    return load_job_spec(fixture_path(FIXTURE_JOB), divide=divide)


WORKER_PRESETS = ("human", "ai", "human-skill", "ai-skill")


def named_worker(name: str, p: float = 0.0) -> Worker:
    """Fixture-calibrated workers.

    ``human``/``ai`` carry split subskill profiles (variance halved) for
    the divided job; ``human-skill``/``ai-skill`` carry the unsplit
    skill-level profiles for the undivided variant.
    """
    if name == "human":
        prof = linear_profile(HUMAN_SLOPE, truncnorm_var(HUMAN_VARIANCE / 2.0))
    elif name == "ai":
        prof = linear_profile(AI_SLOPE, truncnorm_var(AI_VARIANCE / 2.0))
    elif name == "human-skill":
        prof = linear_profile(HUMAN_SLOPE, truncnorm_var(HUMAN_VARIANCE))
    elif name == "ai-skill":
        prof = linear_profile(AI_SLOPE, truncnorm_var(AI_VARIANCE))
    else:
        raise ParameterError(f"unknown worker preset {name!r}; choose from {WORKER_PRESETS}")
    return Worker(prof, prof, p)
