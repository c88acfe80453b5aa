"""Locate the program under test and describe the environment of a run.

Every benchmark entry point imports this module first: it pins the BLAS
and OpenMP thread pools (before numpy is imported) and puts
``<root>/src`` at the front of ``sys.path`` so that the tree being
measured, not an installed copy, provides ``jobfit``.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_ROOT = BENCH_DIR.parent

# One thread per pool: the load runs in one process on a machine with few
# cores, and a single thread keeps both timings and float summation order
# (hence payload digests) independent of how many cores are free.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"


class ProgramMissing(RuntimeError):
    """The tree holds no importable jobfit package."""


def pin_threads() -> None:
    if all(os.environ.get(var) == THREADS for var in THREAD_VARS):
        return
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = THREADS


def use_tree(root: Path) -> None:
    """Make ``<root>/src`` the first place ``import jobfit`` looks."""
    src = Path(root).resolve() / "src"
    if not (src / "jobfit" / "__init__.py").is_file():
        raise ProgramMissing(f"no jobfit package under {src}")
    if sys.path[0] == str(src):
        return
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def check_import(root: Path) -> None:
    """Fail unless the imported jobfit is the one under ``root``."""
    import jobfit

    want = (Path(root).resolve() / "src" / "jobfit").resolve()
    got = Path(jobfit.__file__).resolve().parent
    if got != want:
        raise ProgramMissing(f"jobfit imported from {got}, expected {want}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the tree, read from ``.git`` without running git; None when
    the tree is not a repository (as in an exported checkout)."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def describe(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _git_commit(root),
    }
