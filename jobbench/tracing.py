"""Spans around the engine's layer entry points, recorded from outside
the program.

``traced(tracer)`` replaces each entry point with a wrapper that opens a
span, calls the original with the same arguments and returns its result
unchanged.  A function is replaced under every ``jobfit`` module attribute
that holds it (``jobfit.simulate.quantile`` as well as
``jobfit.ability.quantile``), because callers look names up in their own
module.  Spans (name, start, end, parent, attributes) stay in memory and
``layer_metrics`` turns them into the per-layer table.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time

import numpy as np

# (defining module, name, span name).  Leaf layers first, then the
# layers that call them.
ENTRY_POINTS = (
    ("jobfit.simulate", "_chunk_uniforms", "rng"),
    ("jobfit.ability", "quantile", "quantile"),
    ("jobfit.job", "make_error_evaluator", "aggregate"),
    ("jobfit.simulate", "estimate_success_probability", "estimate"),
    ("jobfit.simulate", "estimate_err_avg", "estimate"),
    ("jobfit.simulate", "exact_err_avg", "exact"),
    ("jobfit.theory", "critical_ability", "theory"),
    ("jobfit.theory", "verify_phase_transition", "theory"),
    ("jobfit.theory", "compression_bound", "theory"),
    ("jobfit.merging", "merge_per_subskill", "merging.plan"),
    ("jobfit.merging", "merge_with_trust", "merging.plan"),
    ("jobfit.merging", "evaluate_merge_gain", "merging.gain"),
)

_NAME, _START, _END, _PARENT, _ATTRS = range(5)


class Tracer:
    """Spans as lists ``[name, start_ns, end_ns, parent_index, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter_ns(), 0, parent, attrs]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield rec
        finally:
            rec[_END] = time.perf_counter_ns()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "attrs"],
                       "spans": self.spans}, fh, default=str)


def _elems(*arrays) -> int:
    return math.prod(np.broadcast_shapes(*(np.shape(a) for a in arrays)))


def _wrap(tracer: Tracer, span_name: str, fn):
    if span_name == "rng":
        @functools.wraps(fn)
        def rng(seed, tag, chunk, count, n, *args, **kwargs):
            with tracer.span("rng", key=(int(seed), int(tag), int(chunk), int(count), int(n)),
                             elems=count * (4 * n + 1), sel=count * 2 * n):
                return fn(seed, tag, chunk, count, n, *args, **kwargs)
        return rng
    if span_name == "quantile":
        @functools.wraps(fn)
        def quantile(profile, s, q):
            with tracer.span("quantile", elems=_elems(s, q), select=profile.family == "select"):
                return fn(profile, s, q)
        return quantile
    if span_name == "aggregate":
        @functools.wraps(fn)
        def make_error_evaluator(spec, model):
            evaluate = fn(spec, model)

            def traced_evaluate(zeta):
                with tracer.span("aggregate", trials=math.prod(np.shape(zeta)[:-2])):
                    return evaluate(zeta)
            return traced_evaluate
        return make_error_evaluator
    if span_name == "estimate":
        @functools.wraps(fn)
        def estimate(worker, spec, model, config=None, *args, **kwargs):
            trials = (config or sys.modules["jobfit.simulate"].SimConfig()).trials
            with tracer.span("estimate", kind=fn.__name__, trials=trials, p=worker.p):
                return fn(worker, spec, model, config, *args, **kwargs)
        return estimate

    @functools.wraps(fn)
    def layer(*args, **kwargs):
        with tracer.span(span_name, fn=fn.__name__):
            return fn(*args, **kwargs)
    return layer


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every engine entry point through ``tracer`` for the duration."""
    patched = []
    missing = []
    try:
        for module_name, attr, span_name in ENTRY_POINTS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = _wrap(tracer, span_name, original)
            for name, module in list(sys.modules.items()):
                if name != "jobfit" and not name.startswith("jobfit."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        if missing:
            print(f"trace: entry points not found, left untraced: {missing}", file=sys.stderr)
        yield tracer
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


def _ancestors(spans, idx):
    parent = spans[idx][_PARENT]
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent][_PARENT]


def _dur(rec) -> float:
    return (rec[_END] - rec[_START]) * 1e-9


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer counts, busy times and ratios; ``wall_s`` is the traced
    wall time of the ops and the base of every share."""
    spans = tracer.spans
    children_s = [0.0] * len(spans)
    for rec in spans:
        if rec[_PARENT] >= 0:
            children_s[rec[_PARENT]] += _dur(rec)

    def self_s(i):
        return _dur(spans[i]) - children_s[i]

    rng = [i for i, r in enumerate(spans) if r[_NAME] == "rng"]
    rng_busy = sum(_dur(spans[i]) for i in rng)
    rng_elems = sum(spans[i][_ATTRS]["elems"] for i in rng)
    sel_unused = 0
    for i in rng:
        owner = next((a for a in _ancestors(spans, i) if a[_NAME] == "estimate"), None)
        if owner is not None and owner[_ATTRS]["p"] == 0.0:
            sel_unused += spans[i][_ATTRS]["sel"]

    est = [i for i, r in enumerate(spans) if r[_NAME] == "estimate"]

    quant = [i for i, r in enumerate(spans) if r[_NAME] == "quantile"]
    quant_top = [i for i in quant
                 if spans[i][_PARENT] < 0 or spans[spans[i][_PARENT]][_NAME] != "quantile"]
    quant_busy = sum(_dur(spans[i]) for i in quant_top)
    leaf_elems = sum(spans[i][_ATTRS]["elems"] for i in quant if not spans[i][_ATTRS]["select"])
    discarded = sum(spans[i][_ATTRS]["elems"] for i in quant if spans[i][_ATTRS]["select"])

    agg = [i for i, r in enumerate(spans) if r[_NAME] == "aggregate"]
    agg_busy = sum(_dur(spans[i]) for i in agg)
    agg_trials = sum(spans[i][_ATTRS]["trials"] for i in agg)

    theory = [i for i, r in enumerate(spans) if r[_NAME] == "theory"]
    theory_self = sum(self_s(i) for i in theory)
    exact_in_theory = sum(1 for i, r in enumerate(spans)
                          if r[_NAME] == "exact" and r[_PARENT] >= 0 and spans[r[_PARENT]][_NAME] == "theory")
    mc_in_theory = [i for i in est if spans[i][_ATTRS]["kind"] == "estimate_err_avg"
                    and any(a[_NAME] == "theory" for a in _ancestors(spans, i))]

    merge = [i for i, r in enumerate(spans) if r[_NAME].startswith("merging.")]
    merge_top = [i for i in merge if not any(a[_NAME].startswith("merging.") for a in _ancestors(spans, i))]

    def share(busy):
        return busy / wall_s if wall_s > 0 else 0.0

    return {
        "rng.calls": len(rng),
        "rng.busy_s": rng_busy,
        "rng.share": share(rng_busy),
        "rng.mb": rng_elems * 8 / 1e6,
        "rng.reuse_ratio": len({spans[i][_ATTRS]["key"] for i in rng}) / len(rng) if rng else 1.0,
        "rng.sel_unused_frac": sel_unused / rng_elems if rng_elems else 0.0,
        "simulate.estimates": len(est),
        "simulate.trials": sum(spans[i][_ATTRS]["trials"] for i in est),
        "simulate.self_s": sum(self_s(i) for i in est),
        "quantile.calls": len(quant_top),
        "quantile.busy_s": quant_busy,
        "quantile.share": share(quant_busy),
        "quantile.melems": leaf_elems / 1e6,
        "quantile.ns_per_elem": quant_busy * 1e9 / leaf_elems if leaf_elems else 0.0,
        "quantile.select_discard_frac": discarded / leaf_elems if leaf_elems else 0.0,
        "aggregate.calls": len(agg),
        "aggregate.busy_s": agg_busy,
        "aggregate.share": share(agg_busy),
        "aggregate.ns_per_trial": agg_busy * 1e9 / agg_trials if agg_trials else 0.0,
        "theory.err_avg_evals": exact_in_theory,
        "theory.err_avg_mc": len(mc_in_theory),
        "theory.mc_trials": sum(spans[i][_ATTRS]["trials"] for i in mc_in_theory),
        "theory.self_s": theory_self,
        "theory.self_share": share(theory_self),
        "merging.plans": sum(1 for i in merge if spans[i][_NAME] == "merging.plan"),
        "merging.busy_s": sum(_dur(spans[i]) for i in merge_top),
        "merging.busy_share": share(sum(_dur(spans[i]) for i in merge_top)),
    }
