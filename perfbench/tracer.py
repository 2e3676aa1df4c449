"""Span tracer for the traced benchmark run, and the per-layer metrics it gives.

The tracer replaces the public functions of each stlmine module at the name
its callers look up (for example ``stlmine.boundary.instantiate`` and
``stlmine.learner.robustness_many``), records one span per call with the span
that caused it, keeps every span in memory, and restores the originals when
the traced block ends.  Nothing inside ``src/`` changes.  Spans inside
``monitor`` (trace stacking, numeric evaluation, grouping) would need hooks in
the package and are left for a later change.
"""
from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager

from stlmine import boundary, learner, monitor, params, signatures
from stlmine.formula import Finally, Globally, Until, children

TEMPORAL = (Finally, Globally, Until)


def formula_kind(phi) -> str:
    """``nested`` if a temporal operator sits under another one, else the
    single temporal operator kind (``F``, ``G`` or ``U``), else ``other``."""
    kinds: set[str] = set()
    nested = False

    def walk(node, depth: int) -> None:
        nonlocal nested
        if isinstance(node, TEMPORAL):
            kinds.add(type(node).__name__[0])
            nested = nested or depth > 0
            depth += 1
        for c in children(node):
            walk(c, depth)

    walk(phi, 0)
    if nested:
        return "nested"
    return kinds.pop() if len(kinds) == 1 else "other"


def _many_extra(args):
    phi, traces = args[0], args[1]
    return (formula_kind(phi), len(traces) * traces[0].n_samples) if traces else ("other", 0)


def _one_extra(args):
    return formula_kind(args[0]), args[1].n_samples


def _tried_post(result):
    return result.points_tested, result.pruned


# (owner, attribute, span name, extra-from-args, extra-from-result)
PATCHES = [
    (learner, "learn", "learner.learn", None, None),
    (learner, "enumerate_templates", "enumeration.enumerate_templates", None, None),
    (learner, "try_classifier", "learner.try_classifier", None, _tried_post),
    (learner, "mcr", "learner.mcr", None, None),
    (learner, "default_bounds", "params.default_bounds", None, None),
    (learner, "instantiate", "params.instantiate", None, None),
    (learner, "robustness_many", "monitor.robustness_many", _many_extra, None),
    (learner.BoundaryQuery, "__next__", "boundary.next", None, None),
    (learner.BoundaryQuery, "g", "boundary.g", None, None),
    (boundary, "instantiate", "params.instantiate", None, None),
    (boundary, "robustness_many", "monitor.robustness_many", _many_extra, None),
    (signatures.SignatureIndex, "check_and_insert", "signatures.check_and_insert", None, bool),
    (signatures.SignatureIndex, "fingerprint", "signatures.fingerprint", None, None),
    (signatures, "default_bounds", "params.default_bounds", None, None),
    (signatures, "instantiate", "params.instantiate", None, None),
    (signatures, "robustness", "monitor.robustness", _one_extra, None),
    (params, "signal_ranges", "params.signal_ranges", None, None),
    (monitor, "robustness_many", "monitor.robustness_many", _many_extra, None),
    (monitor, "robustness", "monitor.robustness", _one_extra, None),
]


class Tracer:
    """In-memory spans: ``[name, parent index, start ns, end ns, extra]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, extra, post):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            if extra is not None:
                rec[4] = extra(args)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if post is not None:
                rec[4] = post(result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Trace every patched function while the block runs."""
        saved = []
        try:
            for owner, attr, name, extra, post in PATCHES:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, extra, post))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i, (name, parent, t0, t1, _) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0},{t1}\n")


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not samples:
        return 0.0
    s = sorted(samples)
    return s[max(math.ceil(p / 100.0 * len(s)) - 1, 0)]


def layer_metrics(tracer: Tracer, n_ops: int, point_budget: int) -> dict[str, float]:
    """Per-layer counts, busy times and self times from the recorded spans.

    Counts and seconds are per traced operation (``n_ops`` of them), so runs
    that fit different numbers of operations compare.  ``point_budget`` is
    the learner's ``max_boundary_points``; a template that walked that many
    points was cut by the budget.
    """
    spans = tracer.spans
    dur = [(s[3] - s[2]) * 1e-9 for s in spans]
    self_s = list(dur)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            self_s[s[1]] -= dur[i]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def durs(name):
        return [dur[i] for i in by_name.get(name, [])]

    def busy(name):
        return sum(durs(name)) / n_ops

    def calls(name):
        return len(by_name.get(name, [])) / n_ops

    # the self time of everything under a learn except the g and mcr subtrees
    skip = {"boundary.g", "learner.mcr"}
    inside = [False] * len(spans)
    rest = 0.0
    for i, s in enumerate(spans):
        parent = s[1]
        if s[0] == "learner.learn":
            inside[i] = True
        elif parent >= 0 and inside[parent] and s[0] not in skip:
            inside[i] = True
        if inside[i]:
            rest += self_s[i]

    # a call that raised has no result to record
    tried = [spans[i][4] for i in by_name.get("learner.try_classifier", []) if spans[i][4]]
    walked = [pts for pts, pruned in tried if not pruned]
    points = sum(walked)
    inserted = [spans[i][4] for i in by_name.get("signatures.check_and_insert", [])
                if spans[i][4] is not None]

    per_sample: dict[str, list[float]] = {k: [0.0, 0.0] for k in ("F", "G", "U", "nested", "other")}
    for name in ("monitor.robustness_many", "monitor.robustness"):
        for i in by_name.get(name, []):
            kind, samples = spans[i][4]
            per_sample[kind][0] += dur[i]
            per_sample[kind][1] += samples
    many_samples = sum(spans[i][4][1] for i in by_name.get("monitor.robustness_many", []))
    g_calls = len(by_name.get("boundary.g", []))

    def ns_per(kind):
        t, n = per_sample[kind]
        return t * 1e9 / n if n else 0.0

    return {
        "boundary.g_calls": g_calls / n_ops,
        "boundary.g_calls_per_point": g_calls / points if points else 0.0,
        "boundary.g_us_p50": percentile(durs("boundary.g"), 50) * 1e6,
        "boundary.g_us_p90": percentile(durs("boundary.g"), 90) * 1e6,
        "boundary.g_busy_s": busy("boundary.g"),
        "boundary.self_s": sum(self_s[i] for i in by_name.get("boundary.next", [])) / n_ops,
        "params.instantiate_calls": calls("params.instantiate"),
        "params.instantiate_us_p50": percentile(durs("params.instantiate"), 50) * 1e6,
        "params.instantiate_busy_s": busy("params.instantiate"),
        "params.default_bounds_calls": calls("params.default_bounds"),
        "params.default_bounds_us_p50": percentile(durs("params.default_bounds"), 50) * 1e6,
        "monitor.robustness_many_calls": calls("monitor.robustness_many"),
        "monitor.robustness_many_us_p50": percentile(durs("monitor.robustness_many"), 50) * 1e6,
        "monitor.robustness_many_busy_s": busy("monitor.robustness_many"),
        "monitor.ns_per_trace_sample": (
            busy("monitor.robustness_many") * 1e9 / many_samples if many_samples else 0.0
        ),
        "monitor.robustness_calls": calls("monitor.robustness"),
        "monitor.F_ns_per_sample": ns_per("F"),
        "monitor.G_ns_per_sample": ns_per("G"),
        "monitor.U_ns_per_sample": ns_per("U"),
        "monitor.nested_ns_per_sample": ns_per("nested"),
        "learner.learn_s": busy("learner.learn"),
        "learner.rest_self_s": rest / n_ops,
        "learner.mcr_calls": calls("learner.mcr"),
        "learner.mcr_us_p50": percentile(durs("learner.mcr"), 50) * 1e6,
        "learner.mcr_busy_s": busy("learner.mcr"),
        "learner.try_classifier_ms_p50": percentile(durs("learner.try_classifier"), 50) * 1e3,
        "learner.try_classifier_ms_p90": percentile(durs("learner.try_classifier"), 90) * 1e3,
        "learner.points_per_template": points / len(walked) if walked else 0.0,
        "learner.capped_templates": sum(1 for p in walked if p >= point_budget) / n_ops,
        "signatures.fingerprint_calls": calls("signatures.fingerprint"),
        "signatures.fingerprint_ms_p50": percentile(durs("signatures.fingerprint"), 50) * 1e3,
        "signatures.busy_s": busy("signatures.check_and_insert"),
        "signatures.pruned_ratio": (
            sum(1 for new in inserted if not new) / len(inserted) if inserted else 0.0
        ),
        "enumeration.templates_emitted": len(tried) / n_ops,
        "enumeration.templates_pruned": sum(1 for _, pruned in tried if pruned) / n_ops,
        "enumeration.self_s": sum(
            self_s[i] for i in by_name.get("enumeration.enumerate_templates", [])
        ) / n_ops,
        "trace.spans": len(spans) / n_ops,
    }
