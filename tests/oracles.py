"""Independent reference implementations used to cross-check the package.

Everything here is written with plain Python loops and explicit membership
scans, trading speed for obviousness, so the tests compare two unrelated
mechanisms instead of a module against itself.
"""
from __future__ import annotations

import math

import numpy as np

from stlmine.enumeration import CallbackResult, enumerate_templates
from stlmine.formula import (
    And,
    Atom,
    Const,
    Finally,
    Formula,
    Globally,
    Implies,
    Interval,
    Not,
    Or,
    Param,
    Polarity,
    TrueF,
    Until,
)
from stlmine.params import _window_error, default_bounds, instantiate
from stlmine.traces import Trace

BIG = 1e9
_TOL_FRAC = 1e-9  # endpoint slack, as a fraction of the sample period


def _clip(v: float) -> float:
    return min(max(v, -BIG), BIG)


def _grid(trace: Trace) -> list[float]:
    return [trace.start_time + k * trace.period for k in range(trace.n_samples)]


def _window_members(trace: Trace, t: float, iv: Interval) -> list[int]:
    """Sample indices whose time lies in t + I, by explicit scan."""
    tol = _TOL_FRAC * trace.period
    lo = t + iv.lo.value
    hi = t + iv.hi.value
    out = []
    for k, tk in enumerate(_grid(trace)):
        lo_ok = tk >= lo - tol if iv.lo_closed else tk > lo + tol
        hi_ok = tk <= hi + tol if iv.hi_closed else tk < hi - tol
        if lo_ok and hi_ok:
            out.append(k)
    return out


def _sample_at(trace: Trace, signal: str, t: float) -> float:
    """Piecewise-constant hold: last sample at or before t, clamped to [0, n)."""
    tol = _TOL_FRAC * trace.period
    below = [k for k, tk in enumerate(_grid(trace)) if tk <= t + tol]
    idx = max(below) if below else 0
    return float(trace.values(signal)[idx])


def brute_robustness(phi: Formula, trace: Trace, t: float = 0.0) -> float:
    """Brute-force max/min robustness over the sample grid."""
    match phi:
        case TrueF():
            return BIG
        case Atom(sig, op, Const(c)):
            v = _sample_at(trace, sig, t)
            return _clip(v - c if op in (">", ">=") else c - v)
        case Not(child):
            return -brute_robustness(child, trace, t)
        case And(l, r):
            return min(brute_robustness(l, trace, t), brute_robustness(r, trace, t))
        case Or(l, r):
            return max(brute_robustness(l, trace, t), brute_robustness(r, trace, t))
        case Implies(l, r):
            return max(-brute_robustness(l, trace, t), brute_robustness(r, trace, t))
        case Finally(iv, child):
            idxs = _window_members(trace, t, iv)
            if not idxs:
                return -BIG
            grid = _grid(trace)
            return _clip(max(brute_robustness(child, trace, grid[k]) for k in idxs))
        case Globally(iv, child):
            idxs = _window_members(trace, t, iv)
            if not idxs:
                return BIG
            grid = _grid(trace)
            return _clip(min(brute_robustness(child, trace, grid[k]) for k in idxs))
        case Until(iv, l, r):
            idxs = _window_members(trace, t, iv)
            if not idxs:
                return -BIG
            grid = _grid(trace)
            tol = _TOL_FRAC * trace.period
            best = -math.inf
            for j in idxs:
                hold = [
                    brute_robustness(l, trace, grid[i])
                    for i in range(j)
                    if grid[i] >= t - tol
                ]
                inner = min(hold) if hold else math.inf
                best = max(best, min(brute_robustness(r, trace, grid[j]), inner))
            return _clip(best)
    raise TypeError(f"not a concrete formula: {phi!r}")


def brute_bool(phi: Formula, trace: Trace, t: float = 0.0) -> bool:
    """Direct Boolean semantics, honouring strict vs non-strict comparators."""
    match phi:
        case TrueF():
            return True
        case Atom(sig, op, Const(c)):
            v = _sample_at(trace, sig, t)
            return {"<": v < c, "<=": v <= c, ">": v > c, ">=": v >= c}[op]
        case Not(child):
            return not brute_bool(child, trace, t)
        case And(l, r):
            return brute_bool(l, trace, t) and brute_bool(r, trace, t)
        case Or(l, r):
            return brute_bool(l, trace, t) or brute_bool(r, trace, t)
        case Implies(l, r):
            return (not brute_bool(l, trace, t)) or brute_bool(r, trace, t)
        case Finally(iv, child):
            grid = _grid(trace)
            return any(
                brute_bool(child, trace, grid[k]) for k in _window_members(trace, t, iv)
            )
        case Globally(iv, child):
            grid = _grid(trace)
            return all(
                brute_bool(child, trace, grid[k]) for k in _window_members(trace, t, iv)
            )
        case Until(iv, l, r):
            grid = _grid(trace)
            tol = _TOL_FRAC * trace.period
            for j in _window_members(trace, t, iv):
                if not brute_bool(r, trace, grid[j]):
                    continue
                if all(
                    brute_bool(l, trace, grid[i])
                    for i in range(j)
                    if grid[i] >= t - tol
                ):
                    return True
            return False
    raise TypeError(f"not a concrete formula: {phi!r}")


def bisection_walk(g, space, delta: float, diag_tol: float, max_points: int) -> list[dict]:
    """The valuations a breadth-first boundary walk with plain bisection emits.

    Boxes wait in a FIFO queue.  A box whose hardest corner satisfies
    (``g > 0``) or whose easiest corner violates is dropped.  Otherwise the
    diagonal from the hard corner to the easy one is halved until the bracket
    is at most ``diag_tol``, its midpoint is emitted, and the box is split
    there into 2^m sub-boxes.  The two corner sub-boxes are dropped, and each
    other one is queued if ``np.linalg.norm`` of its extent exceeds ``delta``
    times the initial diagonal.  ``g`` maps a list of floats to a float.
    """
    hard_high = [p.polarity is Polarity.DECREASING for p in space.params]
    m = len(hard_high)
    hard_mask = sum(1 << d for d in range(m) if hard_high[d])
    easy_mask = (1 << m) - 1 - hard_mask
    initial = float(np.linalg.norm(space.highs() - space.lows()))
    queue = [(space.lows(), space.highs())]
    points = []
    while queue and len(points) < max_points:
        lo, hi = queue.pop(0)
        hard = np.array([hi[d] if hard_high[d] else lo[d] for d in range(m)])
        easy = np.array([lo[d] if hard_high[d] else hi[d] for d in range(m)])
        if g(hard.tolist()) > 0 or g(easy.tolist()) <= 0:
            continue
        s_lo, s_hi = 0.0, 1.0
        while s_hi - s_lo > diag_tol:
            mid = 0.5 * (s_lo + s_hi)
            if g((hard + mid * (easy - hard)).tolist()) > 0:
                s_hi = mid
            else:
                s_lo = mid
        point = np.clip(hard + 0.5 * (s_lo + s_hi) * (easy - hard), lo, hi)
        points.append(space.to_valuation(point))
        for mask in range(1 << m):
            if mask in (hard_mask, easy_mask):
                continue
            sub_lo = np.array([point[d] if mask >> d & 1 else lo[d] for d in range(m)])
            sub_hi = np.array([hi[d] if mask >> d & 1 else point[d] for d in range(m)])
            if float(np.linalg.norm(sub_hi - sub_lo)) > delta * initial:
                queue.append((sub_lo, sub_hi))
    return points


def reference_learn(ds, grammar, cfg) -> dict:
    """What ``learner.learn`` finds, rebuilt from the oracles above.

    Templates come from ``enumerate_templates`` and boxes from
    ``default_bounds``; every robustness is ``brute_robustness`` of the
    instantiated formula: g (the least over the label-1 traces), the MCR
    count (``> 0``) and the fingerprints, quantized as ``SignatureIndex``
    does on the probe traces and draws of its seed.  Each box is walked with
    ``bisection_walk``, and every point runs the window check before it is
    scored.  Returns the template, valuation and MCR found (None when none
    is), the search counters and the templates emitted per length.
    """
    sig = cfg.signature
    rng = np.random.default_rng([sig.seed, 0])
    picks = rng.choice(ds.n, size=min(sig.n_traces, ds.n), replace=False)
    probes = [ds.traces[i] for i in sorted(picks)]
    pos = [tr for tr, label in zip(ds.traces, ds.labels) if label == 1]
    cap = math.inf if cfg.max_boundary_points is None else cfg.max_boundary_points
    seen = set()
    out = {"template": None, "valuation": None, "mcr": None,
           "templates_tried": 0, "templates_pruned": 0, "boundary_points": 0}

    def fingerprint(template, space):
        cols = [np.random.default_rng([sig.seed, 1, i]).uniform(p.lo, p.hi, sig.n_valuations)
                for i, p in enumerate(space.params)]
        draws = [{p.name: float(col[j]) for p, col in zip(space.params, cols)}
                 for j in range(sig.n_valuations)]
        mat = np.array([[brute_robustness(instantiate(template, v, validate=False), tr)
                         for v in draws] for tr in probes])
        q = np.round(mat / sig.quantum).astype(np.int64)
        return (space.dim, q.shape, q.tobytes())

    def fit(template, length):
        out["templates_tried"] += 1
        space = default_bounds(template, ds)
        if cfg.use_signatures:
            key = fingerprint(template, space)
            if key in seen:
                out["templates_pruned"] += 1
                return CallbackResult.PRUNED
            seen.add(key)

        def g(vector):
            phi = instantiate(template, space.to_valuation(vector), validate=False)
            return min(brute_robustness(phi, tr) for tr in pos)

        for valuation in bisection_walk(g, space, cfg.delta, cfg.diag_tol, cap):
            out["boundary_points"] += 1
            if _window_error(template, valuation):
                continue
            phi = instantiate(template, valuation)
            sat = [brute_robustness(phi, tr) > 0 for tr in ds.traces]
            wrong = sum(s for s, label in zip(sat, ds.labels) if label == 0)
            if cfg.mcr_mode == "symmetric":
                wrong += sum(not s for s, label in zip(sat, ds.labels) if label == 1)
            if wrong / ds.n < cfg.threshold:
                out.update(template=template, valuation=valuation, mcr=wrong / ds.n)
                return CallbackResult.STOP
        return CallbackResult.CONTINUE

    out["per_length"] = enumerate_templates(grammar, cfg.max_length, fit).per_length
    return out


def count_templates(n_atoms: int, n_unary: int, n_binary: int, max_len: int):
    """Template counts per length from the grammar size recurrence alone."""
    counts = {1: n_atoms}
    for length in range(2, max_len + 1):
        total = n_unary * counts[length - 1]
        for i in range(1, length - 1):
            total += n_binary * counts[i] * counts[length - 1 - i]
        counts[length] = total
    return counts


# --- random AST / trace generation for fuzz comparisons ---------------------

_CMPS = ("<", "<=", ">", ">=")


def random_trace(rng, signals=("x",), max_samples=6, period_choices=(0.5, 1.0)):
    """Short trace with values on a coarse lattice so exact ties do occur."""
    n = int(rng.integers(1, max_samples + 1))
    period = float(rng.choice(period_choices))
    sigs = {
        s: rng.integers(-20, 21, size=n).astype(float) * 0.25 for s in signals
    }
    return Trace(sigs, period)


def _random_interval(rng, horizon: float) -> Interval:
    lo = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
    hi = lo + float(rng.choice([0.0, 0.5, 1.0, horizon]))
    if hi == lo:  # point windows are only well-formed when closed
        return Interval(Const(lo), Const(hi), True, True)
    lo_closed = bool(rng.random() < 0.85)
    hi_closed = bool(rng.random() < 0.85)
    return Interval(Const(lo), Const(hi), lo_closed, hi_closed)


def random_concrete_formula(rng, signals=("x",), budget=5, horizon=5.0) -> Formula:
    """Random well-formed concrete AST with exactly <= budget operators."""
    if budget <= 1:
        if rng.random() < 0.1:
            return TrueF()
        sig = str(rng.choice(list(signals)))
        op = str(rng.choice(_CMPS))
        return Atom(sig, op, Const(float(rng.integers(-12, 13)) * 0.25))
    roll = rng.random()
    if budget >= 3 and roll < 0.45:
        left_budget = int(rng.integers(1, budget - 1))
        left = random_concrete_formula(rng, signals, left_budget, horizon)
        right = random_concrete_formula(rng, signals, budget - 1 - left_budget, horizon)
        kind = rng.choice(["and", "or", "implies", "U"])
        if kind == "and":
            return And(left, right)
        if kind == "or":
            return Or(left, right)
        if kind == "implies":
            return Implies(left, right)
        return Until(_random_interval(rng, horizon), left, right)
    child = random_concrete_formula(rng, signals, budget - 1, horizon)
    kind = rng.choice(["not", "F", "G"])
    if kind == "not":
        return Not(child)
    if kind == "F":
        return Finally(_random_interval(rng, horizon), child)
    return Globally(_random_interval(rng, horizon), child)


def random_template(rng, signals=("x",), budget=4, horizon=5.0) -> Formula:
    """Like random_concrete_formula but with $-parameters in some slots."""
    phi = random_concrete_formula(rng, signals, budget, horizon)
    counter = [0]

    def sub(node: Formula) -> Formula:
        match node:
            case Atom(sig, op, Const(c)):
                if rng.random() < 0.5:
                    counter[0] += 1
                    return Atom(sig, op, Param(f"q{counter[0]}"))
                return Atom(sig, op, Const(c))
            case Not(ch):
                return Not(sub(ch))
            case And(l, r):
                return And(sub(l), sub(r))
            case Or(l, r):
                return Or(sub(l), sub(r))
            case Implies(l, r):
                return Implies(sub(l), sub(r))
            case Finally(iv, ch):
                return Finally(_sub_iv(iv), sub(ch))
            case Globally(iv, ch):
                return Globally(_sub_iv(iv), sub(ch))
            case Until(iv, l, r):
                return Until(_sub_iv(iv), sub(l), sub(r))
        return node

    def _sub_iv(iv: Interval) -> Interval:
        if rng.random() < 0.4:
            counter[0] += 1
            return Interval(Const(0.0), Param(f"q{counter[0]}"), True, True)
        return iv

    return sub(phi)
