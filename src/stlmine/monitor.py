"""Boolean and quantitative evaluation of concrete STL formulas on sampled traces.

Evaluation happens on the sample grid: atoms use piecewise-constant hold, and
temporal operators range over the sample times inside ``t + I`` intersected
with the trace domain.  No interpolation between samples.

One recursive evaluator computes robustness on a batch of same-shape traces in
one of two modes: at every sample time, or at a single (possibly off-grid)
time.  Operands of temporal operators always use the grid mode; the
single-time mode reduces only the one window it needs.

The grid mode's window max/min (the sliding-window max/min of Donzé, Ferrère
and Maler, "Efficient Robust Monitoring for STL", CAV 2013) is a doubling
table in numpy (``_window_reduce``): level p holds, at each sample, the max
or min of the 2^p samples from it on (fewer at the end of the grid), built
from level p-1 by one pairwise max or min, and a window of w samples is the
max or min of two overlapping level-floor(log2 w) spans.  A window cut off by
the end of the grid reduces the samples that exist.  ``_rob`` builds the
levels of each fresh child array in that array and its output array; a
batch caches the levels of each raw signal, per direction, as deep as a
window has asked, and a chain (below) reads its window over the raw signal
from them.  Both pair the same samples in the same order, so they give the
same bytes.

The single-time mode's F and G fold their window's samples left to right
(``_fold``) over a time-major (samples x traces) copy of the window's
columns, so numpy takes one pairwise max or min per sample across all
traces at once instead of reducing each trace's row on its own (a batch of
a few traces accumulates along each trace, the same fold).  A chain's
window at t=0 folds the same samples in the same order; over the raw signal
it reads them from a time-major copy of that signal, which the batch builds
once, when a window first asks for it.

Robustness follows the usual max/min semantics:

* ``x > c`` and ``x >= c`` score ``x(t) - c``; the ``<`` forms score ``c - x(t)``
  (strict and non-strict comparisons are indistinguishable quantitatively);
* negation flips the sign, conjunction takes min, disjunction max,
  ``a implies b`` scores ``max(-rob(a), rob(b))``;
* ``F``/``G`` take max/min of the child over the window; until takes the max
  over window times t1 of ``min(rob(right, t1), inf over [t, t1) of rob(left))``
  where the inner inf ranges over sample times strictly before t1;
* ``true`` scores +BIG, and an empty window scores -BIG under F/U and +BIG
  under G.  BIG is a finite, documented sentinel rather than IEEE infinity so
  that downstream arithmetic stays well-behaved.

Every value is clipped to [-BIG, BIG], but only where a clip can bite: an
atom clips its margin only when the batch's largest ``|x|`` plus ``|c|``
exceeds BIG, and a grid window that lies wholly past the last sample scores
the sentinel directly.  Every other window holds at least one sample, whose
value is already within bounds, so the results equal clipping everywhere.

A trace satisfies a formula iff its robustness is strictly positive; an exact
zero counts as a violation.

A template ``(not | F_I | G_I)* (x ~ c)`` factors through its threshold at t=0
(``_Scorer``, which scores every other template by ``_rob``).  With the
negations pushed down to the atom, each window takes the max or the min of the
raw signal x, and robustness is ``x - c`` or ``c - x`` of that composed
reduction R, negated once per ``not`` and clipped to [-BIG, BIG].  Rounding a
difference, negation and the clip are monotone, so they commute with max and
min bit for bit, the sign of zero included.  Where ``_rob`` writes ±BIG, R
holds the reduction's identity ±inf, which the clip turns into the same ±BIG.
R depends on a valuation only through the window offsets, so it is computed
once for many thresholds.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import FormulaStructureError, TraceDomainError, UnknownSignalError
from .formula import (
    And,
    Atom,
    Bound,
    Const,
    Finally,
    Formula,
    Globally,
    Implies,
    Interval,
    Not,
    Or,
    TrueF,
    Until,
    is_concrete,
    signals_of,
)
from .traces import Trace

BIG = 1e9

# slack, in fractions of a sample index, when intersecting windows with the grid
_EPS = 1e-9


class _Batch:
    """Several same-shape traces stacked for vectorized evaluation."""

    __slots__ = ("signals", "absmax", "levels", "cols", "period", "start", "n", "k")

    def __init__(self, traces: list[Trace]):
        ref = traces[0]
        self.period = ref.period
        self.start = ref.start_time
        self.n = ref.n_samples
        self.k = len(traces)
        self.signals = {
            name: np.stack([tr.values(name) for tr in traces])
            for name in ref.signal_names
        }
        # largest |value| per signal, so that atoms clip only when they can reach BIG
        self.absmax = {name: float(max(v.max(), -v.min())) for name, v in self.signals.items()}
        # (signal, largest) -> doubling table of that raw signal, built as deep as asked
        self.levels: dict[tuple[str, bool], list[np.ndarray]] = {}
        # signal -> time-major (samples x traces) copy of it, built when first asked for
        self.cols: dict[str, np.ndarray] = {}

    def time_major(self, sig: str) -> np.ndarray:
        cols = self.cols.get(sig)
        if cols is None:
            cols = self.cols[sig] = np.ascontiguousarray(self.signals[sig].T)
        return cols


def _bound(b: Bound, val: dict[str, float] | None) -> float:
    """Value of a threshold or window end: a Param reads the valuation."""
    if isinstance(b, Const):
        return b.value
    return val[b.name]


def _window(iv: Interval, b: _Batch, val, t: float | None) -> tuple[int, int]:
    """Sample indices (jlo, jhi) of the window t + I, honouring open/closed
    ends and clipped to the grid; the window is empty when jhi < jlo.

    Given a time ``t`` these are absolute indices.  With ``t`` None they are
    offsets: the window at grid index q is q+jlo .. q+jhi.
    """
    t0 = 0.0 if t is None else t - b.start
    qlo = (t0 + _bound(iv.lo, val)) / b.period
    qhi = (t0 + _bound(iv.hi, val)) / b.period
    if iv.lo_closed:
        jlo = math.ceil(qlo - _EPS)
    else:
        jlo = math.floor(qlo + _EPS) + 1
    if iv.hi_closed:
        jhi = math.floor(qhi + _EPS)
    else:
        jhi = math.ceil(qhi - _EPS) - 1
    return max(jlo, 0), min(jhi, b.n - 1)


def _double(src: np.ndarray, h: int, op, dst: np.ndarray) -> np.ndarray:
    """The next level of a doubling table with spans of h samples: into dst,
    column j reduces columns j and j+h of src, or copies column j when j+h is
    past the grid.  Works on the flattened arrays, one contiguous pass, then
    mends the columns that paired with the next row."""
    n, flat = src.shape[1], src.reshape(-1)
    op(flat[:-h], flat[h:], out=dst.reshape(-1)[:-h])
    dst[:, n - h :] = src[:, n - h :]
    return dst


def _window_reduce(
    arr: np.ndarray, jlo: int, jhi: int, largest: bool, fill: float, levels: list | None = None
) -> np.ndarray:
    """Per-index window max (largest=True) or min over [q+jlo, q+jhi] & domain;
    ``fill`` scores the windows that lie wholly past the grid.

    Needs a non-empty window inside the grid: 0 <= jlo <= jhi < samples.
    Level p of the doubling table of ``arr`` holds, at column j, the max (or
    min) of the samples j .. j+2^p-1 that exist.  A window of w samples is
    the max (or min) of two level-floor(log2 w) spans, one starting at its
    first sample and one ending at its last; a window cut off by the end of
    the grid fits in its first span alone.  Without ``levels`` the table is
    built in ``arr`` (or in a contiguous copy of it), which the caller gives
    up, and one new array, and the result takes whichever of the two does not
    hold the last level.
    ``levels`` is a cached table of ``arr`` (``levels[0] is arr``), extended
    here as deep as the window needs.  Both pair the same samples in the same
    order, so they give the same bytes.
    """
    k, n = arr.shape
    w = jhi - jlo + 1
    p = w.bit_length() - 1
    op = np.maximum if largest else np.minimum
    if levels is not None:
        while len(levels) <= p:
            levels.append(_double(levels[-1], 1 << (len(levels) - 1), op, np.empty((k, n))))
        span, out = levels[p], np.empty((k, n))
    else:  # ping-pong between arr and one new array; the one not holding level p is out
        span, out = np.ascontiguousarray(arr), np.empty((k, n))
        for i in range(p):
            span, out = _double(span, 1 << i, op, out), span
    # columns q < c pair two spans; the row-crossing pairs of the flat pass
    # land in columns c.. of out, which the first span and fill overwrite
    c, jmid = n - 1 - jhi + (1 << p), jhi + 1 - (1 << p)
    size = (k - 1) * n + c
    flat = span.reshape(-1)
    op(flat[jlo : jlo + size], flat[jmid : jmid + size], out=out.reshape(-1)[:size])
    out[:, c : n - jlo] = span[:, c + jlo :]
    out[:, n - jlo :] = fill
    return out


# below this many traces, accumulating along each trace is the cheaper fold
# (about 2 of 6 us per call at 3 to 9 traces of 51 samples, numpy 2.4)
_FOLD_ACROSS_MIN = 12


def _fold(cols: np.ndarray, largest: bool) -> np.ndarray:
    """Max (largest=True) or min over the rows of a (samples x traces) array,
    folded left to right: ``op(...op(op(row 0, row 1), row 2)..., last row)``.

    Over many traces numpy reduces axis 0 of a C-contiguous copy one row at a
    time, each trace in its own lane.  Over a few it accumulates along each
    trace instead, which numpy cannot reorder (a reduce would split a single
    trace's contiguous run across SIMD accumulators).  Both are the same
    fold, whose order fixes which of tied zeros of opposite sign comes out.
    The result is contiguous, so that ``_rob`` may negate it in place.
    """
    op = np.maximum if largest else np.minimum
    if cols.shape[1] < _FOLD_ACROSS_MIN:
        return op.accumulate(cols, axis=0, out=np.empty(cols.shape))[-1]
    return op.reduce(np.ascontiguousarray(cols), axis=0)


def _until_grid(a1: np.ndarray, a2: np.ndarray, jlo: int, jhi: int) -> np.ndarray:
    """out[q] = max over j in [q+jlo, q+jhi] of min(a2[j], min(a1[q..j-1])).

    Needs 0 <= jlo <= jhi < samples.  The inner min over an empty range
    (j == q) is +BIG, matching the inf over an empty set of sample times.
    Works time-major, so that a shift by d samples is the contiguous slice [d:].
    """
    k, n = a1.shape
    left, right = np.ascontiguousarray(a1.T), np.ascontiguousarray(a2.T)
    out = np.full((n, k), -BIG)  # stays -BIG where the window lies past the grid
    prefix = np.full((n, k), np.inf)  # min of left[q .. q+d-1], starts empty
    cand = np.empty((n, k))
    for d in range(jhi + 1):
        live = n - d  # start times q with q + d still on the grid
        if d >= jlo:
            np.minimum(right[d:], prefix[:live], out=cand[:live])
            np.maximum(out[:live], cand[:live], out=out[:live])
        np.minimum(prefix[:live], left[d:], out=prefix[:live])
    return out.T


def _rob(
    node: Formula, b: _Batch, val: dict[str, float] | None = None, t: float | None = None
) -> np.ndarray:
    """Robustness of node at every sample time, shape (traces, samples), or,
    given a (possibly off-grid) time ``t``, at that time only, shape (traces,).

    Operands of temporal operators are always evaluated on the grid; at a
    time ``t`` the window is then reduced over its own samples only, F and G
    by a left-to-right fold of them (``_fold``).
    Parameters of a template take their values from ``val``.  Every result
    is a fresh array, so a node may overwrite its left child's result.
    """
    shape = (b.k, b.n) if t is None else b.k
    match node:
        case TrueF():
            return np.full(shape, BIG)
        case Atom(sig, op, bound):
            c = _bound(bound, val)
            vals = b.signals[sig]
            if t is not None:  # the sample that holds at t
                idx = math.floor((t - b.start) / b.period + _EPS)
                vals = vals[:, min(max(idx, 0), b.n - 1)]
            out = vals - c if op in (">", ">=") else c - vals
            if b.absmax[sig] + abs(c) > BIG:  # else |out| <= |x| + |c| rounds to <= BIG
                np.clip(out, -BIG, BIG, out=out)
            return out
        case Not(child):
            out = _rob(child, b, val, t)
            return np.negative(out, out=out)
        case And(l, r):
            out = _rob(l, b, val, t)
            return np.minimum(out, _rob(r, b, val, t), out=out)
        case Or(l, r):
            out = _rob(l, b, val, t)
            return np.maximum(out, _rob(r, b, val, t), out=out)
        case Implies(l, r):
            out = _rob(l, b, val, t)
            np.negative(out, out=out)
            return np.maximum(out, _rob(r, b, val, t), out=out)
        case Finally(iv, child) | Globally(iv, child):
            largest = isinstance(node, Finally)
            jlo, jhi = _window(iv, b, val, t)
            if jhi < jlo:
                return np.full(shape, -BIG if largest else BIG)
            arr = _rob(child, b, val)
            if t is None:
                return _window_reduce(arr, jlo, jhi, largest, -BIG if largest else BIG)
            return _fold(arr.T[jlo : jhi + 1], largest)
        case Until(iv, l, r):
            jlo, jhi = _window(iv, b, val, t)
            if jhi < jlo:
                return np.full(shape, -BIG)
            left, right = _rob(l, b, val), _rob(r, b, val)
            if t is None:
                return _until_grid(left, right, jlo, jhi)
            k_t = max(math.ceil((t - b.start) / b.period - _EPS), 0)
            start = min(k_t, jlo)
            # inner[:, j - start] = min of left over [start, j-1], +inf when empty
            inner = np.empty((b.k, jhi - start + 1))
            inner[:, 0] = np.inf
            np.minimum.accumulate(left[:, start:jhi], axis=1, out=inner[:, 1:])
            best = np.minimum(right[:, jlo : jhi + 1], inner[:, jlo - start :])
            return best.max(axis=1)
    raise TypeError(f"cannot evaluate {node!r}")


class _Scorer:
    """Robustness at t=0 of one template.  A chain ``(not | F_I | G_I)* (x ~ c)``
    with at least one window is scored from R, the composed window max/min of x
    (see the module docstring), with R and its extreme cached per batch and
    window offsets; any other template by ``_rob``, and ``ops`` is None."""

    def __init__(self, template: Formula):
        self.template, self.ops, self._cache = template, None, {}
        ops, odd, node = [], False, template
        while isinstance(node, (Not, Finally, Globally)):
            if isinstance(node, Not):
                odd = not odd
            else:
                ops.append((node.interval, isinstance(node, Finally), odd))
            node = node.child
        if not ops or not isinstance(node, Atom):
            return
        # a window takes the max of x if it is an F, flipped by each not below
        # it (all nots but those above it) and by a < atom
        less = node.op in ("<", "<=")
        self.ops = [(iv, f ^ odd ^ above ^ less) for iv, f, above in ops]
        self.atom, self.odd = node, odd
        self.rising = (node.op in (">", ">=")) != odd  # robustness rises with R

    def rob(self, b: _Batch, val, smallest: bool = False) -> np.ndarray | float:
        """Robustness at t=0 per trace, bit for bit ``_rob(template, b, val, 0.0)``;
        with ``smallest``, the minimum over the traces as a Python float."""
        if self.ops is None:
            out = _rob(self.template, b, val, 0.0)
            return float(out.min()) if smallest else out
        # the outermost window is reduced at t=0, every inner one on the grid
        wins = tuple(_window(iv, b, val, None if i else 0.0) for i, (iv, _) in enumerate(self.ops))
        entry = self._cache.get((b, wins))
        if entry is None:
            sig, inner = self.atom.signal, len(self.ops) - 1
            r = b.signals[sig]
            for i in reversed(range(len(self.ops))):
                largest, (jlo, jhi) = self.ops[i][1], wins[i]
                if jhi < jlo:
                    r = np.full((b.k, b.n) if i else b.k, -np.inf if largest else np.inf)
                elif i:
                    # the window over the raw signal reads the batch's cached table
                    levels = b.levels.setdefault((sig, largest), [r]) if i == inner else None
                    r = _window_reduce(r, jlo, jhi, largest, -np.inf if largest else np.inf,
                                       levels)
                else:  # the same fold as _rob's, over the batch's copy for the raw signal
                    r = _fold((b.time_major(sig) if i == inner else r.T)[jlo : jhi + 1], largest)
            entry = self._cache[b, wins] = r, float(r.min() if self.rising else r.max())
        r = entry[1] if smallest else entry[0]
        c = _bound(self.atom.bound, val)
        out = r - c if self.atom.op in (">", ">=") else c - r
        out = -out if self.odd else out
        if smallest:  # the clip in floats, equal to np.clip for ±0.0 and ±inf too
            return min(max(out, -BIG), BIG)
        return np.clip(out, -BIG, BIG)


def _check_concrete(phi: Formula) -> None:
    if not is_concrete(phi):
        raise FormulaStructureError(
            "formula still has parameters; instantiate it before monitoring"
        )


def _stack(phi: Formula, traces: list[Trace], t: float) -> list[tuple[list[int], _Batch]]:
    """Check that every trace carries phi's signals and contains t, then stack
    same-shape traces into one batch each; returns (trace indices, batch) pairs.
    Both checks read only the group key, so the first trace of each group
    stands for the rest."""
    groups: dict[tuple, list[int]] = {}
    for i, tr in enumerate(traces):
        key = (tr.signal_names, tr.n_samples, tr.period, tr.start_time)
        if key not in groups:
            missing = signals_of(phi) - set(tr.signal_names)
            if missing:
                raise UnknownSignalError(
                    f"formula uses unknown signal(s): {', '.join(sorted(missing))}"
                )
            if not tr.contains_time(t):
                raise TraceDomainError(
                    f"t={t} outside trace domain [{tr.start_time}, {tr.end_time}]"
                )
            groups[key] = []
        groups[key].append(i)
    return [(idx, _Batch([traces[i] for i in idx])) for idx in groups.values()]


def robustness(phi: Formula, trace: Trace, t: float = 0.0) -> float:
    """Quantitative satisfaction margin of a concrete formula at time t."""
    _check_concrete(phi)
    [(_, batch)] = _stack(phi, [trace], t)
    return float(_rob(phi, batch, t=t)[0])


def satisfies(phi: Formula, trace: Trace, t: float = 0.0) -> bool:
    """Boolean satisfaction; robustness exactly zero counts as a violation."""
    return robustness(phi, trace, t) > 0


def robustness_many(phi: Formula, traces: list[Trace], t: float = 0.0) -> np.ndarray:
    """Robustness of one formula on many traces, grouping same-shape traces so
    each group is evaluated in a single vectorized pass."""
    _check_concrete(phi)
    if not traces:
        return np.empty(0)
    out = np.empty(len(traces))
    for idx, batch in _stack(phi, traces, t):
        out[idx] = _rob(phi, batch, t=t)
    return out
