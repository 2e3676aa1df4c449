"""Boolean and quantitative evaluation of concrete STL formulas on sampled traces.

Evaluation happens on the sample grid: atoms use piecewise-constant hold, and
temporal operators range over the sample times inside ``t + I`` intersected
with the trace domain.  No interpolation between samples.  A time in the
domain's slack of ``_EPS`` periods past an end is taken to the end sample.

One evaluator computes robustness on a batch of same-shape traces in one of
two modes: at every sample time, or at a single (possibly off-grid) time.
Operands of temporal operators always use the grid mode; the single-time mode
reduces only the one window it needs.  The evaluator is compiled per batch
(``_compile``): one walk of the formula tree gives one closure per node, which
holds what a valuation cannot change (its ufunc, its signal's stacked array,
its window ends resolved to sample indices or parameter positions), and a
call takes the list of parameter values.  ``_rob`` compiles and calls once;
the boundary search's g, the MCR check and fingerprints compile a template
once and call it for every valuation.

The grid mode's window max/min (the sliding-window max/min of Donzé, Ferrère
and Maler, "Efficient Robust Monitoring for STL", CAV 2013) is a doubling
table in numpy (``_window_reduce``): level p holds, at each sample, the max
or min of the 2^p samples from it on (fewer at the end of the grid), built
from level p-1 by one pairwise max or min, and a window of w samples is the
max or min of two overlapping level-floor(log2 w) spans.  A window cut off by
the end of the grid reduces the samples that exist.  A window builds the
levels of each fresh child array in that array and its output array; a
batch caches the levels of each raw signal, per direction, as deep as a
window has asked, and a chain (below) reads its window over the raw signal
from them.  Both pair the same samples in the same order, so they give the
same bytes.

A batch stacks each signal time-major, one C-contiguous (samples x traces)
array, and every grid result has that shape, so a shift along time is a
slice of rows.  The single-time mode's F, G and U fold their window's rows
left to right (``_fold``), so numpy takes one pairwise max or min per sample
across all traces at once instead of reducing each trace on its own (a batch
of a few traces accumulates along each trace, the same fold).  A chain's
window at t=0 folds the same samples in the same order.

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

``_Scorer`` answers what a fit asks at t=0: g and the MCR count (fingerprints
call the compiled template).  It scores a template ``(not | F_I | G_I)*
(x ~ c)`` through its threshold, and any other by its compiled closure, one
per batch, built once per fit and shared by g and the MCR check.  With the
negations pushed down to the atom, each window takes the max or the min of
the raw signal x, and robustness is ``x - c`` or ``c - x`` of that composed
reduction R, negated once per ``not`` and clipped to [-BIG, BIG].  Rounding
a difference, negation and the clip are monotone, so they commute with max
and min bit for bit, the sign of zero included.  Where ``_rob`` writes ±BIG,
R holds the reduction's identity ±inf, which the clip turns into the same
±BIG.  R depends on a valuation only through the window offsets, so it is
computed once for many thresholds.  A lone window that starts at a constant
starts at one sample per batch under every valuation, and the scorer keeps
its R as a prefix table per batch, built whole when the batch is first
scored: row i folds the window's first i + 1 samples as ``_fold`` does, so
one table serves every window length, and each row keeps its extreme over
the traces.  Any
other chain folds its outermost window as ``_rob`` does, over the inner
windows' R on the grid, which it builds afresh for each set of inner offsets
(the window over the raw signal reads the batch's doubling table), and keeps
each window's extreme as a float.  So a fit keeps a (samples x traces) array
only for a lone window from a constant, one per batch.  The MCR check compares
R with the threshold directly: robustness is > 0 exactly where R lies on the
satisfying side of c.

The boundary search calls ``_Scorer.g``, a function of the parameter list
built once per fit.  For a chain it resolves every window end to a constant's
sample index or a parameter's position when it is built, as ``_compile``
does, and a call reads one extreme per batch and subtracts and clips in
Python floats.  For any other template a call runs the compiled closures.
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
from .traces import _EPS, Trace

BIG = 1e9


class _Batch:
    """Several same-shape traces stacked for vectorized evaluation: each
    signal is one C-contiguous (samples x traces) array."""

    __slots__ = ("signals", "absmax", "levels", "period", "start", "n", "k")

    def __init__(self, traces: list[Trace]):
        ref = traces[0]
        self.period = ref.period
        self.start = ref.start_time
        self.n = ref.n_samples
        self.k = len(traces)
        self.signals = {
            name: np.array([tr.values(name) for tr in traces]).T.copy()
            for name in ref.signal_names
        }
        # largest |value| per signal, so that atoms clip only when they can reach BIG
        self.absmax = {name: float(max(v.max(), -v.min())) for name, v in self.signals.items()}
        # (signal, largest) -> doubling table of that raw signal, built as deep as asked
        self.levels: dict[tuple[str, bool], list[np.ndarray]] = {}


def _bound(b: Bound, val: dict[str, float] | None) -> float:
    """Value of a threshold or window end: a Param reads the valuation."""
    if isinstance(b, Const):
        return b.value
    return val[b.name]


def _end(x: float, t0: float, period: float, closed: bool, lower: bool, n: int) -> int:
    """Sample index of the window end at time t0 + x on a grid of n samples:
    the first sample at or after a lower end (after it, if open), or the last
    at or before an upper end (before it, if open), clipped to the grid.
    ``q`` is clamped to [-1, n] first, which moves no end inside the grid, so
    that an end far past it stays finite."""
    q = (t0 + x) / period
    q = -1.0 if q < -1.0 else n if q > n else q
    if lower:
        j = math.ceil(q - _EPS) if closed else math.floor(q + _EPS) + 1
        return j if j > 0 else 0
    j = math.floor(q + _EPS) if closed else math.ceil(q - _EPS) - 1
    return j if j < n else n - 1


def _offset(t: float, b: _Batch) -> float:
    """``t - b.start`` taken into [0, (n - 1) * period]: an atom at a time in
    the domain's slack reads the end sample, and its windows start there."""
    d, last = t - b.start, (b.n - 1) * b.period
    return 0.0 if d < 0.0 else last if d > last else d


def _window(iv: Interval, b: _Batch, val, t: float | None) -> tuple[int, int]:
    """Sample indices (jlo, jhi) of the window t + I, honouring open/closed
    ends and clipped to the grid; the window is empty when jhi < jlo.

    Given a time ``t`` these are absolute indices.  With ``t`` None they are
    offsets: the window at grid index q is q+jlo .. q+jhi.
    """
    t0 = 0.0 if t is None else _offset(t, b)
    return (_end(_bound(iv.lo, val), t0, b.period, iv.lo_closed, True, b.n),
            _end(_bound(iv.hi, val), t0, b.period, iv.hi_closed, False, b.n))


def _resolve(iv: Interval, b: _Batch, names: list[str], t: float | None) -> list:
    """``_window``'s two ends, resolved once for a parameter list in ``names``
    order: a Const end to its sample index, a Param end to its position in
    the list followed by the other arguments of ``_end``.  ``_at`` reads one."""
    t0 = 0.0 if t is None else _offset(t, b)
    ends = []
    for bound, closed, lower in ((iv.lo, iv.lo_closed, True), (iv.hi, iv.hi_closed, False)):
        args = (t0, b.period, closed, lower, b.n)
        ends.append(_end(bound.value, *args) if isinstance(bound, Const)
                    else (names.index(bound.name), *args))
    return ends


def _at(e, v) -> int:
    """The sample index of an end resolved by ``_resolve``, under the values v."""
    return e if e.__class__ is int else _end(v[e[0]], e[1], e[2], e[3], e[4], e[5])


def _double(src: np.ndarray, h: int, op, dst: np.ndarray) -> np.ndarray:
    """The next level of a doubling table with spans of h samples: into dst,
    row j reduces rows j and j+h of src, or copies row j when j+h is past
    the grid."""
    op(src[:-h], src[h:], out=dst[:-h])
    dst[-h:] = src[-h:]
    return dst


def _window_reduce(
    arr: np.ndarray, jlo: int, jhi: int, largest: bool, fill: float, levels: list | None = None
) -> np.ndarray:
    """Per-index window max (largest=True) or min over [q+jlo, q+jhi] & domain;
    ``fill`` scores the windows that lie wholly past the grid.

    Needs a non-empty window inside the grid: 0 <= jlo <= jhi < samples.
    Level p of the doubling table of ``arr`` holds, at row j, the max (or
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
    n, k = arr.shape
    w = jhi - jlo + 1
    p = w.bit_length() - 1
    op = np.maximum if largest else np.minimum
    if levels is not None:
        while len(levels) <= p:
            levels.append(_double(levels[-1], 1 << (len(levels) - 1), op, np.empty((n, k))))
        span, out = levels[p], np.empty((n, k))
    else:  # ping-pong between arr and one new array; the one not holding level p is out
        span, out = np.ascontiguousarray(arr), np.empty((n, k))
        for i in range(p):
            span, out = _double(span, 1 << i, op, out), span
    # rows q < c pair two spans; the window at a later row fits in its first span
    c, jmid = n - 1 - jhi + (1 << p), jhi + 1 - (1 << p)
    op(span[jlo : jlo + c], span[jmid : jmid + c], out=out[:c])
    out[c : n - jlo] = span[c + jlo :]
    out[n - jlo :] = fill
    return out


# below this many traces, accumulating along each trace is the cheaper fold
# (about 2 of 6 us per call at 3 to 9 traces of 51 samples, numpy 2.4)
_FOLD_ACROSS_MIN = 12


# from this many traces up, a prefix table is cheaper built a row at a time
# than by accumulating along each trace: about 1 us per row against 6 ns per
# value, crossing near 128 traces at 51 to 1,001 samples (numpy 2.4)
_ROWS_ACROSS_MIN = 128


def _fold(cols: np.ndarray, largest: bool) -> np.ndarray:
    """Max (largest=True) or min over the rows of a (samples x traces) array,
    folded left to right: ``op(...op(op(row 0, row 1), row 2)..., last row)``.

    Over many traces numpy reduces axis 0 of the array (of a C-contiguous
    copy, if it is not one) one row at a time, each trace in its own lane.
    Over a few it accumulates along each trace instead, which numpy cannot
    reorder (a reduce would split a single trace's contiguous run across SIMD
    accumulators).  Both are the same fold, whose order fixes which of tied
    zeros of opposite sign comes out.  The result is contiguous, so that
    ``_rob`` may negate it in place.
    """
    op = np.maximum if largest else np.minimum
    if cols.shape[1] < _FOLD_ACROSS_MIN:
        return op.accumulate(cols, axis=0, out=np.empty(cols.shape))[-1]
    return op.reduce(np.ascontiguousarray(cols), axis=0)


def _until_grid(left: np.ndarray, right: np.ndarray, jlo: int, jhi: int) -> np.ndarray:
    """out[q] = max over j in [q+jlo, q+jhi] of min(right[j], min(left[q..j-1])).

    Needs 0 <= jlo <= jhi < samples.  The inner min over an empty range
    (j == q) is +BIG, matching the inf over an empty set of sample times.
    A shift by d samples is the contiguous slice of rows [d:].
    """
    n, k = left.shape
    out = np.full((n, k), -BIG)  # stays -BIG where the window lies past the grid
    prefix = np.full((n, k), np.inf)  # min of left[q .. q+d-1], starts empty
    cand = np.empty((n, k))
    for d in range(jhi + 1):
        live = n - d  # start times q with q + d still on the grid
        if d >= jlo:
            np.minimum(right[d:], prefix[:live], out=cand[:live])
            np.maximum(out[:live], cand[:live], out=out[:live])
        np.minimum(prefix[:live], left[d:], out=prefix[:live])
    return out


def _compile(node: Formula, b: _Batch, names: list[str], t: float | None = None):
    """Robustness of node on batch b, compiled: the function of a list v of
    parameter values, in ``names`` order, that gives robustness at every
    sample time, shape (samples, traces), or, given a (possibly off-grid)
    time ``t``, at that time only, shape (traces,).

    Each node becomes one closure that holds its ufunc, its signal's stacked
    array (an atom at ``t`` reads the row that holds then), its clip decision
    where the threshold is a constant, its window ends resolved by
    ``_resolve`` and, for Until at ``t``, the sample k_t of ``t``.  Operands
    of temporal operators are always evaluated on the grid; at a time ``t``
    the window is then reduced over its own samples only, by a left-to-right
    fold of them (``_fold``).  Every call returns a fresh C-contiguous array
    and keeps nothing, so a node may overwrite its left child's result.
    """
    shape = (b.n, b.k) if t is None else b.k
    match node:
        case TrueF():
            return lambda v: np.full(shape, BIG)
        case Atom(sig, op, bound):
            x, m, gt = b.signals[sig], b.absmax[sig], op in (">", ">=")
            if t is not None:  # the sample that holds at t
                x = x[math.floor(_offset(t, b) / b.period + _EPS)]
            i = None if isinstance(bound, Const) else names.index(bound.name)
            if i is None and m + abs(bound.value) <= BIG:  # the clip cannot bite
                c = bound.value
                return (lambda v: x - c) if gt else (lambda v: c - x)

            def atom(v):
                c = bound.value if i is None else v[i]
                out = x - c if gt else c - x
                if m + abs(c) > BIG:  # else |out| <= |x| + |c| rounds to <= BIG
                    np.clip(out, -BIG, BIG, out=out)
                return out
            return atom
        case Not(child):
            f = _compile(child, b, names, t)

            def negate(v):
                out = f(v)
                return np.negative(out, out=out)
            return negate
        case And(l, r) | Or(l, r) | Implies(l, r):
            fl, fr = _compile(l, b, names, t), _compile(r, b, names, t)
            op = np.minimum if isinstance(node, And) else np.maximum
            flip = isinstance(node, Implies)

            def combine(v):
                out = fl(v)
                if flip:
                    np.negative(out, out=out)
                return op(out, fr(v), out=out)
            return combine
        case Finally(iv, child) | Globally(iv, child):
            largest = isinstance(node, Finally)
            fill = -BIG if largest else BIG
            lo, hi = _resolve(iv, b, names, t)
            f = _compile(child, b, names)

            def window(v):
                jlo, jhi = _at(lo, v), _at(hi, v)
                if jhi < jlo:
                    return np.full(shape, fill)
                if t is None:
                    return _window_reduce(f(v), jlo, jhi, largest, fill)
                return _fold(f(v)[jlo : jhi + 1], largest)
            return window
        case Until(iv, l, r):
            lo, hi = _resolve(iv, b, names, t)
            fl, fr = _compile(l, b, names), _compile(r, b, names)
            k_t = None if t is None else _end(0.0, _offset(t, b), b.period, True, True, b.n)

            def until(v):
                jlo, jhi = _at(lo, v), _at(hi, v)
                if jhi < jlo:
                    return np.full(shape, -BIG)
                left, right = fl(v), fr(v)
                if t is None:
                    return _until_grid(left, right, jlo, jhi)
                start = min(k_t, jlo)
                # inner[j - start] = min of left over [start, j-1], +inf when empty
                inner = np.empty((jhi - start + 1, b.k))
                inner[0] = np.inf
                np.minimum.accumulate(left[start:jhi], axis=0, out=inner[1:])
                best = np.minimum(right[jlo : jhi + 1], inner[jlo - start :])
                return _fold(best, True)
            return until
    raise TypeError(f"cannot evaluate {node!r}")


def _rob(
    node: Formula, b: _Batch, val: dict[str, float] | None = None, t: float | None = None
) -> np.ndarray:
    """Robustness of node at every sample time, shape (samples, traces), or,
    given a (possibly off-grid) time ``t``, at that time only, shape (traces,),
    its parameters taking their values from ``val``: ``_compile``'s closure,
    built and called once.  Every result is a fresh C-contiguous array."""
    return _compile(node, b, list(val or ()), t)(list((val or {}).values()))


class _Scorer:
    """A template's minimum robustness over the traces at t=0 (``g``) and its
    count above zero (``positive``).  A chain ``(not | F_I | G_I)* (x ~ c)``
    with at least one window is scored from R, the composed window max/min of
    x (see the module docstring); any other template, whose ``ops`` is None,
    by ``_compile``'s closure at t=0, compiled once per batch: g compiles the
    batches it scores, and ``positive`` reuses that closure or compiles one on
    first use.

    A lone window that starts at a constant reads R from a prefix table per
    batch, built whole on first use.  Any other chain folds its outermost
    window over the grid R of the inner ones, built afresh when needed, and
    remembers only the extreme of R as a float.  So a fit holds a (samples x
    traces) array only for a tabled chain, one per batch."""

    def __init__(self, template: Formula):
        self.template, self.ops = template, None
        # batch -> (prefix table rows, row extremes), see _table
        self._tables: dict[_Batch, tuple] = {}
        # (batch, jlo, jhi, inner window offsets) -> the extreme of R, if not tabled
        self._memo: dict[tuple, float] = {}
        # batch -> (parameter names, the template compiled at t=0), if not a chain
        self._compiled: dict[_Batch, tuple] = {}
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
        # R where the outermost window is empty: the identity of its reduction
        self._empty = -math.inf if self.ops[0][1] else math.inf
        # a lone window from a constant starts at one sample per batch under
        # every valuation, so one prefix table per batch serves it
        self.tabled = len(self.ops) == 1 and isinstance(self.ops[0][0].lo, Const)

    def _reduce(self, b: _Batch, jlo: int, jhi: int, inner: tuple) -> np.ndarray:
        """R per trace, the outermost window at t=0 being [jlo, jhi], non-empty,
        and the inner ones at the offsets ``inner`` (jlo, jhi, jlo, jhi, ...,
        outermost first): ``_rob``'s fold over the inner windows' R on the grid."""
        sig = self.atom.signal
        r, last = b.signals[sig], len(self.ops) - 1
        for i in reversed(range(1, len(self.ops))):
            largest, ilo, ihi = self.ops[i][1], inner[2 * i - 2], inner[2 * i - 1]
            fill = -np.inf if largest else np.inf
            if ihi < ilo:
                r = np.full((b.n, b.k), fill)
            else:
                # the window over the raw signal reads the batch's cached table
                levels = b.levels.setdefault((sig, largest), [r]) if i == last else None
                r = _window_reduce(r, ilo, ihi, largest, fill, levels)
        return _fold(r[jlo : jhi + 1], self.ops[0][1])

    def _table(self, b: _Batch, jlo: int) -> tuple[np.ndarray, list]:
        """The prefix table of a lone window from sample jlo at t=0, built whole
        on the first call for a batch: row i holds the window's R over
        [jlo, jlo + i] per trace, and the list each row's extreme over the
        traces (the one that scores lowest).  Row i is ``op(row i - 1, x at
        jlo + i)``, the left fold ``_fold`` computes, built along each trace
        over a few traces and a row at a time over many."""
        table = self._tables.get(b)
        if table is None:
            cols = b.signals[self.atom.signal][jlo:]
            op = np.maximum if self.ops[0][1] else np.minimum
            if b.k < _ROWS_ACROSS_MIN:  # accumulate along each trace
                acc = op.accumulate(cols, axis=0)
            else:  # fold across the traces, one row at a time
                acc = np.empty(cols.shape)
                acc[0] = cols[0]
                prev = acc[0]
                for row, out in zip(cols[1:], acc[1:]):
                    prev = op(prev, row, out=out)
            ext = (acc.min(axis=1) if self.rising else acc.max(axis=1)).tolist()
            table = self._tables[b] = acc, ext
        return table

    def _extreme(self, b: _Batch, jlo: int, jhi: int, inner: tuple) -> float:
        """The extreme over the traces of R, the outermost window at t=0 being
        [jlo, jhi] and the inner ones at the offsets ``inner``."""
        m = jhi - jlo
        if m < 0:
            return self._empty
        if self.tabled:
            return self._table(b, jlo)[1][m]
        key = (b, jlo, jhi, inner)
        x = self._memo.get(key)
        if x is None:
            r = self._reduce(b, jlo, jhi, inner)
            x = self._memo[key] = float(r.min() if self.rising else r.max())
        return x

    def positive(self, b: _Batch, val) -> int:
        """How many traces have robustness > 0 at t=0.  A chain compares R with
        the threshold: their difference is > 0 exactly where R is the larger,
        and negation flips, and the clip keeps, its sign."""
        if self.ops is None:
            names, f = self._compiled.get(b) or self._compile_on(b, list(val or ()))
            return np.count_nonzero(f([val[name] for name in names]) > 0)
        jlo, jhi = _window(self.ops[0][0], b, val, 0.0)
        if jhi < jlo:
            r = np.full(b.k, self._empty)
        elif self.tabled:
            r = self._table(b, jlo)[0][jhi - jlo]
        else:
            inner = tuple(j for iv, _ in self.ops[1:] for j in _window(iv, b, val, None))
            r = self._reduce(b, jlo, jhi, inner)
        c = _bound(self.atom.bound, val)
        return np.count_nonzero(r > c if self.rising else r < c)

    def _compile_on(self, b: _Batch, names: list[str]) -> tuple:
        """The template, not a chain, compiled at t=0 on batch b for a
        parameter list in ``names`` order, kept per batch with the names."""
        entry = self._compiled[b] = names, _compile(self.template, b, names, 0.0)
        return entry

    def g(self, batches: list[_Batch], names: list[str]):
        """The function of a list v of parameter values that gives, as a Python
        float, ``min(float(_rob(template, b, dict(zip(names, v)), 0.0).min())
        for b in batches)``.

        Any template but a chain is compiled here, once per batch, and a call
        runs the compiled closures.  A chain resolves each window end here,
        once, by ``_resolve``, and scores a call from one extreme of R per
        batch.  Robustness is monotone in R, so the lowest-scoring extreme
        over the batches gives the minimum; it is clipped in floats, as
        np.clip would.
        """
        if self.ops is None:
            fs = [self._compile_on(b, names)[1] for b in batches]
            least = np.minimum.reduce  # what ndarray.min runs, without its wrapper
            return lambda v: min([float(least(f(v), axis=None)) for f in fs])

        plans = []
        for b in batches:
            ends = [e for w, (iv, _) in enumerate(self.ops)
                    for e in _resolve(iv, b, names, 0.0 if w == 0 else None)]
            plans.append((b, ends[0], ends[1], ends[2:]))
        c = self.atom.bound
        ci, cv = (None, c.value) if isinstance(c, Const) else (names.index(c.name), None)
        gt, odd, rising, extreme = self.atom.op in (">", ">="), self.odd, self.rising, self._extreme

        def g(v):
            r = None
            for b, lo, hi, inner in plans:
                offsets = tuple([_at(e, v) for e in inner]) if inner else ()
                x = extreme(b, _at(lo, v), _at(hi, v), offsets)
                if r is None or (x < r if rising else x > r):
                    r = x
            c = cv if ci is None else v[ci]
            out = r - c if gt else c - r
            if odd:
                out = -out
            return -BIG if out < -BIG else BIG if out > BIG else out
        return g


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
