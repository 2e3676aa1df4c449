"""Search for valuations on the satisfaction boundary of a monotone template.

The working quantity is ``g(v) = min over traces of robustness(template(v))``
at time zero.  Because every parameter has a known polarity, g is monotone
along the oriented diagonal of any axis-aligned box: from the hardest corner
(Increasing parameters low, Decreasing parameters high) to the easiest one.

Boxes live in a FIFO queue, so refinement is breadth-first and early points
cover the boundary coarsely before later ones sharpen it.  For each box whose
diagonal brackets a sign change of g, we narrow the crossing down to one step
of a dyadic grid, emit the step's midpoint as a candidate valuation, split
the box at that point into 2^m sub-boxes, discard the two corner boxes (one
entirely satisfying, one entirely violating), and enqueue the rest unless
their diagonal has shrunk below ``delta`` times the initial box diagonal.

The grid is what bisection would probe: ``N = 2^L`` steps along the diagonal,
where L is the number of halvings of [0, 1] that leave a bracket of at most
``diag_tol``, and grid point i is ``hard + (i/N) * (easy - hard)``, an exact
dyadic fraction.  The search (``_bracket``) starts from the two corner values
already known and alternates a clamped secant guess with a halving, keeping
g <= 0 at its lower end and g > 0 at its upper one.  The rounding of
``hard + s * d`` is monotone in s, so g is monotone on the grid points too,
and exactly one step has g <= 0 at its start and g > 0 at its end: any
search that keeps that invariant ends where bisection ends, and the emitted
points are bit-identical to bisection's.  A secant is taken only while the
bracket is at most twice what halvings alone would have left, so a crossing
box costs at most L + 2 probes besides its corners, against L for bisection;
on smooth g the secant needs far fewer.

g is ``monitor._Scorer.g``, compiled once per query.  For a template that is
one atom under ``not``/``F``/``G``, robustness is monotone in a window
reduction of the raw signal, so g scores that reduction's extreme over the
traces, kept per batch and window offsets: a g call on known offsets is one
lookup and one subtraction.  Any other template is compiled once per batch
into one closure per formula node (``monitor._compile``), so a g call runs
the numpy operations without walking the formula tree.

The search runs on Python floats.  Boxes are (lo, hi) lists, and a probe
``h + i / n * d`` does numpy's operations on the vectors, in the same order,
so every point is the one the vector code gives.  A split keeps its norm in
numpy: the dot product behind ``np.linalg.norm`` may fuse multiply-adds, so a
sum of squares in Python could differ in the last bit.  ``_Box`` objects are
built only for the ``RegionLog``.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InstantiationError, SearchLimitError
from .formula import Formula, Polarity, parameters
from .monitor import _Scorer, _stack, robustness_many
from .params import ParamSpace, Valuation, instantiate
from .traces import Trace

# absolute guard against runaway subdivision; normal runs stay far below this
HARD_BOX_CAP = 1_000_000


def min_robustness(template: Formula, valuation: Valuation, traces: list[Trace]) -> float:
    """Smallest robustness of the instantiated template over the traces at t=0."""
    if not traces:
        raise ValueError("min_robustness needs at least one trace")
    phi = instantiate(template, valuation, validate=False)
    return float(robustness_many(phi, traces).min())


def _bracket(g_at, n: int, g_lo: float, g_hi: float) -> int:
    """The a with g_at(a) <= 0 < g_at(a + 1) for a g_at monotone on 0..n, given
    g_lo = g_at(0) <= 0 < g_hi = g_at(n) and n a power of two.

    Probes alternate a clamped secant guess with a halving.  A secant is taken
    only while the bracket is at most twice what the halvings alone would have
    left, so at most log2(n) + 2 points are probed.
    """
    a, b, step = 0, n, 0
    while b - a > 1:
        if step % 2 == 0 and (b - a) << max(step - 1, 0) <= n:
            i = min(max(a + round((b - a) * -g_lo / (g_hi - g_lo)), a + 1), b - 1)
        else:
            i = (a + b) // 2
        g_i = g_at(i)
        if g_i > 0:
            b, g_hi = i, g_i
        else:
            a, g_lo = i, g_i
        step += 1
    return a


@dataclass
class _Box:
    lo: np.ndarray
    hi: np.ndarray

    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))


@dataclass
class RegionLog:
    """Optional bookkeeping of how the initial box was carved up."""

    valid: list[_Box] = field(default_factory=list)
    invalid: list[_Box] = field(default_factory=list)
    below_delta: list[_Box] = field(default_factory=list)
    unexplored: list[_Box] = field(default_factory=list)


class BoundaryQuery:
    """Iterator over candidate boundary valuations for one template.

    Parameters
    ----------
    template : parametric formula with per-occurrence parameters
    space : parameter box with polarities, axes in template pre-order
    traces : the traces the classifier must (marginally) satisfy
    delta : boxes below this fraction of the initial diagonal are dropped
    diag_tol : the crossing is located to within this fraction of a diagonal,
        on the grid of 2^L steps that L halvings reach (see the module docstring)
    max_points : optional budget; the query reports exhaustion once reached
    """

    def __init__(
        self,
        template: Formula,
        space: ParamSpace,
        traces: list[Trace],
        *,
        delta: float = 0.01,
        diag_tol: float = 1e-3,
        max_points: int | None = None,
        keep_log: bool = False,
    ):
        if not traces:
            raise ValueError("boundary search needs at least one trace")
        scorer = _Scorer(template)
        self._setup(scorer, space, delta, diag_tol, max_points, keep_log)
        # checked and stacked here once, instead of on every g call
        self._g_at = scorer.g([batch for _, batch in _stack(template, traces, 0.0)], self._names)

    @classmethod
    def _from_batches(cls, scorer, space, batches, *, delta, diag_tol, max_points):
        """A query over label-1 traces already checked and stacked by the caller."""
        query = cls.__new__(cls)
        query._setup(scorer, space, delta, diag_tol, max_points, keep_log=False)
        query._g_at = scorer.g(batches, query._names)
        return query

    def _setup(self, scorer, space, delta, diag_tol, max_points, keep_log):
        if not (0 < delta < 1):
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if not (0 < diag_tol < delta):
            raise ValueError(f"need 0 < diag_tol < delta, got diag_tol={diag_tol} delta={delta}")
        self.template = scorer.template
        self.delta = delta
        self.max_points = max_points
        self.points_emitted = 0
        self.g_evaluations = 0
        self.log = RegionLog() if keep_log else None
        self._names = space.names
        missing = [name for name in parameters(self.template) if name not in self._names]
        if missing:
            raise InstantiationError(f"no value for parameter ${missing[0]}")

        lo = space.lows()
        hi = space.highs()
        self._initial_diag = float(np.linalg.norm(hi - lo))
        # boxes as (lo, hi) lists of floats
        self._queue: deque[tuple[list[float], list[float]]] = deque([(lo.tolist(), hi.tolist())])
        self._boxes_processed = 0
        # per-axis hard side: Increasing parameters are hardest low, Decreasing high
        self._hard_is_high = [p.polarity is Polarity.DECREASING for p in space.params]
        # sub-box index bits of the two corner boxes _split discards
        self._hard_mask = sum(1 << d for d, high in enumerate(self._hard_is_high) if high)
        self._easy_mask = (1 << space.dim) - 1 - self._hard_mask
        # row i, column d: d, or d + dim where bit d of i is set, i.e. where
        # sub-box i lies above the split point on axis d
        axes = np.arange(space.dim)
        self._pick = axes + space.dim * (np.arange(1 << space.dim)[:, None] >> axes & 1)
        # the grid 2^L of the crossing search: L halvings of [0, 1] reach diag_tol
        self._grid = 1
        while 1 / self._grid > diag_tol:
            self._grid *= 2

    # ------------------------------------------------------------------

    def g(self, vector: np.ndarray) -> float:
        """Smallest robustness of the template at this point over the traces;
        a vector of the wrong shape or with a NaN or infinite entry raises
        InstantiationError."""
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (len(self._names),):
            raise InstantiationError(
                f"expected a {len(self._names)}-vector, got shape {vec.shape}")
        values = vec.tolist()
        for name, value in zip(self._names, values):
            if not math.isfinite(value):
                raise InstantiationError(f"parameter ${name} must be finite, got {value}")
        return self._g(values)

    def _g(self, values: list[float]) -> float:
        """``g`` without the checks, for the search's own points inside the box."""
        self.g_evaluations += 1
        return self._g_at(values)

    def __iter__(self):
        return self

    def __next__(self) -> Valuation:
        if self.max_points is not None and self.points_emitted >= self.max_points:
            self._flush_queue()
            raise StopIteration
        while self._queue:
            self._boxes_processed += 1
            if self._boxes_processed > HARD_BOX_CAP:
                raise SearchLimitError(
                    f"boundary search exceeded the hard cap of {HARD_BOX_CAP} boxes"
                )
            lo, hi = self._queue.popleft()
            hard = [h if high else l for l, h, high in zip(lo, hi, self._hard_is_high)]
            easy = [l if high else h for l, h, high in zip(lo, hi, self._hard_is_high)]
            g_hard = self._g(hard)
            if g_hard > 0:
                if self.log is not None:
                    self.log.valid.append(_Box(np.array(lo), np.array(hi)))
                continue
            g_easy = self._g(easy)
            if g_easy <= 0:
                if self.log is not None:
                    self.log.invalid.append(_Box(np.array(lo), np.array(hi)))
                continue
            # g crosses zero along the oriented diagonal: bracket the crossing;
            # the float operations, in order, are numpy's on the vectors
            n, diff = self._grid, [e - h for h, e in zip(hard, easy)]
            a = _bracket(lambda i: self._g([h + i / n * d for h, d in zip(hard, diff)]),
                         n, g_hard, g_easy)
            # np.clip(x, l, u) is min(u, max(l, x)) in this argument order, ±0.0 included
            point = [min(u, max(l, h + (a + 0.5) / n * d))
                     for h, d, l, u in zip(hard, diff, lo, hi)]
            self._split(lo, hi, point)
            self.points_emitted += 1
            return dict(zip(self._names, point))
        raise StopIteration

    @property
    def exhausted(self) -> bool:
        return not self._queue

    def _split(self, lo: list[float], hi: list[float], point: list[float]) -> None:
        # sub-box i takes, on each axis d, its bounds from (point, hi) where
        # bit d of i is set and from (lo, point) elsewhere: index _pick[i][d]
        # into lo + point for its lower bounds, point + hi for its upper ones,
        # and below + above for its sides, which are his - los
        below = [p - l for l, p in zip(lo, point)]
        above = [h - p for p, h in zip(point, hi)]
        d = np.array(below + above)[self._pick]
        # the dot kernel of np.linalg.norm on one box, so the same boxes pass;
        # math.sqrt rounds as np.sqrt does
        limit = self.delta * self._initial_diag
        kept = [math.sqrt(s) > limit for s in np.vecdot(d, d).tolist()]
        kept[self._hard_mask] = kept[self._easy_mask] = False
        los, his = lo + point, point + hi
        for keep, pick in zip(kept, self._pick.tolist()):
            if keep:
                self._queue.append((list(map(los.__getitem__, pick)),
                                    list(map(his.__getitem__, pick))))
        if self.log is not None:
            los, his = np.array(los)[self._pick], np.array(his)[self._pick]
            self.log.invalid.append(_Box(los[self._hard_mask], his[self._hard_mask]))
            self.log.valid.append(_Box(los[self._easy_mask], his[self._easy_mask]))
            self.log.below_delta.extend(
                _Box(los[i], his[i]) for i, keep in enumerate(kept)
                if not keep and i not in (self._hard_mask, self._easy_mask))

    def drain_log(self) -> RegionLog:
        """Move any still-queued boxes into the log and return it."""
        if self.log is None:
            raise ValueError("query was created without keep_log")
        self._flush_queue()
        return self.log

    def _flush_queue(self) -> None:
        # keep unvisited boxes visible to the log instead of dropping them
        if self.log is not None:
            self.log.unexplored.extend(_Box(np.array(lo), np.array(hi)) for lo, hi in self._queue)
        self._queue.clear()
