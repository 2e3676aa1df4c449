"""Search for valuations on the satisfaction boundary of a monotone template.

The working quantity is ``g(v) = min over traces of robustness(template(v))``
at time zero.  Because every parameter has a known polarity, g is monotone
along the oriented diagonal of any axis-aligned box: from the hardest corner
(Increasing parameters low, Decreasing parameters high) to the easiest one.

Boxes live in a FIFO queue, so refinement is breadth-first and early points
cover the boundary coarsely before later ones sharpen it.  For each box whose
diagonal brackets a sign change of g, we bisect the diagonal down to a small
bracket, emit the midpoint as a candidate valuation, split the box at that
point into 2^m sub-boxes, discard the two corner boxes (one entirely
satisfying, one entirely violating), and enqueue the rest unless their
diagonal has shrunk below ``delta`` times the initial box diagonal.

For a template that is one atom under ``not``/``F``/``G``, robustness is
monotone in a window reduction of the raw signal (``monitor._Chain``), so g
scores that reduction's extreme over the traces, cached per batch and window
offsets: a g call on known offsets is one lookup and one subtraction, and
equals what ``_rob`` gives.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InstantiationError, SearchLimitError
from .formula import Formula, Polarity, parameters
from .monitor import _Chain, _rob, _stack, robustness_many
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


@dataclass
class _Box:
    lo: np.ndarray
    hi: np.ndarray

    def diagonal(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

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
    diag_tol : bisection stops when the bracket is this fraction of a diagonal
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
        self._setup(template, space, delta, diag_tol, max_points, keep_log)
        # checked and stacked here once, instead of on every g call
        self._batches = [batch for _, batch in _stack(template, traces, 0.0)]

    @classmethod
    def _from_batches(cls, template, space, batches, *, delta, diag_tol, max_points):
        """A query over label-1 traces already checked and stacked by the caller."""
        query = cls.__new__(cls)
        query._setup(template, space, delta, diag_tol, max_points, keep_log=False)
        query._batches = batches
        return query

    def _setup(self, template, space, delta, diag_tol, max_points, keep_log):
        if not (0 < delta < 1):
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if not (0 < diag_tol < delta):
            raise ValueError(f"need 0 < diag_tol < delta, got diag_tol={diag_tol} delta={delta}")
        self.template = template
        self.space = space
        self.delta = delta
        self.diag_tol = diag_tol
        self.max_points = max_points
        self.points_emitted = 0
        self.g_evaluations = 0
        self.log = RegionLog() if keep_log else None
        self._chain = _Chain.of(template)
        self._names = space.names
        missing = [name for name in parameters(template) if name not in self._names]
        if missing:
            raise InstantiationError(f"no value for parameter ${missing[0]}")

        lo = space.lows()
        hi = space.highs()
        self._initial_diag = float(np.linalg.norm(hi - lo))
        self._queue: deque[_Box] = deque([_Box(lo, hi)])
        self._boxes_processed = 0
        # per-axis hard side: Increasing parameters are hardest low, Decreasing high
        self._hard_is_high = np.array(
            [p.polarity is Polarity.DECREASING for p in space.params]
        )
        # sub-box index bits of the two corner boxes _split discards
        self._hard_mask = sum(1 << d for d, high in enumerate(self._hard_is_high) if high)
        self._easy_mask = (1 << space.dim) - 1 - self._hard_mask

    # ------------------------------------------------------------------

    def g(self, vector: np.ndarray) -> float:
        """Smallest robustness of the template at this point over the traces."""
        self.g_evaluations += 1
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (len(self._names),):
            raise InstantiationError(
                f"expected a {len(self._names)}-vector, got shape {vec.shape}")
        val = dict(zip(self._names, vec.tolist()))
        if self._chain is not None:
            return min(float(self._chain.rob(b, val, smallest=True)) for b in self._batches)
        return min(float(_rob(self.template, b, val, 0.0).min()) for b in self._batches)

    def _corners(self, box: _Box) -> tuple[np.ndarray, np.ndarray]:
        hard = np.where(self._hard_is_high, box.hi, box.lo)
        easy = np.where(self._hard_is_high, box.lo, box.hi)
        return hard, easy

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
            box = self._queue.popleft()
            hard, easy = self._corners(box)
            if self.g(hard) > 0:
                if self.log is not None:
                    self.log.valid.append(box)
                continue
            if self.g(easy) <= 0:
                if self.log is not None:
                    self.log.invalid.append(box)
                continue
            # g crosses zero along the oriented diagonal: bisect it
            s_lo, s_hi = 0.0, 1.0  # g(hard + s*(easy-hard)): <= 0 at s_lo, > 0 at s_hi
            while s_hi - s_lo > self.diag_tol:
                mid = 0.5 * (s_lo + s_hi)
                if self.g(hard + mid * (easy - hard)) > 0:
                    s_hi = mid
                else:
                    s_lo = mid
            point = np.clip(hard + 0.5 * (s_lo + s_hi) * (easy - hard), box.lo, box.hi)
            self._split(box, point)
            self.points_emitted += 1
            return self.space.to_valuation(point)
        raise StopIteration

    @property
    def exhausted(self) -> bool:
        return not self._queue

    def _split(self, box: _Box, point: np.ndarray) -> None:
        m = self.space.dim
        for mask in range(1 << m):
            sub_lo = box.lo.copy()
            sub_hi = box.hi.copy()
            for d in range(m):
                if mask >> d & 1:
                    sub_lo[d] = point[d]
                else:
                    sub_hi[d] = point[d]
            sub = _Box(sub_lo, sub_hi)
            if mask == self._hard_mask:
                if self.log is not None:
                    self.log.invalid.append(sub)
                continue
            if mask == self._easy_mask:
                if self.log is not None:
                    self.log.valid.append(sub)
                continue
            if sub.diagonal() > self.delta * self._initial_diag:
                self._queue.append(sub)
            elif self.log is not None:
                self.log.below_delta.append(sub)

    def drain_log(self) -> RegionLog:
        """Move any still-queued boxes into the log and return it."""
        if self.log is None:
            raise ValueError("query was created without keep_log")
        self._flush_queue()
        return self.log

    def _flush_queue(self) -> None:
        # keep unvisited boxes visible to the log instead of dropping them
        if self.log is not None:
            self.log.unexplored.extend(self._queue)
        self._queue.clear()
