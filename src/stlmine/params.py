"""Parameter spaces, valuations, and template instantiation.

A valuation is a plain dict mapping parameter names to floats.  A ParamSpace
is the axis-aligned box the boundary search works in: one row per parameter,
ordered by first occurrence on a pre-order walk of the template.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateBoundsError, InstantiationError, UnknownSignalError
from .formula import (
    Atom,
    Bound,
    Const,
    Finally,
    Formula,
    Globally,
    Interval,
    Param,
    Polarity,
    Until,
    infer_polarity,
    interval_error,
    intervals,
    iter_nodes,
    map_bounds,
)
from .traces import Dataset

Valuation = dict[str, float]

# padding applied to per-signal value ranges when deriving threshold bounds
VALUE_PAD_FRACTION = 0.1
# absolute padding for constant signals, whose range is empty
CONSTANT_PAD = 1.0


class ParamKind(Enum):
    VALUE = "value"  # atom threshold
    TIME = "time"  # interval endpoint


@dataclass(frozen=True)
class ParamDef:
    name: str
    kind: ParamKind
    lo: float
    hi: float
    polarity: Polarity


@dataclass
class ParamSpace:
    params: list[ParamDef]

    def __post_init__(self):
        seen = set()
        for p in self.params:
            if p.name in seen:
                raise DegenerateBoundsError(f"duplicate parameter {p.name}")
            seen.add(p.name)
            if not p.lo < p.hi:
                raise DegenerateBoundsError(
                    f"parameter {p.name}: bounds [{p.lo}, {p.hi}] are not a proper interval"
                )
            if not (math.isfinite(p.lo) and math.isfinite(p.hi)):
                raise DegenerateBoundsError(
                    f"parameter {p.name}: bounds [{p.lo}, {p.hi}] are not finite"
                )
            if p.kind is ParamKind.TIME and p.lo < 0:
                raise DegenerateBoundsError(
                    f"time parameter {p.name} has negative lower bound {p.lo}"
                )

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.params]

    @property
    def dim(self) -> int:
        return len(self.params)

    def lows(self) -> np.ndarray:
        return np.array([p.lo for p in self.params])

    def highs(self) -> np.ndarray:
        return np.array([p.hi for p in self.params])

    def to_valuation(self, vector) -> Valuation:
        vec = np.asarray(vector, dtype=float)
        if vec.shape != (self.dim,):
            raise InstantiationError(f"expected a {self.dim}-vector, got shape {vec.shape}")
        return {p.name: float(v) for p, v in zip(self.params, vec)}

    def contains(self, valuation: Valuation) -> bool:
        try:
            return all(p.lo <= valuation[p.name] <= p.hi for p in self.params)
        except KeyError:
            return False


def _subst_bound(b: Bound, valuation: Valuation) -> Const:
    if isinstance(b, Const):
        return b
    try:
        return Const(float(valuation[b.name]))
    except KeyError:
        raise InstantiationError(f"no value for parameter ${b.name}") from None


def instantiate(template: Formula, valuation: Valuation, *, validate: bool = True) -> Formula:
    """Substitute parameter values, returning a concrete formula.

    With validation on (the default) a window that ``formula.interval_error``
    rejects after substitution is an error.  Internal callers that walk
    monotone parameter boxes disable validation and rely on the evaluator's
    empty-window semantics instead.
    """
    if validate and (error := _window_error(template, valuation)):
        raise InstantiationError(error)
    return map_bounds(template, lambda b: _subst_bound(b, valuation))


def _window_error(formula: Formula, valuation: Valuation) -> str | None:
    """Why a window of the formula is ill-formed under the valuation, else None."""
    for iv in intervals(formula):
        lo = _subst_bound(iv.lo, valuation)
        hi = _subst_bound(iv.hi, valuation)
        if error := interval_error(Interval(lo, hi, iv.lo_closed, iv.hi_closed)):
            return error
    return None


def signal_ranges(ds: Dataset) -> dict[str, tuple[float, float]]:
    """(min, max) of each signal over all traces of the dataset."""
    return dict(ds.signal_ranges)


def default_bounds(template: Formula, ds: Dataset) -> ParamSpace:
    """Build the search box for a template from dataset statistics.

    Value parameters get the observed range of their atom's signal, padded by
    10% of that range on both sides (constant signals are padded by 1.0
    absolute).  Time parameters span [0, shortest trace duration].  Every
    atom's signal must be one of the dataset's.
    """
    polarity = infer_polarity(template)
    ranges = signal_ranges(ds)
    defs: dict[str, ParamDef] = {}
    for node in iter_nodes(template):
        match node:
            case Atom(sig, _, bound):
                if sig not in ranges:
                    raise UnknownSignalError(f"dataset has no signal {sig!r}")
                if isinstance(bound, Param) and bound.name not in defs:
                    lo, hi = ranges[sig]
                    pad = VALUE_PAD_FRACTION * (hi - lo) if hi > lo else CONSTANT_PAD
                    defs[bound.name] = ParamDef(
                        bound.name, ParamKind.VALUE, lo - pad, hi + pad, polarity[bound.name]
                    )
            case Finally(iv, _) | Globally(iv, _) | Until(iv, _, _):
                for b in (iv.lo, iv.hi):
                    if isinstance(b, Param) and b.name not in defs:
                        defs[b.name] = ParamDef(
                            b.name, ParamKind.TIME, 0.0, ds.min_duration, polarity[b.name]
                        )
    if ds.min_duration <= 0 and any(p.kind is ParamKind.TIME for p in defs.values()):
        raise DegenerateBoundsError(
            "time parameters need traces with at least two samples"
        )
    return ParamSpace(list(defs.values()))
