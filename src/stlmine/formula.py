"""STL / parametric STL abstract syntax.

Node types, pretty printing, size, and the syntactic polarity analysis that
classifies every parameter as Increasing or Decreasing with respect to
satisfaction.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum

from .errors import FormulaStructureError

COMPARATORS = ("<", ">", "<=", ">=")

# complementary comparator: not (x < c) has the same robustness as x > c
COMPLEMENT = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise FormulaStructureError(f"constant {self.value} is not a finite number")


@dataclass(frozen=True)
class Param:
    name: str


Bound = Const | Param


@dataclass(frozen=True)
class Interval:
    """Time interval attached to a temporal operator. Ends may be open or closed."""

    lo: Bound
    hi: Bound
    lo_closed: bool = True
    hi_closed: bool = True

    def __str__(self):
        lo = _fmt_bound(self.lo)
        hi = _fmt_bound(self.hi)
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{lo},{hi}{right}"


class Formula:
    """Base class for all formula nodes."""

    __slots__ = ()

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    signal: str
    op: str  # one of COMPARATORS
    bound: Bound

    def __post_init__(self):
        if self.op not in COMPARATORS:
            raise FormulaStructureError(f"bad comparator {self.op!r}")


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Finally(Formula):
    interval: Interval
    child: Formula


@dataclass(frozen=True)
class Globally(Formula):
    interval: Interval
    child: Formula


@dataclass(frozen=True)
class Until(Formula):
    interval: Interval
    left: Formula
    right: Formula


# Each connective's keyword, for the parser, the printer and the enumerator.
# Until is infix with an interval and handled on its own by all three.
TEMPORAL = {"F": Finally, "G": Globally}
# from the loosest binding to the tightest; all associate to the left
BINARY = {"implies": Implies, "or": Or, "and": And}


def children(phi: Formula) -> tuple[Formula, ...]:
    match phi:
        case TrueF() | Atom():
            return ()
        case Not(child) | Finally(_, child) | Globally(_, child):
            return (child,)
        case And(l, r) | Or(l, r) | Implies(l, r) | Until(_, l, r):
            return (l, r)
    raise TypeError(f"not a formula node: {phi!r}")


def iter_nodes(phi: Formula) -> Iterator[Formula]:
    """Every node of the tree in pre-order, the root first."""
    # an explicit stack: nested ``yield from`` costs a generator per level
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        stack += children(node)[::-1]


def map_bounds(phi: Formula, fn: Callable[[Bound], Bound]) -> Formula:
    """The same tree with every threshold and window end ``b`` replaced by ``fn(b)``.

    ``fn`` is called in pre-order, window ends before the operands, which is
    the order ``parameters`` lists them; ``enumeration.freshen`` relies on it.
    """
    match phi:
        case TrueF():
            return phi
        case Atom(sig, op, b):
            return Atom(sig, op, fn(b))
        case Not(c):
            return Not(map_bounds(c, fn))
        case And(l, r) | Or(l, r) | Implies(l, r):
            return type(phi)(map_bounds(l, fn), map_bounds(r, fn))
        case Finally(iv, c) | Globally(iv, c):
            iv = Interval(fn(iv.lo), fn(iv.hi), iv.lo_closed, iv.hi_closed)
            return type(phi)(iv, map_bounds(c, fn))
        case Until(iv, l, r):
            iv = Interval(fn(iv.lo), fn(iv.hi), iv.lo_closed, iv.hi_closed)
            return Until(iv, map_bounds(l, fn), map_bounds(r, fn))
    raise TypeError(f"not a formula node: {phi!r}")


def intervals(phi: Formula) -> Iterator[Interval]:
    """The window of every F, G and U node, in pre-order."""
    for node in iter_nodes(phi):
        if isinstance(node, (Finally, Globally, Until)):
            yield node.interval


def formula_length(phi: Formula) -> int:
    """Node count of the AST. Intervals and comparison bounds are not extra nodes."""
    return sum(1 for _ in iter_nodes(phi))


def _node_bounds(phi: Formula) -> tuple[Bound, ...]:
    """Bounds attached directly to a node, in printed order."""
    match phi:
        case Atom(_, _, b):
            return (b,)
        case Finally(iv, _) | Globally(iv, _) | Until(iv, _, _):
            return (iv.lo, iv.hi)
    return ()


def parameters(phi: Formula) -> list[str]:
    """Parameter names in order of first occurrence on a pre-order walk."""
    return list(dict.fromkeys(
        b.name for node in iter_nodes(phi) for b in _node_bounds(node) if isinstance(b, Param)
    ))


def signals_of(phi: Formula) -> set[str]:
    return {node.signal for node in iter_nodes(phi) if isinstance(node, Atom)}


def is_concrete(phi: Formula) -> bool:
    return not parameters(phi)


def interval_error(iv: Interval) -> str | None:
    """Why the window's concrete ends are ill-formed, else None.

    A well-formed window has 0 <= lo <= hi, and a point window is closed on
    both ends.  An end that is still a parameter is not judged.
    """
    lo = iv.lo.value if isinstance(iv.lo, Const) else None
    hi = iv.hi.value if isinstance(iv.hi, Const) else None
    if lo is not None and lo < 0:
        return f"interval lower bound {lo} is negative"
    if lo is None or hi is None:
        return None
    if hi < lo:
        return f"interval upper bound {hi} below lower bound {lo}"
    if hi == lo and not (iv.lo_closed and iv.hi_closed):
        return "point interval must be closed on both ends"
    return None


def validate_formula(phi: Formula) -> None:
    """Check structural invariants.

    Every parameter id must occur at exactly one position, and every window
    must pass ``interval_error``.
    """
    seen: set[str] = set()
    for node in iter_nodes(phi):
        for b in _node_bounds(node):
            if isinstance(b, Param):
                if b.name in seen:
                    raise FormulaStructureError(
                        f"parameter ${b.name} occurs at more than one position"
                    )
                seen.add(b.name)
    for iv in intervals(phi):
        if error := interval_error(iv):
            raise FormulaStructureError(error)


# ---------------------------------------------------------------------------
# printing

_KEYWORD = {cls: kw for table in (TEMPORAL, BINARY) for kw, cls in table.items()}
_BINDING = {cls: i for i, cls in enumerate(BINARY.values())}


def _binding(phi: Formula) -> int:
    """The node's place in BINARY; negation and primaries bind tighter than all."""
    return _BINDING.get(type(phi), len(BINARY))


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _fmt_bound(b: Bound) -> str:
    if isinstance(b, Param):
        return f"${b.name}"
    return _fmt_num(b.value)


def format_formula(phi: Formula) -> str:
    """Render a formula as text that parses back to a structurally equal AST."""

    def fmt(node: Formula, parens: bool = False) -> str:
        if parens:
            return f"({fmt(node)})"
        match node:
            case TrueF():
                return "true"
            case Atom(sig, op, b):
                return f"{sig} {op} {_fmt_bound(b)}"
            case Not(c):
                return f"not {fmt(c, _binding(c) < len(BINARY))}"
            case And(l, r) | Or(l, r) | Implies(l, r):
                # left-associative: the left child may share the binding
                # strength, the right one needs parentheses to round-trip
                b = _binding(node)
                kw = _KEYWORD[type(node)]
                return f"{fmt(l, _binding(l) < b)} {kw} {fmt(r, _binding(r) <= b)}"
            case Finally(iv, c) | Globally(iv, c):
                return f"{_KEYWORD[type(node)]}{iv}({fmt(c)})"
            case Until(iv, l, r):
                return f"({fmt(l)}) U{iv} ({fmt(r)})"
        raise TypeError(f"not a formula node: {node!r}")

    return fmt(phi)


# ---------------------------------------------------------------------------
# polarity

class Polarity(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"

    def flipped(self) -> "Polarity":
        if self is Polarity.INCREASING:
            return Polarity.DECREASING
        return Polarity.INCREASING


def infer_polarity(phi: Formula) -> dict[str, Polarity]:
    """Classify each parameter by the direction in which growing it preserves
    satisfaction.

    Works purely on syntax: the context sign starts positive at the root and is
    flipped by negation and by the left side of an implication.  In a positive
    context an atom threshold is Decreasing for ``>``-style atoms and Increasing
    for ``<``-style ones; a window upper bound is Increasing under F and U and
    Decreasing under G, and a window lower bound the other way around.  Because
    parameters never repeat, every parameter receives exactly one polarity.
    """
    out: dict[str, Polarity] = {}

    def put(b: Bound, pol: Polarity):
        if isinstance(b, Param):
            if b.name in out:
                raise FormulaStructureError(
                    f"parameter ${b.name} occurs at more than one position"
                )
            out[b.name] = pol

    def walk(node: Formula, positive: bool):
        def orient(pol: Polarity) -> Polarity:
            return pol if positive else pol.flipped()

        match node:
            case TrueF():
                pass
            case Atom(_, op, b):
                if op in ("<", "<="):
                    put(b, orient(Polarity.INCREASING))
                else:
                    put(b, orient(Polarity.DECREASING))
            case Not(c):
                walk(c, not positive)
            case And(l, r) | Or(l, r):
                walk(l, positive)
                walk(r, positive)
            case Implies(l, r):
                walk(l, not positive)
                walk(r, positive)
            case Finally(iv, c):
                put(iv.lo, orient(Polarity.DECREASING))
                put(iv.hi, orient(Polarity.INCREASING))
                walk(c, positive)
            case Globally(iv, c):
                put(iv.lo, orient(Polarity.INCREASING))
                put(iv.hi, orient(Polarity.DECREASING))
                walk(c, positive)
            case Until(iv, l, r):
                put(iv.lo, orient(Polarity.DECREASING))
                put(iv.hi, orient(Polarity.INCREASING))
                walk(l, positive)
                walk(r, positive)
            case _:
                raise TypeError(f"not a formula node: {node!r}")

    walk(phi, True)
    return out
