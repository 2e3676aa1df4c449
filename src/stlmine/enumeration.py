"""Length-ordered enumeration of parametric templates over a small grammar.

Templates are produced shortest-first: length 1 yields the atoms in grammar
order, length 2 applies the unary operators to everything of length 1, and
length ``L >= 3`` first applies unary operators to the stored templates of
length L-1 and then, for each binary operator and each split ``i`` from 1 to
L-2, combines every stored left operand of length i with every stored right
operand of length L-1-i.  Operand iteration restarts for every (operator,
split, left) triple, so the cross product is complete.

Emitted templates get fresh parameter names ``p1, p2, ...`` in pre-order, so
no parameter is ever shared between positions and re-running an enumeration
reproduces the exact same sequence.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Callable

from .formula import (
    BINARY,
    COMPLEMENT,
    TEMPORAL,
    Atom,
    Const,
    Formula,
    Interval,
    Not,
    Param,
    Until,
    map_bounds,
)

# emission order; BINARY_OPS is not in the binding order of formula.BINARY
UNARY_OPS = ("not", *TEMPORAL)
BINARY_OPS = ("or", "and", "U", "implies")


class CallbackResult(Enum):
    CONTINUE = "continue"  # keep the template and go on
    PRUNED = "pruned"  # duplicate: drop it from the store, go on
    STOP = "stop"  # abort the whole enumeration


@dataclass
class Grammar:
    """Atoms plus the unary and binary operators the enumerator may apply."""

    atoms: list[Formula]
    unary_ops: tuple[str, ...] = UNARY_OPS
    binary_ops: tuple[str, ...] = BINARY_OPS
    two_sided_intervals: bool = False
    # drop `not` directly above an atom whose complement is itself in the
    # grammar; the duplicate would be signature-pruned anyway
    skip_complement_negation: bool = True

    def __post_init__(self):
        for op in self.unary_ops:
            if op not in UNARY_OPS:
                raise ValueError(f"unknown unary operator {op!r}")
        for op in self.binary_ops:
            if op not in BINARY_OPS:
                raise ValueError(f"unknown binary operator {op!r}")

    @classmethod
    def default(cls, signals, **kwargs) -> "Grammar":
        """Two atoms per signal: ``s > $c`` then ``s < $c``."""
        atoms: list[Formula] = []
        for s in signals:
            atoms.append(Atom(s, ">", Param("c")))
            atoms.append(Atom(s, "<", Param("c")))
        return cls(atoms, **kwargs)

    def _has_complement_atom(self, atom: Atom) -> bool:
        for other in self.atoms:
            if (
                isinstance(other, Atom)
                and other.signal == atom.signal
                and other.op == COMPLEMENT[atom.op]
            ):
                return True
        return False


@dataclass
class EnumerationReport:
    emitted: int = 0
    pruned: int = 0
    stopped: bool = False
    per_length: dict[int, int] = field(default_factory=dict)


class FormulaDB:
    """Templates stored by length."""

    def __init__(self):
        self.by_length: dict[int, list[Formula]] = {}

    def stored(self, length: int) -> list[Formula]:
        return self.by_length.get(length, [])

    def add(self, length: int, template: Formula) -> None:
        self.by_length.setdefault(length, []).append(template)


def freshen(template: Formula) -> Formula:
    """Name parameters p1, p2, ... by position in pre-order, one name per position."""
    ids = count(1)
    return map_bounds(template, lambda b: Param(f"p{next(ids)}") if isinstance(b, Param) else b)


def _fresh_interval(two_sided: bool) -> Interval:
    if two_sided:
        return Interval(Param("tl"), Param("th"))
    return Interval(Const(0.0), Param("t"))


def apply_unary(op: str, operand: Formula, grammar: Grammar) -> Formula | None:
    if op == "not":
        if (
            grammar.skip_complement_negation
            and isinstance(operand, Atom)
            and grammar._has_complement_atom(operand)
        ):
            return None
        return Not(operand)
    return TEMPORAL[op](_fresh_interval(grammar.two_sided_intervals), operand)


def apply_binary(op: str, left: Formula, right: Formula, grammar: Grammar) -> Formula:
    if op == "U":
        return Until(_fresh_interval(grammar.two_sided_intervals), left, right)
    return BINARY[op](left, right)


def enumerate_templates(
    grammar: Grammar,
    max_length: int,
    callback: Callable[[Formula, int], CallbackResult] | None = None,
    db: FormulaDB | None = None,
) -> EnumerationReport:
    """Emit every template of length 1..max_length in deterministic order.

    The callback receives (template, length) and steers the run: CONTINUE
    stores the template for reuse at greater lengths, PRUNED drops it, STOP
    aborts.  Without a callback everything is stored.
    """
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    db = db if db is not None else FormulaDB()
    report = EnumerationReport()

    def emit(template: Formula, length: int) -> bool:
        """Returns False when enumeration must stop."""
        template = freshen(template)
        report.emitted += 1
        report.per_length[length] = report.per_length.get(length, 0) + 1
        result = callback(template, length) if callback else CallbackResult.CONTINUE
        if result is CallbackResult.STOP:
            report.stopped = True
            return False
        if result is CallbackResult.PRUNED:
            report.pruned += 1
            return True
        db.add(length, template)
        return True

    for length in range(1, max_length + 1):
        if length == 1:
            for atom in grammar.atoms:
                if not emit(atom, 1):
                    return report
            continue
        # unary layer over everything one node shorter
        for op in grammar.unary_ops:
            for operand in db.stored(length - 1):
                wrapped = apply_unary(op, operand, grammar)
                if wrapped is None:
                    continue
                if not emit(wrapped, length):
                    return report
        if length < 3:
            continue
        # binary layer over all splits of the remaining length budget
        for op in grammar.binary_ops:
            for i in range(1, length - 1):
                for left in db.stored(i):
                    for right in db.stored(length - 1 - i):
                        if not emit(apply_binary(op, left, right, grammar), length):
                            return report
    return report
