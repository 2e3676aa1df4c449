"""AST construction, length, parameter order, rendering, and polarity."""
from __future__ import annotations

import pytest

from stlmine.errors import FormulaStructureError
from stlmine.formula import (
    And,
    Atom,
    Const,
    Finally,
    Globally,
    Implies,
    Interval,
    Not,
    Or,
    Param,
    Polarity,
    TrueF,
    Until,
    format_formula,
    formula_length,
    infer_polarity,
    intervals,
    is_concrete,
    parameters,
    signals_of,
    validate_formula,
)


def iv(lo, hi):
    mk = lambda b: Param(b) if isinstance(b, str) else Const(float(b))
    return Interval(mk(lo), mk(hi))


ATOM_GT = Atom("x", ">", Param("c"))
ATOM_LT = Atom("x", "<", Param("c"))


def test_length_counts_operators_and_atoms():
    assert formula_length(TrueF()) == 1
    assert formula_length(Atom("x", ">", Const(1.0))) == 1
    assert formula_length(Not(ATOM_GT)) == 2
    assert formula_length(Finally(iv(0, "t"), ATOM_GT)) == 2
    assert formula_length(And(ATOM_GT, Finally(iv(0, "t"), ATOM_LT))) == 4
    assert formula_length(Until(iv(0, 5), ATOM_GT, ATOM_LT)) == 3


def test_parameters_preorder_interval_before_child():
    phi = Finally(iv("a", "b"), Atom("x", ">", Param("c")))
    assert parameters(phi) == ["a", "b", "c"]
    psi = Until(iv(0, "w"), Atom("x", ">", Param("p")), Atom("y", "<", Param("q")))
    assert parameters(psi) == ["w", "p", "q"]


def test_intervals_preorder():
    until = Until(iv(0, "u"), Finally(iv(1, 2), ATOM_GT), ATOM_LT)
    phi = Not(And(until, Globally(iv(3, 4), ATOM_GT)))
    assert list(intervals(phi)) == [iv(0, "u"), iv(1, 2), iv(3, 4)]
    assert list(intervals(And(ATOM_GT, Not(ATOM_LT)))) == []


def test_signals_and_concreteness():
    phi = And(Atom("x", ">", Const(1)), Atom("y", "<", Param("c")))
    assert signals_of(phi) == {"x", "y"}
    assert not is_concrete(phi)
    assert is_concrete(Atom("x", ">", Const(0)))


def test_validate_rejects_duplicate_params():
    phi = And(Atom("x", ">", Param("c")), Atom("y", "<", Param("c")))
    with pytest.raises(FormulaStructureError):
        validate_formula(phi)


def test_validate_rejects_bad_concrete_interval():
    with pytest.raises(FormulaStructureError):
        validate_formula(Finally(iv(3, 1), Atom("x", ">", Const(0))))
    with pytest.raises(FormulaStructureError):
        validate_formula(Finally(iv(-1, 1), Atom("x", ">", Const(0))))


def test_format_precedence():
    a = Atom("x", ">", Const(0))
    b = Atom("x", "<", Const(1))
    c = Atom("y", ">", Const(2))
    assert format_formula(Or(And(a, b), c)) == "x > 0 and x < 1 or y > 2"
    assert format_formula(And(Or(a, b), c)) == "(x > 0 or x < 1) and y > 2"
    assert format_formula(Not(And(a, b))) == "not (x > 0 and x < 1)"
    assert format_formula(Implies(a, Implies(b, c))) == "x > 0 implies (x < 1 implies y > 2)"
    assert format_formula(Until(iv(0, 2), a, b)) == "(x > 0) U[0,2] (x < 1)"


def test_format_interval_bounds():
    assert str(iv(0, 2.5)) == "[0,2.5]"
    assert str(Interval(Const(1.0), Const(2.0), False, False)) == "(1,2)"
    assert str(iv("lo", "hi")) == "[$lo,$hi]"


def test_polarity_atoms():
    pol = infer_polarity(And(ATOM_GT, Atom("y", "<", Param("d"))))
    assert pol["c"] is Polarity.DECREASING  # raising a > threshold shrinks
    assert pol["d"] is Polarity.INCREASING


def test_polarity_flips_under_not_and_implies_left():
    pol = infer_polarity(Not(ATOM_GT))
    assert pol["c"] is Polarity.INCREASING
    pol = infer_polarity(Implies(ATOM_GT, Atom("y", ">", Param("d"))))
    assert pol["c"] is Polarity.INCREASING  # antecedent is a negative context
    assert pol["d"] is Polarity.DECREASING
    pol = infer_polarity(Not(Not(ATOM_GT)))
    assert pol["c"] is Polarity.DECREASING


def test_polarity_interval_bounds():
    phi = Finally(iv("lo", "hi"), ATOM_GT)
    pol = infer_polarity(phi)
    assert pol["lo"] is Polarity.DECREASING  # widening the window helps F
    assert pol["hi"] is Polarity.INCREASING
    psi = Globally(iv("lo", "hi"), ATOM_GT)
    pol = infer_polarity(psi)
    assert pol["lo"] is Polarity.INCREASING  # narrowing the window helps G
    assert pol["hi"] is Polarity.DECREASING
    chi = Not(Finally(iv("lo", "hi"), ATOM_GT))
    pol = infer_polarity(chi)
    assert pol["lo"] is Polarity.INCREASING
    assert pol["hi"] is Polarity.DECREASING


def test_polarity_until_window():
    phi = Until(iv("lo", "hi"), ATOM_GT, Atom("y", ">", Param("d")))
    pol = infer_polarity(phi)
    assert pol["lo"] is Polarity.DECREASING
    assert pol["hi"] is Polarity.INCREASING
    assert pol["c"] is Polarity.DECREASING
    assert pol["d"] is Polarity.DECREASING
