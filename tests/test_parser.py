"""Text syntax: examples, precedence, errors, and render/parse round-trips."""
from __future__ import annotations

import numpy as np
import pytest

from oracles import random_concrete_formula, random_template
from stlmine.errors import FormulaSyntaxError, StlmineError
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
    TrueF,
    Until,
    format_formula,
)
from stlmine.params import instantiate
from stlmine.parser import parse_formula


def test_atom_and_true():
    assert parse_formula("true") == TrueF()
    assert parse_formula("x > 3.5") == Atom("x", ">", Const(3.5))
    assert parse_formula("x <= -2") == Atom("x", "<=", Const(-2.0))
    assert parse_formula("speed >= $v") == Atom("speed", ">=", Param("v"))


def test_precedence_not_and_or_implies():
    phi = parse_formula("not x > 0 and y < 1 or true implies x > 2")
    want = Implies(
        Or(And(Not(Atom("x", ">", Const(0))), Atom("y", "<", Const(1))), TrueF()),
        Atom("x", ">", Const(2)),
    )
    assert phi == want


def test_left_associativity():
    phi = parse_formula("x > 0 and y > 0 and z > 0")
    assert phi == And(And(Atom("x", ">", Const(0)), Atom("y", ">", Const(0))), Atom("z", ">", Const(0)))


def test_temporal_syntax():
    phi = parse_formula("F[0,$t](x > $c)")
    assert phi == Finally(
        Interval(Const(0.0), Param("t")), Atom("x", ">", Param("c"))
    )
    psi = parse_formula("G(0.5,2.5](y <= 1)")
    assert psi == Globally(
        Interval(Const(0.5), Const(2.5), False, True), Atom("y", "<=", Const(1))
    )
    chi = parse_formula("(x > 0) U[1,3] (x < 1)")
    assert chi == Until(
        Interval(Const(1.0), Const(3.0)), Atom("x", ">", Const(0)), Atom("x", "<", Const(1))
    )


def test_parens_grouping():
    assert parse_formula("(x > 0 or y > 0) and true") == And(
        Or(Atom("x", ">", Const(0)), Atom("y", ">", Const(0))), TrueF()
    )


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "x >",
        "F[0,1] x > 0",
        "x > 0 and",
        "(x > 0",
        "F[0,1](x > 0) trailing",
        "x # 3",
        "F[0 1](x > 0)",
        "not",
        "U[0,1](x > 0)",
    ],
)
def test_syntax_errors(bad):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(bad)


@pytest.mark.parametrize("text, column", [
    ("x > 1e400", 5),
    ("x < -1e400", 5),
    ("F[0,1e400](x > 0)", 5),
    ("G[1e999,2](x > 0)", 3),
])
def test_non_finite_literals_are_syntax_errors(text, column):
    # float() overflows these to ±inf, which no formula may hold
    with pytest.raises(FormulaSyntaxError, match="out of the range of a float") as err:
        parse_formula(text)
    assert (err.value.line, err.value.column) == (1, column)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_const_refuses_non_finite_values(value):
    with pytest.raises(StlmineError, match="not a finite number"):
        Const(value)
    with pytest.raises(StlmineError, match="not a finite number"):
        instantiate(parse_formula("x > $c"), {"c": value})


def test_parse_applies_structural_validation():
    from stlmine.errors import FormulaStructureError

    with pytest.raises(FormulaStructureError):
        parse_formula("G[2,1](x > 0)")  # hi < lo
    with pytest.raises(FormulaStructureError):
        parse_formula("F[0,$t](x > $t)")  # duplicate parameter


def test_error_carries_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("x >\n> 2")
    msg = str(err.value)
    assert "2" in msg  # mentions a line or column


def test_keywords_not_signal_names():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("F > 3")


def test_roundtrip_examples():
    for text in [
        "x < -10.5 and F[0,25](x > -8.7)",
        "G[0,56.3](x > 35.14)",
        "not (x > 0 implies y < 1)",
        "(true) U($a,$b] (x >= $c)",
        "F[0,3](G[0,2](x > 1.25))",
    ]:
        phi = parse_formula(text)
        assert parse_formula(format_formula(phi)) == phi


def test_roundtrip_fuzz():
    rng = np.random.default_rng(424242)
    for _ in range(10_000):
        budget = int(rng.integers(1, 8))
        if rng.random() < 0.5:
            phi = random_concrete_formula(rng, ("x", "y"), budget, horizon=9.0)
        else:
            phi = random_template(rng, ("x", "y"), budget, horizon=9.0)
        text = format_formula(phi)
        assert parse_formula(text) == phi, text
