"""Template enumeration: counts, ordering, parameter freshness, callbacks."""
import pytest

from oracles import count_templates
from stlmine.enumeration import (
    CallbackResult,
    EnumerationReport,
    FormulaDB,
    Grammar,
    enumerate_templates,
    freshen,
)
from stlmine.formula import And, Atom, Const, Finally, Interval, Param, parameters, validate_formula
from stlmine.parser import parse_formula


def collect(grammar: Grammar, max_length: int):
    seen: list[tuple[str, int]] = []

    def cb(tpl, length):
        seen.append((str(tpl), length))
        return CallbackResult.CONTINUE

    report = enumerate_templates(grammar, max_length, callback=cb)
    return seen, report


def test_default_grammar_atoms():
    g = Grammar.default(["x", "y"])
    assert [str(a) for a in g.atoms] == ["x > $c", "x < $c", "y > $c", "y < $c"]


def test_counts_single_signal_no_skip():
    g = Grammar.default(["x"], skip_complement_negation=False)
    report = enumerate_templates(g, 4)
    assert report.per_length == {1: 2, 2: 6, 3: 34, 4: 198}
    assert report.emitted == 2 + 6 + 34 + 198
    # closed-form recurrence over 2 atoms, 3 unary ops, 4 binary ops
    assert report.per_length == count_templates(2, 3, 4, 4)


def test_counts_single_signal_with_skip():
    # "not" directly over an atom is redundant when its complement atom exists
    report = enumerate_templates(Grammar.default(["x"]), 4)
    assert report.per_length == {1: 2, 2: 4, 3: 28, 4: 148}


def test_counts_two_signals():
    g = Grammar.default(["x", "y"], skip_complement_negation=False)
    report = enumerate_templates(g, 3)
    assert report.per_length == count_templates(4, 3, 4, 3)


def test_counts_custom_operator_sets():
    g = Grammar.default(["x"], skip_complement_negation=False)
    g.unary_ops = ("F", "G")
    g.binary_ops = ("and",)
    report = enumerate_templates(g, 4)
    assert report.per_length == count_templates(2, 2, 1, 4)


def test_emission_order_and_fresh_parameters():
    g = Grammar.default(["x"], skip_complement_negation=False)
    seen, report = collect(g, 2)
    expected = [
        ("x > $p1", 1),
        ("x < $p1", 1),
        ("not x > $p1", 2),
        ("not x < $p1", 2),
        ("F[0,$p1](x > $p2)", 2),
        ("F[0,$p1](x < $p2)", 2),
        ("G[0,$p1](x > $p2)", 2),
        ("G[0,$p1](x < $p2)", 2),
    ]
    assert seen == [(str(parse_formula(s)), n) for s, n in expected]
    assert not report.stopped and report.pruned == 0


@pytest.mark.parametrize(
    "signals, two_sided",
    [(["x"], False), (["x"], True), (["x", "y"], False), (["x", "y"], True)],
    ids=["x", "x-two-sided", "xy", "xy-two-sided"],
)
def test_parameters_are_preorder_consecutive(signals, two_sided):
    g = Grammar.default(signals, two_sided_intervals=two_sided, skip_complement_negation=False)

    def cb(tpl, length):
        names = parameters(tpl)
        assert names == [f"p{i + 1}" for i in range(len(names))]
        validate_formula(tpl)  # no name at two positions
        return CallbackResult.CONTINUE

    assert enumerate_templates(g, 4, callback=cb).emitted > 200


def test_freshen_gives_every_position_its_own_name():
    shared = And(Atom("x", ">", Param("p1")), Atom("x", "<", Param("p1")))
    assert str(freshen(shared)) == "x > $p1 and x < $p2"
    window = Finally(Interval(Const(0.0), Param("c")), Atom("x", ">", Param("c")))
    assert str(freshen(window)) == "F[0,$p1](x > $p2)"


def test_no_structural_duplicates():
    g = Grammar.default(["x"], skip_complement_negation=False)
    seen, report = collect(g, 4)
    assert len({s for s, _ in seen}) == report.emitted


def test_rerun_is_identical():
    g = Grammar.default(["x", "y"])
    assert collect(g, 3) == collect(g, 3)


def test_pruned_templates_leave_the_store():
    g = Grammar.default(["x"], skip_complement_negation=False)
    db = FormulaDB()
    report = enumerate_templates(g, 2, callback=lambda t, n: CallbackResult.PRUNED, db=db)
    # everything of length 1 was dropped, so nothing can be built at length 2
    assert report.per_length == {1: 2}
    assert report.pruned == 2
    assert db.stored(1) == [] and db.stored(2) == []


def test_stop_aborts_midway():
    g = Grammar.default(["x"], skip_complement_negation=False)
    count = 0

    def cb(tpl, length):
        nonlocal count
        count += 1
        return CallbackResult.STOP if count == 5 else CallbackResult.CONTINUE

    report = enumerate_templates(g, 4)
    assert report.emitted == 240
    report = enumerate_templates(g, 4, callback=cb)
    assert report.stopped and report.emitted == 5


def test_two_sided_intervals():
    g = Grammar.default(["x"], skip_complement_negation=False, two_sided_intervals=True)
    seen, _ = collect(g, 2)
    assert (str(parse_formula("F[$p1,$p2](x > $p3)")), 2) in seen


def test_stored_templates_feed_longer_lengths():
    g = Grammar.default(["x"])
    db = FormulaDB()
    report = enumerate_templates(g, 3, db=db)
    assert sum(len(db.stored(n)) for n in (1, 2, 3)) == report.emitted


def test_argument_validation():
    with pytest.raises(ValueError):
        enumerate_templates(Grammar.default(["x"]), 0)
    with pytest.raises(ValueError):
        Grammar([], unary_ops=("X",))
    with pytest.raises(ValueError):
        Grammar([], binary_ops=("nand",))


def test_emission_length_never_decreases():
    # shortest-first ordering is what makes the learner prefer small formulas
    seen, _ = collect(Grammar.default(["x", "y"]), 4)
    lengths = [n for _, n in seen]
    assert lengths == sorted(lengths)
