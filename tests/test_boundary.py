"""Boundary search: bisection accuracy, box bookkeeping, budgets, validation."""
import numpy as np
import pytest

from stlmine.boundary import BoundaryQuery, min_robustness
from stlmine.datagen import gen_steps_and_sinusoids
from stlmine.enumeration import FormulaDB, Grammar, enumerate_templates
from stlmine.errors import InstantiationError, UnknownSignalError
from stlmine.formula import Polarity
from stlmine.learner import _label_batches
from stlmine.params import ParamDef, ParamKind, ParamSpace, default_bounds
from stlmine.parser import parse_formula
from stlmine.traces import Dataset, Trace


def const_trace(value: float, n: int = 3) -> Trace:
    return Trace({"x": [value] * n}, period=1.0)


def ramp_trace() -> Trace:
    # x(t) = t over [0, 10] so "eventually above c within tau" flips at tau = c
    return Trace({"x": np.arange(0.0, 10.05, 0.1)}, period=0.1)


def space_1d(lo: float, hi: float) -> ParamSpace:
    return ParamSpace([ParamDef("c", ParamKind.VALUE, lo, hi, Polarity.DECREASING)])


def test_argument_validation():
    tpl = parse_formula("x > $c")
    sp = space_1d(0.0, 10.0)
    with pytest.raises(ValueError):
        BoundaryQuery(tpl, sp, [])
    with pytest.raises(ValueError):
        BoundaryQuery(tpl, sp, [const_trace(5.0)], delta=0.0)
    with pytest.raises(ValueError):
        BoundaryQuery(tpl, sp, [const_trace(5.0)], delta=1.5)
    with pytest.raises(ValueError):
        BoundaryQuery(tpl, sp, [const_trace(5.0)], delta=0.01, diag_tol=0.01)
    with pytest.raises(ValueError):
        BoundaryQuery(tpl, sp, [const_trace(5.0)], diag_tol=0.0)
    with pytest.raises(InstantiationError, match="1-vector"):
        BoundaryQuery(tpl, sp, [const_trace(5.0)]).g([1.0, 2.0])


def test_min_robustness_over_traces():
    phi_template = parse_formula("x > $c")
    traces = [const_trace(5.0), const_trace(2.0)]
    assert min_robustness(phi_template, {"c": 1.0}, traces) == 1.0
    assert min_robustness(phi_template, {"c": 4.0}, traces) == -2.0


def test_min_robustness_needs_a_trace():
    with pytest.raises(ValueError, match="at least one trace"):
        min_robustness(parse_formula("x > $c"), {"c": 1.0}, [])


def test_one_dimensional_query_emits_single_midpoint():
    # x = 5 constantly, so "x > c" flips exactly at c = 5
    tpl = parse_formula("x > $c")
    q = BoundaryQuery(tpl, space_1d(0.0, 10.0), [const_trace(5.0)])
    points = list(q)
    # splitting a 1-d box yields only the two corner boxes, both discarded
    assert len(points) == 1
    assert q.exhausted
    # bracket width is diag_tol of the 10-wide axis
    assert abs(points[0]["c"] - 5.0) <= 10.0 * 1e-3
    assert q.points_emitted == 1
    assert q.g_evaluations > 2


def test_all_satisfying_box_discarded_as_valid():
    tpl = parse_formula("x > $c")
    q = BoundaryQuery(tpl, space_1d(0.0, 1.0), [const_trace(5.0)], keep_log=True)
    assert list(q) == []
    log = q.drain_log()
    assert len(log.valid) == 1 and not log.invalid and not log.unexplored
    assert log.valid[0].volume() == 1.0


def test_all_violating_box_discarded_as_invalid():
    tpl = parse_formula("x > $c")
    # g(c) = 5 - c <= 0 on the whole box, including its easiest corner c = 10
    q = BoundaryQuery(tpl, space_1d(10.0, 20.0), [const_trace(5.0)], keep_log=True)
    assert list(q) == []
    log = q.drain_log()
    assert len(log.invalid) == 1 and not log.valid


def test_two_parameter_ramp_boundary_and_volume_conservation():
    tpl = parse_formula("F[0,$tau](x > $c)")
    ds = Dataset([ramp_trace()], [1])
    space = default_bounds(tpl, ds)
    widths = {p.name: p.hi - p.lo for p in space.params}
    q = BoundaryQuery(tpl, space, ds.traces, max_points=64, keep_log=True)
    points = list(q)
    assert points, "expected boundary points on the ramp"
    scale = max(widths.values())
    for v in points:
        # the true boundary of the ramp is the diagonal tau = c
        assert abs(v["tau"] - v["c"]) <= 0.02 * scale
        # emitted points stay inside the search box
        assert space.contains(v)
    # every region ends up in exactly one bucket; volumes must add back up
    log = q.drain_log()
    total = sum(
        b.volume()
        for bucket in (log.valid, log.invalid, log.below_delta, log.unexplored)
        for b in bucket
    )
    initial = float(np.prod(space.highs() - space.lows()))
    assert total == pytest.approx(initial, rel=1e-9)


def test_max_points_budget_stops_iteration():
    tpl = parse_formula("F[0,$tau](x > $c)")
    ds = Dataset([ramp_trace()], [1])
    space = default_bounds(tpl, ds)
    q = BoundaryQuery(tpl, space, ds.traces, max_points=5)
    points = list(q)
    assert len(points) == 5
    assert q.exhausted  # the budget clears the queue


def test_smaller_delta_refines_further():
    tpl = parse_formula("F[0,$tau](x > $c)")
    ds = Dataset([ramp_trace()], [1])
    space = default_bounds(tpl, ds)
    coarse = list(BoundaryQuery(tpl, space, ds.traces, delta=0.5, diag_tol=1e-3))
    fine = list(BoundaryQuery(tpl, space, ds.traces, delta=0.05, diag_tol=1e-3))
    assert len(fine) > len(coarse) >= 1


def test_drain_log_requires_keep_log():
    tpl = parse_formula("x > $c")
    q = BoundaryQuery(tpl, space_1d(0.0, 10.0), [const_trace(5.0)])
    list(q)
    with pytest.raises(ValueError):
        q.drain_log()


def test_determinism():
    tpl = parse_formula("F[0,$tau](x > $c)")
    ds = Dataset([ramp_trace()], [1])
    space = default_bounds(tpl, ds)
    a = list(BoundaryQuery(tpl, space, ds.traces, max_points=20))
    b = list(BoundaryQuery(tpl, space, ds.traces, max_points=20))
    assert a == b


def test_query_checks_every_signal_set():
    tpl = parse_formula("F[0,$tau](x > $c)")
    space = default_bounds(tpl, Dataset([ramp_trace()], [1]))
    traces = [ramp_trace(), Trace({"y": np.zeros(3)}, period=0.1)]
    with pytest.raises(UnknownSignalError, match="x"):
        BoundaryQuery(tpl, space, traces)


def test_query_needs_every_template_parameter():
    tpl = parse_formula("F[0,$tau](x > $c)")
    with pytest.raises(InstantiationError, match=r"\$tau"):
        BoundaryQuery(tpl, space_1d(0.0, 10.0), [ramp_trace()])


def test_query_on_shared_stacks_matches_a_query_on_traces():
    # learn hands its label-1 stacks to the query instead of the traces
    ds = gen_steps_and_sinusoids(0)
    _, positives = _label_batches(ds)
    db = FormulaDB()
    enumerate_templates(Grammar.default(["x"]), max_length=3, db=db)
    templates = [t for length in sorted(db.by_length) for t in db.by_length[length]]
    assert len(templates) > 20
    for template in templates:
        space = default_bounds(template, ds)
        opts = dict(delta=0.01, diag_tol=1e-3, max_points=40)
        direct = BoundaryQuery(template, space, ds.with_label(1), **opts)
        shared = BoundaryQuery._from_batches(template, space, positives, **opts)
        assert list(shared) == list(direct), template
        assert shared.g_evaluations == direct.g_evaluations, template
