"""Boundary search: bisection accuracy, box bookkeeping, budgets, validation."""
import numpy as np
import pytest

from stlmine.boundary import BoundaryQuery, RegionLog, _bracket, _Box, min_robustness
from stlmine.datagen import gen_steps_and_sinusoids
from stlmine.enumeration import FormulaDB, Grammar, enumerate_templates
from stlmine.errors import DegenerateBoundsError, InstantiationError, UnknownSignalError
from stlmine.formula import Polarity
from stlmine.learner import _label_batches
from stlmine.monitor import BIG, _Scorer
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


@pytest.mark.parametrize("bad", [[np.inf, 1.0], [-np.inf, 1.0], [np.nan, 1.0],
                                 [1.0, np.nan], [1.0, np.inf], [1.0, -np.inf]])
def test_g_rejects_non_finite_entries(bad):
    tpl = parse_formula("F[0,$t](x > $c)")
    ramp = Trace({"x": [0.0, 1.0, 2.0, 3.0, 4.0]}, period=1.0)
    space = default_bounds(tpl, Dataset([ramp], [1]))
    assert space.names == ["t", "c"]
    query = BoundaryQuery(tpl, space, [ramp])
    name = "t" if not np.isfinite(bad[0]) else "c"
    with pytest.raises(InstantiationError, match=rf"\${name} must be finite"):
        query.g(bad)
    assert query.g([2.0, 1.0]) == 1.0


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


@pytest.mark.parametrize("text, param", [
    ("x > $c", ParamDef("c", ParamKind.VALUE, -np.inf, 10.0, Polarity.DECREASING)),
    ("F[0,$t](x > 0)", ParamDef("t", ParamKind.TIME, 0.0, np.inf, Polarity.INCREASING)),
])
def test_query_over_an_infinite_box_is_refused(text, param):
    # such a box would emit {'c': -inf}, or end in an OverflowError from the window
    with pytest.raises(DegenerateBoundsError, match="not finite"):
        list(BoundaryQuery(parse_formula(text), ParamSpace([param]), [ramp_trace()], max_points=5))


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
        shared = BoundaryQuery._from_batches(_Scorer(template), space, positives, **opts)
        assert list(shared) == list(direct), template
        assert shared.g_evaluations == direct.g_evaluations, template


def _bisect(g_at, n):
    a, b = 0, n
    while b - a > 1:
        mid = (a + b) // 2
        if g_at(mid) > 0:
            b = mid
        else:
            a = mid
    return a


def _adversaries(r, n):
    """Monotone g on 0..n that crosses zero between r and r + 1."""
    yield lambda i: -1.0 if i <= r else 1.0  # a bare step
    yield lambda i: (i - r - 1) * 1e-6 if i <= r else BIG  # a jump just past the root
    yield lambda i: -BIG if i <= r else (i - r) * 1e-6  # a -BIG plateau before a slow rise
    yield lambda i: -BIG if i <= r else BIG  # saturated on both sides
    yield lambda i: (i - r - 0.5) ** 3  # convex above the root, concave below
    yield lambda i: -0.0 if i <= r else 5e-324  # signed zero, then the least float


@pytest.mark.parametrize("depth", [1, 2, 5, 10])
def test_bracket_takes_at_most_two_probes_more_than_bisection(depth):
    n = 1 << depth
    for r in range(n):
        for g in _adversaries(r, n):
            probes = []

            def g_at(i, g=g):
                assert 0 < i < n and i not in probes  # only new interior points
                probes.append(i)
                return g(i)

            assert _bracket(g_at, n, g(0), g(n)) == _bisect(g, n) == r
            assert len(probes) <= depth + 2


def test_bracket_on_random_monotone_g():
    rng = np.random.default_rng(5)
    n = 1 << 10
    checked = 0
    for _ in range(300):
        steps = np.sort(rng.choice([0.0, 1e-9, 1.0, 1e3, BIG], size=n + 1) * rng.random(n + 1))
        g = np.cumsum(steps) - rng.uniform(0, steps.sum())
        if not g[0] <= 0 < g[n]:
            continue
        probes = []
        g_at = lambda i: probes.append(i) or float(g[i])  # noqa: E731
        assert _bracket(g_at, n, float(g[0]), float(g[n])) == _bisect(lambda i: g[i], n)
        assert len(probes) <= 12
        checked += 1
    assert checked > 200


def _split_reference(query, box, point):
    """Queue and log of a split under the per-box ``np.linalg.norm`` rule."""
    out = {"queue": [], "valid": [], "invalid": [], "below_delta": []}
    for mask in range(1 << len(point)):
        above = [bool(mask >> d & 1) for d in range(len(point))]
        lo = np.where(above, point, box.lo)
        hi = np.where(above, box.hi, point)
        if mask == query._hard_mask:
            out["invalid"].append((lo, hi))
        elif mask == query._easy_mask:
            out["valid"].append((lo, hi))
        elif float(np.linalg.norm(hi - lo)) > query.delta * query._initial_diag:
            out["queue"].append((lo, hi))
        else:
            out["below_delta"].append((lo, hi))
    return out


def _split_result(query, box, point):
    query._queue.clear()
    query.log = RegionLog()
    query._split(box.lo.tolist(), box.hi.tolist(), point.tolist())
    got = {"queue": [_Box(np.array(lo), np.array(hi)) for lo, hi in query._queue]}
    got.update((name, getattr(query.log, name)) for name in ("valid", "invalid", "below_delta"))
    return {name: [(b.lo, b.hi) for b in boxes] for name, boxes in got.items()}


def _as_hex(split):
    return {name: [[float(v).hex() for v in (*lo, *hi)] for lo, hi in boxes]
            for name, boxes in split.items()}


@pytest.mark.parametrize("polarities", ["id", "di", "iid", "did"])
def test_split_keeps_and_logs_what_the_per_box_norm_keeps(polarities):
    pol = {"i": Polarity.INCREASING, "d": Polarity.DECREASING}
    space = ParamSpace([ParamDef(f"c{k}", ParamKind.VALUE, 0.0, 10.0, pol[p])
                        for k, p in enumerate(polarities)])
    tpl = parse_formula(" and ".join(
        f"x {'>' if p == 'd' else '<'} $c{k}" for k, p in enumerate(polarities)))
    query = BoundaryQuery(tpl, space, [const_trace(5.0)], delta=0.5, keep_log=True)
    rng = np.random.default_rng(len(polarities))
    m = len(polarities)
    # a centred point gives sub-boxes whose diagonal ties delta * initial_diag
    # in 2-d, so strict > drops them; random boxes vary the kept set
    cases = [(_Box(np.zeros(m), np.full(m, 10.0)), np.full(m, 5.0))]
    assert np.linalg.norm(np.full(m, 5.0)) == query.delta * query._initial_diag
    for _ in range(400):
        lo = rng.uniform(0, 5, m)
        hi = lo + rng.uniform(0, 5, m) * rng.choice([1e-3, 1.0, 2.0], m)
        cases.append((_Box(lo, hi), lo + rng.random(m) * (hi - lo)))
    kept = 0
    for box, point in cases:
        want = _split_reference(query, box, point)
        assert _as_hex(_split_result(query, box, point)) == _as_hex(want)
        kept += len(want["queue"])
    assert 0 < kept < len(cases) * ((1 << m) - 2)  # both outcomes occur
