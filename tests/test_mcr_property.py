"""Property test: the misclassification rate the learner scores on the
template itself, over traces stacked once per learn, against ``mcr`` of the
instantiated formula and against the brute-force oracle."""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_robustness
from stlmine.errors import InstantiationError
from stlmine.formula import Atom, Const, Finally, Globally, Interval, Param, Until, iter_nodes
from stlmine.learner import MCR_ONESIDED, MCR_SYMMETRIC, _count_wrong, _label_batches, mcr
from stlmine.monitor import _Scorer
from stlmine.params import (
    ParamDef, ParamKind, ParamSpace, _window_error, _windows_can_fail, default_bounds, instantiate,
)
from stlmine.formula import infer_polarity
from stlmine.parser import parse_formula
from stlmine.traces import Dataset, Trace
from test_g_property import TEMPLATES, _value_in  # templates up to length 3, box values


@st.composite
def labeled_traces_of_two_shapes(draw, signals):
    """One or two traces per label and per length, on a shared period, so
    each label stacks into two batches; values on a coarse lattice so that
    ties with thresholds occur."""
    period = draw(st.sampled_from([0.5, 1.0]))
    lengths = draw(st.lists(st.integers(2, 7), min_size=2, max_size=2, unique=True))
    lattice = st.integers(-20, 20).map(lambda k: k * 0.25)
    traces, labels = [], []
    for n in lengths:
        for label in (0, 1):
            for _ in range(draw(st.integers(1, 2))):
                sigs = {s: draw(st.lists(lattice, min_size=n, max_size=n)) for s in signals}
                traces.append(Trace(sigs, period))
                labels.append(label)
    return Dataset(traces, labels)


def _oracle_wrong(phi, ds: Dataset, mode: str) -> int:
    wrong = 0
    for tr, label in zip(ds.traces, ds.labels):
        sat = brute_robustness(phi, tr) > 0
        if (label == 0 and sat) or (mode == MCR_SYMMETRIC and label == 1 and not sat):
            wrong += 1
    return wrong


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_template_score_equals_mcr_of_instantiated_formula(data):
    root = data.draw(st.sampled_from(sorted(TEMPLATES)), label="root")
    signals, template = data.draw(st.sampled_from(TEMPLATES[root]), label="template")
    ds = data.draw(labeled_traces_of_two_shapes(signals), label="dataset")
    space = default_bounds(template, ds)
    vector = [data.draw(_value_in(p.lo, p.hi), label=p.name) for p in space.params]
    valuation = space.to_valuation(vector)
    batches = _label_batches(ds)
    assert all(len(per_label) == 2 for per_label in batches)

    skipped = _window_error(template, valuation) is not None
    try:
        phi = instantiate(template, valuation)
    except InstantiationError:
        phi = None
    assert skipped == (phi is None)
    windows = [node.interval for node in iter_nodes(instantiate(template, valuation, validate=False))
               if isinstance(node, (Finally, Globally, Until))]
    assert skipped == any(iv.lo.value < 0 or iv.hi.value < iv.lo.value for iv in windows)
    if phi is None:
        return
    for mode in (MCR_ONESIDED, MCR_SYMMETRIC):
        wrong = _count_wrong(_Scorer(template), batches, valuation, mode)
        rate = mcr(phi, ds, mode)
        assert type(rate) is float and wrong / ds.n == rate
        assert wrong == _oracle_wrong(phi, ds, mode)


# grammar templates up to length 3 with a window
GRAMMAR_WINDOWS = [t for group in TEMPLATES.values() for _, t in group
                   if any(isinstance(n, (Finally, Globally, Until)) for n in iter_nodes(t))]
# windows the grammar does not make: a constant lower end above 0, and open ends
_x = Atom("x", ">", Param("c"))
HAND_WINDOWS = [Finally(Interval(Const(lo), Param("t"), lo_closed, hi_closed), _x)
                for lo, lo_closed, hi_closed in ((2.0, True, True), (0.0, False, True),
                                                 (0.0, True, False), (1.5, False, False))]
HAND_WINDOWS.append(Globally(Interval(Param("u"), Const(3.0), True, False), _x))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_window_check_is_skipped_only_where_it_cannot_fire(data):
    # boxes and points on a half-unit lattice, so that window ends meet
    template = data.draw(st.sampled_from(GRAMMAR_WINDOWS) | st.sampled_from(HAND_WINDOWS),
                         label="template")
    time = {b.name for n in iter_nodes(template) if isinstance(n, (Finally, Globally, Until))
            for b in (n.interval.lo, n.interval.hi) if isinstance(b, Param)}
    polarity = infer_polarity(template)
    defs = []
    for name in sorted(polarity):
        lo = data.draw(st.integers(0 if name in time else -8, 8), label=name) * 0.5
        hi = lo + data.draw(st.integers(1, 8), label=name) * 0.5
        kind = ParamKind.TIME if name in time else ParamKind.VALUE
        defs.append(ParamDef(name, kind, lo, hi, polarity[name]))
    space = ParamSpace(defs)
    if _windows_can_fail(template, space):
        return
    for _ in range(8):
        eighths = st.sampled_from([0, 8]) | st.integers(0, 8)  # corners often
        valuation = {p.name: p.lo + data.draw(eighths) * (p.hi - p.lo) / 8 for p in space.params}
        assert _window_error(template, valuation) is None


def test_window_check_decision_on_default_boxes():
    # the default grammar's closed [0, $t] never fires; two-sided windows,
    # a constant lower end above 0, and an open end meeting 0 can
    ds = Dataset([Trace({"x": [0.0, 1.0, 2.0, 3.0, 4.0]}, 1.0)], [1])
    cases = {"F[0,$t](x > $c)": False, "G[0,$t](F[0,$s](x < $c))": False,
             "(x > $a) U[0,$t] (x < $b)": False, "F[$l,$h](x > $c)": True,
             "F[2,$t](x > $c)": True, "G[0,$t)(x > $c)": True, "G(0,$t](x > $c)": True}
    for text, can in cases.items():
        template = parse_formula(text)
        assert _windows_can_fail(template, default_bounds(template, ds)) is can, text


def test_window_check_fires_where_a_lower_end_can_go_negative():
    # a hand-built box may let a window's lower end go below 0, with the
    # upper end always above it
    template = parse_formula("F[$l,3](x > 0)")
    space = ParamSpace([ParamDef("l", ParamKind.VALUE, -1.0, 1.0, infer_polarity(template)["l"])])
    assert _window_error(template, {"l": -1.0})
    assert _windows_can_fail(template, space)
