"""Property tests: the boundary function g, evaluated on the template itself,
against the brute-force oracle applied to the instantiated formula; and one
warm compiled scorer, reused across valuations as a fit reuses it, against
the same oracle."""
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_robustness
from stlmine import monitor
from stlmine.boundary import BoundaryQuery, min_robustness
from stlmine.enumeration import FormulaDB, Grammar, enumerate_templates
from stlmine.monitor import _Scorer, _stack
from stlmine.params import default_bounds, instantiate
from stlmine.traces import Dataset, Trace


def _templates_by_root():
    """Templates up to length 3 over one or two signals, with one- and
    two-sided windows, grouped by the operator at their root."""
    out: dict[str, list] = {}
    for signals in (["x"], ["x", "y"]):
        for two_sided in (False, True):
            db = FormulaDB()
            grammar = Grammar.default(signals, two_sided_intervals=two_sided)
            enumerate_templates(grammar, max_length=3, db=db)
            for length in sorted(db.by_length):
                for t in db.by_length[length]:
                    out.setdefault(type(t).__name__, []).append((tuple(signals), t))
    return out


# each root operator is drawn equally often, so the rarer root-level Until
# gets as many examples as the more numerous binary templates
TEMPLATES = _templates_by_root()


@st.composite
def traces_of_two_shapes(draw, signals):
    """One to three traces each of two lengths, on a shared period; values on
    a coarse lattice so that ties with thresholds occur."""
    period = draw(st.sampled_from([0.5, 1.0]))
    n_a, n_b = draw(st.lists(st.integers(2, 7), min_size=2, max_size=2, unique=True))
    lattice = st.integers(-20, 20).map(lambda k: k * 0.25)
    traces = []
    for n in (n_a, n_b):
        for _ in range(draw(st.integers(1, 3))):
            sigs = {s: draw(st.lists(lattice, min_size=n, max_size=n)) for s in signals}
            traces.append(Trace(sigs, period))
    return traces


def _value_in(lo: float, hi: float):
    # box corners and an eighths grid hit sample times and ties; the floats
    # reach inverted two-sided windows and windows between samples
    grid = st.integers(0, 8).map(lambda k: lo + k * (hi - lo) / 8)
    return st.one_of(grid, st.floats(lo, hi, allow_nan=False))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_g_equals_brute_force_minimum(data):
    root = data.draw(st.sampled_from(sorted(TEMPLATES)), label="root")
    signals, template = data.draw(st.sampled_from(TEMPLATES[root]), label="template")
    traces = data.draw(traces_of_two_shapes(signals), label="traces")
    space = default_bounds(template, Dataset(traces, [1] * len(traces)))
    vector = [data.draw(_value_in(p.lo, p.hi), label=p.name) for p in space.params]
    valuation = space.to_valuation(vector)

    got = BoundaryQuery(template, space, traces).g(vector)

    phi = instantiate(template, valuation, validate=False)
    assert got == min(brute_robustness(phi, tr) for tr in traces)
    assert got == min_robustness(template, valuation, traces)


# the templates the scorer compiles, as opposed to the chains it factors
COMPILED = {root: group for root, group in
            ((root, [(s, t) for s, t in group if _Scorer(t).ops is None])
             for root, group in TEMPLATES.items()) if group}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_warm_compiled_scorer_equals_brute_force(data):
    root = data.draw(st.sampled_from(sorted(COMPILED)), label="root")
    signals, template = data.draw(st.sampled_from(COMPILED[root]), label="template")
    traces = data.draw(traces_of_two_shapes(signals), label="traces")
    space = default_bounds(template, Dataset(traces, [1] * len(traces)))
    vectors = data.draw(st.lists(
        st.tuples(*[_value_in(p.lo, p.hi) for p in space.params]).map(list),
        min_size=2, max_size=6), label="vectors")

    # keep every result of the template's compiled closures, and a copy of it
    kept, compile_ = [], monitor._compile

    def compile_and_keep(node, b, names, t=None):
        f = compile_(node, b, names, t)
        if node is not template:
            return f

        def keep(v):
            out = f(v)
            kept.append((out, out.copy()))
            return out
        return keep

    stacked = _stack(template, traces, 0.0)
    with mock.patch.object(monitor, "_compile", compile_and_keep):
        scorer = _Scorer(template)
        g = scorer.g([b for _, b in stacked], space.names)
        for vector in vectors:
            valuation = space.to_valuation(vector)
            phi = instantiate(template, valuation, validate=False)
            want = [brute_robustness(phi, tr) for tr in traces]
            assert g(vector) == min(want)
            for idx, b in stacked:
                assert scorer.positive(b, valuation) == sum(want[i] > 0 for i in idx)
    # g and positive call each batch's one closure, none of whose results
    # may be handed out again or changed by a later call
    assert len(kept) == 2 * len(vectors) * len(stacked)
    for out, copy in kept:
        assert out.tobytes() == copy.tobytes()
