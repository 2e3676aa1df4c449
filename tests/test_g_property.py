"""Property test: the boundary function g, evaluated on the template itself,
against the brute-force oracle applied to the instantiated formula."""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_robustness
from stlmine.boundary import BoundaryQuery, min_robustness
from stlmine.enumeration import FormulaDB, Grammar, enumerate_templates
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
