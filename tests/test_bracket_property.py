"""Differential test: the boundary query's bracket search against a plain
bisection walk (``oracles.bisection_walk``).

Both probe the same dyadic points of each box diagonal, and g is monotone
along it, so they must end on the same bracket and emit the same valuations,
bit for bit.  Templates and traces come from the g property test: one or two
signals, one- and two-sided windows, two trace lengths (so two batches).
"""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bisection_walk
from stlmine.boundary import BoundaryQuery, min_robustness
from stlmine.params import default_bounds
from stlmine.traces import Dataset
from test_g_property import TEMPLATES, traces_of_two_shapes

# (delta, diag_tol): the defaults, coarse and fine boxes, 4 to 14 halvings
SETTINGS = [(0.01, 1e-3), (0.1, 0.05), (0.3, 0.01), (0.05, 1e-4), (0.02, 0.0078125)]
MAX_POINTS = 30


def _hex(points):
    return [{name: value.hex() for name, value in v.items()} for v in points]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bracket_search_emits_the_bisection_points(data):
    root = data.draw(st.sampled_from(sorted(TEMPLATES)), label="root")
    signals, template = data.draw(st.sampled_from(TEMPLATES[root]), label="template")
    traces = data.draw(traces_of_two_shapes(signals), label="traces")
    delta, diag_tol = data.draw(st.sampled_from(SETTINGS), label="delta, diag_tol")
    space = default_bounds(template, Dataset(traces, [1] * len(traces)))

    query = BoundaryQuery(template, space, traces, delta=delta, diag_tol=diag_tol,
                          max_points=MAX_POINTS)
    got = list(query)

    def g(vector):
        return min_robustness(template, space.to_valuation(vector), traces)

    assert _hex(got) == _hex(bisection_walk(g, space, delta, diag_tol, MAX_POINTS))
