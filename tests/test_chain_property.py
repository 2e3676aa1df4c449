"""Property tests for single-atom temporal chains, ``(not | F_I | G_I)* (x ~ c)``.

The scorer scores such a template from cached window reductions of the raw
signal.  Its minimum over the traces (``g``) must be the minimum ``_rob``
gives, the sign of zero included, and its count above zero (``positive``)
must be ``_rob``'s count.  (``test_window_property.check_prefix_rows`` pins
the bytes of the prefix tables against ``_fold``.)  A boundary query and the
learner's MCR check share one scorer and reuse its caches across valuations,
so the last test drives one query and one set of label batches through many
valuations that share window offsets.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from stlmine.boundary import BoundaryQuery, min_robustness
from stlmine.formula import (
    And, Atom, Const, Finally, Globally, Interval, Not, Param, TrueF, Until, infer_polarity,
    iter_nodes,
)
from stlmine.learner import MCR_ONESIDED, MCR_SYMMETRIC, _count_wrong, _label_batches, mcr
from stlmine.monitor import BIG, _Batch, _rob, _Scorer
from stlmine.params import (
    ParamDef, ParamKind, ParamSpace, _window_error, default_bounds, instantiate,
)
from stlmine.parser import parse_formula
from stlmine.traces import Trace
from test_g_property import TEMPLATES
from test_mcr_property import labeled_traces_of_two_shapes

# ±0.0 for the sign of zero, values near BIG so that |x| + |c| exceeds it
VALUES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.5, 9e8, -9e8, 1e9, -1e9])
THRESHOLDS = st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.5, 5e8, -5e8, 1.5e9, -1.5e9])


@st.composite
def chains(draw):
    """A chain up to depth 4 of not/F/G, with at least one window, over one
    atom, and a valuation of its parameters.  Window ends are half-sample multiples up to past the grid,
    so windows fall between samples, run off the grid, or are empty or
    inverted; a one-sided window starts at 0."""
    val: dict[str, float] = {}

    def param(value):
        name = f"p{len(val) + 1}"
        val[name] = value
        return Param(name)

    ends = st.integers(0, 20).map(lambda k: k * 0.5)
    node = Atom("x", draw(st.sampled_from([">", ">=", "<", "<="])), param(draw(THRESHOLDS)))
    ops = st.lists(st.sampled_from(["not", "F", "G"]), min_size=1, max_size=4)
    for op in draw(ops.filter(lambda ops: set(ops) != {"not"})):
        if op == "not":
            node = Not(node)
            continue
        lo = param(draw(ends)) if draw(st.booleans()) else Const(0.0)
        iv = Interval(lo, param(draw(ends)), draw(st.booleans()), draw(st.booleans()))
        node = (Finally if op == "F" else Globally)(iv, node)
    return node, val


@st.composite
def batches_of_two_shapes(draw):
    """Two batches of one to three traces, of different lengths and start
    times, so that t=0 is the first sample in one and a later one in the other."""
    period = draw(st.sampled_from([0.5, 1.0]))
    n_a, n_b = draw(st.lists(st.integers(1, 7), min_size=2, max_size=2, unique=True))
    out = []
    for n, start in ((n_a, 0.0), (n_b, -period)):
        k = draw(st.integers(1, 3))
        values = st.lists(VALUES, min_size=n, max_size=n)
        out.append(_Batch([Trace({"x": draw(values)}, period, start) for _ in range(k)]))
    return out


def test_only_single_atom_chains_factor():
    x = Atom("x", ">", Const(0.0))
    iv = Interval(Const(0.0), Const(1.0))
    assert _Scorer(Not(Globally(iv, Finally(iv, Not(x))))).ops is not None
    assert _Scorer(Finally(iv, x)).ops is not None
    for other in (x, Not(x), TrueF(), Finally(iv, And(x, x)), Not(Until(iv, x, x)),
                  Globally(iv, TrueF())):
        assert _Scorer(other).ops is None


@settings(max_examples=600, deadline=None)
@given(chains(), batches_of_two_shapes())
def test_chain_equals_rob_bit_for_bit(chain_and_val, batches):
    template, val = chain_and_val
    chain = _Scorer(template)
    for b in batches:
        want = _rob(template, b, val, 0.0)
        assert chain.positive(b, val) == np.count_nonzero(want > 0)
        assert chain.positive(b, val) == np.count_nonzero(want > 0)  # from the cache
        assert chain.g([b], list(val))(list(val.values())) == want.min()
        assert abs(want).max() <= BIG


@settings(max_examples=400, deadline=None)
@given(chains(), batches_of_two_shapes())
def test_chain_g_is_a_python_float_equal_to_the_rob_minimum(chain_and_val, batches):
    # g clips the cached extreme in Python floats; it must equal the minimum
    # of _rob over the batches, with |x| + |c| past BIG, ±0.0 and empty windows
    template, val = chain_and_val
    polarity = infer_polarity(template)
    space = ParamSpace([ParamDef(name, ParamKind.VALUE if name == "p1" else ParamKind.TIME,
                                 0.0, 1.0, polarity[name]) for name in val])
    query = BoundaryQuery._from_batches(_Scorer(template), space, batches, delta=0.01,
                                        diag_tol=1e-3, max_points=None)
    want = min(float(_rob(template, b, val, 0.0).min()) for b in batches)
    for _ in range(2):  # the second call reads the cache
        got = query.g([val[name] for name in space.names])
        assert type(got) is float
        assert got == want


X_TEMPLATES = [t for group in TEMPLATES.values() for signals, t in group if signals == ("x",)]


@st.composite
def templates_and_valuations(draw):
    """A chain, or a one-signal grammar template up to length 3 (one- or
    two-sided windows) with thresholds and window ends drawn as in chains()."""
    if draw(st.booleans()):
        return draw(chains())
    template, val = draw(st.sampled_from(X_TEMPLATES)), {}
    for node in iter_nodes(template):
        match node:
            case Atom(_, _, Param(name)):
                val[name] = draw(THRESHOLDS)
            case Finally(iv, _) | Globally(iv, _) | Until(iv, _, _):
                for end in (iv.lo, iv.hi):
                    if isinstance(end, Param):
                        val[end.name] = draw(st.integers(0, 20)) * 0.5
    return template, val


@settings(max_examples=600, deadline=None)
@given(templates_and_valuations(), batches_of_two_shapes())
def test_compiled_g_and_positive_equal_rob(template_and_val, batches):
    # g, compiled once per fit, against the minimum of _rob over the batches;
    # positive, the count the MCR check sums, against _rob's count above zero.
    # positive reads the valuation by name, from g's plans or from plans of
    # its own built for the keys in reverse order
    template, val = template_and_val
    backward = dict(reversed(val.items()))
    scorer, fresh = _Scorer(template), _Scorer(template)
    g = scorer.g(batches, list(val))
    want = [_rob(template, b, val, 0.0) for b in batches]
    for _ in range(2):  # the second call reads the prefix tables
        got = g(list(val.values()))
        assert type(got) is float
        assert got == min(float(w.min()) for w in want)
        for b, w in zip(batches, want):
            count = np.count_nonzero(w > 0)
            assert scorer.positive(b, val) == scorer.positive(b, backward) == count
            assert fresh.positive(b, backward) == count


@pytest.mark.parametrize("text", [
    "F[0,$t](x > $c)", "G[0,$t](x < $c)", "not F[0,$t](x >= $c)",
    "F[2,$t](G[0,3](x > $c))", "not G[10,$t](not F[1,4](x <= $c))",
])
def test_chain_equals_rob_bit_for_bit_on_a_wide_batch(text):
    # the anomaly shape, 500 traces of 101 samples; every trace holds a block of
    # tied zeros of both signs in its windows and negative values elsewhere
    rng = np.random.default_rng(7)
    x = -rng.uniform(0.5, 2.0, (500, 101))
    x[:, 10:60] = rng.choice([0.0, -0.0], (500, 50))
    b = _Batch([Trace({"x": row}, 1.0) for row in x])
    template = parse_formula(text)
    chain = _Scorer(template)
    zeros = 0
    for t in (0.0, 12.0, 30.0, 100.0):
        for c in (0.0, -0.0):
            val = {"t": t, "c": c}
            want = _rob(template, b, val, 0.0)
            for _ in range(2):  # the second call reads the cache
                assert chain.positive(b, val) == np.count_nonzero(want > 0), (t, c)
            assert chain.g([b], list(val))(list(val.values())) == want.min()
            zeros += np.count_nonzero(want == 0)
    assert zeros  # the ties reach the results, so their signs are compared


def _rob_wrong(template, batches, val, mode):
    """The traces ``_count_wrong`` counts as wrong, scored by ``_rob`` itself."""
    neg, pos = batches
    wrong = sum(np.count_nonzero(_rob(template, b, val, 0.0) > 0) for b in neg)
    if mode == MCR_SYMMETRIC:
        wrong += sum(b.k - np.count_nonzero(_rob(template, b, val, 0.0) > 0) for b in pos)
    return wrong


CHAIN_TEMPLATES = [(s, t) for group in TEMPLATES.values() for s, t in group
                   if _Scorer(t).ops is not None]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_warm_caches_match_fresh_queries_and_mcr(data):
    signals, template = data.draw(st.sampled_from(CHAIN_TEMPLATES), label="template")
    ds = data.draw(labeled_traces_of_two_shapes(signals), label="dataset")
    space = default_bounds(template, ds)
    batches = _label_batches(ds)
    positives = ds.with_label(1)
    scorer = _Scorer(template)
    query = BoundaryQuery._from_batches(scorer, space, batches[1], delta=0.01,
                                        diag_tol=1e-3, max_points=None)
    # two settings of the time parameters, taken in turn, each under many thresholds
    eighths = [st.integers(0, 8).map(lambda k, p=p: p.lo + k * (p.hi - p.lo) / 8)
               for p in space.params]
    times = {p.name: data.draw(st.lists(grid, min_size=2, max_size=2, unique=True), label=p.name)
             for p, grid in zip(space.params, eighths) if p.kind is ParamKind.TIME}
    for i in range(12):
        vector = [times[p.name][i % 2] if p.kind is ParamKind.TIME
                  else data.draw(st.floats(p.lo, p.hi, allow_nan=False), label=p.name)
                  for p in space.params]
        valuation = space.to_valuation(vector)

        got = query.g(vector)
        assert got == BoundaryQuery(template, space, positives).g(vector)
        assert got == min_robustness(template, valuation, positives)

        phi = None if _window_error(template, valuation) else instantiate(template, valuation)
        for mode in (MCR_ONESIDED, MCR_SYMMETRIC):
            wrong = _count_wrong(scorer, batches, valuation, mode)
            assert wrong == _rob_wrong(template, batches, valuation, mode)
            if phi is not None:
                assert wrong / ds.n == mcr(phi, ds, mode)
    # at most one table per batch, none for a chain that is not tabled, and
    # one remembered extreme per batch and window offsets: the thresholds share them
    assert len(scorer._tables) <= len(batches[0]) + len(batches[1])
    if not scorer.tabled:
        assert not scorer._tables
    assert len(scorer._memo) <= 2 * len(batches[1])
