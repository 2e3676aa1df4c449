"""Property tests: the sliding-window max/min kernel of the monitor against a
brute-force loop over each window, and its cached doubling table against the
table it builds per call; the single-time fold against a left-to-right loop,
and a chain scorer's prefix tables against that fold.  Last, the one array
layout of the monitor: every stacked signal and every grid result is a
C-contiguous (samples x traces) array, and every compiled closure returns a
fresh contiguous array on each call."""
import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlmine.formula import (
    COMPARATORS, And, Atom, Const, Finally, Globally, Implies, Interval, Not, Or, TrueF, Until,
    iter_nodes,
)
from stlmine.monitor import (
    _FOLD_ACROSS_MIN,
    _ROWS_ACROSS_MIN,
    BIG,
    _Batch,
    _compile,
    _fold,
    _rob,
    _Scorer,
    _window_reduce,
)
from stlmine.parser import parse_formula
from stlmine.traces import Trace
from test_chain_property import batches_of_two_shapes

# ±0.0 and repeated values give ties; ±inf is what a chain's empty window holds
VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf])


def brute(arr, jlo, jhi, largest, fill):
    k, n = arr.shape
    out = np.full((k, n), fill)
    for r in range(k):
        for q in range(n):
            win = [arr[r, j] for j in range(q + jlo, min(q + jhi, n - 1) + 1)]
            if win:
                out[r, q] = max(win) if largest else min(win)
    return out


@st.composite
def windows(draw):
    """A (k, n) array, offsets 0 <= jlo <= jhi < n, a direction and the fill
    of that direction, as ``_rob`` (±BIG) or a chain (±inf) passes it."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    arr = np.array(draw(st.lists(VALUES, min_size=k * n, max_size=k * n))).reshape(k, n)
    jlo = draw(st.integers(0, n - 1))
    jhi = draw(st.integers(jlo, n - 1))
    largest = draw(st.booleans())
    fill = (-1 if largest else 1) * draw(st.sampled_from([BIG, np.inf]))
    return arr, jlo, jhi, largest, fill


def _case(row, jlo, jhi, largest, fill):
    return np.array([row]), jlo, jhi, largest, fill


@settings(max_examples=600, deadline=None)
@given(windows())
@example(_case([3.0, -0.0, 0.0, 1.0, 1.0], 0, 0, True, -BIG))  # w=1
@example(_case([3.0, -0.0, 0.0, 1.0, 1.0], 0, 4, False, np.inf))  # w=n
@example(_case([3.0, -0.0, 0.0, 1.0, 1.0], 4, 4, True, -np.inf))  # jlo=n-1
@example(_case([-np.inf, 0.0, -0.0, np.inf, 2.5, 2.5, -1.0], 2, 6, False, BIG))
@example(_case([7.0], 0, 0, False, BIG))
def test_window_reduce_matches_bruteforce(case):
    rows, jlo, jhi, largest, fill = case
    want = brute(rows, jlo, jhi, largest, fill).T
    arr = rows.T.copy()  # (samples x traces), as a batch stacks it
    levels = [arr.copy()]
    cached = _window_reduce(levels[0], jlo, jhi, largest, fill, levels)
    assert (cached == want).all()
    assert levels[0].tobytes() == arr.tobytes()  # the cached table keeps its input
    # the per-call table is built in its input array, which the caller owns
    assert _window_reduce(arr.copy(), jlo, jhi, largest, fill).tobytes() == cached.tobytes()
    # a table extended by a wider window still gives the same bytes to a narrower one
    n = arr.shape[0]
    _window_reduce(levels[0], 0, n - 1, largest, fill, levels)
    again = _window_reduce(levels[0], jlo, jhi, largest, fill, levels)
    assert again.tobytes() == cached.tobytes()


def left_fold(cols, largest):
    """Each column folded from its first row to its last, one scalar at a time."""
    op = np.maximum if largest else np.minimum
    return np.array([functools.reduce(op, column) for column in cols.T])


@st.composite
def time_major_windows(draw):
    """A (w, k) window of samples x traces, with ties between ±0.0 and ±inf;
    up to 16 traces, so that both ways of folding are drawn."""
    w, k = draw(st.integers(1, 12)), draw(st.integers(1, 16))
    cols = np.array(draw(st.lists(VALUES, min_size=w * k, max_size=w * k))).reshape(w, k)
    return cols, draw(st.booleans())


@settings(max_examples=600, deadline=None)
@given(time_major_windows())
@example((np.array([[0.0], [-0.0], [0.0], [-0.0], [1.0], [-0.0], [0.0], [0.0], [-0.0]]), True))
@example((np.array([[-0.0], [0.0], [-0.0], [0.0], [-1.0], [0.0], [-0.0], [-0.0], [0.0]]), False))
@example((np.array([[0.0, -0.0, np.inf]]), True))  # w=1
@example((np.array([[np.inf, -np.inf], [-np.inf, np.inf], [np.inf, np.inf]]), False))
def test_fold_matches_a_left_to_right_loop(case):
    cols, largest = case
    want = left_fold(cols, largest)
    assert _fold(cols, largest).tobytes() == want.tobytes()
    # _rob and the scorer pass a contiguous slice of rows; a transposed view folds the same
    rows = np.ascontiguousarray(cols.T)
    assert _fold(rows.T, largest).tobytes() == want.tobytes()


@pytest.mark.parametrize("largest", [True, False])
@pytest.mark.parametrize("w", [1, 2, 64, 101])
def test_fold_matches_a_left_to_right_loop_on_wide_batches(w, largest):
    # as many traces as an anomaly batch, over up to its 101 samples, mostly zeros
    rng = np.random.default_rng(w)
    cols = rng.choice(np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, np.inf, -np.inf]), (w, 500))
    assert _fold(cols, largest).tobytes() == left_fold(cols, largest).tobytes()
    # one trace of 101 samples: numpy would reduce its one contiguous run out of order
    one = np.ascontiguousarray(rng.choice([0.0, -0.0], (101, 1)))
    assert _fold(one, largest).tobytes() == left_fold(one, largest).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 8, 12])
def test_fold_results_negate_in_place(k):
    # _rob's Not negates its child's result in place, and numpy 2.4.6 negates
    # a float64 view with a 64-byte stride in place wrongly (such as the last
    # row of an (8 x k) Fortran-ordered array), so a fold must not return one
    rows = np.random.default_rng(k).normal(size=(k, 20))
    for w in range(1, 21):
        for largest in (True, False):
            out = _fold(rows.T[:w], largest)
            want = -left_fold(rows.T[:w], largest)
            np.negative(out, out=out)
            assert out.tobytes() == want.tobytes(), w


# a lone F (max) or G (min) over the raw signal
PREFIX_TEMPLATES = ["F[0,$t](x > $c)", "G[0,$t](x > $c)", "not G[0,$t](x < $c)"]


def check_prefix_rows(b, template, jlo):
    """Build a prefix table from sample jlo; it must hold a row for every
    window from jlo to the last sample, each row the bytes of ``_fold`` over
    the same window and contiguous, and each extreme the row's own."""
    scorer = _Scorer(parse_formula(template))
    largest = scorer.ops[0][1]
    rows, extremes = table = scorer._table(b, jlo)
    assert scorer._table(b, jlo) is table  # built once per batch
    cols = b.signals["x"]
    assert len(rows) == len(extremes) == b.n - jlo
    for m, extreme in enumerate(extremes):
        want = _fold(cols[jlo : jlo + m + 1], largest)
        assert rows[m].flags.c_contiguous
        assert rows[m].tobytes() == want.tobytes(), m
        assert extreme == (want.min() if scorer.rising else want.max())
    return cols


@st.composite
def prefix_cases(draw):
    """A batch of 1 to 16 traces of ±0.0 ties, and a table's first sample."""
    k, n = draw(st.integers(1, 16)), draw(st.integers(1, 12))
    values = st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.5])
    x = np.array(draw(st.lists(values, min_size=k * n, max_size=k * n))).reshape(k, n)
    template = draw(st.sampled_from(PREFIX_TEMPLATES))
    jlo = draw(st.integers(0, n - 1))
    return _Batch([Trace({"x": row}, 1.0) for row in x]), template, jlo


@settings(max_examples=600, deadline=None)
@given(prefix_cases())
def test_prefix_table_rows_are_fold_bytes(case):
    check_prefix_rows(*case)


@pytest.mark.parametrize("template", PREFIX_TEMPLATES)
@pytest.mark.parametrize(
    "k", [_FOLD_ACROSS_MIN - 1, _FOLD_ACROSS_MIN, _ROWS_ACROSS_MIN - 1, _ROWS_ACROSS_MIN, 500])
def test_prefix_table_rows_are_fold_bytes_on_wide_batches(template, k):
    # either side of _fold's and the table's switches between two folds, and an anomaly batch,
    # mostly tied zeros of both signs
    rng = np.random.default_rng(k)
    x = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0], (k, 101))
    b = _Batch([Trace({"x": row}, 1.0) for row in x])
    cols = check_prefix_rows(b, template, 2)
    assert np.count_nonzero(cols == 0) and np.signbit(cols[cols == 0]).any()


# window ends on half samples up to past the grid, so windows fall between
# samples, run off the grid, or are empty or inverted
ENDS = st.integers(0, 16).map(lambda k: Const(k * 0.5))
INTERVALS = st.builds(Interval, ENDS, ENDS, st.booleans(), st.booleans())
ATOMS = st.builds(Atom, st.just("x"), st.sampled_from(COMPARATORS),
                  st.sampled_from([0.0, 0.5, -1.0]).map(Const))


def _operators(children):
    return st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Implies, children, children),
        st.builds(Finally, INTERVALS, children),
        st.builds(Globally, INTERVALS, children),
        st.builds(Until, INTERVALS, children, children),
    )


FORMULAS = st.recursive(st.one_of(ATOMS, st.just(TrueF())), _operators, max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(FORMULAS, batches_of_two_shapes())
def test_batches_and_grid_results_are_time_major(phi, batches):
    # Not and Implies negate their child's result in place, which numpy gets
    # wrong on some strided views, so every result must be contiguous
    for b in batches:
        for sig in b.signals.values():
            assert sig.shape == (b.n, b.k) and sig.flags.c_contiguous
        for node in iter_nodes(phi):
            for sub in (node, Not(node)):
                out = _rob(sub, b)
                assert out.shape == (b.n, b.k) and out.flags.c_contiguous, sub


@settings(max_examples=300, deadline=None)
@given(FORMULAS, batches_of_two_shapes())
def test_compiled_results_are_fresh_and_contiguous(phi, batches):
    # a parent overwrites its child's result, so every node's closure, on the
    # grid and at a time, must return a new contiguous array on each call,
    # sharing memory neither with a stacked signal nor with its last result
    for b in batches:
        for node in iter_nodes(phi):
            for t in (None, b.start, b.start + (b.n - 1) * b.period):
                f = _compile(node, b, [], t)
                last = None
                for _ in range(2):
                    out = f([])
                    assert out.shape == ((b.n, b.k) if t is None else (b.k,)), (node, t)
                    assert out.flags.c_contiguous, (node, t)
                    assert not any(np.shares_memory(out, sig) for sig in b.signals.values())
                    assert last is None or not np.shares_memory(out, last), (node, t)
                    last = out
