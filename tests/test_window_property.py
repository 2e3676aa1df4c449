"""Property test: the sliding-window max/min kernel of the monitor against a
brute-force loop over each window, and its cached doubling table against the
table it builds per call."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlmine.monitor import BIG, _window_reduce

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
    arr, jlo, jhi, largest, fill = case
    want = brute(arr, jlo, jhi, largest, fill)
    levels = [arr.copy()]
    cached = _window_reduce(levels[0], jlo, jhi, largest, fill, levels)
    assert (cached == want).all()
    assert levels[0].tobytes() == arr.tobytes()  # the cached table keeps its input
    # the per-call table is built in its input array, which the caller owns
    assert _window_reduce(arr.copy(), jlo, jhi, largest, fill).tobytes() == cached.tobytes()
    # a table extended by a wider window still gives the same bytes to a narrower one
    n = arr.shape[1]
    _window_reduce(levels[0], 0, n - 1, largest, fill, levels)
    again = _window_reduce(levels[0], jlo, jhi, largest, fill, levels)
    assert again.tobytes() == cached.tobytes()
