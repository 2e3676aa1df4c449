"""Differential test: a whole ``learn`` against ``oracles.reference_learn``,
which scores every robustness by brute force, walks every box by plain
bisection and checks the windows of every boundary point.

Criterion 1 makes the brute-force robustness exact, so the two learns must
agree to the bit: the same template, parameters, MCR and search counters.
"""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_learn
from stlmine.enumeration import Grammar
from stlmine.learner import MCR_ONESIDED, MCR_SYMMETRIC, LearnerConfig, learn
from stlmine.signatures import SignatureConfig
from stlmine.traces import Dataset, Trace

# (delta, diag_tol): coarse boxes and few halvings keep the brute-force side fast
SETTINGS = [(0.1, 0.05), (0.3, 0.01), (0.02, 0.0078125)]

# no atom separates these labels at threshold 0.05, and the first boundary
# point of F[$p1,$p2](x > $p3) has p1 > p2 and scores 0: the label-1 traces
# peak at t=2, the middle of the [0, 4] time box
_PEAK = Trace({"x": [0.0, 0.0, 5.0, 0.0, 0.0]}, period=1.0)
PEAKS = Dataset([_PEAK, _PEAK, Trace({"x": [1.0] * 5}, 1.0), Trace({"x": [-1.0] * 5}, 1.0)],
                [1, 1, 0, 0])


@st.composite
def small_datasets(draw):
    """2-6 traces of 2-8 samples on a shared period, both labels present;
    values on a coarse lattice so that ties with thresholds occur."""
    signals = draw(st.sampled_from([("x",), ("x", "y")]))
    period = draw(st.sampled_from([0.5, 1.0]))
    labels = [0, 1] + draw(st.lists(st.integers(0, 1), max_size=4))
    lattice = st.integers(-20, 20).map(lambda k: k * 0.25)
    traces = []
    for _ in labels:
        n = draw(st.integers(2, 8))
        sigs = {s: draw(st.lists(lattice, min_size=n, max_size=n)) for s in signals}
        traces.append(Trace(sigs, period))
    return Dataset(traces, labels)


@st.composite
def configs(draw):
    # hypothesis leans towards the first value of each choice, so the values
    # that search furthest (threshold 0.05, max_length 3) come first
    delta, diag_tol = draw(st.sampled_from(SETTINGS))
    return LearnerConfig(
        threshold=draw(st.sampled_from([0.05, 0.2, 0.4])),
        delta=delta, diag_tol=diag_tol,
        max_length=draw(st.sampled_from([3, 2, 1])),
        max_boundary_points=draw(st.integers(1, 8)),
        mcr_mode=draw(st.sampled_from([MCR_ONESIDED, MCR_SYMMETRIC])),
        use_signatures=draw(st.sampled_from([True, False])),
        signature=SignatureConfig(seed=draw(st.integers(0, 3))),
    )


@settings(max_examples=200, deadline=None)
@given(ds=small_datasets(), two_sided=st.sampled_from([True, False]), cfg=configs())
@example(ds=PEAKS, two_sided=True, cfg=LearnerConfig(threshold=0.05, max_length=2))
def test_learn_matches_the_reference_learn(ds, two_sided, cfg):
    grammar = Grammar.default(ds.signal_names, two_sided_intervals=two_sided)

    got = learn(ds, grammar, cfg)
    want = reference_learn(ds, grammar, cfg)

    stats = got.stats
    assert (stats.templates_tried, stats.templates_pruned, stats.boundary_points) == (
        want["templates_tried"], want["templates_pruned"], want["boundary_points"])
    assert got.per_length == want["per_length"]
    if want["template"] is None:
        assert got.classifier is None
        return
    found = got.classifier
    assert found.template == want["template"]
    assert {k: v.hex() for k, v in found.valuation.items()} == {
        k: v.hex() for k, v in want["valuation"].items()}
    assert found.mcr == want["mcr"]
