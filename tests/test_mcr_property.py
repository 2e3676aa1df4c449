"""Property test: the misclassification rate the learner scores on the
template itself, over traces stacked once per learn, against ``mcr`` of the
instantiated formula and against the brute-force oracle."""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_robustness
from stlmine.errors import InstantiationError
from stlmine.formula import Finally, Globally, Until, iter_nodes
from stlmine.learner import MCR_ONESIDED, MCR_SYMMETRIC, _count_wrong, _label_batches, mcr
from stlmine.monitor import _Scorer
from stlmine.params import _window_error, default_bounds, instantiate
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
