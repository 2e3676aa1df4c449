"""Parameter boxes, polarity wiring, and template instantiation."""
from __future__ import annotations

import numpy as np
import pytest

from stlmine.errors import DegenerateBoundsError, InstantiationError, UnknownSignalError
from stlmine.formula import (
    And,
    Atom,
    Const,
    Finally,
    Globally,
    Interval,
    Param,
    Polarity,
)
from stlmine.params import (
    ParamDef, ParamKind, ParamSpace, default_bounds, instantiate, signal_ranges,
)
from stlmine.parser import parse_formula
from stlmine.traces import Dataset, Trace


def ds_of(*value_lists, period=1.0):
    traces = [Trace({"x": np.asarray(v, float)}, period) for v in value_lists]
    return Dataset(traces, [1] * len(traces))


def test_value_bounds_padded_by_tenth_of_range():
    space = default_bounds(parse_formula("x > $c"), ds_of(np.linspace(0, 10, 11)))
    (d,) = space.params
    assert d.kind is ParamKind.VALUE
    assert d.lo == pytest.approx(-1.0)
    assert d.hi == pytest.approx(11.0)


def test_constant_signal_padded_absolutely():
    space = default_bounds(parse_formula("x > $c"), ds_of([5.0, 5.0, 5.0]))
    (d,) = space.params
    assert (d.lo, d.hi) == (4.0, 6.0)


def test_time_bounds_use_shortest_duration():
    ds = ds_of(np.zeros(11), np.zeros(9))  # durations 10 and 8
    space = default_bounds(parse_formula("F[0,$t](x > 1)"), ds)
    (d,) = space.params
    assert d.kind is ParamKind.TIME
    assert (d.lo, d.hi) == (0.0, 8.0)


def test_axes_follow_template_preorder():
    tpl = parse_formula("x < $a and F[0,$t](x > $b)")
    space = default_bounds(tpl, ds_of([0.0, 10.0]))
    assert [d.name for d in space.params] == ["a", "t", "b"]
    assert [d.kind for d in space.params] == [
        ParamKind.VALUE,
        ParamKind.TIME,
        ParamKind.VALUE,
    ]
    assert space.dim == 3
    vec = space.lows()
    assert list(space.to_valuation(vec)) == ["a", "t", "b"]


def test_polarity_attached_from_inference():
    tpl = parse_formula("F[0,$t](x > $c)")
    space = default_bounds(tpl, ds_of([0.0, 1.0]))
    by_name = {d.name: d.polarity for d in space.params}
    assert by_name == {"t": Polarity.INCREASING, "c": Polarity.DECREASING}


def test_bounds_multi_signal_ranges_are_per_signal():
    t = Trace({"x": np.array([0.0, 10.0]), "y": np.array([100.0, 101.0])}, 1.0)
    ds = Dataset([t], [1])
    tpl = parse_formula("x > $a and y < $b")
    space = default_bounds(tpl, ds)
    a, b = space.params
    assert (a.lo, a.hi) == (-1.0, 11.0)
    assert b.lo == pytest.approx(99.9)
    assert b.hi == pytest.approx(101.1)


def test_signal_ranges_cached_per_dataset_and_copied():
    ds = ds_of([0.0, 2.0], [-1.0, 1.0])
    ranges = signal_ranges(ds)
    assert ranges == {"x": (-1.0, 2.0)}
    ranges["x"] = (0.0, 0.0)  # the caller's copy, not the dataset's cache
    assert signal_ranges(ds) == {"x": (-1.0, 2.0)}


def test_bounds_errors():
    # empty datasets are rejected at construction time
    with pytest.raises(Exception):
        Dataset([], [])
    # a time parameter cannot be bounded when every trace is a single sample
    single = Dataset([Trace({"x": [1.0]}, period=1.0)], [1])
    with pytest.raises(DegenerateBoundsError):
        default_bounds(parse_formula("F[0,$t](x > 0)"), single)
    with pytest.raises(Exception):
        default_bounds(parse_formula("y > $c"), ds_of([0.0, 1.0]))


@pytest.mark.parametrize("kind, lo, hi", [
    (ParamKind.VALUE, -np.inf, 10.0), (ParamKind.VALUE, 0.0, np.inf),
    (ParamKind.VALUE, -np.inf, np.inf), (ParamKind.TIME, 0.0, np.inf),
])
def test_space_refuses_infinite_bounds(kind, lo, hi):
    with pytest.raises(DegenerateBoundsError, match="not finite"):
        ParamSpace([ParamDef("c", kind, lo, hi, Polarity.INCREASING)])


def test_bounds_check_the_signal_of_a_constant_threshold_atom():
    with pytest.raises(UnknownSignalError, match="'y'"):
        default_bounds(parse_formula("x > $c and y > 3"), ds_of([0.0, 1.0]))


def test_instantiate_substitutes_everywhere():
    tpl = parse_formula("x < $a and F[0,$t](x > $b)")
    phi = instantiate(tpl, {"a": -10.5, "t": 25.0, "b": -8.7})
    assert phi == parse_formula("x < -10.5 and F[0,25](x > -8.7)")


def test_instantiate_missing_param():
    tpl = parse_formula("F[0,$t](x > $c)")
    with pytest.raises(InstantiationError):
        instantiate(tpl, {"t": 1.0})


def test_instantiate_rejects_inverted_window():
    tpl = Finally(
        Interval(Param("lo"), Param("hi")), Atom("x", ">", Const(0.0))
    )
    with pytest.raises(InstantiationError):
        instantiate(tpl, {"lo": 3.0, "hi": 1.0})
    # internal callers may skip validation and deal with the degenerate window
    phi = instantiate(tpl, {"lo": 3.0, "hi": 1.0}, validate=False)
    assert isinstance(phi, Finally)


def test_instantiate_rejects_what_the_parser_rejects():
    # a half-open point window: the parser and validate_formula refuse it, so
    # instantiate must not produce it
    tpl = parse_formula("F($a,$b](x > 0)")
    with pytest.raises(InstantiationError, match="point interval must be closed"):
        instantiate(tpl, {"a": 2.0, "b": 2.0})
    phi = instantiate(tpl, {"a": 2.0, "b": 3.0})
    assert parse_formula(str(phi)) == phi


def test_instantiate_negative_time_rejected():
    tpl = parse_formula("F[$lo,$hi](x > 0)")
    with pytest.raises(InstantiationError):
        instantiate(tpl, {"lo": -1.0, "hi": 1.0})


def test_value_padding_brackets_every_atom():
    # for each atom, the padded box must contain both a satisfying and a
    # violating threshold for every trace, so boundary search sees a sign flip
    import numpy as np

    rng = np.random.default_rng(21)
    ds = Dataset(
        [Trace({"x": rng.uniform(-5.0, 5.0, size=6)}, 1.0) for _ in range(4)],
        [1, 1, 0, 0],
    )
    for text in ("x > $c", "x < $c"):
        tpl = parse_formula(text)
        d = default_bounds(tpl, ds).params[0]
        for tr in ds.traces:
            x0 = float(tr.values("x")[0])
            margins = {x0 - d.lo, x0 - d.hi} if ">" in text else {d.lo - x0, d.hi - x0}
            assert any(m > 0 for m in margins) and any(m <= 0 for m in margins)
