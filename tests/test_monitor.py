"""Robustness and Boolean monitoring on the sample grid."""
from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from oracles import brute_bool, brute_robustness, random_concrete_formula, random_trace
from stlmine.boundary import BoundaryQuery
from stlmine.errors import FormulaStructureError, TraceDomainError, UnknownSignalError
from stlmine.formula import (
    And,
    Atom,
    Const,
    Finally,
    Globally,
    Interval,
    Not,
    Param,
    TrueF,
    Until,
)
from stlmine.monitor import (
    BIG, _rob, _Scorer, _stack, robustness, robustness_many, satisfies,
)
from stlmine.params import _window_error, default_bounds, instantiate
from stlmine.parser import parse_formula


def tr(values, period=1.0):
    return Trace({"x": np.asarray(values, dtype=float)}, period)


from stlmine.traces import _EPS, Dataset, Trace  # noqa: E402


def test_atom_margin():
    t = tr([5.0])
    assert robustness(parse_formula("x > 2"), t) == 3.0
    assert robustness(parse_formula("not x > 2"), t) == -3.0
    assert robustness(parse_formula("x < 2"), t) == -3.0
    assert robustness(parse_formula("x >= 2"), t) == 3.0  # same margin as strict


def test_globally_minimum():
    t = tr([0.0, 1.0, 2.0, 3.0])
    assert robustness(parse_formula("G[0,3](x > -1)"), t) == 1.0


def test_finally_and_until_examples():
    assert satisfies(parse_formula("F[0,1](x > 0)"), tr([-1.0, 1.0]))
    u = parse_formula("(x > 0) U[0,2] (x < 1)")
    t = tr([1.0, 0.5, 2.0])
    assert satisfies(u, t)
    assert robustness(u, t) == 0.5


def test_true_scores_big():
    assert robustness(TrueF(), tr([0.0])) == BIG
    assert robustness(Not(TrueF()), tr([0.0])) == -BIG


def test_zero_robustness_is_violation():
    t = tr([2.0])
    assert robustness(parse_formula("x > 2"), t) == 0.0
    assert not satisfies(parse_formula("x > 2"), t)
    assert not satisfies(parse_formula("x >= 2"), t)


def test_window_truncates_at_trace_end():
    t = tr([0.0, 1.0, 2.0, 3.0])
    # the window [0, 49] sees only the four real samples
    assert robustness(parse_formula("G[0,49](x > -1)"), t) == 1.0
    assert robustness(parse_formula("F[0,49](x > 0)"), t) == 3.0
    # nested: at t=3 the inner window collapses to the last sample
    assert robustness(parse_formula("F[0,3](G[0,9](x > 0))"), t) == 3.0


def test_empty_window_sentinels():
    t = tr([1.0, 2.0])
    assert robustness(parse_formula("F[5,6](x > 0)"), t) == -BIG
    assert robustness(parse_formula("G[5,6](x > 0)"), t) == BIG
    assert robustness(parse_formula("(x > 0) U[5,6] (x > 0)"), t) == -BIG
    # open point window is empty too
    f = Finally(Interval(Const(1.0), Const(1.0), False, False), Atom("x", ">", Const(0)))
    assert robustness(f, t) == -BIG


def test_open_interval_endpoints():
    t = tr([5.0, 1.0, 3.0])
    assert robustness(parse_formula("F[0,2](x > 0)"), t) == 5.0
    assert robustness(parse_formula("F(0,2](x > 0)"), t) == 3.0
    assert robustness(parse_formula("F(0,2)(x > 0)"), t) == 1.0
    assert robustness(parse_formula("F[0,2)(x > 0)"), t) == 5.0


def test_until_needs_hold_before_witness():
    # right becomes true at t=2 but left fails at t=1
    t = tr([1.0, -1.0, 1.0])
    phi = parse_formula("(x > 0) U[0,2] (x > 0.5)")
    assert robustness(phi, t) == 0.5  # witness at t=0 needs no holding
    psi = parse_formula("(x > 0) U[1,2] (x > 0.5)")
    # witness at 1 scores min(-1.5, 1); witness at 2 scores min(0.5, -1)
    assert robustness(psi, t) == -1.0


def test_evaluation_at_positive_time():
    t = tr([0.0, 1.0, 2.0, 3.0])
    phi = parse_formula("F[0,1](x > 1.5)")
    assert not satisfies(phi, t, 0.0)
    assert satisfies(phi, t, 1.0)
    assert robustness(phi, t, 3.0) == 1.5
    # off-grid times hold the previous sample
    assert robustness(parse_formula("x > 0"), t, 2.5) == 2.0


def test_domain_and_signal_errors():
    t = tr([1.0, 2.0])
    with pytest.raises(TraceDomainError):
        robustness(parse_formula("x > 0"), t, 7.0)
    with pytest.raises(UnknownSignalError):
        robustness(parse_formula("y > 0"), t)
    with pytest.raises(FormulaStructureError):
        robustness(Atom("x", ">", Param("c")), t)


def test_robustness_many_rejects_a_template_even_without_traces():
    with pytest.raises(FormulaStructureError):
        robustness_many(parse_formula("x > $c"), [])


def test_robustness_many_checks_every_signal_set():
    # the trace lacking x is not the first one and has a shape of its own
    traces = [Trace({"x": [1.0, 2.0]}, 1.0), Trace({"y": [1.0, 2.0]}, 1.0)]
    with pytest.raises(UnknownSignalError, match="x"):
        robustness_many(parse_formula("F[0,1](x > 0)"), traces)


def test_robustness_many_matches_single_calls():
    rng = np.random.default_rng(11)
    traces = [random_trace(rng, ("x", "y"), max_samples=8) for _ in range(12)]
    # mixed lengths and periods force several vectorization groups
    for _ in range(50):
        phi = random_concrete_formula(rng, ("x", "y"), int(rng.integers(1, 6)), 5.0)
        batch = robustness_many(phi, traces)
        singles = [robustness(phi, t) for t in traces]
        assert np.array_equal(batch, np.asarray(singles))


def test_fuzz_against_bruteforce_at_offset_times():
    rng = np.random.default_rng(12)
    for _ in range(400):
        trace = random_trace(rng, ("x",), max_samples=7)
        phi = random_concrete_formula(rng, ("x",), int(rng.integers(1, 6)), 4.0)
        t = float(rng.integers(0, trace.n_samples)) * trace.period
        got = robustness(phi, trace, t)
        assert got == brute_robustness(phi, trace, t)
        if got != 0.0:
            assert satisfies(phi, trace, t) == brute_bool(phi, trace, t)


def test_fuzz_against_bruteforce_off_grid_with_shifted_start():
    rng = np.random.default_rng(16)
    for _ in range(500):
        start = float(rng.choice([-1.5, 0.0, 0.25, 2.0]))
        base = random_trace(rng, ("x",), max_samples=7)
        trace = Trace({"x": base.values("x")}, base.period, start)
        phi = random_concrete_formula(rng, ("x",), int(rng.integers(1, 6)), 4.0)
        k = int(rng.integers(0, trace.n_samples))
        frac = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
        t = min(start + (k + frac) * trace.period, trace.end_time)
        assert robustness(phi, trace, t) == brute_robustness(phi, trace, t)


def test_window_ends_close_to_sample_times():
    # window ends k*period off by 0, 1e-12, 5e-10 or 1e-6 periods: the first
    # two offsets fall inside the 1e-9 snapping slack, the last two outside
    rng = np.random.default_rng(18)
    offsets = [0.0, 1e-12, -1e-12, 5e-10, -5e-10, 1e-6, -1e-6]

    def interval(period):
        ends = sorted(
            max(int(rng.integers(0, 5)) + float(rng.choice(offsets)), 0.0) * period
            for _ in range(2)
        )
        closed = [bool(rng.random() < 0.7) for _ in range(2)]
        if ends[0] == ends[1]:
            closed = [True, True]
        return Interval(Const(ends[0]), Const(ends[1]), *closed)

    def atom():
        op = str(rng.choice([">", "<"]))
        return Atom("x", op, Const(float(rng.integers(-8, 9)) * 0.25))

    def temporal(period):
        kind = rng.choice(["F", "G", "U"])
        if kind == "U":
            return Until(interval(period), atom(), atom())
        return (Finally if kind == "F" else Globally)(interval(period), atom())

    for _ in range(3000):
        period = float(rng.choice([0.1, 0.25, 0.3, 0.5, 1.0]))
        start = float(rng.choice([-1.5, 0.0, 0.25, 0.7, 2.0]))
        n = int(rng.integers(1, 9))
        trace = Trace({"x": rng.integers(-8, 9, size=n) * 0.25}, period, start)
        phi = temporal(period)
        shape = rng.choice(["root", "and", "nested"])
        if shape == "and":
            phi = And(atom(), phi)
        elif shape == "nested":
            phi = (Finally if rng.random() < 0.5 else Globally)(interval(period), phi)
        frac = float(rng.choice([0.0, 0.0, 0.25, 0.5]))
        t = min(start + (int(rng.integers(0, n)) + frac) * period, trace.end_time)
        assert robustness(phi, trace, t) == brute_robustness(phi, trace, t), (phi, trace, t)


def test_window_ends_far_past_the_trace_match_bruteforce():
    # an end whose sample index overflows a float clips the window to the
    # trace, or empties it, instead of raising OverflowError
    cases = [
        ("F[0,1e308](x > 0)", 0.5),
        ("(x > 0) U[0,1e308] (x > 2)", 0.5),
        ("F[0,1](x > 0)", 1e-310),
        ("G[0,1](F[0,1e308](x > 2))", 0.5),
        ("G[1e308,1e308](x > 0)", 0.5),
    ]
    for text, period in cases:
        trace = Trace({"x": [1.0, 2.0, 3.0]}, period)
        phi = parse_formula(text)
        for t in (0.0, period, 2 * period):
            assert robustness(phi, trace, t) == brute_robustness(phi, trace, t), (text, t)
    # a chain's compiled g resolves its window ends through the same rule
    [(_, batch)] = _stack(TrueF(), [tr([1.0, 2.0, 3.0], 0.5)], 0.0)
    g = _Scorer(parse_formula("F[0,$t](x > $c)")).g([batch], ["t", "c"])
    assert g([1e308, 0.0]) == 3.0


def _slack_formulas(p, ends):
    """F, G and U with point windows at 0 and wider windows, ends in periods p."""
    (a1, b1), (a2, b2), (a3, b3) = ends

    def iv(a, b):
        return Interval(Const(a * p), Const(b * p))

    def x(op, c):
        return Atom("x", op, Const(c))

    return [Finally(iv(0, 0), x(">", 0.0)), Finally(iv(a1, b1), x(">", 2.5)),
            Globally(iv(0, 0), x(">", 0.0)), Globally(iv(a2, b2), x("<", 2.5)),
            Until(iv(0, 0), x(">", 0.0), x(">", 0.0)),
            Until(iv(a3, b3), x(">", 1.5), x(">", 2.5)), Finally(iv(0, 0.5), x("<", 1.5))]


def test_times_inside_the_domain_slack_read_the_end_samples():
    # a time up to _EPS periods before the first sample or after the last is
    # in the domain; its windows start from that sample, as its atoms read it.
    # Against the oracle, the far ends of the wider windows lie between
    # samples: at the slack's edge an end k periods on lies exactly at the
    # oracle's tolerance around sample k, where rounding decides.
    checks = 0
    for start in (0.0, -0.3, 5.0, 1e3, 0.7):
        for period in (1e-3, 0.1, 0.25, 0.3, 0.5, 1.0, 3.0):
            for n in (1, 3, 7):
                trace = Trace({"x": np.arange(1.0, n + 1)}, period, start)
                slack = _EPS * period
                times = (start - slack, start, trace.end_time, trace.end_time + slack)
                for t in times:
                    assert trace.contains_time(t)
                    for phi in _slack_formulas(period, [(0, 1.5), (0.5, 2.5), (0, 1.5)]):
                        want = brute_robustness(phi, trace, t)
                        assert robustness(phi, trace, t) == want, (phi, start, period, n, t)
                        assert robustness_many(phi, [trace, trace], t).tolist() == [want] * 2
                        checks += 1
                # with ends on samples, a time in the slack scores as its sample
                for t, at in ((start - slack, start), (trace.end_time + slack, trace.end_time)):
                    for phi in _slack_formulas(period, [(0, 2), (1, 3), (1, 1)]):
                        want = robustness(phi, trace, at)
                        assert robustness(phi, trace, t) == want, (phi, start, period, n, t)
                        assert robustness_many(phi, [trace], t).tolist() == [want]
    assert checks == 2940


def test_chain_g_at_a_batch_starting_inside_the_slack():
    # t=0 lies _EPS periods before the first sample: g plans its windows from
    # that sample, as _rob does.  At a period of 1.905, -start / period + _EPS
    # rounds below 0, so an end left unsnapped drops the first sample
    for period in (0.1, 1.0, 1.905):
        traces = [Trace({"x": [1.0, -2.0, 3.0, 0.5]}, period, _EPS * period),
                  Trace({"x": [2.0, 1.0, -1.0, 4.0]}, period, _EPS * period)]
        [(_, b)] = _stack(TrueF(), traces, 0.0)
        for text in ("F[0,$t](x > $c)", "G[$a,$t](x > $c)", "not F[0,$t](G[0,$a](x < $c))"):
            template = parse_formula(text)
            names = sorted(["a", "t", "c"] if "$a" in text else ["t", "c"])
            g = _Scorer(template).g([b], names)
            for a, t, c in ((0, 0, 0.5), (0, 1, 0.5), (1, 2, -1.5), (0, 3, 2.5), (2, 2, 0.0)):
                val = {"a": a * period, "t": t * period, "c": c}
                val = {name: val[name] for name in names}
                want = _rob(template, b, val, 0.0)
                assert g(list(val.values())) == float(want.min()), (text, val)
                if _window_error(template, val) is None:
                    phi = instantiate(template, val)
                    assert want.tolist() == [brute_robustness(phi, trace) for trace in traces]


def test_negation_duality():
    rng = np.random.default_rng(13)
    for _ in range(300):
        trace = random_trace(rng, ("x", "y"), max_samples=6)
        phi = random_concrete_formula(rng, ("x", "y"), int(rng.integers(1, 5)), 4.0)
        rho = robustness(phi, trace)
        assert robustness(Not(phi), trace) == -rho


def test_window_growth_is_monotone():
    # widening "eventually" can only add candidates to the max; widening
    # "always" can only add constraints to the min
    rng = np.random.default_rng(14)
    for _ in range(200):
        trace = random_trace(rng, ("x",), max_samples=8)
        child = random_concrete_formula(rng, ("x",), int(rng.integers(1, 4)), 3.0)
        hi = float(rng.uniform(0.0, 5.0))
        wider = hi + float(rng.uniform(0.0, 5.0))
        f_narrow = robustness(Finally(Interval(Const(0.0), Const(hi)), child), trace)
        f_wide = robustness(Finally(Interval(Const(0.0), Const(wider)), child), trace)
        assert f_wide >= f_narrow
        g_narrow = robustness(Globally(Interval(Const(0.0), Const(hi)), child), trace)
        g_wide = robustness(Globally(Interval(Const(0.0), Const(wider)), child), trace)
        assert g_wide <= g_narrow


def _closed(lo, hi):
    return Interval(Const(lo), Const(hi), True, True)


def _near_big_cases(a, b):
    """Atoms, and windows that start past t (jlo > 0) and run off the grid."""
    return [
        a,
        b,
        Finally(_closed(3, 12), a),
        Globally(_closed(2, 20), b),
        Until(_closed(2, 15), a, b),
        Globally(_closed(0, 20), Until(_closed(3, 6), a, b)),
        Finally(_closed(1, 20), Globally(_closed(4, 9), a)),
        Globally(_closed(0, 20), Not(Finally(_closed(5, 30), b))),
    ]


def test_values_and_thresholds_near_big_saturate_like_bruteforce():
    # |x| up to 2*BIG and |c| up to 1.5*BIG, so margins pass BIG only in some
    # atoms; a small-valued trace has its own batch, where only |c| can bite
    rng = np.random.default_rng(21)
    lattice = [-2e9, -1.6e9, -1e9, -6e8, -3.0, 0.0, 3.0, 6e8, 1e9, 1.6e9, 2e9]
    traces = [tr(rng.choice(lattice, size=n)) for n in (9, 9, 9, 6, 6)]
    traces.append(tr(rng.integers(-4, 5, size=7) * 0.75))
    thresholds = [-1.5e9, -5e8, 0.0, 5e8, 1.5e9]
    for c1 in thresholds:
        for c2 in thresholds:
            for phi in _near_big_cases(Atom("x", ">", Const(c1)), Atom("x", "<", Const(c2))):
                for t in (0.0, 2.0, 5.0):
                    want = [brute_robustness(phi, trace, t) for trace in traces]
                    assert robustness_many(phi, traces, t).tolist() == want, (phi, t)
                    assert [robustness(phi, trace, t) for trace in traces] == want, (phi, t)
    for c in (-np.inf, np.inf):  # an infinite threshold always clips
        with pytest.raises(FormulaStructureError, match="not a finite number"):
            Const(c)
        # a valuation still reaches one, and scores as a threshold past every value does
        for template in (Atom("x", ">", Param("c")),
                         Finally(_closed(3, 12), Atom("x", "<", Param("c")))):
            past = instantiate(template, {"c": float(np.copysign(1e300, c))})
            want = [brute_robustness(past, trace) for trace in traces]
            got = np.empty(len(traces))
            for idx, batch in _stack(template, traces, 0.0):
                got[idx] = _rob(template, batch, {"c": c}, 0.0)
            assert got.tolist() == want

    templates = _near_big_cases(Atom("x", ">", Param("a")), Atom("x", "<", Param("b")))
    ds = Dataset(traces, [1] * len(traces))
    for template in templates:
        space = default_bounds(template, ds)
        query = BoundaryQuery(template, space, traces)
        for c1 in thresholds:
            for c2 in thresholds:
                valuation = {name: {"a": c1, "b": c2}[name] for name in space.names}
                phi = instantiate(template, valuation)
                want = min(brute_robustness(phi, trace) for trace in traces)
                assert query.g([valuation[name] for name in space.names]) == want


def test_until_on_long_traces_matches_bruteforce():
    # windows of up to 50 samples on 60- and 64-sample traces: the grid
    # Until under F and G shifts its operands by up to 50 samples
    rng = np.random.default_rng(22)
    traces = [tr(rng.integers(-20, 21, size=n) * 0.25) for n in (64, 64, 60)]
    left, right = Atom("x", "<", Const(1.0)), Atom("x", ">", Const(-1.0))
    for lo, hi in ((3, 50), (1, 40), (10, 20), (0, 50), (25, 49)):
        until = Until(_closed(lo, hi), left, right)
        cases = [(until, t) for t in (0.0, 20.0, 45.0)]
        # F[0,0] reads single grid columns: the last ones whose window reaches
        # the grid (n - jlo - 1) and the first ones past it (n - jlo)
        columns = {0, 13, 40} | {n - lo - d for n in (60, 64) for d in (0, 1)}
        cases += [(Finally(_closed(0, 0), until), float(q)) for q in sorted(columns)]
        cases += [(Finally(_closed(0, 8), until), 0.0), (Globally(_closed(2, 9), until), 0.0),
                  (Globally(_closed(52, 70), Not(until)), 0.0)]
        for phi, t in cases:
            group = [trace for trace in traces if trace.contains_time(t)]
            want = [brute_robustness(phi, trace, t) for trace in group]
            assert robustness_many(phi, group, t).tolist() == want, (phi, t)


def test_import_loads_no_scipy():
    # the window kernel is numpy only: importing scipy.ndimage costs a process
    # about 0.2 s and 26 MB
    code = ("import sys, stlmine, stlmine.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"
