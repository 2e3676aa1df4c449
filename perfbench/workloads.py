"""The benchmark's workloads: inputs made from the seed, the timed closed loop
(one caller, one process), and the correctness checks outside the timed region.

Every input goes through the package's public API the way the CLI uses it:
generate, ``save_csv_dir``, ``load_csv_dir``, ``split_dataset``, then
``learn`` with the settings of ``stlmine learn``; the monitor workload parses
its formulas once and calls ``robustness_many`` and ``robustness``.
"""
from __future__ import annotations

import json
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracles import brute_robustness
from stlmine import learner, monitor
from stlmine.datagen import (
    OSCILLATOR_LABEL_FORMULA,
    gen_anomaly_threshold,
    gen_oscillator_inputs,
    gen_steps_and_sinusoids,
)
from stlmine.enumeration import Grammar
from stlmine.parser import parse_formula
from stlmine.signatures import SignatureConfig
from stlmine.traces import load_csv_dir, save_csv_dir, split_dataset

from tracer import Tracer, formula_kind, percentile

# Boundary points per template, as `stlmine learn --max-boundary-points 25`.
# The default of 400 makes one steps learn take about a minute, and makes the
# anomaly learn's work depend on the seed (78 to 106 points); with 25 every
# capped template does the same work, so runs with different seeds compare.
POINT_BUDGET = 25

# `stlmine learn --split 0.5 --threshold T --max-length L --max-boundary-points 25`
LEARN_SETTINGS = {
    "learn-steps": {"threshold": 0.05, "max_length": 3},
    "learn-anomaly-wide": {"threshold": 0.1, "max_length": 5},
}

# Distinct anomaly datasets per run; learns cycle through them.
ANOMALY_INPUTS = 3
# Datasets a reference for learn-steps covers; later inputs get the
# no-reference checks.
STEPS_REFERENCE_INPUTS = 64

# Set-ups of the monitor input per run, for a median.
MONITOR_SETUPS = 3

# Structures are fixed so the cost of a pass does not depend on the seed;
# the seed draws the thresholds a and b.  Windows reach 368 s of the 400 s
# traces; the label formula of the oscillator data is always included.
MONITOR_FORMULAS = (
    "F[0,50](x > {a})",
    "F[20,368](x < {b})",
    "G[0,100](x < {a})",
    "(x > {a}) U[0,300] (x < {b})",
    str(OSCILLATOR_LABEL_FORMULA),
    "F[0,200](G[0,30](x > {a}))",
    "G[0,100]((x > {a}) U[0,40] (x < {b}))",
)


@dataclass
class Run:
    """State of one benchmark run, filled in by a workload function."""

    name: str
    seed: int
    seconds: float
    scratch: Path
    tracer: Tracer | None = None
    reference: dict | None = None  # loaded reference outputs, if any
    record: dict | None = None  # reference outputs being written, if any
    setup_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)
    split_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)  # timed operations
    work: float = 0.0  # units of work done by the timed operations
    work_s: float = 0.0  # time those units took
    templates: int = 0  # templates tried by the timed learns
    unit_s: list[float] = field(default_factory=list)  # untraced, paired with traced_s
    traced_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    readable: dict = field(default_factory=dict)  # name -> (value, unit, note)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def expect(self, key: str, got):
        """Compare with the reference, or record it; None when there is none."""
        if self.record is not None:
            self.record[key] = got
            return True
        if self.reference is None or key not in self.reference:
            return None
        return self.reference[key] == got


def _summary(samples: list[float], scale: float, unit: str) -> tuple[float, str, str]:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    note = f"p50, n={n}"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10:
            note += f"; p{p:g}={percentile(samples, p) * scale:.6g} {unit}"
            break
    return (statistics.median(samples) if samples else 0.0) * scale, unit, note


# ---------------------------------------------------------------- learning


@dataclass
class LearnInput:
    key: str
    train: object
    test: object
    cfg: learner.LearnerConfig


def _setup_learn_input(run: Run, key: str, sub_seed: int, make) -> LearnInput:
    t0 = time.perf_counter()
    ds = make(sub_seed)
    where = run.scratch / f"data-{key}"
    save_csv_dir(ds, where)
    t1 = time.perf_counter()
    loaded = load_csv_dir(where, require_both_classes=True)
    t2 = time.perf_counter()
    train, test = split_dataset(loaded, 0.5, sub_seed)
    t3 = time.perf_counter()
    shutil.rmtree(where)
    run.setup_s.append(t3 - t0)
    run.load_s.append(t2 - t1)
    run.split_s.append(t3 - t2)
    cfg = learner.LearnerConfig(
        max_boundary_points=POINT_BUDGET,
        signature=SignatureConfig(seed=sub_seed),
        **LEARN_SETTINGS[run.name],
    )
    return LearnInput(key, train, test, cfg)


def _report(result, inp: LearnInput) -> dict:
    """The report `stlmine learn` writes, without `stats.elapsed_ms`."""
    stats = {
        "templates_tried": result.stats.templates_tried,
        "templates_pruned": result.stats.templates_pruned,
        "boundary_points": result.stats.boundary_points,
    }
    c = result.classifier
    if c is None:
        return {"found": False, "formula": None, "template": None, "valuation": None,
                "mcr_train": None, "mcr_test": None, "stats": stats}
    return {
        "found": True,
        "formula": str(c.formula),
        "template": str(c.template),
        "valuation": {k: float(v) for k, v in c.valuation.items()},
        "mcr_train": c.mcr,
        "mcr_test": learner.mcr(c.formula, inp.test, inp.cfg.mcr_mode),
        "stats": stats,
    }


def _oracle_mcr(phi, ds) -> float:
    """One-sided misclassification rate from brute-force robustness."""
    wrong = sum(
        1 for tr, label in zip(ds.traces, ds.labels) if label == 0 and brute_robustness(phi, tr) > 0
    )
    return wrong / ds.n


def _learn(inp: LearnInput):
    return learner.learn(inp.train, Grammar.default(inp.train.signal_names), inp.cfg)


def _learn_once(run: Run, inp: LearnInput, seen: dict, timed: bool = True) -> None:
    """One learn, then its checks; the traced twin in trace mode.  ``timed``
    learns count towards the end-to-end metrics."""
    run.attempted += 1
    try:
        t0 = time.perf_counter()
        result = _learn(inp)
        dt = time.perf_counter() - t0
        report = _report(result, inp)
        if run.tracer is not None:
            with run.tracer.active():
                t1 = time.perf_counter()
                again = _learn(inp)
                run.traced_s.append(time.perf_counter() - t1)
            run.unit_s.append(dt)
            if _report(again, inp) != report:
                run.fail(f"{inp.key}: traced learn differs from the untraced one")
                return
    except Exception:
        run.fail(f"{inp.key}: {traceback.format_exc()}")
        return
    if timed:
        run.op_s.append(dt)
        run.work += result.stats.boundary_points
        run.work_s += dt
        run.templates += result.stats.templates_tried
    text = json.dumps(report, sort_keys=True)
    if inp.key in seen:
        if seen[inp.key] != text:
            run.fail(f"{inp.key}: repeat learn gave a different report")
        return
    seen[inp.key] = text
    verdict = run.expect(inp.key, report)
    if verdict is None:
        c = result.classifier
        if c is not None and _oracle_mcr(c.formula, inp.train) != c.mcr:
            run.fail(f"{inp.key}: mcr_train differs from the brute-force oracle")
    elif not verdict:
        run.fail(f"{inp.key}: report differs from the reference")


def learn_workload(run: Run) -> None:
    """learn-steps learns a fresh dataset each time; learn-anomaly-wide cycles
    through ANOMALY_INPUTS datasets.  Input i uses seed ``1000 * seed + i``
    for the generator, the split and the signature probes, as ``--seed`` does
    in `stlmine learn`."""
    if run.name == "learn-steps":
        make, n_inputs = gen_steps_and_sinusoids, None
        minimum = STEPS_REFERENCE_INPUTS if run.record is not None else 1
    else:
        def make(s):
            return gen_anomaly_threshold(s, n_per_class=1000)
        n_inputs = ANOMALY_INPUTS
        minimum = ANOMALY_INPUTS if run.record is not None else 1
    inputs: list[LearnInput] = []
    seen: dict[str, str] = {}
    deadline = time.perf_counter() + run.seconds
    i = 0
    while i < minimum or time.perf_counter() < deadline:
        j = i if n_inputs is None else i % n_inputs
        if j == len(inputs):
            try:
                inputs.append(_setup_learn_input(run, f"input-{j}", 1000 * run.seed + j, make))
            except Exception:
                run.attempted += 1
                run.fail(f"set-up of input {j}: {traceback.format_exc()}")
                return
        _learn_once(run, inputs[j], seen)
        i += 1
    if i <= len(inputs):  # no input was learned twice yet: repeat the first
        _learn_once(run, inputs[0], seen, timed=False)
    if not run.op_s:  # every learn failed
        return
    run.readable["learn_s"] = _summary(run.op_s, 1.0, "s")
    run.readable["templates_per_s"] = (run.templates / run.work_s, "1/s", "")
    run.readable["boundary_points_per_s"] = (run.work / run.work_s, "1/s", "")


# ---------------------------------------------------------------- monitoring


def _monitor_setup(run: Run, k: int):
    t0 = time.perf_counter()
    ds = gen_oscillator_inputs()
    where = run.scratch / f"oscillator-{k}"
    save_csv_dir(ds, where)
    t1 = time.perf_counter()
    traces = load_csv_dir(where).traces
    t2 = time.perf_counter()
    rng = np.random.default_rng([run.seed, 7])
    a, b = (float(v) for v in rng.uniform(-0.8, 0.8, size=2))
    formulas = [parse_formula(f.format(a=a, b=b)) for f in MONITOR_FORMULAS]
    run.setup_s.append(time.perf_counter() - t0)
    run.load_s.append(t2 - t1)
    shutil.rmtree(where)
    return traces, formulas


def _monitor_pass(traces, formulas, batch_s, trace_s) -> list[tuple[np.ndarray, np.ndarray]]:
    """Score every formula on every trace, first through the batch path, then
    through the per-trace path; returns the values."""
    batches = []
    for phi in formulas:
        t0 = time.perf_counter()
        batches.append(monitor.robustness_many(phi, traces))
        batch_s.append(time.perf_counter() - t0)
    out = []
    for phi, batch in zip(formulas, batches):
        per = []
        for tr in traces:
            t0 = time.perf_counter()
            per.append(monitor.robustness(phi, tr))
            trace_s.append(time.perf_counter() - t0)
        out.append((batch, np.array(per)))
    return out


def _check_monitor(run: Run, traces, formulas, values) -> None:
    for k, (phi, (batch, per)) in enumerate(zip(formulas, values)):
        got = {"formula": str(phi), "batch": batch.tolist(), "trace": per.tolist()}
        verdict = run.expect(f"formula-{k}", got)
        if verdict is False:
            run.fail(f"formula {k} ({phi}): values differ from the reference")
        elif verdict is None:
            if batch.tobytes() != per.tobytes():
                run.fail(f"formula {k} ({phi}): robustness_many differs from robustness")
            # the oracle is a plain-Python scan; only flat F and G formulas are cheap
            if formula_kind(phi) in ("F", "G"):
                want = np.array([brute_robustness(phi, tr) for tr in traces])
                if want.tobytes() != batch.tobytes():
                    run.fail(f"formula {k} ({phi}): differs from the brute-force oracle")


def monitor_workload(run: Run) -> None:
    """Re-run a fixed set of classifiers over the oscillator traces, pass
    after pass, through the batch path and the per-trace path."""
    try:
        for k in range(MONITOR_SETUPS):
            traces, formulas = _monitor_setup(run, k)
    except Exception:
        run.attempted += 1
        run.fail(f"set-up: {traceback.format_exc()}")
        return
    samples_per_pass = 2 * len(formulas) * len(traces) * traces[0].n_samples
    calls_per_pass = len(formulas) * (1 + len(traces))
    batch_s: list[float] = []
    trace_s: list[float] = []
    first = None
    deadline = time.perf_counter() + run.seconds
    while first is None or time.perf_counter() < deadline:
        run.attempted += calls_per_pass
        try:
            t0 = time.perf_counter()
            values = _monitor_pass(traces, formulas, batch_s, trace_s)
            pass_s = time.perf_counter() - t0
            if run.tracer is not None:
                with run.tracer.active():
                    t1 = time.perf_counter()
                    traced = _monitor_pass(traces, formulas, [], [])
                    run.traced_s.append(time.perf_counter() - t1)
                run.unit_s.append(pass_s)
                values = values + traced
        except Exception:
            run.fail(f"monitor pass: {traceback.format_exc()}")
            return
        flat = [v.tobytes() for pair in values for v in pair]
        if first is None:
            first = flat[: 2 * len(formulas)]
            _check_monitor(run, traces, formulas, values[: len(formulas)])
        wrong = sum(1 for i, v in enumerate(flat) if v != first[i % len(first)])
        if wrong:
            run.fail(f"a repeat pass gave {wrong} different value arrays")
        run.work += samples_per_pass
    # one operation: the whole formula set over all traces through the batch path
    n = len(formulas)
    run.op_s = [sum(batch_s[i : i + n]) for i in range(0, len(batch_s), n)]
    run.work_s = sum(batch_s) + sum(trace_s)
    run.readable["monitor_samples_per_s"] = (run.work / run.work_s, "1/s", "")
    for name, samples in (("batch", batch_s), ("trace", trace_s)):
        run.readable[f"monitor_{name}_ms_p50"] = _summary(samples, 1e3, "ms")
        run.readable[f"monitor_{name}_ms_p90"] = (percentile(samples, 90) * 1e3, "ms",
                                                  f"n={len(samples)}")


WORKLOADS = {
    "learn-steps": learn_workload,
    "learn-anomaly-wide": learn_workload,
    "monitor-oscillator": monitor_workload,
}
