"""Command-line front end: learn, monitor, enumerate, gen-data.

Exit codes: 0 on success (including a learn run that finds no classifier,
which still writes a structured report), 2 on usage errors, 1 on data,
file-format or file-system errors.  All randomness in a run flows from the single --seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .enumeration import UNARY_OPS, CallbackResult, Grammar, enumerate_templates
from .errors import DataFormatError, FormulaSyntaxError, StlmineError
from .formula import is_concrete
from .learner import (
    MCR_ONESIDED,
    MCR_SYMMETRIC,
    DEFAULT_MAX_BOUNDARY_POINTS,
    LearnerConfig,
    learn,
    mcr,
)
from .monitor import robustness, robustness_many
from .parser import parse_formula
from .signatures import SignatureConfig
from .traces import load_csv_dir, load_trace_csv, save_csv_dir, split_dataset
from .datagen import GENERATORS


def _split_names(args) -> list[str]:
    """The names of --signals, each once, in first-seen order; a list that
    names no signal is a usage error."""
    names = list(dict.fromkeys(s.strip() for s in args.signals.split(",") if s.strip()))
    if not names:
        args.usage_error(f"--signals names no signal: {args.signals!r}")
    return names


def _seed(text: str) -> int:
    """argparse type of --seed: numpy takes only non-negative integer seeds."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def cmd_learn(args) -> int:
    try:
        cfg = LearnerConfig(
            threshold=args.threshold,
            delta=args.delta,
            max_length=args.max_length,
            max_boundary_points=args.max_boundary_points,
            mcr_mode=args.mcr,
            use_signatures=not args.no_signatures,
            signature=SignatureConfig(seed=args.seed),
        )
        if args.split is not None and not 0 < args.split < 1:
            raise ValueError(f"--split must be in (0,1), got {args.split}")
    except ValueError as e:
        args.usage_error(str(e))
    names = None if args.signals is None else _split_names(args)
    ds = load_csv_dir(args.data, manifest=args.labels, require_both_classes=True)
    if names is not None:
        unknown = [s for s in names if s not in ds.signal_names]
        if unknown:
            raise DataFormatError(f"--signals names not in the data: {', '.join(unknown)}")
    else:
        names = list(ds.signal_names)
    train, test = (ds, None) if args.split is None else split_dataset(ds, args.split, args.seed)
    result = learn(train, Grammar.default(names), cfg)

    stats = {
        "templates_tried": result.stats.templates_tried,
        "templates_pruned": result.stats.templates_pruned,
        "boundary_points": result.stats.boundary_points,
        "elapsed_ms": round(result.stats.elapsed_s * 1000.0, 3),
    }
    c = result.classifier
    payload = {
        "found": result.found,
        "formula": str(c.formula) if c else None,
        "template": str(c.template) if c else None,
        "valuation": {k: float(v) for k, v in c.valuation.items()} if c else None,
        "mcr_train": c.mcr if c else None,
        "mcr_test": mcr(c.formula, test, cfg.mcr_mode) if c and test is not None else None,
        "stats": stats,
    }
    Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    if args.dump_robustness and result.found:
        rhos = robustness_many(result.classifier.formula, ds.traces)
        lines = ["index,label,robustness"]
        for i, (label, rho) in enumerate(zip(ds.labels, rhos.tolist())):
            lines.append(f"{i},{label},{rho!r}")
        Path(args.dump_robustness).write_text("\n".join(lines) + "\n")

    if not args.quiet:
        if result.found:
            test_part = (
                f", mcr_test={payload['mcr_test']:g}" if payload["mcr_test"] is not None else ""
            )
            print(f"classifier: {payload['formula']}")
            print(f"mcr_train={payload['mcr_train']:g}{test_part}")
        else:
            print(f"no classifier under threshold {cfg.threshold:g}")
        print(
            f"templates tried={stats['templates_tried']} pruned={stats['templates_pruned']} "
            f"boundary points={stats['boundary_points']}"
        )
        print(f"report written to {args.out}")
    return 0


def cmd_monitor(args) -> int:
    try:
        phi = parse_formula(args.formula)
    except FormulaSyntaxError as e:
        print(f"error: --formula: {e}", file=sys.stderr)
        return 2
    if not is_concrete(phi):
        print("error: --formula: formula still has $parameters; monitor needs concrete values",
              file=sys.stderr)
        return 2
    tr = load_trace_csv(args.trace)
    rho = robustness(phi, tr, args.time)
    print(f"{'SAT' if rho > 0 else 'UNSAT'} robustness={rho!r}")
    return 0


def cmd_enumerate(args) -> int:
    unary_ops = tuple(op for op in UNARY_OPS if op != "not") if args.no_negation else UNARY_OPS
    grammar = Grammar.default(
        _split_names(args),
        unary_ops=unary_ops,
        two_sided_intervals=args.two_sided_intervals,
    )

    def show(template, length):
        print(f"{length}\t{template}")
        return CallbackResult.CONTINUE

    try:
        report = enumerate_templates(grammar, args.max_length, show)
    except ValueError as e:  # raised for a bad --max-length before anything is printed
        args.usage_error(str(e))
    if not args.quiet:
        print(f"emitted {report.emitted} templates", file=sys.stderr)
    return 0


def cmd_gen_data(args) -> int:
    ds = GENERATORS[args.case](seed=args.seed)
    save_csv_dir(ds, args.out)
    if not args.quiet:
        print(f"wrote {ds.n} traces ({ds.count(1)} label-1, {ds.count(0)} label-0) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stlmine",
        description="Learn and monitor temporal-logic classifiers over time-series CSV data.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("learn", help="learn a classifier from a labeled trace directory")
    pl.add_argument("--data", required=True, help="directory of trace CSV files")
    pl.add_argument("--labels", default=None, help="label manifest CSV (default: DATA/labels.csv)")
    pl.add_argument("--signals", default=None, help="comma-separated signal subset to use")
    pl.add_argument("--max-length", type=int, default=5)
    pl.add_argument("--threshold", type=float, default=0.1)
    pl.add_argument("--delta", type=float, default=0.01)
    pl.add_argument("--seed", type=_seed, default=0)
    pl.add_argument("--no-signatures", action="store_true", help="disable duplicate pruning")
    pl.add_argument("--mcr", choices=[MCR_ONESIDED, MCR_SYMMETRIC], default=MCR_ONESIDED)
    pl.add_argument("--split", type=float, default=None, help="train fraction for a held-out split")
    pl.add_argument("--max-boundary-points", type=int, default=DEFAULT_MAX_BOUNDARY_POINTS)
    pl.add_argument("--out", default="result.json")
    pl.add_argument("--dump-robustness", default=None, metavar="CSV",
                    help="also write per-trace robustness of the learned formula")
    pl.add_argument("--quiet", action="store_true")
    pl.set_defaults(func=cmd_learn, usage_error=pl.error)

    pm = sub.add_parser("monitor", help="evaluate a concrete formula on one trace")
    pm.add_argument("--formula", required=True)
    pm.add_argument("--trace", required=True, help="trace CSV file")
    pm.add_argument("--time", type=float, default=0.0)
    pm.add_argument("--quiet", action="store_true")
    pm.set_defaults(func=cmd_monitor)

    pe = sub.add_parser("enumerate", help="print templates in emission order")
    pe.add_argument("--signals", required=True, help="comma-separated signal names")
    pe.add_argument("--max-length", type=int, required=True)
    pe.add_argument("--no-negation", action="store_true")
    pe.add_argument("--two-sided-intervals", action="store_true")
    pe.add_argument("--quiet", action="store_true")
    pe.set_defaults(func=cmd_enumerate, usage_error=pe.error)

    pg = sub.add_parser("gen-data", help="write a bundled synthetic dataset as CSV")
    pg.add_argument("--case", choices=sorted(GENERATORS), required=True)
    pg.add_argument("--seed", type=_seed, default=0)
    pg.add_argument("--out", required=True, help="output directory")
    pg.add_argument("--quiet", action="store_true")
    pg.set_defaults(func=cmd_gen_data)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StlmineError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
