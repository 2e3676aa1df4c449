"""stlmine benchmark: one workload per run, measured from outside the package.

    python3 perfbench/run.py --workload learn-steps --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/`` and
the brute-force oracle from ``tests/oracles.py``.  The load is one closed-loop
caller in this process, with no worker threads.  Human-readable lines (the
environment, every metric by name and unit, each failure) come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

``--write-reference`` records the outputs of the run as the reference for its
seed.  Set-up data and span files go to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import os

# one process, no extra threads: keep BLAS pools from starting with numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
REFERENCE_DIR = HERE / "reference"
WORKLOAD_NAMES = ("learn-steps", "learn-anomaly-wide", "monitor-oscillator")


def _git_commit() -> str:
    """HEAD of the checkout from ``.git``, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "load": "closed loop, 1 caller, 1 process, no worker threads",
        "python_threads": threading.active_count(),
        "os_threads": len(os.listdir("/proc/self/task")),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=Path, default=REFERENCE_DIR,
                   help="directory of reference outputs (default: perfbench/reference)")
    p.add_argument("--write-reference", action="store_true",
                   help="record this run's outputs as the reference for its seed")
    args = p.parse_args(argv)

    src, oracles = ROOT / "src" / "stlmine", ROOT / "tests" / "oracles.py"
    if not src.is_dir() or not oracles.is_file():
        print(f"error: run from a checkout of stlmine; {src} or {oracles} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    t_import = time.perf_counter()
    import workloads
    from tracer import Tracer, layer_metrics
    import_s = time.perf_counter() - t_import

    ref_file = args.reference / f"{args.workload}-seed{args.seed}.json"
    reference = None
    if not args.write_reference and ref_file.is_file():
        reference = json.loads(ref_file.read_text())
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    run = workloads.Run(
        args.workload, args.seed, args.seconds, scratch,
        tracer=Tracer() if args.trace else None,
        reference=reference,
        record={} if args.write_reference else None,
    )
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = _environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for what in run.failures:
        print("FAILED " + what.rstrip().replace("\n", "\n    "))

    attempted, failed = max(run.attempted, 1), len(run.failures)
    median = statistics.median
    setup_s = import_s + (median(run.setup_s) if run.setup_s else 0.0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    readable = dict(run.readable)
    readable["failed_ratio"] = (failed / attempted, "ratio", f"{failed} of {attempted}")
    readable["setup_s"] = (setup_s, "s",
                           f"import {import_s:.3f} s + median of {len(run.setup_s)} set-ups")
    readable["peak_rss_mb"] = (rss_mb, "MB", "this process")
    for name, (value, unit, *note) in sorted(readable.items()):
        print(f"  {name:24s} {value:14.6g} {unit:6s} {note[0] if note else ''}")

    if args.trace:
        values = layer_metrics(run.tracer, max(len(run.traced_s), 1), workloads.POINT_BUDGET)
        values["traces.load_csv_dir_s"] = median(run.load_s) if run.load_s else 0.0
        values["traces.split_s"] = median(run.split_s) if run.split_s else 0.0
        values["trace.overhead_s"] = (
            median(run.traced_s) - median(run.unit_s) if run.traced_s else 0.0
        )
        spans = OUT / f"spans-{args.workload}.csv"
        run.tracer.write_csv(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        learn_s = values["learner.learn_s"]
        if learn_s:
            g, mcr, rest = (values["boundary.g_busy_s"], values["learner.mcr_busy_s"],
                            values["learner.rest_self_s"])
            print(f"traced learn {learn_s:.6f} s = g {g:.6f} + mcr {mcr:.6f} + "
                  f"other self time {rest:.6f} (sum {g + mcr + rest:.6f})")
    else:
        values = {
            "setup_s": setup_s,
            "op_ms_p50": median(run.op_s) * 1e3 if run.op_s else 0.0,
            "work_per_s": run.work / run.work_s if run.work_s else 0.0,
            "peak_rss_mb": rss_mb,
        }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")

    if args.write_reference:
        args.reference.mkdir(parents=True, exist_ok=True)
        ref_file.write_text(json.dumps(run.record, indent=1, sort_keys=True) + "\n")
        print(f"reference written to {ref_file}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
