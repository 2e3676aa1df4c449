"""Smoke test of the benchmark: every workload at minimal length.

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# monitor-oscillator runs on demand only; see README.md for why it is not gated
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["monitor-oscillator"]
SCRATCH = ROOT / ".perfbench_out" / "smoke"


def _run(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = _run(workload, "--trace", str(trace))
    result = _result(out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f"  {m['name']} " in out.stdout, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_reference_is_caught(workload):
    name = f"{workload}-seed0.json"
    ref = json.loads((HERE / "reference" / name).read_text())
    first = ref[min(ref)]
    if "stats" in first:
        first["stats"]["boundary_points"] += 1
    else:
        first["batch"][0] += 1.0
    tampered = SCRATCH / f"tampered-{workload}"
    tampered.mkdir(parents=True, exist_ok=True)
    (tampered / name).write_text(json.dumps(ref))
    try:
        out = _run(workload, "--reference", str(tampered))
    finally:
        shutil.rmtree(tampered)
    result = _result(out)
    assert result["failed"] > 0 and not result["correct"]
    ratio = next(line for line in out.stdout.splitlines() if "failed_ratio" in line)
    assert float(ratio.split()[1]) > 0


def test_refuses_to_run_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        out = _run(WORKLOADS[0], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
