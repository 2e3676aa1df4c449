"""Shared fixtures: generated datasets and one-time CLI learn runs."""
from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

import stlmine
from stlmine.cli import main as cli_main

ACCEPTANCE_PREFIX = "tests/test_acceptance.py::test_criterion_"


@pytest.fixture(scope="session", autouse=True)
def _children_import_this_stlmine():
    """Python processes the tests start import the stlmine the tests import:
    pyproject.toml's ``pythonpath`` reaches the test process only."""
    src = str(Path(stlmine.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        yield


def _run_cli(argv):
    code = cli_main(argv)
    assert code == 0, f"CLI exited {code} for: {' '.join(argv)}"


@pytest.fixture(scope="session")
def steps_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "steps"
    _run_cli(["gen-data", "--case", "steps", "--seed", "0", "--out", str(out)])
    return out


@pytest.fixture(scope="session")
def anomaly_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "anomaly"
    _run_cli(["gen-data", "--case", "anomaly", "--seed", "0", "--out", str(out)])
    return out


def learn_cli(data_dir, out_path, *extra):
    """Run the learn subcommand quietly; returns (payload, raw bytes)."""
    _run_cli(
        [
            "learn",
            "--data",
            str(data_dir),
            "--split",
            "0.5",
            "--seed",
            "0",
            "--quiet",
            "--out",
            str(out_path),
            *extra,
        ]
    )
    raw = out_path.read_bytes()
    return json.loads(raw), raw


@pytest.fixture(scope="session")
def steps_learned(steps_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "steps_result.json"
    payload, raw = learn_cli(steps_dir, out, "--threshold", "0.05")
    return payload, raw


@pytest.fixture(scope="session")
def anomaly_learned(anomaly_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "anomaly_result.json"
    payload, raw = learn_cli(anomaly_dir, out)
    return payload, raw


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL/SKIP line per acceptance criterion."""
    lines = {}
    for status, word in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL"), ("skipped", "SKIP")):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if nodeid.startswith(ACCEPTANCE_PREFIX) and getattr(rep, "when", "call") in ("call", "setup"):
                m = re.match(r"test_criterion_(\d+[a-z]*)_(\w+)", nodeid.split("::")[1])
                if m:
                    lines[m.group(1)] = f"criterion {m.group(1)} ({m.group(2)}): {word}"
    if lines:
        terminalreporter.section("acceptance criteria")
        for key in sorted(lines, key=lambda k: (int(re.match(r"\d+", k).group()), k)):
            terminalreporter.write_line(lines[key])
