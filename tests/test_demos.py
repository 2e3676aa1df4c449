"""The demo scripts run to completion against the source tree."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# 06_learn_steps.py is left out: it runs a full steps learn, a search that
# acceptance criteria 5, 7a and 9 already cover
DEMOS = [
    "01_monitor_basics.py",
    "02_enumerate_templates.py",
    "03_boundary_search.py",
    "04_signature_pruning.py",
    "05_learn_anomaly.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
