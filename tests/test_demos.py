"""Every demo runs to completion from the repository root with the relative
PYTHONPATH=src that the test command uses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run([sys.executable, str(demo.relative_to(ROOT))], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output
    assert "Traceback" not in output, output
