"""Every demo runs to completion from the repository root with the relative
PYTHONPATH=src that the test command uses, and so does the README's Quick
start block."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    # The warnings that fail tier-1 fail a demo too, and every process it starts.
    env = {**os.environ, "PYTHONPATH": "src",
           "PYTHONWARNINGS": "error::RuntimeWarning,error::DeprecationWarning,"
                             "error::PendingDeprecationWarning,error::FutureWarning"}
    proc = subprocess.run([sys.executable, str(demo.relative_to(ROOT))], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output
    assert "Traceback" not in output, output


def test_readme_quick_start_runs():
    # The block as written, and the values its comments give.
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(out.getvalue().splitlines()) == 3
    np.testing.assert_allclose(namespace["best"].value, 0.4, atol=1e-9)
    np.testing.assert_allclose(namespace["best"].strategy[0], [0.75, 0.25], atol=1e-9)
    assert namespace["cert"].passed and abs(namespace["cert"].epsilon) <= 1e-12
