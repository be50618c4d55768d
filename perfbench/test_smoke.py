"""Smoke test of the benchmark itself, kept out of the repository's test suite:

    python3 -m pytest perfbench/test_smoke.py
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.import_program()

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def current_targets():
    found = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in spans.TARGETS}
    wrapper = "scipy.optimize._highspy._highs_wrapper"
    found[(wrapper, "_h")] = importlib.import_module(wrapper)._h
    return found


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    before = current_targets()
    result, detail = run.run(workload, seed=3, seconds=0.01, trace=bool(trace), tiny=True)
    assert current_targets() == before, "trace wrappers were left installed"
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2 * detail["ops_per_pass"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0


def test_install_wraps_and_restore_undoes():
    before = current_targets()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = current_targets()
        assert all(during[key] is not before[key] for key in before)
    finally:
        tracer.restore()
    assert current_targets() == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
