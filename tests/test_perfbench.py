"""The benchmark's workloads run from the checkout and check their answers."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["index", "verify", "fine-mesh"])
def test_workload_smoke_run_is_correct(workload):
    # one untraced pass: every task's answers are checked against exactly-known
    # values, and the last line of stdout is the run's JSON summary
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, summary
