"""The benchmark's verify workload runs from the checkout and checks its answers."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_verify_workload_smoke_run_is_correct():
    # one untraced pass: every task's answers are checked against exactly-known
    # values, and the last line of stdout is the run's JSON summary
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, summary
