"""The benchmark's workloads run from the checkout and check their answers."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import spherevar
from spherevar.catalog import build_clifford_torus

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


def test_tracer_names_each_lanczos_run_after_its_caller(monkeypatch):
    # the eigsh span takes the module of the enclosing span, so the Lanczos
    # helper must stay private (untraced) for the per-layer eigsh metrics
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    mesh = build_clifford_torus(16)
    tracer = Tracer()
    tracer.install(spherevar)
    # called through the modules, whose names the tracer rebinds
    secondvar, operators = spherevar.secondvar, spherevar.operators
    try:
        secondvar.negative_index_count(secondvar.energy_quadratic_matrix(mesh))
        operators.solve_smallest_eigenpairs(operators.laplace_pencil(mesh), k=6)
    finally:
        tracer.uninstall()
    eigsh = [s for s in tracer.spans if s.name.endswith(".eigsh")]
    assert [(s.name, s.parent.name) for s in eigsh] == [
        ("secondvar.eigsh", "secondvar.negative_index_count"),
        ("operators.eigsh", "operators.solve_smallest_eigenpairs")]
    assert eigsh[0].parent.attrs["eigsh_vals"]
