"""The convergence scripts in scripts/ run end to end on small meshes."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name, extra", [
    ("run_form_convergence", ["--num-fields", "2"]),
    ("run_index_convergence", []),
])
def test_script_prints_a_row_per_resolution(name, extra, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--resolutions", "8", "16", *extra])
    assert script.main() == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[0] == "res"
    assert [row.split()[0] for row in rows] == ["8", "16"]
