"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spherevar"
# __init__ imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the import statements of source that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_a_planted_name():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from typing import Optional\n\ndef f(x):\n    from .a import b, c\n"
              "    return np.sum(x) + b\n")
    assert unused_imports(source) == ["Optional", "c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_package_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
