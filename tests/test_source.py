"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spherevar"
SOURCES = sorted(PACKAGE.glob("*.py"))
# __init__ imports names to re-export them, not to use them
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def per_mesh_functions(source):
    """Names of the functions in source decorated @per_mesh."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef)
                  and any(isinstance(d, ast.Name) and d.id == "per_mesh"
                          for d in node.decorator_list))


def factor_reads(source):
    """Attributes named U or L that source reads, with their line numbers:
    the triangular factors of a SuperLU object."""
    return sorted((node.attr, node.lineno) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("U", "L"))


def coo_builds(source):
    """Names of the functions in source that name coo_matrix, once per use,
    with "<module>" for a use outside every function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == "coo_matrix") or (
                    isinstance(child, ast.Attribute) and child.attr == "coo_matrix"):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def imports_package(node):
    """True for an import statement that reads from spherevar, relatively or by name."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "spherevar"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "spherevar" for alias in node.names)


def package_imports_in_functions(source):
    """Names of the functions in source whose bodies import from the package."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef)
                  and any(imports_package(inner) for inner in ast.walk(node)))


def test_unused_imports_finds_a_planted_name():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from typing import Optional\n\ndef f(x):\n    from .a import b, c\n"
              "    return np.sum(x) + b\n")
    assert unused_imports(source) == ["Optional", "c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_package_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_per_mesh_functions_finds_a_planted_name():
    source = ("@per_mesh\ndef a(mesh):\n    pass\n\n@other\ndef b(mesh):\n    pass\n\n"
              "def c(mesh):\n    @per_mesh\n    def d(mesh):\n        pass\n")
    assert per_mesh_functions(source) == ["a", "d"]


def test_every_held_function_is_in_the_held_list():
    # HELD may list more than the per_mesh functions, never fewer
    from test_mesh import HELD

    declared = {(f"spherevar.{path.stem}", name)
                for path in MODULES for name in per_mesh_functions(path.read_text())}
    assert sorted(declared - {(f.__module__, f.__name__) for f in HELD}) == []


def test_factor_reads_finds_a_planted_name():
    source = ("lu = splu(K)\nd = lu.U.diagonal()\nL, info = dpotrf(A)\n"
              "lower = lu.L\nt = L.T\n")
    assert factor_reads(source) == [("L", 4), ("U", 2)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_package_module_reads_no_superlu_factor(path):
    # SuperLU only solves: every inertia count is the dense fronts', and a
    # kept front factor names its blocks packed and update, never L or U
    assert factor_reads(path.read_text()) == []


def test_coo_builds_finds_a_planted_name():
    source = ("import scipy.sparse as sp\nfrom scipy.sparse import coo_matrix\n\n"
              "def f(v, r, c):\n    return sp.coo_matrix((v, (r, c))).tocsr()\n\n"
              "def g(v, r, c):\n    def h():\n        return coo_matrix((v, (r, c)))\n"
              "    return sp.csr_matrix(h())\n\nBUILD = sp.coo_matrix\n")
    assert coo_builds(source) == ["<module>", "f", "h"]


def test_package_scatters_through_one_p1_assembly():
    # every P1 matrix is one per-face scatter on one pattern (_p1_matrix)
    builds = [(path.stem, name) for path in SOURCES for name in coo_builds(path.read_text())]
    assert builds == [("operators", "_p1_matrix")]


def test_package_imports_in_functions_finds_a_planted_name():
    source = ("from .a import b\n\ndef f():\n    from .c import d\n    return d\n\n"
              "def g():\n    import numpy\n    return numpy\n\n"
              "def h():\n    from spherevar.mesh import read_off\n    return read_off\n\n"
              "def i():\n    import spherevar.mobius\n    return spherevar\n")
    assert package_imports_in_functions(source) == ["f", "h", "i"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_package_module_imports_the_package_at_module_top(path):
    # function-local imports hide the module graph; none breaks a cycle here
    assert package_imports_in_functions(path.read_text()) == []
