"""Every imported name is used, no package module imports another's private
name, the reference solver imports no private name, and every third-party
module the tests import is a declared dependency: guards in place of a
linter."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("src/catmouse/*.py", "tests/*.py", "demos/*.py", "bench/*.py")


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = [p for pattern in SOURCES for p in sorted(ROOT.glob(pattern))
             if p.name != "__init__.py"]
    assert paths
    assert [u for p in paths for u in unused_imports(p)] == []


def private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {node.module}.{alias.name}"
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_names_imported_across_package_modules():
    paths = sorted(ROOT.glob("src/catmouse/*.py"))
    assert paths
    assert [u for p in paths for u in private_imports(p)] == []


def test_reference_solver_imports_no_private_names():
    # The reference solver checks the solver's tables, so it shares none of
    # the solver's internals, its value coding included.
    assert private_imports(ROOT / "tests" / "reference_solver.py") == []


def top_level_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    return {name.split(".")[0] for name in names}


def test_test_dependencies_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
                for r in requirements}
    tests = sorted((ROOT / "tests").glob("*.py"))
    local = {p.stem for p in tests} | {"catmouse"}
    imported = set().union(*(top_level_imports(p) for p in tests))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party
    assert sorted(third_party - declared) == []
