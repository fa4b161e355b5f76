"""Every imported name is used, no package module imports another's private
name, the reference solver imports no private name, every third-party
module the tests import is a declared dependency, and the package imports
only its runtime ones: guards in place of a linter."""

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


def declared(*groups: str) -> set[str]:
    """The module names of pyproject's ``dependencies`` and of the named
    optional-dependency groups."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + [
        r for group in groups for r in project["optional-dependencies"][group]]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def third_party_imports(paths, local: set[str]) -> set[str]:
    imported = set().union(*(top_level_imports(p) for p in paths))
    return imported - set(sys.stdlib_module_names) - local


def test_test_dependencies_are_declared():
    tests = sorted((ROOT / "tests").glob("*.py"))
    third_party = third_party_imports(tests, {p.stem for p in tests} | {"catmouse"})
    assert third_party
    assert sorted(third_party - declared("test")) == []


def test_the_package_imports_only_its_runtime_dependencies():
    # A test-only module (scipy, pytest) imported by the package, even
    # inside a function, would break an install without the test extras.
    third_party = third_party_imports(sorted(ROOT.glob("src/catmouse/*.py")), {"catmouse"})
    assert third_party
    assert sorted(third_party - declared()) == []
