"""Every imported name is used, and no package module imports another's
private name: guards in place of a linter."""

import ast
from pathlib import Path

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
