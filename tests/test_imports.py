"""Every name a package module imports, and every private name it defines
at module level, is used there (stdlib-only lint)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anchorperms"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def loaded_names(tree: ast.AST) -> set[str]:
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    # A quoted annotation such as -> "Permutation" names a type too.
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= loaded_names(ast.parse(ann.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = loaded_names(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unused_private(source: str) -> list[str]:
    """Module-level `_name` defs, classes and assignments never loaded."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    used = loaded_names(tree)
    return [f"{name} (line {line})" for name, line in defined.items() if name not in used]


def test_scan_flags_unused_and_keeps_used():
    source = "from typing import Iterator, Sequence\nimport json\nx: Sequence = json\n"
    assert unused_imports(source) == ["Iterator (line 1)"]
    assert unused_imports('from .core import P\ndef f() -> "P": ...\n') == []
    assert unused_imports('from .dp import size\nreport = {"size": 1}\n') == ["size (line 1)"]


def test_scan_checks_imports_deferred_into_a_function():
    assert unused_imports("def f():\n    import tempfile\n    return tempfile\n") == []
    assert unused_imports("def f():\n    import urllib.request\n") == ["urllib (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_private_scan_flags_orphans_and_keeps_used():
    source = "def _used(): ...\ndef _orphan(): ...\n_TABLE = {}\nclass _Box: ...\n"
    source += "x = _used(), _Box\n"
    assert unused_private(source) == ["_orphan (line 2)", "_TABLE (line 3)"]
    assert unused_private('class _P: ...\ndef f() -> "_P": ...\n') == []
    assert unused_private("__all__ = []\n_a, _b = 1, 2\ndef g(): return _b\n") == ["_a (line 2)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_orphaned_private_names(path):
    assert unused_private(path.read_text()) == []
