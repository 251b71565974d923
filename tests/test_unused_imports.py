"""Every name a module of the package or of the tests imports at module
level is used in that module, and every private name the package defines at
module level is read somewhere in the package.  No linter is a dependency,
so the checks read the syntax trees with `ast`.  The package's `__init__.py`
is left out of the import check: its imports are the public re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "specbound").glob("*.py"))
PACKAGE = [p for p in SOURCES if p.name != "__init__.py"]
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The module-level imported names that no other part of the source
    reads, in import order.  `from __future__` imports are not names."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nfrom typing import Iterator, Sequence\nx: Sequence\n"
    assert unused_imports(source) == ["os", "Iterator"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` for every module-level private function, class or
    constant (one leading underscore) that no source reads, as a `Name` or
    as an `Attribute`, in module and definition order.  Tests do not count
    as readers."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{mod}.{n}" for n in names
                       if n.startswith("_") and not n.startswith("__")
                       and n not in read]
    return unread


def test_scan_finds_an_unread_private_name():
    sources = {
        "a": "_LIMIT = 3\n_cache: dict = {}\n"
             "def _helper():\n    _cache = {}\n    return _LIMIT\n"
             "class _Box: pass\n__all__ = []\n",
        "b": "from . import a\nx = a._helper()\n",
    }
    # a store is no read, and dunder names are not private
    assert unread_private_names(sources) == ["a._cache", "a._Box"]


def test_no_unread_private_names():
    assert unread_private_names(
        {p.stem: p.read_text() for p in SOURCES}) == []
