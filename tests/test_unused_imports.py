"""Every name a module of the package or of the tests imports at module
level is used in that module.  No linter is a dependency, so the check reads
the syntax trees with `ast`.  The package's `__init__.py` is left out: its
imports are the public re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "specbound").glob("*.py")
                 if p.name != "__init__.py")
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
