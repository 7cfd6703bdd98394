"""Every name a module of the package imports is used in that module.

The scan reads each ``src/liesymp/*.py`` with :mod:`ast`: a name bound by an
``import`` or ``from ... import`` must occur as a name somewhere else in the
module (annotations included).  ``__init__.py`` is skipped, as its imports
are re-exports, and so is ``from __future__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liesymp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math\nfrom .linalg import Q, vector\n"
    assert unused_imports(source + "x: Q = math.pi\n") == ["line 3: vector"]
    assert unused_imports(source) == ["line 2: math", "line 3: Q", "line 3: vector"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert MODULES, "no module found; the scan is broken"
    assert unused_imports(path.read_text(encoding="utf-8")) == []
