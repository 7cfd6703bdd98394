"""One format for a linear map of the nilradical: the sparse columns
{j: {k: c}} of :mod:`liesymp.structure`, from the parser and the catalog to
t ⋉ n.

The dense ``RationalMatrix`` and ``PolyMatrix`` stay only for the names that
the benchmark's tracing table wraps, so an :mod:`ast` scan checks that no
module of the package other than the two that define them (and
``__init__``, which re-exports them) refers to either.  The catalog's own
generators must come back unchanged through ``catalog show``, the parser and
``build``.
"""

import ast
from pathlib import Path

import pytest

from liesymp import cli
from liesymp.catalog import DEFAULT_SELECTION, build_entry
from liesymp.fileformat import build, parse

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liesymp"
MODULES = sorted(PACKAGE.glob("*.py"))
DENSE = {"RationalMatrix", "PolyMatrix"}
DEFINING = {"linalg.py", "poly.py", "__init__.py"}


def dense_references(source: str) -> set[str]:
    """The dense class names that ``source`` refers to, as a name, an
    attribute, an import or a string annotation."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(name for name in DENSE if name in node.value)
    return out & DENSE


def test_the_scan_finds_a_dense_reference():
    assert dense_references("from .linalg import RationalMatrix\n") == {"RationalMatrix"}
    assert dense_references("import liesymp\nx = liesymp.poly.PolyMatrix\n") == {"PolyMatrix"}
    assert dense_references("def f(m: 'RationalMatrix'):\n    pass\n") == {"RationalMatrix"}
    assert dense_references("from .linalg import diagonal\nd = diagonal([1])\n") == set()


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in DEFINING],
    ids=[p.name for p in MODULES if p.name not in DEFINING],
)
def test_no_other_module_refers_to_a_dense_class(path):
    assert dense_references(path.read_text(encoding="utf-8")) == set()


def test_the_scan_sees_every_module():
    assert {p.name for p in MODULES} >= DEFINING | {"structure.py", "catalog.py"}
    assert dense_references((PACKAGE / "linalg.py").read_text(encoding="utf-8")) == {
        "RationalMatrix"
    }


def _shown(name: str, params: dict, capsys) -> str:
    args = ["catalog", "show", name]
    for key, value in params.items():
        args += ["--set", f"{key}={value}"]
    assert cli.main(args) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "name, params", DEFAULT_SELECTION,
    ids=[name + "".join(f"-{k}{v}" for k, v in p.items()) for name, p in DEFAULT_SELECTION],
)
def test_a_shown_entry_builds_back_to_its_generator_columns(name, params, capsys):
    entry = build_entry(name, **params)
    built = build(parse(_shown(name, params, capsys)))
    assert built.torus.labels == entry.torus.labels
    assert built.torus.generators == entry.torus.generators
    # columns and their entries in increasing order, no zero and no empty column
    for d in built.torus.generators:
        assert list(d) == sorted(d)
        assert all(col and list(col) == sorted(col) and all(col.values()) for col in d.values())
