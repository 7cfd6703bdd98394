"""The ``test`` extra in pyproject.toml lists every third-party module the
test suite imports, so that ``pip install .[test]`` is enough to run it."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _imported_top_level(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_test_extra_lists_every_third_party_import():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    # the distribution names of these packages are their module names
    listed = {re.split(r"[\s\[<>=!~;]", req, maxsplit=1)[0].lower() for req in extra}
    test_files = sorted((ROOT / "tests").glob("*.py"))
    local = {"liesymp"} | {p.stem for p in test_files}
    imported = set().union(*map(_imported_top_level, test_files))
    third_party = imported - local - set(sys.stdlib_module_names)
    assert third_party, "no third-party import found; the scan is broken"
    assert sorted(third_party - listed) == []
