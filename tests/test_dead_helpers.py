"""Every private helper of the package is used somewhere in the package.

The scan reads each ``src/liesymp/*.py`` with :mod:`ast`: a function or
class defined at module level whose name starts with one underscore (dunder
names excepted) must be referenced, as a name or an attribute, somewhere in
``src/liesymp`` outside its own definition.  A helper that only the tests
call is dead code of the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liesymp"
MODULES = sorted(PACKAGE.glob("*.py"))


def _references(node: ast.AST) -> set[str]:
    """The names and attribute names that ``node`` refers to, imports included."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and classes of ``sources`` (module
    name to text) referenced nowhere outside their own definition."""
    # (module, top-level statement, the names it refers to)
    statements = [
        (name, node, _references(node))
        for name, text in sources.items()
        for node in ast.parse(text).body
    ]
    dead = []
    for name, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        helper = node.name
        if not helper.startswith("_") or helper.startswith("__"):
            continue
        if not any(helper in refs for _, other, refs in statements if other is not node):
            dead.append(f"{name}: {helper}")
    return dead


def test_the_scan_finds_a_dead_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n\nclass _Kept:\n    pass\n",
        "b": "from .a import _Kept\n\ndef public():\n    return _used() + _Kept.__name__\n",
    }
    assert dead_helpers(sources) == ["a: _dead"]
    sources["b"] += "\ndef _via_attribute():\n    pass\n\nx = module._via_attribute\n"
    assert dead_helpers(sources) == ["a: _dead"]


def test_no_dead_private_helper():
    assert MODULES, "no module found; the scan is broken"
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert dead_helpers(sources) == []
