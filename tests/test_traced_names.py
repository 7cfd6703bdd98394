"""Every name that the benchmark's tracing table wraps resolves on liesymp.

``bench/tracing.py`` patches liesymp functions by name, and a traced run
fails when one is renamed or removed.  This test loads that file by path,
without changing it, and resolves each ``(module, attribute)`` of its
``TRACED`` table, and the ``MultiPoly.evaluate`` it counts witness points
with, so that such a removal fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"liesymp.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves():
    traced = _tracing().TRACED
    assert traced, "the tracing table is empty; the test reads the wrong file"
    missing = []
    for module, attr in traced + (("poly", "MultiPoly.evaluate"),):
        try:
            assert callable(_resolve(module, attr))
        except (ImportError, AttributeError, AssertionError):
            missing.append(f"{module}.{attr}")
    assert missing == []
