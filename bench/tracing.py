"""Spans around calls into liesymp's public functions, recorded from outside.

A :class:`Tracer` replaces every binding of each traced function with a
wrapper: the module global, every ``from``-import of it in another liesymp
module, and, for methods, the class attribute.  Each call records a span
(name, start, end, parent, operation) on a stack; self time is a span's
duration minus that of its direct children.  ``uninstall`` puts the original
functions back, so traced and untraced passes can run in one process.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute or Class.method); the span name is "module.function".
TRACED = (
    ("fileformat", "parse"),
    ("fileformat", "build"),
    ("liealg", "LieAlgebra.jacobi_failure"),
    ("liealg", "LieAlgebra.center"),
    ("linalg", "RationalMatrix.rref"),
    ("linalg", "RationalMatrix.minimal_polynomial"),
    ("linalg", "RationalMatrix.pfaffian"),
    ("poly", "PolyMatrix.pfaffian"),
    ("poly", "poly_divides"),
    ("structure", "verify_torus"),
    ("structure", "derivation_algebra"),
    ("structure", "semidirect"),
    ("structure", "is_complete"),
    ("structure", "rank_bound"),
    ("symplectic", "cocycle_space"),
    ("symplectic", "decide_symplectic"),
    ("symplectic", "find_nonvanishing_point"),
    ("symplectic", "top_power"),
    ("catalog", "build_entry"),
    ("regression", "check_entry"),
)
SPAN_NAMES = tuple(f"{mod}.{attr.split('.')[-1]}" for mod, attr in TRACED)
WITNESS_SEARCH = "symplectic.find_nonvanishing_point"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op index]
        self.stack: list[int] = []
        self.op = -1
        self._op_start = 0
        self.rref_rows = self.rref_cells = self.rref_rank = 0
        self.pfaffian_terms = 0
        self.witness_points = 0
        self.deadline_hits = 0  # counted by the runner
        self._restore: list[tuple[object, str, object]] = []

    # -- installing wrappers --------------------------------------------------

    def install(self) -> None:
        importlib.import_module("liesymp.cli")  # imports every other module
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "liesymp" or name.startswith("liesymp.")}
        for (mod, attr), span in zip(TRACED, SPAN_NAMES):
            owner = mods[f"liesymp.{mod}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._replace(owner, attr, self._wrap(span, getattr(owner, attr)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            for m in mods.values():
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, name, wrapper)
        poly = mods["liesymp.poly"]
        self._replace(poly.MultiPoly, "evaluate", self._count_points(poly.MultiPoly.evaluate))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _replace(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, span: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([span, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if span == "linalg.rref":
                matrix = args[0]
                self.rref_rows += matrix.rows
                self.rref_cells += matrix.rows * matrix.cols
                self.rref_rank += len(result[1])
            elif span == "poly.pfaffian":
                self.pfaffian_terms += len(result.terms)
            return result

        return wrapper

    def _count_points(self, fn):
        spans, stack = self.spans, self.stack

        def evaluate(*args, **kwargs):
            if stack and spans[stack[-1]][0] == WITNESS_SEARCH:
                self.witness_points += 1
            return fn(*args, **kwargs)

        return evaluate

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_start = len(self.spans)

    def end_op(self) -> None:
        """Close the spans a deadline signal left open inside the operation."""
        now = perf_counter()
        for span in self.spans[self._op_start:]:
            if not span[2]:
                span[2] = now
        self.stack.clear()

    # -- results ----------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per traced function."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: [0, 0.0] for name in SPAN_NAMES}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[name][0] += 1
            totals[name][1] += end - start - inner
        return {name: (c, s) for name, (c, s) in totals.items()}

    def write(self, path, labels: list[str]) -> None:
        """Spans as JSON: one record per span, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        records = [
            {"name": name, "start": start - t0, "end": end - t0, "parent": parent,
             "op": labels[op] if op >= 0 else None}
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records}, fh)
