"""Seeded generator of ``.lie`` sources for the ``files`` workload.

The generator uses exact arithmetic of its own and imports nothing from
liesymp, so the inputs stay the same when the program changes.  check.py
uses the same helpers to re-verify the program's answers.

A valid source is a nilpotent algebra of dimension 6 to 10 with no torus.
Its bracket table is strictly upper triangular ([e_i, e_j] lies in the span
of e_k with k > j), which makes every such Lie algebra nilpotent.  Brackets
are proposed one term at a time and a proposal is kept only while the
Jacobi identity still holds (rejection sampling).  A table whose space of
closed 2-forms has more than ``MAX_CLOSED_FORMS`` dimensions is rejected
as a whole and drawn again.

An invalid source is one of three kinds, mixed in at a fixed share:
``syntax`` (a corrupted valid source), ``jacobi`` (an upper-triangular
table that violates the Jacobi identity) and ``jacobi-torus`` (the same
with a ``torus`` block).  The program must answer all three with exit
code 2 and no traceback.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DIMS = (6, 7, 8, 9, 10)
MAX_CLOSED_FORMS = 36
COEFFS = (-2, -1, 1, 1, 2)
# Each block of sources holds one invalid source of each kind and
# VALID_PER_DIM valid sources of each dimension, in a seeded order; fixing the
# mix keeps the work of a run from swinging with the seed.
INVALID_KINDS = ("syntax", "jacobi", "jacobi-torus")
VALID_PER_DIM = 3
BLOCK = len(INVALID_KINDS) + VALID_PER_DIM * len(DIMS)

Table = dict[tuple[int, int], dict[int, int]]


@dataclass(frozen=True)
class Source:
    """One generated file: its text, its kind and its bracket table (empty
    for a syntax error)."""

    name: str
    kind: str  # "valid" | "syntax" | "jacobi" | "jacobi-torus"
    dim: int
    table: Table
    text: str


def bracket(table: Table, i: int, j: int) -> dict[int, int]:
    """[e_i, e_j] of an upper-triangular table, in either orientation."""
    if i < j:
        return table.get((i, j), {})
    if i > j:
        return {k: -c for k, c in table.get((j, i), {}).items()}
    return {}


def jacobi_holds(dim: int, table: Table) -> bool:
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc: dict[int, int] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in bracket(table, a, b).items():
                        for t, y in bracket(table, m, c).items():
                            acc[t] = acc.get(t, 0) + x * y
                if any(acc.values()):
                    return False
    return True


def triple_terms(table: Table, i: int, j: int, k: int):
    """(coefficient, m, c) with dw(e_i, e_j, e_k) = -sum coefficient * w(e_m, e_c)."""
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for m, x in bracket(table, a, b).items():
            yield x, m, c


def closed_forms(n: int, table: Table) -> list[list[list[Fraction]]]:
    """A basis of the closed 2-forms, as antisymmetric matrices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    col = {p: c for c, p in enumerate(pairs)}
    rows: list[dict[int, Fraction]] = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                row: dict[int, Fraction] = {}
                for x, m, c in triple_terms(table, i, j, k):
                    if m != c:
                        key, sign = (col[(m, c)], 1) if m < c else (col[(c, m)], -1)
                        row[key] = row.get(key, 0) + sign * x
                row = {key: Fraction(v) for key, v in row.items() if v}
                if row:
                    rows.append(row)
    pivots = _sparse_rref(rows)
    forms = []
    for free in range(len(pairs)):
        if free in pivots:
            continue
        v = {free: Fraction(1)}
        for p, row in pivots.items():
            if free in row:
                v[p] = -row[free]
        w = [[Fraction(0)] * n for _ in range(n)]
        for c, x in v.items():
            i, j = pairs[c]
            w[i][j], w[j][i] = x, -x
        forms.append(w)
    return forms


def _sparse_rref(rows: list[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced echelon form of sparse rows, keyed by pivot column."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        for p, prow in pivots.items():
            f = row.get(p)
            if f:
                for c, x in prow.items():
                    row[c] = row.get(c, 0) - f * x
                row = {c: x for c, x in row.items() if x}
        if not row:
            continue
        p = min(row)
        inv = 1 / row[p]
        row = {c: x * inv for c, x in row.items()}
        for q, qrow in pivots.items():
            f = qrow.get(p)
            if f:
                for c, x in row.items():
                    qrow[c] = qrow.get(c, 0) - f * x
                pivots[q] = {c: x for c, x in qrow.items() if x}
        pivots[p] = row
    return pivots


def _propose(rng: random.Random, dim: int) -> tuple[int, int, int, int]:
    """A random upper-triangular term c * e_k for [e_i, e_j], i < j < k."""
    i, j, k = sorted(rng.sample(range(dim), 3))
    return i, j, k, rng.choice(COEFFS)


def _add(table: Table, term: tuple[int, int, int, int]) -> Table:
    i, j, k, c = term
    out = {p: dict(v) for p, v in table.items()}
    slot = out.setdefault((i, j), {})
    slot[k] = slot.get(k, 0) + c
    if not slot[k]:
        del slot[k]
    if not slot:
        del out[(i, j)]
    return out


def nilpotent_table(rng: random.Random, dim: int) -> Table:
    while True:
        table: Table = {}
        for _ in range(rng.randint(2, 3 * dim)):
            trial = _add(table, _propose(rng, dim))
            if jacobi_holds(dim, trial):
                table = trial
        if table and len(closed_forms(dim, table)) <= MAX_CLOSED_FORMS:
            return table


def non_jacobi_table(rng: random.Random, dim: int) -> Table:
    table = nilpotent_table(rng, dim)
    while True:
        trial = _add(table, _propose(rng, dim))
        if not jacobi_holds(dim, trial):
            return trial


def _linear(terms: dict[int, int]) -> str:
    out = []
    for k, c in sorted(terms.items()):
        body = f"e{k + 1}" if abs(c) == 1 else f"{abs(c)}*e{k + 1}"
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out)


def render(name: str, dim: int, table: Table, torus: bool = False) -> str:
    lines = [f"algebra {name}", "basis " + " ".join(f"e{i + 1}" for i in range(dim))]
    for (i, j), terms in sorted(table.items()):
        lines.append(f"[e{i + 1},e{j + 1}] = {_linear(terms)}")
    if torus:
        lines.append("torus h1")
    return "\n".join(lines) + "\n"


def corrupt(rng: random.Random, text: str) -> str:
    """A syntax error: a stray character, an undeclared label, a missing
    '=' or a duplicated rule, placed on a random bracket line."""
    lines = text.splitlines()
    at = rng.randrange(2, len(lines))
    line = lines[at]
    how = rng.randrange(4)
    if how == 0:
        lines[at] = line.replace("]", ")", 1)
    elif how == 1:
        lines[at] = line.replace("[e", "[x", 1)
    elif how == 2:
        lines[at] = line.replace("=", "", 1)
    else:
        lines.insert(at, line)
    return "\n".join(lines) + "\n"


def generate(seed: int, count: int, prefix: str | None = None) -> list[Source]:
    """``count`` sources (a multiple of BLOCK) for one seed, in run order,
    named ``{prefix}_{index}`` (the prefix defaults to ``f{seed}``)."""
    if count % BLOCK:
        raise ValueError(f"count must be a multiple of {BLOCK}")
    rng = random.Random(seed)
    plan: list[tuple[str, int]] = []
    for _ in range(count // BLOCK):
        block = [(kind, rng.choice(DIMS)) for kind in INVALID_KINDS]
        block += [("valid", dim) for dim in DIMS for _ in range(VALID_PER_DIM)]
        rng.shuffle(block)
        plan += block
    out = []
    for idx, (kind, dim) in enumerate(plan):
        name = f"{prefix or f'f{seed}'}_{idx:03d}"
        if kind == "valid":
            table = nilpotent_table(rng, dim)
            text = render(name, dim, table)
        elif kind == "syntax":
            table = {}
            text = corrupt(rng, render(name, dim, nilpotent_table(rng, dim)))
        else:
            table = non_jacobi_table(rng, dim)
            text = render(name, dim, table, torus=(kind == "jacobi-torus"))
        out.append(Source(name, kind, dim, table, text))
    return out
