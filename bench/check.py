"""Output checks for the ``files`` workload that share no code with liesymp.

Every verdict of ``liesymp symplectic FILE --json`` on a generated source is
checked against the bracket table the generator wrote, with the exact
rational arithmetic of this file and gen.py:

* ``yes``: the witness is antisymmetric, closed (d w = 0 on every basis
  triple) and nonsingular (nonzero determinant);
* ``no``: closed 2-forms are computed by gen.py, and random integer combinations
  of them are all singular (a nonzero Pfaffian would show at a random point
  with probability at least 1 - (dim/2) / (2 * SPREAD + 1));
* ``odd``: the dimension is odd;
* the rest of the payload: a nilpotent algebra has a nonzero center, so it is
  never complete and never Frobenius (exact symplectic).

An invalid source must end with exit code 2, nothing on stdout and a one-line
error on stderr, never a traceback.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from gen import Source, Table, closed_forms, triple_terms

SPREAD = 10**6


def check_file(src: Source, code: int, out: str, err: str) -> str | None:
    """None if the output is right, else a short reason."""
    if src.kind != "valid":
        if code != 2:
            return f"exit code {code}, expected 2"
        if out:
            return "output on stdout for an invalid source"
        if "Traceback" in err or not err.startswith("error:"):
            return "no one-line error on stderr"
        return None
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        data = json.loads(out)
        verdicts = data["verdicts"]
        sym = verdicts["symplectic"]
        exact = verdicts["exact"]
    except (ValueError, KeyError, TypeError):
        return "output is not the symplectic JSON payload"
    if data["algebra"] != src.name or data["diagnostics"] != []:
        return "wrong algebra name or diagnostics"
    if verdicts["complete"] is not False or verdicts["maximal_rank"] is not None:
        return "a nilpotent algebra without torus reported complete or with a rank"
    odd = src.dim % 2 == 1
    if exact != {"exists": "odd" if odd else "no", "witness": None}:
        return "a nilpotent algebra reported exact symplectic"
    if sym["conditions"] != []:
        return "unexpected conditions"
    if odd:
        ok = sym["exists"] == "odd" and sym["witness"] is None and sym["pfaffian"] == "0"
        return None if ok else "wrong verdict for odd dimension"
    if sym["exists"] == "yes":
        return _check_witness(src, sym["witness"], sym["pfaffian"])
    if sym["exists"] == "no":
        if sym["witness"] is not None or sym["pfaffian"] != "0":
            return "verdict no with a witness or a nonzero Pfaffian"
        return _check_no(src)
    return f"unknown verdict {sym['exists']!r}"


def _check_witness(src: Source, witness, pfaffian: str) -> str | None:
    if pfaffian == "0" or witness is None or witness.get("dim") != src.dim:
        return "verdict yes without a witness of the right size"
    w = [[Fraction(x) for x in row] for row in witness["matrix"]]
    n = src.dim
    if len(w) != n or any(len(row) != n for row in w):
        return "witness matrix of the wrong shape"
    if any(w[i][j] != -w[j][i] for i in range(n) for j in range(n)):
        return "witness is not antisymmetric"
    if not is_closed(n, src.table, w):
        return "witness is not closed"
    if determinant(w) == 0:
        return "witness is singular"
    return None


def _check_no(src: Source) -> str | None:
    n = src.dim
    basis = closed_forms(n, src.table)
    rng = random.Random(n * 7919 + len(basis))
    for _ in range(2):
        coeffs = [rng.randint(-SPREAD, SPREAD) for _ in basis]
        w = [[sum(c * z[i][j] for c, z in zip(coeffs, basis)) for j in range(n)] for i in range(n)]
        if determinant(w) != 0:
            return "verdict no, but a closed form is nonsingular"
    return None


def is_closed(n: int, table: Table, w) -> bool:
    return all(
        sum(x * w[m][c] for x, m, c in triple_terms(table, i, j, k)) == 0
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def determinant(m) -> Fraction:
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for j in range(c, n):
                    a[r][j] -= f * a[c][j]
    return det
