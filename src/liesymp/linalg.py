"""Exact linear algebra over the rationals: one sparse elimination kernel.

Every value in the package is exact: an ``int`` or a ``fractions.Fraction``,
never a float.  Values enter as an int where integral and a Fraction only
where a denominator appears (:func:`as_exact`): structure constants (see
:class:`liesymp.liealg.LieAlgebra`), the entries of a
:class:`RationalMatrix` and of a vector, and the coordinates of a two-form.
``+``, ``-`` and ``*`` keep ints exact; the one operation that would round,
``int / int``, is never written: a division whose operands may both be ints
goes through :func:`exact_quotient`.  So every result is exact: a kernel
vector really multiplies to zero and a rank really is the rank.

Every linear system in the package goes through one Gauss-Jordan kernel,
:func:`sparse_rref`.  A row is a sparse map ``{column: value}``; the
kernel returns the reduced row-echelon form as pivot rows keyed by pivot
column, and :func:`sparse_kernel_basis` reads a kernel basis off it.  The
reduced echelon form of a row space is canonical, so the result does not
depend on the order in which rows arrive, and callers assemble their
systems (Leibniz, cocycle and center equations) sparse, straight from a
bracket table.

:class:`RationalMatrix` is an immutable dense matrix, the form in which a
torus generator is given.  It keeps only what the torus path and the
pullback read (``diagonal``, ``row``, ``is_diagonal``, ``rank``,
``is_invertible`` and ``minimal_polynomial``) and three adapters over the
same kernel: ``rref``, ``determinant`` and ``pfaffian``.
``minimal_polynomial`` forms the powers of the matrix as sparse row
products (:func:`sparse_product`) of its nonzero entries.

:func:`sparsest_row_pfaffian` is the one Pfaffian recursion, for rational
and polynomial entries alike.  It reads a matrix by its nonzero entries
above the diagonal, the format in which a two-form is stored
(:class:`liesymp.symplectic.TwoForm`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Q = Fraction


def as_fraction(x) -> Fraction:
    """Coerce an int, string ("3/4") or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def as_exact(x) -> int | Fraction:
    """Coerce like :func:`as_fraction`, but give an integral value as an int."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = as_fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_quotient(x, y):
    """x / y without rounding.  ``int / int`` would give a float, so two ints
    divide to an int when y divides x and to a Fraction otherwise; any other
    pair already divides exactly."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return x / y


def vector(entries: Iterable) -> tuple[int | Fraction, ...]:
    """The entries as exact values, each an int or a Fraction (see :func:`as_exact`)."""
    return tuple(map(as_exact, entries))


# -- the elimination kernel ----------------------------------------------------
#
# A sparse row maps column indices to nonzero exact values.  Pivot rows are
# kept reduced: each has entry 1 at its pivot, which is its leading column, and
# no entry in any other pivot column.

SparseRow = dict[int, int | Fraction]


def sparse_row(entries: Iterable) -> SparseRow:
    """The nonzero entries of a dense row, keyed by column."""
    return {j: x for j, x in enumerate(entries) if x}


def reduce_row(row: Mapping[int, Fraction], pivots: Mapping[int, SparseRow]) -> SparseRow:
    """``row`` minus the multiples of the pivot rows that clear its pivot
    columns: zero exactly when ``row`` lies in their span."""
    out = {j: x for j, x in row.items() if x}
    for c in [c for c in out if c in pivots]:
        f = out.pop(c)
        for j, v in pivots[c].items():
            if j != c:
                x = out.get(j)
                x = -f * v if x is None else x - f * v
                if x:
                    out[j] = x
                else:
                    del out[j]
    return out


def _add_row(pivots: dict[int, SparseRow], residual: SparseRow) -> None:
    """Add a row already reduced by ``pivots`` (see :func:`reduce_row`) as a
    new pivot row, keeping every pivot row reduced.  Takes ownership of
    ``residual``; an empty residual adds nothing."""
    if not residual:
        return
    c = min(residual)
    lead = residual[c]
    row = residual if lead == 1 else {j: exact_quotient(x, lead) for j, x in residual.items()}
    for other in pivots.values():
        f = other.pop(c, None)
        if f is not None:
            for j, v in row.items():
                if j != c:
                    x = other.get(j)
                    x = -f * v if x is None else x - f * v
                    if x:
                        other[j] = x
                    else:
                        del other[j]
    pivots[c] = row


def sparse_rref(rows: Iterable[Mapping[int, Fraction]]) -> dict[int, SparseRow]:
    """Reduced row-echelon form of the span of ``rows`` by exact Gauss-Jordan
    elimination, as {pivot column: pivot row}.

    The reduced echelon form of a row space is canonical, so the result does
    not depend on the order of the rows.
    """
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        _add_row(pivots, reduce_row(row, pivots))
    return pivots


def sparse_kernel_rows(pivots: Mapping[int, SparseRow], cols: int) -> list[SparseRow]:
    """Basis of {x : row . x = 0 for every pivot row} as sparse rows, one per
    free column in increasing order, with 1 at its free column."""
    basis = {f: {f: 1} for f in range(cols) if f not in pivots}
    for p, row in pivots.items():
        for j, x in row.items():
            if j != p:
                basis[j][p] = -x
    return list(basis.values())


def sparse_kernel_basis(
    pivots: Mapping[int, SparseRow], cols: int
) -> list[tuple[int | Fraction, ...]]:
    """The vectors of :func:`sparse_kernel_rows` as dense tuples."""
    return [dense_row(v, 0, cols) for v in sparse_kernel_rows(pivots, cols)]


def sparse_product(xs: Sequence[SparseRow], ys: Sequence[SparseRow]) -> list[SparseRow]:
    """The rows of xy, for matrices x and y given by their sparse rows; the
    result holds no zero entries."""
    out = []
    for row in xs:
        acc: SparseRow = {}
        for k, a in row.items():
            for j, b in ys[k].items():
                x = acc.get(j)
                acc[j] = a * b if x is None else x + a * b
        out.append({j: x for j, x in acc.items() if x})
    return out


def dense_row(row: Mapping[int, Fraction], start: int, stop: int) -> tuple[int | Fraction, ...]:
    """Columns start..stop-1 of a sparse row as a dense tuple."""
    return tuple(row.get(j, 0) for j in range(start, stop))


def upper_entries(data: Sequence[Sequence]) -> dict[tuple[int, int], object]:
    """The nonzero entries above the diagonal of a square grid, keyed (i, j)."""
    n = len(data)
    return {(i, j): row[j] for i, row in enumerate(data) for j in range(i + 1, n) if row[j]}


def sparsest_row_pfaffian(n: int, upper: Mapping[tuple[int, int], object], zero, one):
    """Pfaffian of the antisymmetric n x n matrix, n even, whose entry at
    (i, j) is ``upper[(i, j)]`` for i < j (missing pairs are zero), by
    recursive expansion along the sparsest row, memoised over index subsets
    so that shared minors are expanded once.

    Each minor is expanded along its row with the fewest nonzero entries
    among its own columns (the lowest such row on a tie); a row with none
    makes the minor's Pfaffian zero.  With the row at position p and the
    column at position q of the minor, the term for that pair is
    (-1)^(p+q+1) times the pair's upper entry times Pf(minor without p, q),
    whichever of p and q is smaller.  The choice of row changes only the
    cost: the chain nilradicals, whose last rows hold one or two entries,
    no longer expand exponentially.  A minor's row counts are its parent's
    less the two removed indices, read off per-row neighbour maps.

    Generic over the entry ring: entries need ``+``, ``-`` and ``*`` and are
    zero exactly when falsy, as Fractions and polynomials are; ``zero`` and
    ``one`` are the ring's identities.  The caller checks the shape and
    passes nonzero entries only.
    """
    # neighbours[r][c] is the upper entry of the pair {r, c}
    neighbours: list[dict[int, object]] = [{} for _ in range(n)]
    for (i, j), a in upper.items():
        neighbours[i][j] = neighbours[j][i] = a
    memo: dict[tuple[int, ...], object] = {(): one}

    def pf(active: tuple[int, ...], counts: tuple[int, ...]):
        p = counts.index(min(counts))  # an empty row leaves total zero
        row = neighbours[active[p]]
        total = zero
        for q, c in enumerate(active):
            a = row.get(c)
            if a is None:
                continue
            lo, hi = (p, q) if p < q else (q, p)
            minor = active[:lo] + active[lo + 1 : hi] + active[hi + 1 :]
            sub = memo.get(minor)
            if sub is None:
                col = neighbours[c]
                rest = counts[:lo] + counts[lo + 1 : hi] + counts[hi + 1 :]
                sub = pf(minor, tuple(k - (i in row) - (i in col) for i, k in zip(minor, rest)))
            if sub:
                term = a * sub
                total = total + term if (p + q) % 2 else total - term
        memo[active] = total
        return total

    if not n:
        return one
    return pf(tuple(range(n)), tuple(map(len, neighbours)))


class RationalMatrix:
    """Immutable dense matrix whose entries are exact rationals, each an int
    or a Fraction (see :func:`as_exact`)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable]):
        grid = tuple(tuple(map(as_exact, row)) for row in data)
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("ragged rows")
        self.data = grid
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0

    @classmethod
    def diagonal(cls, entries: Iterable) -> "RationalMatrix":
        d = vector(entries)
        n = len(d)
        return cls([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> int | Fraction:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple[int | Fraction, ...]:
        return self.data[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def is_antisymmetric(self) -> bool:
        """Zero diagonal and a_ji = -a_ij, compared by numerator and
        denominator without building -a_ij: each entry is an int or a
        Fraction in lowest terms, and an int has denominator 1."""
        if self.rows != self.cols:
            return False
        data = self.data
        for i, row in enumerate(data):
            if row[i]:
                return False
            for j in range(i + 1, self.cols):
                a, b = row[j], data[j][i]
                if a.numerator != -b.numerator or a.denominator != b.denominator:
                    return False
        return True

    # -- elimination: dense adapters over the sparse kernel -------------------

    def _pivot_rows(self) -> dict[int, SparseRow]:
        return sparse_rref(sparse_row(r) for r in self.data)

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row-echelon form and the pivot column indices."""
        pivots = self._pivot_rows()
        order = tuple(sorted(pivots))
        reduced = [dense_row(pivots[p], 0, self.cols) for p in order]
        reduced += [(0,) * self.cols] * (self.rows - len(order))
        return RationalMatrix(reduced), order

    def rank(self) -> int:
        return len(self._pivot_rows())

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def determinant(self) -> int | Fraction:
        """Determinant from the elimination kernel: the product of the leading
        entries as rows are reduced, times the sign of the pivot order."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        pivots: dict[int, SparseRow] = {}
        order = []
        det = 1
        for r in self.data:
            residual = reduce_row(sparse_row(r), pivots)
            if not residual:
                return 0
            c = min(residual)
            det *= residual[c]
            order.append(c)
            _add_row(pivots, residual)
        inversions = sum(1 for a in range(len(order)) for b in range(a) if order[b] > order[a])
        return -det if inversions % 2 else det

    def pfaffian(self) -> int | Fraction:
        """Pfaffian of an antisymmetric matrix of even size.

        By :func:`sparsest_row_pfaffian`; satisfies pfaffian()**2 == determinant().
        """
        if self.rows != self.cols:
            raise ValueError("pfaffian of a non-square matrix")
        if self.rows % 2 != 0:
            raise ValueError("pfaffian requires even size")
        if not self.is_antisymmetric():
            raise ValueError("pfaffian requires an antisymmetric matrix")
        return sparsest_row_pfaffian(self.rows, upper_entries(self.data), 0, 1)

    # -- matrix analysis -----------------------------------------------------

    def is_diagonal(self) -> bool:
        return all(
            x == 0 for i, row in enumerate(self.data) for j, x in enumerate(row) if i != j
        )

    def minimal_polynomial(self) -> tuple[int | Fraction, ...]:
        """Monic minimal polynomial, coefficients in ascending degree order,
        each an int where integral and a Fraction otherwise.

        Found as the first linear dependency among I, A, A**2, ...: each
        flattened power, tagged with its degree in an extra column, is reduced
        against the earlier ones in one incremental elimination, and the first
        residual with no matrix part is the polynomial itself.  Each power is
        held as sparse rows, the last one times A by :func:`sparse_product`,
        so only products of nonzero entries are formed.
        """
        if self.rows != self.cols:
            raise ValueError("minimal polynomial of a non-square matrix")
        n = self.rows
        if n == 0:
            return (0, 1)  # x, by convention
        size = n * n
        rows = [sparse_row(r) for r in self.data]
        pivots: dict[int, SparseRow] = {}
        power = [{i: 1} for i in range(n)]
        for k in range(n + 1):
            flat = {i * n + j: x for i, row in enumerate(power) for j, x in row.items()}
            flat[size + k] = 1
            residual = reduce_row(flat, pivots)
            if min(residual) >= size:
                return vector(dense_row(residual, size, size + k)) + (1,)
            _add_row(pivots, residual)
            power = sparse_product(power, rows)
        raise AssertionError("no minimal polynomial of degree <= n found")


# -- univariate polynomial helpers (for semisimplicity and eigenvalues) ------
#
# A univariate polynomial over Q is a tuple of Fractions in ascending degree
# order with a nonzero leading coefficient (the zero polynomial is ()).


def upoly_normalize(coeffs: Sequence) -> tuple[Fraction, ...]:
    c = [as_fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def upoly_degree(p: Sequence[Fraction]) -> int:
    return len(p) - 1


def upoly_eval(p: Sequence[Fraction], x) -> Fraction:
    x = as_fraction(x)
    acc = Q(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def upoly_derivative(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return upoly_normalize([k * p[k] for k in range(1, len(p))])


def upoly_mod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    a = list(upoly_normalize(a))
    b = upoly_normalize(b)
    if not b:
        raise ZeroDivisionError("polynomial modulo zero")
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def upoly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    a, b = upoly_normalize(a), upoly_normalize(b)
    while b:
        a, b = b, upoly_mod(a, b)
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


def upoly_is_squarefree(p: Sequence[Fraction]) -> bool:
    p = upoly_normalize(p)
    if upoly_degree(p) <= 1:
        return True
    return upoly_degree(upoly_gcd(p, upoly_derivative(p))) == 0


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def upoly_rational_roots(p: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of p, each listed once, in increasing order."""
    p = upoly_normalize(p)
    if not p:
        raise ValueError("the zero polynomial has every root")
    roots = []
    coeffs = list(p)
    # strip factors of x
    if coeffs and coeffs[0] == 0:
        roots.append(Q(0))
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
    if len(coeffs) <= 1:
        return sorted(roots)
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            for cand in (Q(num, den), Q(-num, den)):
                if cand not in roots and upoly_eval(coeffs, cand) == 0:
                    roots.append(cand)
    return sorted(roots)
