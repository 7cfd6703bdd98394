"""Exact linear algebra over the rationals: one sparse elimination kernel.

Every value in the package is exact: an ``int`` or a ``fractions.Fraction``,
never a float.  Values enter as an int where integral and a Fraction only
where a denominator appears (:func:`as_exact`): structure constants (see
:class:`liesymp.liealg.LieAlgebra`), the entries of a linear map and of a
vector, and the coordinates of a two-form.
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
bracket table.  The kernel stores every value as an int where integral,
whatever its input rows hold, so what is read off it (kernel vectors, the
Z^2 and B^2 coordinates, a minimal polynomial) needs no conversion.

A linear map is held sparse too, as the column map of
:mod:`liesymp.structure`; :func:`diagonal` builds a diagonal one, and
:func:`minimal_polynomial` reads a map's sparse rows and forms its powers
as sparse row products (:func:`sparse_product`) of the nonzero entries.
The dense :class:`RationalMatrix` is no part of that path: nothing in the
package calls it, and it keeps only the three adapters over the kernel
(``rref``, ``minimal_polynomial`` and ``pfaffian``) that the benchmark's
tracing table names.

:func:`sparsest_row_pfaffian` is the one Pfaffian recursion.  It reads a
matrix by its nonzero entries above the diagonal, the format in which a
two-form is stored (:class:`liesymp.symplectic.TwoForm`), keys each minor
by the bitmask of its indices, and takes the entry ring as a parameter
(:class:`Ring`): :data:`SCALARS` for exact rationals, and :data:`PACKED`
for integer polynomials whose monomial t^e is the int key sum_k e_k * D^k,
so that a product of monomials is one int addition.  Polynomial entries
are packed by one caller, :func:`liesymp.poly.monomial_pfaffian`, which
reads the result back as a MultiPoly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
# no entry in any other pivot column.  Fraction arithmetic gives a Fraction
# even where the result is integral, so each Fraction goes through as_exact.

SparseRow = dict[int, int | Fraction]


def sparse_row(entries: Iterable) -> SparseRow:
    """The nonzero entries of a dense row, keyed by column."""
    return {j: x for j, x in enumerate(entries) if x}


def reduce_row(row: Mapping[int, Fraction], pivots: Mapping[int, SparseRow]) -> SparseRow:
    """``row`` minus the multiples of the pivot rows that clear its pivot
    columns: zero exactly when ``row`` lies in their span.  Every entry of
    the result is an int where integral."""
    out = {j: x if type(x) is int else as_exact(x) for j, x in row.items() if x}
    for c in [c for c in out if c in pivots]:
        f = out.pop(c)
        for j, v in pivots[c].items():
            if j != c:
                x = out.get(j)
                x = -f * v if x is None else x - f * v
                if x:
                    out[j] = x if type(x) is int else as_exact(x)
                else:
                    del out[j]
    return out


def _add_row(pivots: dict[int, SparseRow], residual: SparseRow) -> None:
    """Add a row already reduced by ``pivots`` (see :func:`reduce_row`) as a
    new pivot row, keeping every pivot row reduced and every entry an int
    where integral.  Takes ownership of ``residual``; an empty residual adds
    nothing."""
    if not residual:
        return
    c = min(residual)
    lead = residual[c]
    row = residual if lead == 1 else {
        j: as_exact(exact_quotient(x, lead)) for j, x in residual.items()
    }
    for other in pivots.values():
        f = other.pop(c, None)
        if f is not None:
            for j, v in row.items():
                if j != c:
                    x = other.get(j)
                    x = -f * v if x is None else x - f * v
                    if x:
                        other[j] = x if type(x) is int else as_exact(x)
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


class Ring(NamedTuple):
    """The steps of :func:`sparsest_row_pfaffian` that depend on the entry
    ring.  A value of the ring is zero exactly when it is falsy."""

    one: object
    zero: Callable[[], object]  # a fresh zero, which ``add_product`` may update
    add_product: Callable[[object, object, object, bool], object]  # total +- a * b


def _add_scalar_product(total, a, b, negate: bool):
    return total - a * b if negate else total + a * b


def _add_packed_product(total: dict[int, int], a: dict[int, int], b: dict[int, int], negate: bool):
    for ka, ca in a.items():
        if negate:
            ca = -ca
        for kb, cb in b.items():
            k = ka + kb
            x = total.get(k, 0) + ca * cb
            if x:
                total[k] = x
            else:
                del total[k]  # a new key would hold ca * cb, which is nonzero
    return total


# Exact rationals, each an int or a Fraction, and integer polynomials packed
# as {monomial key: nonzero int}: the key of t^e is sum_k e_k * D^k for a
# base D above every exponent the Pfaffian can reach, so that the key of a
# product of monomials is the sum of their keys.
SCALARS = Ring(1, int, _add_scalar_product)
PACKED = Ring({0: 1}, dict, _add_packed_product)


def sparsest_row_pfaffian(n: int, upper: Mapping[tuple[int, int], object], ring: Ring = SCALARS):
    """Pfaffian of the antisymmetric n x n matrix, n even, whose entry at
    (i, j) is ``upper[(i, j)]`` for i < j (missing pairs are zero), by
    recursive expansion along the sparsest row, memoised over the minors so
    that a shared minor is expanded once.

    A minor is the int bitmask of its indices.  It is expanded along its
    row r with the fewest nonzero entries among its own indices, the
    popcount of r's neighbour mask within the minor's (the lowest such row
    on a tie); a row with none makes the minor's Pfaffian zero.  With p and
    q the positions of r and of a column c in the minor (the popcount of
    its indices below each), the term for c is (-1)^(p+q+1) times the
    entry of {r, c} (the upper one, whichever of r and c is smaller) times
    the Pfaffian of the minor without r and c.  The choice of row changes
    only the cost: the chain nilradicals, whose last rows hold one or two
    entries, do not expand exponentially.

    ``ring`` supplies the identity and the accumulation ``total +- a * b``
    (see :class:`Ring`): :data:`SCALARS` for ints and Fractions and
    :data:`PACKED` for packed integer polynomials, where a product of
    monomials is one int addition and each term is added in place.  The
    caller checks the shape and passes nonzero entries only.
    """
    if not n:
        return ring.one
    # neighbours[r][c] is the upper entry of the pair {r, c}; masks[r] has bit c set
    neighbours: list[dict[int, object]] = [{} for _ in range(n)]
    masks = [0] * n
    for (i, j), a in upper.items():
        neighbours[i][j] = neighbours[j][i] = a
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    memo: dict[int, object] = {0: ring.one}
    zero, add_product = ring.zero, ring.add_product

    def pf(active: int):
        r, fewest, rest = 0, n, active
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            count = (masks[i] & active).bit_count()
            if count < fewest:
                r, fewest = i, count
            rest ^= low
        total = zero()
        if fewest:  # an empty row leaves total zero
            row = neighbours[r]
            p = (active & ((1 << r) - 1)).bit_count()
            others = active ^ (1 << r)
            cols = masks[r] & active
            while cols:
                low = cols & -cols
                cols ^= low
                minor = others ^ low
                sub = memo.get(minor)
                if sub is None:
                    sub = pf(minor)
                if sub:
                    q = (active & (low - 1)).bit_count()
                    total = add_product(total, row[low.bit_length() - 1], sub, not (p + q) % 2)
        memo[active] = total
        return total

    return pf((1 << n) - 1)


def minimal_polynomial(rows: Sequence[Mapping[int, int | Fraction]]) -> tuple[int | Fraction, ...]:
    """Monic minimal polynomial of the n x n matrix with the given sparse
    rows (n = ``len(rows)``, every column index below n), coefficients in
    ascending degree order, each an int where integral and a Fraction
    otherwise.  A matrix and its transpose have the same one, so the sparse
    columns of a map may be passed as its rows.

    Found as the first linear dependency among I, A, A**2, ...: each
    flattened power, tagged with its degree in an extra column, is reduced
    against the earlier ones in one incremental elimination, and the first
    residual with no matrix part is the polynomial itself.  Each power is
    held as sparse rows, the last one times A by :func:`sparse_product`,
    so only products of nonzero entries are formed.
    """
    n = len(rows)
    if n == 0:
        return (0, 1)  # x, by convention
    size = n * n
    pivots: dict[int, SparseRow] = {}
    power = [{i: 1} for i in range(n)]
    for k in range(n + 1):
        flat = {i * n + j: x for i, row in enumerate(power) for j, x in row.items()}
        flat[size + k] = 1
        residual = reduce_row(flat, pivots)
        if min(residual) >= size:
            return dense_row(residual, size, size + k) + (1,)
        _add_row(pivots, residual)
        power = sparse_product(power, rows)
    raise AssertionError("no minimal polynomial of degree <= n found")


def diagonal(entries: Iterable) -> dict[int, SparseRow]:
    """The diagonal matrix with the given entries as a sparse map
    {i: {i: d_i}}, each d_i exact (see :func:`as_exact`) and a zero one
    left out; it reads the same as rows or as columns."""
    return {i: {i: x} for i, x in enumerate(vector(entries)) if x}


class RationalMatrix:
    """A dense grid of exact rationals, each an int or a Fraction.

    Nothing in the package calls it: it stays only while the benchmark's
    tracing table (``bench/tracing.py``) wraps ``rref``,
    ``minimal_polynomial`` and ``pfaffian`` by name, and each of them is a
    thin adapter over the sparse kernel."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable]):
        grid = tuple(tuple(map(as_exact, row)) for row in data)
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("ragged rows")
        self.data = grid
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row-echelon form and the pivot column indices."""
        pivots = sparse_rref(sparse_row(r) for r in self.data)
        order = tuple(sorted(pivots))
        reduced = [dense_row(pivots[p], 0, self.cols) for p in order]
        reduced += [(0,) * self.cols] * (self.rows - len(order))
        return RationalMatrix(reduced), order

    def pfaffian(self) -> int | Fraction:
        """Pfaffian of an antisymmetric matrix of even size, by
        :func:`sparsest_row_pfaffian`."""
        n, data = self.rows, self.data
        if self.cols != n or n % 2 or any(
            data[i][j] != -data[j][i] for i in range(n) for j in range(i, n)
        ):
            raise ValueError("pfaffian requires an antisymmetric matrix of even size")
        return sparsest_row_pfaffian(n, upper_entries(data))

    def minimal_polynomial(self) -> tuple[int | Fraction, ...]:
        """The module's :func:`minimal_polynomial` of the grid."""
        if self.rows != self.cols:
            raise ValueError("minimal polynomial of a non-square matrix")
        return minimal_polynomial([sparse_row(r) for r in self.data])


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
