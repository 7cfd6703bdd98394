"""Exact linear algebra: examples with hand-computed results, then randomized
structural properties (rank-nullity, re-multiplication of kernel vectors)."""

import random
from fractions import Fraction as Q

import pytest

from liesymp.liealg import Subspace
from liesymp.linalg import (
    RationalMatrix,
    diagonal,
    minimal_polynomial,
    sparse_kernel_basis,
    sparse_row,
    sparse_rref,
    upoly_is_squarefree,
    upoly_rational_roots,
)


def test_rref_identity():
    m = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    red, pivots = m.rref()
    assert red.data == m.data
    assert pivots == (0, 1, 2)


def test_rref_zero():
    m = RationalMatrix([[0] * 4] * 2)
    red, pivots = m.rref()
    assert red.data == m.data
    assert pivots == ()


def test_rref_dependent_rows():
    # hand elimination: second row is twice the first
    m = RationalMatrix([[1, 2], [2, 4]])
    red, pivots = m.rref()
    assert red.data == ((1, 2), (0, 0))
    assert pivots == (0,)


# -- reference helpers on column maps, shared by the tests --------------------
#
# A linear map is given as the package gives it, by its sparse columns
# {j: {k: c}} (e_j -> sum_k c e_k), with no zero entry and no empty column.
# These compute from the entries alone, so a product, sum or image in a test
# shares no code with the package.  Only ``in_span`` eliminates, through
# ``Subspace``.


def _clean(m) -> dict:
    """``m`` without zero entries and empty columns."""
    out = {}
    for j, col in m.items():
        col = {k: c for k, c in col.items() if c}
        if col:
            out[j] = col
    return out


def is_diagonal(m) -> bool:
    return all(col.keys() == {j} for j, col in m.items())


def out_of_range(m, n: int) -> bool:
    """Whether a column or row index of m lies outside range(n)."""
    return any(not 0 <= x < n for j, col in m.items() for x in (j, *col))


def columns(grid) -> dict:
    """The column map of a dense matrix given row by row."""
    return _clean({j: {k: row[j] for k, row in enumerate(grid)} for j in range(len(grid[0]))})


def to_grid(m, n: int) -> tuple:
    """The n x n matrix of a column map, row by row."""
    return tuple(tuple(m.get(j, {}).get(k, 0) for j in range(n)) for k in range(n))


def compose(x, y) -> dict:
    """The map x y: (x y) e_j = sum_k y_kj x e_k."""
    out = {}
    for j, col in y.items():
        acc = out.setdefault(j, {})
        for k, b in col.items():
            for i, a in x.get(k, {}).items():
                acc[i] = acc.get(i, 0) + a * b
    return _clean(out)


def add_maps(x, y) -> dict:
    out = {j: dict(col) for j, col in x.items()}
    for j, col in y.items():
        acc = out.setdefault(j, {})
        for k, c in col.items():
            acc[k] = acc.get(k, 0) + c
    return _clean(out)


def scale_map(c, x) -> dict:
    return _clean({j: {k: c * a for k, a in col.items()} for j, col in x.items()})


def apply_map(m, v) -> tuple:
    """The image of the vector v, of the map's dimension."""
    out = [0] * len(v)
    for j, col in m.items():
        for k, c in col.items():
            out[k] += c * v[j]
    return tuple(out)


def column_of(m, j: int, n: int) -> tuple:
    return tuple(m.get(j, {}).get(k, 0) for k in range(n))


def ad_map(g, x) -> dict:
    """The column map of ad_x = [x, .], read off the bracket table:
    [e_i, e_j] = sum_k c e_k puts x_i c in column j and -x_j c in column i,
    at row k."""
    out = {}
    for (i, j), coeffs in g.table.items():
        for k, c in coeffs.items():
            col_j, col_i = out.setdefault(j, {}), out.setdefault(i, {})
            col_j[k] = col_j.get(k, 0) + x[i] * c
            col_i[k] = col_i.get(k, 0) - x[j] * c
    return _clean(out)


def in_span(basis, m, n: int) -> bool:
    """Whether the n x n map m is a linear combination of the maps in
    ``basis``, compared as flattened vectors."""
    span = Subspace(n * n, (sum(to_grid(d, n), ()) for d in basis))
    return span.contains(sum(to_grid(m, n), ()))


def dense_determinant(grid):
    """The determinant of a square grid by Gaussian elimination in Fractions,
    for the Pf^2 = det checks."""
    rows = [[Q(x) for x in row] for row in grid]
    det = Q(1)
    for c in range(len(rows)):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            return Q(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


def _kernel(rows, cols):
    return sparse_kernel_basis(sparse_rref(map(sparse_row, rows)), cols)


def test_kernel_identity_empty():
    assert _kernel(to_grid(diagonal([1] * 4), 4), 4) == []


def test_kernel_zero_row():
    basis = _kernel([[0] * 3], 3)
    assert len(basis) == 3


def test_kernel_hand_solved():
    # x0 = x1, x2 free: basis (1,1,0) and (0,0,1)
    basis = _kernel([[1, -1, 0]], 3)
    assert basis == [(Q(1), Q(1), Q(0)), (Q(0), Q(0), Q(1))]


def test_rank_nullity_randomized():
    rng = random.Random(20240811)
    for _ in range(60):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = RationalMatrix(
            [[Q(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(cols)]
             for _ in range(rows)]
        )
        red, pivots = m.rref()
        kernel = _kernel(m.data, cols)
        assert len(pivots) + len(kernel) == cols
        for v in kernel:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m.data)


def test_determinant_elimination():
    """The elimination oracle that the Pf^2 = det checks use."""
    # cofactor expansion by hand: 2*(1*1-0*3) - 0 + 1*(1*3-1*0) = 5
    assert dense_determinant([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    assert dense_determinant([[1, 2], [2, 4]]) == 0
    assert dense_determinant([[0, 1], [1, 0]]) == -1
    assert dense_determinant([]) == 1


def test_pfaffian_rational_base_cases():
    assert RationalMatrix([[0, 3], [-3, 0]]).pfaffian() == 3
    m = RationalMatrix(
        [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
    )
    # classical 4x4 formula: a12 a34 - a13 a24 + a14 a23
    assert m.pfaffian() == 1 * 6 - 2 * 5 + 3 * 4
    with pytest.raises(ValueError):
        RationalMatrix([[0]]).pfaffian()
    with pytest.raises(ValueError):
        RationalMatrix([[0, 1], [1, 0]]).pfaffian()


def test_pfaffian_squared_is_determinant_randomized():
    rng = random.Random(911)
    for _ in range(40):
        n = rng.choice((2, 4, 6, 8))
        upper = {
            (i, j): Q(rng.randrange(-5, 6), rng.randrange(1, 4))
            for i in range(n)
            for j in range(i + 1, n)
        }
        grid = [
            [upper.get((i, j), -upper.get((j, i), Q(0)) if i > j else Q(0)) for j in range(n)]
            for i in range(n)
        ]
        assert RationalMatrix(grid).pfaffian() ** 2 == dense_determinant(grid)


def test_minimal_polynomial():
    # diag(1, 1): minimal polynomial x - 1
    assert minimal_polynomial([{0: 1}, {1: 1}]) == (Q(-1), Q(1))
    # nilpotent Jordan block: x^2
    assert minimal_polynomial([{1: 1}, {}]) == (Q(0), Q(0), Q(1))
    # companion-style rotation block: x^2 + 1, through the dense adapter too
    assert minimal_polynomial([{1: -1}, {0: 1}]) == (Q(1), Q(0), Q(1))
    assert RationalMatrix([[0, -1], [1, 0]]).minimal_polynomial() == (Q(1), Q(0), Q(1))
    # a map and its transpose have the same one, (x - 2)^2: columns may be
    # passed as rows
    jordan = columns([[2, 1], [0, 2]])
    assert minimal_polynomial([{0: 2, 1: 1}, {1: 2}]) == (4, -4, 1)
    assert minimal_polynomial([jordan.get(j, {}) for j in range(2)]) == (4, -4, 1)


def test_univariate_helpers():
    # x^2 (repeated root) vs x^2 - 1
    assert not upoly_is_squarefree((0, 0, 1))
    assert upoly_is_squarefree((-1, 0, 1))
    assert upoly_rational_roots((-1, 0, 1)) == [Q(-1), Q(1)]
    assert upoly_rational_roots((0, Q(-3, 2), 1)) == [Q(0), Q(3, 2)]
