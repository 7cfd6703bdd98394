"""Exact linear algebra: examples with hand-computed results, then randomized
structural properties (rank-nullity, re-multiplication of kernel vectors)."""

import random
from fractions import Fraction as Q

import pytest

from liesymp.liealg import Subspace
from liesymp.linalg import (
    RationalMatrix,
    sparse_kernel_basis,
    sparse_row,
    sparse_rref,
    upoly_is_squarefree,
    upoly_rational_roots,
)


def test_rref_identity():
    m = RationalMatrix.diagonal([1, 1, 1])
    red, pivots = m.rref()
    assert red == m
    assert pivots == (0, 1, 2)


def test_rref_zero():
    m = RationalMatrix([[0] * 4] * 2)
    red, pivots = m.rref()
    assert red == m
    assert pivots == ()


def test_rref_dependent_rows():
    # hand elimination: second row is twice the first
    m = RationalMatrix([[1, 2], [2, 4]])
    red, pivots = m.rref()
    assert red == RationalMatrix([[1, 2], [0, 0]])
    assert pivots == (0,)


# -- dense reference helpers, shared by the tests ------------------------------
#
# The package keeps no dense matrix algebra; these compute from the entries
# alone, so a product, sum or image in a test shares no code with the
# package.  Only ``in_span`` eliminates, through ``Subspace``.


def dense_product(x: RationalMatrix, y: RationalMatrix) -> RationalMatrix:
    cols = list(zip(*y.data))
    return RationalMatrix([[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x.data])


def dense_sum(x: RationalMatrix, y: RationalMatrix) -> RationalMatrix:
    return RationalMatrix([[a + b for a, b in zip(r, s)] for r, s in zip(x.data, y.data)])


def dense_scale(c, x: RationalMatrix) -> RationalMatrix:
    return RationalMatrix([[c * a for a in row] for row in x.data])


def dense_apply(m: RationalMatrix, v) -> tuple:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m.data)


def dense_column(m: RationalMatrix, j: int) -> tuple:
    return tuple(row[j] for row in m.data)


def is_zero_matrix(m: RationalMatrix) -> bool:
    return not any(map(any, m.data))


def ad_matrix(g, x) -> RationalMatrix:
    """The matrix of ad_x = [x, .] (columns are images), read off the bracket
    table: [e_i, e_j] = sum_k c e_k puts x_i c in column j and -x_j c in
    column i, at row k."""
    n = g.dim
    grid = [[0] * n for _ in range(n)]
    for (i, j), coeffs in g.table.items():
        for k, c in coeffs.items():
            grid[k][j] += x[i] * c
            grid[k][i] -= x[j] * c
    return RationalMatrix(grid)


def in_span(basis, m: RationalMatrix) -> bool:
    """Whether m is a linear combination of the matrices in ``basis``,
    compared as flattened vectors."""
    size = m.rows * m.cols
    flat = [x for row in m.data for x in row]
    span = Subspace(size, ([x for row in d.data for x in row] for d in basis))
    return span.contains(flat)


def _kernel(rows, cols):
    return sparse_kernel_basis(sparse_rref(map(sparse_row, rows)), cols)


def test_kernel_identity_empty():
    assert _kernel(RationalMatrix.diagonal([1] * 4).data, 4) == []


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
    m = RationalMatrix([[2, 0, 1], [1, 1, 0], [0, 3, 1]])
    # cofactor expansion by hand: 2*(1*1-0*3) - 0 + 1*(1*3-1*0) = 5
    assert m.determinant() == 5
    assert RationalMatrix([[1, 2], [2, 4]]).determinant() == 0


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
        m = RationalMatrix(
            [
                [
                    upper.get((i, j), -upper.get((j, i), Q(0)) if i > j else Q(0))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        assert m.pfaffian() ** 2 == m.determinant()


def test_minimal_polynomial():
    # diag(1, 1): minimal polynomial x - 1
    m = RationalMatrix.diagonal([1, 1])
    assert m.minimal_polynomial() == (Q(-1), Q(1))
    # nilpotent Jordan block: x^2
    j = RationalMatrix([[0, 1], [0, 0]])
    assert j.minimal_polynomial() == (Q(0), Q(0), Q(1))
    # companion-style rotation block: x^2 + 1
    r = RationalMatrix([[0, -1], [1, 0]])
    assert r.minimal_polynomial() == (Q(1), Q(0), Q(1))


def test_univariate_helpers():
    # x^2 (repeated root) vs x^2 - 1
    assert not upoly_is_squarefree((0, 0, 1))
    assert upoly_is_squarefree((-1, 0, 1))
    assert upoly_rational_roots((-1, 0, 1)) == [Q(-1), Q(1)]
    assert upoly_rational_roots((0, Q(-3, 2), 1)) == [Q(0), Q(3, 2)]
