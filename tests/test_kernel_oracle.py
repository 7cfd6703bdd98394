"""The elimination kernel and the systems built on it, against sympy.

Each oracle here shares no code with liesymp's elimination: reduced echelon
forms, kernels, ranks and determinants come from sympy, which also checks
the Pfaffian through Pf^2 = det, and the Leibniz matrix is built densely in
this file from the bracket table alone.
"""

from fractions import Fraction as Q

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from test_pfaffian import FRACTIONS, skew_grids

from liesymp.catalog import DEFAULT_SELECTION, build_entry
from liesymp.liealg import LieAlgebra
from liesymp.linalg import (
    RationalMatrix,
    sparse_kernel_basis,
    sparse_row,
    sparse_rref,
    upoly_is_squarefree,
)
from liesymp.structure import (
    TorusAction,
    derivation_algebra,
    is_derivation,
    semidirect,
    verify_torus,
)

# -- (a) the kernel against sympy.Matrix.rref / nullspace ---------------------

ENTRIES = st.one_of(
    st.just(Q(0)),
    st.just(Q(0)),
    st.builds(Q, st.integers(-4, 4), st.integers(1, 3)),
)


@st.composite
def matrices(draw, max_rows=7, max_cols=7):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    return rows, cols, [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]


def _sympy(rows, cols, data):
    return sympy.Matrix(rows, cols, [sympy.Rational(x.numerator, x.denominator)
                                     for row in data for x in row])


def _as_fractions(v):
    return tuple(Q(int(x.p), int(x.q)) for x in v)


def _check_against_sympy(rows, cols, data):
    reduced, pivots = _sympy(rows, cols, data).rref()
    pivot_rows = sparse_rref(sparse_row(r) for r in data)
    assert tuple(sorted(pivot_rows)) == tuple(pivots)
    for r, p in enumerate(pivots):
        assert sparse_row(_as_fractions(reduced.row(r))) == pivot_rows[p]
    nullspace = [_as_fractions(v) for v in _sympy(rows, cols, data).nullspace()]
    assert sparse_kernel_basis(pivot_rows, cols) == nullspace
    if rows and cols:
        m = RationalMatrix(data)
        red, dense_pivots = m.rref()
        assert dense_pivots == tuple(pivots)
        assert red.data == tuple(_as_fractions(reduced.row(r)) for r in range(rows))
        assert m.kernel_basis() == nullspace
        assert m.rank() == len(pivots)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_matches_sympy_on_generated_matrices(shape_and_data):
    _check_against_sympy(*shape_and_data)


@pytest.mark.parametrize(
    "rows, cols, data",
    [
        (0, 0, []),
        (0, 4, []),
        (3, 4, [[Q(0)] * 4] * 3),
        (6, 2, [[Q(i), Q(i * i - 3, 2)] for i in range(6)]),
        (2, 7, [[Q(1), Q(0), Q(2), Q(0), Q(0), Q(-1), Q(0)],
                [Q(0), Q(0), Q(3), Q(0), Q(0), Q(1, 2), Q(0)]]),
        (3, 5, [[Q(0), Q(1), Q(0), Q(2), Q(0)],
                [Q(0), Q(2), Q(0), Q(4), Q(0)],
                [Q(0), Q(0), Q(0), Q(1, 3), Q(0)]]),
    ],
    ids=["empty", "no-rows", "all-zero", "tall", "wide", "zero-columns"],
)
def test_kernel_matches_sympy_on_edge_shapes(rows, cols, data):
    _check_against_sympy(rows, cols, data)


def test_determinant_and_inverse_match_sympy():
    data = [[Q(2), Q(0), Q(1), Q(-1)], [Q(1), Q(1, 2), Q(0), Q(0)],
            [Q(0), Q(3), Q(1), Q(2)], [Q(1), Q(1), Q(1), Q(1)]]
    m, s = RationalMatrix(data), _sympy(4, 4, data)
    assert m.determinant() == Q(int(s.det().p), int(s.det().q))
    inverse = s.inv()
    assert m.inverse().data == tuple(_as_fractions(inverse.row(r)) for r in range(4))


@settings(max_examples=60, deadline=None)
@given(grid=skew_grids(FRACTIONS, Q(0), max_size=10))
def test_pfaffian_squared_is_the_sympy_determinant(grid):
    n = len(grid)
    det = _sympy(n, n, grid).det()
    assert RationalMatrix(grid).pfaffian() ** 2 == Q(int(det.p), int(det.q))


# -- (b) Der(g) against a dense Leibniz matrix built here ---------------------


def _constant(g: LieAlgebra, i: int, j: int, k: int) -> Q:
    if i < j:
        return g.table.get((i, j), {}).get(k, Q(0))
    if i > j:
        return -g.table.get((j, i), {}).get(k, Q(0))
    return Q(0)


def _leibniz_nullity(g: LieAlgebra) -> int:
    """n^2 minus the sympy rank of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j] = 0,
    D flattened row-major, one dense row per pair i < j and component k."""
    n = g.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = [Q(0)] * (n * n)
                for m in range(n):
                    row[k * n + m] += _constant(g, i, j, m)
                    row[m * n + i] -= _constant(g, m, j, k)
                    row[m * n + j] -= _constant(g, i, m, k)
                if any(row):
                    rows.append(row)
    if not rows:
        return n * n
    qq = sympy.QQ
    dense = [[qq(x.numerator, x.denominator) for x in row] for row in rows]
    return n * n - DomainMatrix(dense, (len(rows), n * n), qq).rank()


ORACLE_SELECTION = list(DEFAULT_SELECTION) + [("L", {"n": 10}), ("Q", {"n": 11})]


@pytest.mark.parametrize(
    "name, params", ORACLE_SELECTION,
    ids=[name + "".join(f"-{k}{v}" for k, v in p.items()) for name, p in ORACLE_SELECTION],
)
def test_derivation_algebra_matches_dense_oracle(name, params):
    entry = build_entry(name, **params)
    for g in (entry.nilradical, semidirect(entry.torus)):
        der = derivation_algebra(g)
        assert der.dim == _leibniz_nullity(g)
        for d in der.basis:
            assert is_derivation(g, d)


# -- (c) the torus semisimplicity verdict -------------------------------------


def _is_minimal_polynomial(d: RationalMatrix, coeffs) -> bool:
    """p(D) = 0, p monic, and I, D, ..., D^(deg p - 1) independent (sympy)."""
    s = _sympy(d.rows, d.cols, d.data)
    value = sympy.zeros(d.rows, d.cols)
    power = sympy.eye(d.rows)
    flat = []
    for c in coeffs:
        value += sympy.Rational(c.numerator, c.denominator) * power
        flat.append(list(power))
        power = power * s
    degree = len(coeffs) - 1
    powers = sympy.Matrix(flat[:degree]) if degree else sympy.zeros(0, d.rows ** 2)
    return coeffs[-1] == 1 and value.is_zero_matrix and powers.rank() == degree


def _dense_power_minimal_polynomial(d: RationalMatrix) -> tuple:
    """The first k with D^k in the span of I, D, ..., D^(k-1), powers formed
    densely by sympy, and the coefficients of that dependency, monic."""
    n = d.rows
    if n == 0:
        return (Q(0), Q(1))  # the package's convention for the empty matrix
    s = _sympy(n, n, d.data)
    powers = [sympy.eye(n)]
    while True:
        span = sympy.Matrix.hstack(*(p.reshape(n * n, 1) for p in powers))
        target = (powers[-1] * s).reshape(n * n, 1)
        if span.hstack(span, target).rank() == span.rank():
            solution, free = span.gauss_jordan_solve(-target)
            assert free.shape[0] == 0  # the lower powers are independent
            return _as_fractions(solution) + (Q(1),)
        powers.append(powers[-1] * s)


def _block_diagonal(*blocks) -> RationalMatrix:
    n = sum(len(b) for b in blocks)
    grid = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            grid[at + i][at: at + len(row)] = row
        at += len(b)
    return RationalMatrix(grid)


def _jordan(lam, size):
    return [[lam if i == j else 1 if j == i + 1 else 0 for j in range(size)] for i in range(size)]


ROTATION = [[0, -1], [1, 0]]

MINIMAL_POLYNOMIAL_CASES = {
    "empty": RationalMatrix([]),
    "one-zero": RationalMatrix([[0]]),
    "one": RationalMatrix([[Q(-3, 2)]]),
    **{f"nilpotent-jordan-{k}": RationalMatrix(_jordan(0, k)) for k in (2, 3, 5)},
    "jordan-and-scalar": _block_diagonal(_jordan(2, 3), [[2]], [[Q(1, 3)]]),
    "rotation": RationalMatrix(ROTATION),
    "two-rotations": _block_diagonal(ROTATION, ROTATION),
    "rotation-jordan": _block_diagonal(ROTATION, _jordan(1, 2), ROTATION),
    "scaled-rotation-and-nilpotent": _block_diagonal([[0, -4], [1, 0]], _jordan(0, 2)),
}


@pytest.mark.parametrize("label", sorted(MINIMAL_POLYNOMIAL_CASES))
def test_minimal_polynomial_on_fixed_shapes(label):
    d = MINIMAL_POLYNOMIAL_CASES[label]
    minpoly = d.minimal_polynomial()
    assert minpoly == _dense_power_minimal_polynomial(d)
    if d.rows:
        assert _is_minimal_polynomial(d, minpoly)


def test_minimal_polynomial_of_the_catalog_non_diagonal_generators():
    """The mixed-torus entries n6_5, n6_10, n6_14 and n6_18 carry generators
    that are not diagonal in the printed basis."""
    gens = [
        d
        for name, params in DEFAULT_SELECTION
        for d in build_entry(name, **params).torus.generators
        if not d.is_diagonal()
    ]
    assert gens
    for d in gens:
        minpoly = d.minimal_polynomial()
        assert minpoly == _dense_power_minimal_polynomial(d)
        assert _is_minimal_polynomial(d, minpoly)


@st.composite
def sparse_square_matrices(draw, max_size=6):
    n = draw(st.integers(0, max_size))
    return RationalMatrix([[draw(ENTRIES) if draw(st.integers(0, 2)) == 0 else 0
                            for _ in range(n)] for _ in range(n)])


@settings(max_examples=80, deadline=None)
@given(d=sparse_square_matrices())
def test_minimal_polynomial_matches_dense_powers_on_random_sparse_matrices(d):
    minpoly = d.minimal_polynomial()
    assert minpoly == _dense_power_minimal_polynomial(d)
    assert all(isinstance(c, Q) for c in minpoly)
    if d.rows:
        assert _is_minimal_polynomial(d, minpoly)


def _conjugate(m: RationalMatrix, p: RationalMatrix) -> RationalMatrix:
    return p @ m @ p.inverse()


MIXING = RationalMatrix([[1, 1, 0, 2], [0, 1, -1, 0], [1, 0, 1, 0], [0, 2, 0, 1]])

SEMISIMPLICITY_CASES = {
    "diagonal": RationalMatrix.diagonal([1, -1, 2, 0]),
    "diagonal-repeated": RationalMatrix.diagonal([3, 3, Q(1, 2), 3]),
    "zero": RationalMatrix.zeros(4, 4),
    "diagonalisable": _conjugate(RationalMatrix.diagonal([1, 2, 2, -1]), MIXING),
    "rotation": RationalMatrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    "jordan": RationalMatrix([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]),
    "jordan-conjugated": _conjugate(
        RationalMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 5]]), MIXING
    ),
    "nilpotent": RationalMatrix([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]),
}


@pytest.mark.parametrize("label", sorted(SEMISIMPLICITY_CASES))
def test_torus_semisimplicity_verdict_matches_minimal_polynomial(label):
    d = SEMISIMPLICITY_CASES[label]
    minpoly = d.minimal_polynomial()
    assert _is_minimal_polynomial(d, minpoly)
    # every matrix is a derivation of the abelian algebra, so only
    # semisimplicity can fail
    check = verify_torus(TorusAction(LieAlgebra(4), (d,)))
    assert check.ok == upoly_is_squarefree(minpoly)
    if not check.ok:
        assert "not semisimple" in check.violation


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    st.integers(0, 2),
    st.lists(st.integers(-1, 1), min_size=9, max_size=9),
)
def test_torus_verdict_on_generated_conjugates(eigenvalues, jordan_size, mixing):
    """Diagonal, conjugated diagonal and conjugated Jordan-block generators."""
    j = [[Q(0)] * 3 for _ in range(3)]
    for i, lam in enumerate(eigenvalues):
        j[i][i] = Q(lam)
    for i in range(jordan_size):
        j[i + 1][i + 1] = j[i][i]
        j[i][i + 1] = Q(1)
    base = RationalMatrix(j)
    p = RationalMatrix([mixing[0:3], mixing[3:6], mixing[6:9]])
    gens = [base]
    if p.is_invertible():
        gens.append(_conjugate(base, p))
    for d in gens:
        minpoly = d.minimal_polynomial()
        assert _is_minimal_polynomial(d, minpoly)
        assert verify_torus(TorusAction(LieAlgebra(3), (d,))).ok == upoly_is_squarefree(minpoly)


def test_torus_verdict_on_a_nonabelian_nilradical():
    """Derivations of n4_1: the diagonal torus generators pass; D e4 = e1 is
    nilpotent, and adding it to h1 (which scales e1 and e4 alike) leaves a
    Jordan block, so both fail semisimplicity."""
    entry = build_entry("n4_1")
    nil = entry.nilradical
    h1, h2 = entry.torus.generators
    nilpotent = RationalMatrix([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    cases = [(h1, True), (h2, True), (h1 + h2.scale(3), True),
             (h1 + nilpotent, False), (nilpotent, False)]
    for d, semisimple in cases:
        assert is_derivation(nil, d)
        verdict = verify_torus(TorusAction(nil, (d,))).ok
        assert verdict == upoly_is_squarefree(d.minimal_polynomial()) == semisimple
