"""The elimination kernel and the systems built on it, against sympy.

Each oracle here shares no code with liesymp's elimination: reduced echelon
forms, kernels, ranks and determinants come from sympy, which also checks
the Pfaffian through Pf^2 = det, and the Leibniz matrix is built densely in
this file from the bracket table alone.  A test matrix is a dense grid,
passed to the package as sparse rows or, for a torus, as the column map of
:mod:`liesymp.structure`.

Rows are drawn with Fraction entries, plain int entries and a mix of both,
and every value the kernel and its dense adapters return must be an int or
a Fraction, never a float.  Test matrices that need a product or an inverse
to build are formed by sympy.
"""

from fractions import Fraction as Q

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from test_integral_table import int_where_integral
from test_linalg import add_maps, columns, is_diagonal, scale_map, to_grid
from test_pfaffian import FRACTIONS, skew_grids

from liesymp.catalog import DEFAULT_SELECTION, build_entry
from liesymp.liealg import LieAlgebra
from liesymp.linalg import (
    RationalMatrix,
    minimal_polynomial,
    sparse_kernel_rows,
    sparse_row,
    sparse_rref,
    upper_entries,
    upoly_is_squarefree,
)
from liesymp.structure import (
    TorusAction,
    derivation_algebra,
    is_derivation,
    semidirect,
    verify_torus,
)
from liesymp.symplectic import TwoForm

# -- (a) the kernel against sympy.Matrix.rref / nullspace ---------------------

ENTRIES = st.one_of(
    st.just(Q(0)),
    st.just(Q(0)),
    st.builds(Q, st.integers(-4, 4), st.integers(1, 3)),
)
INT_ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))
# Fractions and ints side by side in one row
MIXED_ENTRIES = st.one_of(ENTRIES, INT_ENTRIES)


def _exact(values) -> bool:
    """Every value is an int or a Fraction: none is a float (nor a bool)."""
    return all(type(x) in (int, Q) for x in values)


@st.composite
def matrices(draw, max_rows=7, max_cols=7, entries=ENTRIES):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    return rows, cols, [[draw(entries) for _ in range(cols)] for _ in range(rows)]


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
        assert _exact(pivot_rows[p].values())
    nullspace = [_as_fractions(v) for v in _sympy(rows, cols, data).nullspace()]
    kernel = sparse_kernel_rows(pivot_rows, cols)
    assert kernel == [sparse_row(v) for v in nullspace]
    assert all(_exact(v.values()) for v in kernel)
    if rows and cols:
        m = RationalMatrix(data)
        red, dense_pivots = m.rref()
        assert dense_pivots == tuple(pivots)
        assert red.data == tuple(_as_fractions(reduced.row(r)) for r in range(rows))
        assert all(_exact(row) for row in red.data)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_matches_sympy_on_generated_matrices(shape_and_data):
    _check_against_sympy(*shape_and_data)


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(entries=INT_ENTRIES), matrices(entries=MIXED_ENTRIES)))
def test_kernel_matches_sympy_on_int_and_mixed_rows(shape_and_data):
    """Rows of plain ints divide exactly: a pivot row with a leading entry
    that does not divide the others holds Fractions, never floats."""
    _check_against_sympy(*shape_and_data)


def test_int_rows_divide_exactly():
    """2 x + y = 0 makes x = -y/2: int / int gives a float, so the pivot row
    shows whether the division is exact."""
    pivots = sparse_rref([{0: 2, 1: 1}])
    assert pivots == {0: {0: 1, 1: Q(1, 2)}}
    assert _exact(pivots[0].values()) and type(pivots[0][1]) is Q
    # a leading entry that divides the whole row keeps the row in ints
    whole = sparse_rref([{0: -2, 2: 4}])
    assert whole == {0: {0: 1, 2: -2}} and all(type(x) is int for x in whole[0].values())
    assert sparse_kernel_rows(pivots, 2) == [{1: 1, 0: Q(-1, 2)}]


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


@settings(max_examples=60, deadline=None)
@given(grid=skew_grids(FRACTIONS, Q(0), max_size=10))
def test_pfaffian_squared_is_the_sympy_determinant(grid):
    n = len(grid)
    det = _sympy(n, n, grid).det()
    assert TwoForm(n, upper_entries(grid)).pfaffian() ** 2 == Q(int(det.p), int(det.q))


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


def _minimal_polynomial(grid) -> tuple:
    """The package's minimal polynomial of a dense grid, from its rows."""
    return minimal_polynomial([sparse_row(r) for r in grid])


def _is_minimal_polynomial(d, coeffs) -> bool:
    """p(D) = 0, p monic, and I, D, ..., D^(deg p - 1) independent (sympy)."""
    n = len(d)
    s = _sympy(n, n, d)
    value = sympy.zeros(n, n)
    power = sympy.eye(n)
    flat = []
    for c in coeffs:
        value += sympy.Rational(c.numerator, c.denominator) * power
        flat.append(list(power))
        power = power * s
    degree = len(coeffs) - 1
    powers = sympy.Matrix(flat[:degree]) if degree else sympy.zeros(0, n ** 2)
    return coeffs[-1] == 1 and value.is_zero_matrix and powers.rank() == degree


def _dense_power_minimal_polynomial(d) -> tuple:
    """The first k with D^k in the span of I, D, ..., D^(k-1), powers formed
    densely by sympy, and the coefficients of that dependency, monic."""
    n = len(d)
    if n == 0:
        return (Q(0), Q(1))  # the package's convention for the empty matrix
    s = _sympy(n, n, d)
    powers = [sympy.eye(n)]
    while True:
        span = sympy.Matrix.hstack(*(p.reshape(n * n, 1) for p in powers))
        target = (powers[-1] * s).reshape(n * n, 1)
        if span.hstack(span, target).rank() == span.rank():
            solution, free = span.gauss_jordan_solve(-target)
            assert free.shape[0] == 0  # the lower powers are independent
            return _as_fractions(solution) + (Q(1),)
        powers.append(powers[-1] * s)


def _block_diagonal(*blocks) -> list:
    n = sum(len(b) for b in blocks)
    grid = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            grid[at + i][at: at + len(row)] = row
        at += len(b)
    return grid


def _jordan(lam, size):
    return [[lam if i == j else 1 if j == i + 1 else 0 for j in range(size)] for i in range(size)]


ROTATION = [[0, -1], [1, 0]]

MINIMAL_POLYNOMIAL_CASES = {
    "empty": [],
    "one-zero": [[0]],
    "one": [[Q(-3, 2)]],
    **{f"nilpotent-jordan-{k}": _jordan(0, k) for k in (2, 3, 5)},
    "jordan-and-scalar": _block_diagonal(_jordan(2, 3), [[2]], [[Q(1, 3)]]),
    "rotation": ROTATION,
    "two-rotations": _block_diagonal(ROTATION, ROTATION),
    "rotation-jordan": _block_diagonal(ROTATION, _jordan(1, 2), ROTATION),
    "scaled-rotation-and-nilpotent": _block_diagonal([[0, -4], [1, 0]], _jordan(0, 2)),
}


@pytest.mark.parametrize("label", sorted(MINIMAL_POLYNOMIAL_CASES))
def test_minimal_polynomial_on_fixed_shapes(label):
    d = MINIMAL_POLYNOMIAL_CASES[label]
    minpoly = _minimal_polynomial(d)
    assert minpoly == _dense_power_minimal_polynomial(d)
    if d:
        assert _is_minimal_polynomial(d, minpoly)
        # the adapter that the benchmark traces gives the same
        assert RationalMatrix(d).minimal_polynomial() == minpoly


def test_minimal_polynomial_of_the_catalog_non_diagonal_generators():
    """The mixed-torus entries n6_5, n6_10, n6_14 and n6_18 carry generators
    that are not diagonal in the printed basis; the package reads their
    columns as the rows of the transpose."""
    gens = [
        (d, entry.nilradical.dim)
        for entry in (build_entry(name, **params) for name, params in DEFAULT_SELECTION)
        for d in entry.torus.generators
        if not is_diagonal(d)
    ]
    assert gens
    for d, n in gens:
        minpoly = minimal_polynomial([d.get(j, {}) for j in range(n)])
        assert minpoly == _dense_power_minimal_polynomial(to_grid(d, n))
        assert _is_minimal_polynomial(to_grid(d, n), minpoly)


@st.composite
def sparse_square_matrices(draw, max_size=6):
    n = draw(st.integers(0, max_size))
    entries = draw(st.sampled_from((ENTRIES, INT_ENTRIES, MIXED_ENTRIES)))
    return [[draw(entries) if draw(st.integers(0, 2)) == 0 else 0 for _ in range(n)]
            for _ in range(n)]


@settings(max_examples=80, deadline=None)
@given(d=sparse_square_matrices())
def test_minimal_polynomial_matches_dense_powers_on_random_sparse_matrices(d):
    minpoly = _minimal_polynomial(d)
    assert minpoly == _dense_power_minimal_polynomial(d)
    assert all(map(int_where_integral, minpoly))
    if d:
        assert _is_minimal_polynomial(d, minpoly)


def _conjugate(m, p) -> list:
    """p m p^-1, formed by sympy."""
    n = len(m)
    sp = _sympy(n, n, p)
    product = sp * _sympy(n, n, m) * sp.inv()
    return [_as_fractions(product.row(r)) for r in range(n)]


def _diagonal(entries) -> list:
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


MIXING = [[1, 1, 0, 2], [0, 1, -1, 0], [1, 0, 1, 0], [0, 2, 0, 1]]

SEMISIMPLICITY_CASES = {
    "diagonal": _diagonal([1, -1, 2, 0]),
    "diagonal-repeated": _diagonal([3, 3, Q(1, 2), 3]),
    "zero": _diagonal([0] * 4),
    "diagonalisable": _conjugate(_diagonal([1, 2, 2, -1]), MIXING),
    "rotation": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "jordan": [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]],
    "jordan-conjugated": _conjugate(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 5]], MIXING
    ),
    "nilpotent": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
}


@pytest.mark.parametrize("label", sorted(SEMISIMPLICITY_CASES))
def test_torus_semisimplicity_verdict_matches_minimal_polynomial(label):
    d = SEMISIMPLICITY_CASES[label]
    minpoly = _minimal_polynomial(d)
    assert _is_minimal_polynomial(d, minpoly)
    # every matrix is a derivation of the abelian algebra, so only
    # semisimplicity can fail, or a zero generator
    check = verify_torus(TorusAction(LieAlgebra(4), (columns(d),)))
    assert check.ok == (upoly_is_squarefree(minpoly) and any(map(any, d)))
    if not upoly_is_squarefree(minpoly):
        assert "not semisimple" in check.violation
    elif not check.ok:
        assert check.violation == "generator e5 is zero"


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
    p = [mixing[0:3], mixing[3:6], mixing[6:9]]
    gens = [j]
    if _sympy(3, 3, p).det() != 0:
        gens.append(_conjugate(j, p))
    for d in gens:
        minpoly = _minimal_polynomial(d)
        assert _is_minimal_polynomial(d, minpoly)
        check = verify_torus(TorusAction(LieAlgebra(3), (columns(d),)))
        assert check.ok == (upoly_is_squarefree(minpoly) and any(map(any, d)))


def test_torus_verdict_on_a_nonabelian_nilradical():
    """Derivations of n4_1: the diagonal torus generators pass; D e4 = e1 is
    nilpotent, and adding it to h1 (which scales e1 and e4 alike) leaves a
    Jordan block, so both fail semisimplicity."""
    entry = build_entry("n4_1")
    nil = entry.nilradical
    h1, h2 = entry.torus.generators
    nilpotent = {3: {0: 1}}  # e4 -> e1
    cases = [(h1, True), (h2, True), (add_maps(h1, scale_map(3, h2)), True),
             (add_maps(h1, nilpotent), False), (nilpotent, False)]
    for d, semisimple in cases:
        assert is_derivation(nil, d)
        verdict = verify_torus(TorusAction(nil, (d,))).ok
        minpoly = _minimal_polynomial(to_grid(d, 4))
        assert verdict == upoly_is_squarefree(minpoly) == semisimple
