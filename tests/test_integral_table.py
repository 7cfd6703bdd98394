"""Integral values are ints: a differential test.

``LieAlgebra`` stores an integral structure constant as an int and any other
as a Fraction.  Each algebra here is analysed twice, as built and with its
table values forced to Fraction in this file, and both analyses must agree
on the Pfaffians, witnesses, Z^2 and B^2 bases, completeness and rank bound.
No value of either verdict may be a float.

The same rule holds for the matrices, vectors and two-forms of the catalog
path (:func:`int_where_integral`), and the Pfaffian recursion seeded with the
ints 0 and 1 agrees with one seeded with Fractions.  The elimination kernel
keeps it too, for any mix of int and Fraction input rows.
"""

import math
from dataclasses import fields, is_dataclass
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesymp.analysis import Analysis
from liesymp.catalog import DEFAULT_SELECTION, build_entry
from liesymp.liealg import LieAlgebra, Subspace
from liesymp.linalg import (
    SCALARS,
    Ring,
    diagonal,
    minimal_polynomial,
    sparse_kernel_rows,
    sparse_row,
    sparse_rref,
    sparsest_row_pfaffian,
)
from liesymp.poly import MultiPoly
from liesymp.structure import rank_bound
from liesymp.symplectic import CocycleSpace, TwoForm, cocycle_space, pullback, top_power
from test_liealg import sparse_tables


def int_where_integral(x) -> bool:
    """The package's rule for one value: an int where integral, a Fraction
    only where a denominator appears, never a float (nor a bool)."""
    return type(x) is int or (type(x) is Q and x.denominator > 1)


def _forced(g: LieAlgebra) -> LieAlgebra:
    """g with every table value a Fraction, set past the constructor."""
    forced = LieAlgebra(g.dim, None, g.labels)
    forced.table = {
        pair: {k: Q(c) for k, c in coeffs.items()} for pair, coeffs in g.table.items()
    }
    return forced


def _table_types_hold(g: LieAlgebra) -> bool:
    """Every table value is an int exactly when it is integral."""
    return all(int_where_integral(c) for coeffs in g.table.values() for c in coeffs.values())


def _numbers(x):
    """The numbers held by a verdict, walked through its fields, forms,
    polynomials, tuples, and its cocycle space's algebra (whose structure
    constants are its numbers; flags and labels are not numbers), bases and
    preimages, which are solved when read and so are not dataclass fields."""
    if isinstance(x, CocycleSpace):
        for part in (x.algebra, x.z2_basis, x.b2_basis, x.b2_preimages):
            yield from _numbers(part)
    elif isinstance(x, LieAlgebra):
        for coeffs in x.table.values():
            yield from coeffs.values()
    elif isinstance(x, TwoForm):
        for v in x.coords.values():
            yield from _numbers(v)
    elif isinstance(x, MultiPoly):
        yield from x.terms.values()
    elif isinstance(x, (tuple, list)):
        for v in x:
            yield from _numbers(v)
    elif is_dataclass(x):
        for f in fields(x):
            yield from _numbers(getattr(x, f.name))
    elif not isinstance(x, (bool, str, type(None))):
        yield x


def _outcome(compute):
    """("value", the value of ``compute()``), or ("raised", the type and
    message of its error)."""
    try:
        return "value", compute()
    except (ValueError, RuntimeError) as exc:
        return "raised", (type(exc), str(exc))


def _coords(w: TwoForm | None):
    return None if w is None else w.coords


def _artifacts(analysis: Analysis) -> dict:
    """What the analysis decides, in forms that compare by value."""

    def verdict():
        v = analysis.verdict
        assert all(type(x) in (int, Q) for x in _numbers(v)), "a verdict value is not exact"
        return (
            v.exists,
            str(v.pfaffian),
            _coords(v.witness),
            v.exact_exists,
            str(v.exact_pfaffian),
            _coords(v.exact_witness),
            v.exact_one_form,
            v.cocycles.dims,
        )

    def cocycles():
        cs = cocycle_space(analysis.algebra)
        return [w.coords for w in cs.z2_basis], [w.coords for w in cs.b2_basis], cs.b2_preimages

    def completeness():
        report = analysis.completeness
        return report.center_dim, report.derivation_dim, report.complete

    return {
        "verdict": _outcome(verdict),
        "cocycles": _outcome(cocycles),
        "completeness": _outcome(completeness),
        "rank bound": _outcome(lambda: analysis.rank_bound),
    }


@pytest.mark.parametrize(
    "name, params",
    DEFAULT_SELECTION,
    ids=[name + "".join(f"-{k}{v}" for k, v in p.items()) for name, p in DEFAULT_SELECTION],
)
def test_catalog_tables_hold_ints_and_decide_as_fractions_do(name, params):
    entry = build_entry(name, **params)
    built = Analysis(entry.torus)
    g = built.algebra
    assert _table_types_hold(entry.nilradical) and _table_types_hold(g)
    got = _artifacts(built)
    expected = _artifacts(Analysis(_forced(g)))
    # the rank bound is that of the nilradical, which a bare algebra lacks
    expected["rank bound"] = _outcome(lambda: rank_bound(_forced(entry.nilradical)))
    assert got == expected
    assert all(kind == "value" for kind, _ in got.values())


@settings(max_examples=60, deadline=None)
@given(g=sparse_tables())
def test_generated_tables_hold_ints_and_decide_as_fractions_do(g):
    """Permuted, rescaled (by 1/3 among others) and perturbed algebras: most
    fail the Jacobi identity, and every artifact, or the error it raises,
    must still match."""
    assert _table_types_hold(g)
    assert _artifacts(Analysis(g)) == _artifacts(Analysis(_forced(g)))


def test_fractional_constants_stay_fractions():
    g = LieAlgebra(3, {(0, 1): {2: Q(1, 2)}, (0, 2): {1: Q(4, 2)}, (1, 2): {0: "3"}})
    assert g.table == {(0, 1): {2: Q(1, 2)}, (0, 2): {1: 2}, (1, 2): {0: 3}}
    assert _table_types_hold(g)
    # two halves summing to an integer are stored as that integer
    h = LieAlgebra(2, {(0, 1): {0: Q(1, 2)}, (1, 0): {0: Q(-1, 2)}})
    assert h.table == {(0, 1): {0: 1}} and type(h.table[(0, 1)][0]) is int


@pytest.mark.parametrize(
    "name, params",
    DEFAULT_SELECTION,
    ids=[name + "".join(f"-{k}{v}" for k, v in p.items()) for name, p in DEFAULT_SELECTION],
)
def test_catalog_matrices_vectors_and_forms_hold_the_int_rule(name, params):
    """Torus generators, brackets of basis vectors, witnesses, their
    Pfaffians and top powers, and a pullback by an integral diagonal map."""
    entry = build_entry(name, **params)
    analysis = Analysis(entry.torus)
    g = analysis.algebra
    assert all(
        int_where_integral(x)
        for d in entry.torus.generators
        for col in d.values()
        for x in col.values()
    )
    units = [g.basis_vector(i) for i in range(g.dim)]
    for e in units:
        assert all(type(x) is int for x in e)
        assert all(int_where_integral(x) for f in units for x in g.bracket(e, f))
    scaling = diagonal(range(1, g.dim + 1))  # determinant (dim g)!
    verdict = analysis.verdict
    for w in (verdict.witness, verdict.exact_witness):
        if w is None:
            continue
        assert all(map(int_where_integral, w.coords.values()))
        pf, top = w.pfaffian(), top_power(w)
        assert int_where_integral(pf) and int_where_integral(top)
        assert top == math.factorial(g.dim // 2) * pf != 0
        pulled = pullback(g, scaling, w)
        assert all(map(int_where_integral, pulled.coords.values()))
        # Pf(T^t M T) = det(T) Pf(M)
        assert pulled.pfaffian() == math.factorial(g.dim) * pf


def _pfaffian_coords(g: LieAlgebra) -> tuple[int, dict]:
    """An even size m >= dim g and upper coordinates on it: each table pair
    holds the sum of its structure constants, and each pair (2i, 2i + 1)
    one more, so that most draws have a nonzero Pfaffian."""
    m = g.dim + g.dim % 2
    coords = {pair: sum(coeffs.values()) for pair, coeffs in g.table.items()}
    for i in range(0, m, 2):
        coords[(i, i + 1)] = coords.get((i, i + 1), 0) + 1
    return m, {pair: x for pair, x in coords.items() if x}


@settings(max_examples=60, deadline=None)
@given(g=sparse_tables())
def test_int_seeded_pfaffian_matches_the_fraction_seeded_one(g):
    m, coords = _pfaffian_coords(g)
    got = sparsest_row_pfaffian(m, coords)
    fractions = Ring(Q(1), Q, SCALARS.add_product)  # the scalar ring seeded with Fractions
    reference = sparsest_row_pfaffian(m, {p: Q(x) for p, x in coords.items()}, fractions)
    assert got == reference and type(reference) is Q
    assert type(got) in (int, Q)
    if all(type(x) is int for x in coords.values()):
        assert type(got) is int


# -- the elimination kernel ----------------------------------------------------


def _kernel_values(rows):
    """Every value the kernel gives for ``rows`` (equal lengths): the pivot
    rows, the kernel basis, a subspace basis and, for the leading square
    block, the minimal polynomial."""
    cols = len(rows[0])
    pivots = sparse_rref(sparse_row(r) for r in rows)
    yield from (x for row in pivots.values() for x in row.values())
    yield from (x for v in sparse_kernel_rows(pivots, cols) for x in v.values())
    yield from (x for v in Subspace(cols, [sparse_row(r) for r in rows]).basis for x in v)
    size = min(len(rows), cols)
    yield from minimal_polynomial([sparse_row(r[:size]) for r in rows[:size]])


@pytest.mark.parametrize("rows", [
    [[2, 1, 0], [0, 1, 2]],  # Subspace.basis held Fraction(-1, 1)
    [[2, 3, 1], [4, 1, 5]],  # a pivot row of sparse_rref held Fraction(1, 1)
    [[2, 1], [1, 1]],  # the determinant was Fraction(1, 1); minimal polynomial x^2 - 3x + 1
])
def test_kernel_results_that_were_integral_fractions(rows):
    for x in _kernel_values(rows):
        assert int_where_integral(x), repr(x)


KERNEL_VALUES = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_kernel_gives_ints_where_integral(data):
    """Input rows mix ints and Fractions, integral Fractions among them."""
    cols = data.draw(st.integers(1, 5))
    row = st.lists(KERNEL_VALUES, min_size=cols, max_size=cols)
    rows = data.draw(st.lists(row, min_size=1, max_size=5))
    for x in _kernel_values(rows):
        assert int_where_integral(x), repr(x)
