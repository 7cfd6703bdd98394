"""Differentials, cocycle spaces, the Pfaffian decision, and form geometry.

The cocycle space is cross-checked against a naive enumerator that evaluates
the cocycle identity through bracket() on actual vectors, sharing no code
with the production path.
"""

import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomials import to_sparse
from test_integral_table import int_where_integral
from test_liealg import sparse_tables, unchecked_product
from test_linalg import ad_map, add_maps, apply_map, column_of, compose, scale_map

from liesymp import symplectic
from liesymp.analysis import Analysis
from liesymp.catalog import DEFAULT_SELECTION, build_entry
from liesymp.liealg import LieAlgebra, Subspace
from liesymp.linalg import diagonal, sparse_kernel_basis, sparse_row, sparse_rref
from liesymp.poly import MultiPoly, poly_divides
from liesymp.regression import check_entry
from liesymp.structure import semidirect
from liesymp.symplectic import (
    TwoForm,
    _generic_combination,
    cocycle_space,
    d_one_form,
    d_two_form,
    decide_symplectic,
    find_nonvanishing_point,
    generic_cocycle,
    is_closed,
    is_lagrangian_ideal,
    pullback,
    top_power,
)


def _g(name, **params):
    return semidirect(build_entry(name, **params).torus)


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def naive_cocycle_subspace(g: LieAlgebra) -> Subspace:
    """Kernel of the cocycle identity, enumerated triple by triple via bracket().

    Independent oracle: builds each candidate pair-form explicitly and sums
    w([x,y],z) + w([y,z],x) + w([z,x],y) on actual basis vectors.
    """
    pairs = _pairs(g.dim)
    rows = []
    for i, j, k in itertools.combinations(range(g.dim), 3):
        x, y, z = g.basis_vector(i), g.basis_vector(j), g.basis_vector(k)
        row = []
        for (p, q) in pairs:
            w = TwoForm.from_pairs(g.dim, {(p, q): Q(1)})
            val = (
                w.value(g.bracket(x, y), z)
                + w.value(g.bracket(y, z), x)
                + w.value(g.bracket(z, x), y)
            )
            row.append(val)
        rows.append(row)
    if not rows:
        return Subspace.full(len(pairs))
    kernel = sparse_kernel_basis(sparse_rref(map(sparse_row, rows)), len(pairs))
    return Subspace(len(pairs), kernel)


def _coords(w: TwoForm):
    return tuple(w.entries[i][j] for (i, j) in _pairs(w.dim))


def test_d_one_form_pairing_family_displays():
    g = _g("Q", n=5)
    n = 5
    de0 = d_one_form(g, g.basis_vector(0))
    assert de0 == TwoForm.from_pairs(g.dim, {(0, n + 1): Q(1)})
    de5 = d_one_form(g, g.basis_vector(n))
    expected = TwoForm.from_pairs(
        g.dim,
        {(1, 4): Q(1), (2, 3): Q(-1), (n, n + 1): Q(n - 2), (n, n + 2): Q(2)},
    )
    assert de5 == expected


def test_d_one_form_torus_covector_dies():
    g = _g("abelian", n=3)
    for i in range(3, 6):
        assert d_one_form(g, g.basis_vector(i)) == TwoForm.zero(6)
    assert d_one_form(g, [0] * 6) == TwoForm.zero(6)
    # nilradical covectors produce the pairing forms
    assert d_one_form(g, g.basis_vector(0)) == TwoForm.from_pairs(6, {(0, 3): Q(1)})


def test_d_squared_is_zero():
    rng = random.Random(23)
    for name, params in (("n4_1", {}), ("n6_8", {}), ("Q", {"n": 5})):
        g = _g(name, **params)
        for i in range(g.dim):
            assert not d_two_form(g, d_one_form(g, g.basis_vector(i)))
        for _ in range(10):
            alpha = [Q(rng.randrange(-5, 6), rng.randrange(1, 3)) for _ in range(g.dim)]
            assert not d_two_form(g, d_one_form(g, alpha))


def test_d_two_form_detects_non_cocycles():
    g = _g("n4_1")
    w = TwoForm.from_pairs(g.dim, {(0, 1): Q(1)})  # e^{1,2}
    table = d_two_form(g, w)
    assert table  # not closed
    # independent check of one reported value
    (i, j, k), val = next(iter(table.items()))
    x, y, z = g.basis_vector(i), g.basis_vector(j), g.basis_vector(k)
    direct = -(
        w.value(g.bracket(x, y), z)
        + w.value(g.bracket(y, z), x)
        + w.value(g.bracket(z, x), y)
    )
    assert val == direct
    # abelian brackets: everything is closed
    flat = LieAlgebra(4)
    assert not d_two_form(flat, TwoForm.from_pairs(4, {(0, 1): Q(1), (2, 3): Q(5)}))


def _bracket_basis(g: LieAlgebra, i: int, j: int) -> dict:
    """[e_i, e_j] as a sparse coefficient map, read off the bracket table."""
    if i < j:
        return dict(g.table.get((i, j), {}))
    return {k: -c for k, c in g.table.get((j, i), {}).items()}


def _dense_d_two_form(g: LieAlgebra, w: TwoForm) -> dict:
    """dw by the dense walk over every basis triple i < j < k, reading the
    bracket and the form through ``_bracket_basis`` and ``entry``."""
    out = {}
    for i, j, k in itertools.combinations(range(g.dim), 3):
        total = 0
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in _bracket_basis(g, x, y).items():
                e = w.entry(m, z)
                if e:
                    total = total + c * e
        if total:
            out[(i, j, k)] = -total
    return out


FORM_VALUES = st.sampled_from((1, -1, 2, Q(1, 2), Q(-3, 2)))


@st.composite
def forms_on(draw, n: int) -> TwoForm:
    """A sparse two-form on Q^n: concrete, or parametric with coordinates
    linear in t1, t2 plus a constant."""
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=2 * n))
    if draw(st.booleans()):
        return TwoForm.from_pairs(n, {p: draw(FORM_VALUES) for p in pairs})
    names = ("t1", "t2")
    coords = {}
    for p in pairs:
        terms = {e: draw(FORM_VALUES) for e in draw(st.lists(
            st.sampled_from(((0, 0), (1, 0), (0, 1))), min_size=1, max_size=3, unique=True))}
        coords[p] = MultiPoly(names, to_sparse(terms))
    return TwoForm.from_pairs(n, coords, names)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=sparse_tables())
def test_d_two_form_matches_the_dense_triple_walk(data, g):
    """Catalog t ⋉ n and central extensions, permuted, rescaled and perturbed
    (see ``test_liealg.sparse_tables``), against concrete and parametric forms:
    the same triples, in the same order, with the same values."""
    w = data.draw(forms_on(g.dim))
    got, expected = d_two_form(g, w), _dense_d_two_form(g, w)
    assert list(got) == list(expected)
    assert all(got[key] == value for key, value in expected.items())
    if w.is_concrete():
        assert all(map(int_where_integral, got.values()))


def test_cocycle_space_dimensions():
    # commutative nilradical: n + n(n-1)/2
    for n in (1, 2, 3, 4):
        g = _g("abelian", n=n)
        cs = cocycle_space(g)
        assert cs.dims[0] == n + n * (n - 1) // 2
        assert cs.dims[1] == n
    g = _g("n4_1")
    assert cocycle_space(g).dims[0] == 5
    flat = LieAlgebra(2)
    cs = cocycle_space(flat)
    assert cs.dims == (1, 0, 1)


def test_cocycle_space_matches_naive_enumerator():
    cases = [("n3_1", {}), ("n4_1", {}), ("n5_6", {}), ("abelian", {"n": 2}),
             ("L", {"n": 4})]
    for name, params in cases:
        # built without the Jacobi check, which walks the same compositions
        g = unchecked_product(build_entry(name, **params).torus)
        cs = cocycle_space(g)
        mine = Subspace(len(_pairs(g.dim)), [_coords(w) for w in cs.z2_basis])
        assert mine == naive_cocycle_subspace(g)
        # B^2 is contained in Z^2 and every recorded preimage maps onto its image
        for b, alpha in zip(cs.b2_basis, cs.b2_preimages):
            assert mine.contains(_coords(b))
            assert d_one_form(g, alpha) == b


def _specialize(w: TwoForm, point) -> TwoForm:
    """The form with every entry of ``w`` evaluated at ``point``, rebuilt from
    the dense entries through the validating constructor."""
    return TwoForm(w.dim, [[x.evaluate(point) for x in row] for row in w.entries])


def test_generic_cocycle_shape():
    g = _g("n4_1")
    cs = cocycle_space(g)
    gen = generic_cocycle(cs)
    assert gen.variables == ("t1", "t2", "t3", "t4", "t5")
    for i in range(g.dim):
        for j in range(g.dim):
            assert gen.entries[i][j].total_degree() <= 1
    # specialising to a unit vector recovers each basis cocycle
    point = {"t1": Q(1), "t2": Q(0), "t3": Q(0), "t4": Q(0), "t5": Q(0)}
    assert _specialize(gen, point) == cs.z2_basis[0]


def test_generic_cocycle_pfaffian_squared_is_determinant():
    from test_poly import _cofactor_determinant

    g = _g("n4_1")
    gen = generic_cocycle(cocycle_space(g))
    pf = gen.pfaffian()
    assert pf * pf == _cofactor_determinant(gen.entries)


def test_generic_combination_of_nothing_is_the_zero_form():
    w = _generic_combination(4, ())
    assert w.variables == ()
    assert w.pfaffian() == 0


def test_decide_symplectic_chain_filiform_six_dim_nilradical():
    verdict = decide_symplectic(_g("L", n=6))
    assert verdict.exists == "no"
    assert verdict.pfaffian.is_zero()
    assert verdict.witness is None


def test_decide_symplectic_never_rows():
    for name in ("n6_2", "n6_18"):
        verdict = decide_symplectic(_g(name))
        assert verdict.exists == "no" and verdict.pfaffian.is_zero()


def test_decide_symplectic_odd_dimension():
    verdict = decide_symplectic(_g("n5_2"))
    assert verdict.exists == "odd" and verdict.exact_exists == "odd"
    assert verdict.pfaffian.is_zero()


def test_decide_symplectic_with_witness_and_conditions():
    g = _g("n4_1")
    verdict = decide_symplectic(g)
    assert verdict.exists == "yes"
    w = verdict.witness
    assert w is not None and is_closed(g, w) and w.pfaffian() != 0
    gen = generic_cocycle(cocycle_space(g))
    cond1 = gen.entry(1, 3)  # value on (e2, e4)
    cond2 = 2 * gen.entry(2, 4) * gen.entry(1, 3) - gen.entry(2, 3) ** 2
    assert poly_divides(cond1, verdict.pfaffian)
    assert poly_divides(cond2, verdict.pfaffian)


def test_decide_symplectic_zero_dimension_is_degenerate():
    verdict = decide_symplectic(LieAlgebra(0))
    assert verdict.exists == "yes" and verdict.degenerate


def test_decide_exact_symplectic():
    # diagonal torus over the commutative nilradical: exact symplectic exists
    g = _g("abelian", n=2)
    verdict = decide_symplectic(g)
    assert verdict.exact_exists == "yes"
    rebuilt = d_one_form(g, verdict.exact_one_form)
    assert rebuilt == verdict.exact_witness
    assert rebuilt.pfaffian() != 0
    # bare abelian algebra: B^2 = 0, nothing exact
    assert decide_symplectic(LieAlgebra(2)).exact_exists == "no"
    # pairing filiform: exact symplectic per the reference statement
    assert decide_symplectic(_g("Q", n=5)).exact_exists == "yes"


def test_witness_search_order_is_deterministic():
    x, y = MultiPoly.variables(["x", "y"])
    # first shell-1 point in lexicographic order is (-1, -1)
    assert find_nonvanishing_point(x * y, ("x", "y")) == {"x": Q(-1), "y": Q(-1)}
    # vanishes whenever x in {-1, 0, 1}: needs shell 2
    p = (x - 1) * (x + 1) * x
    assert find_nonvanishing_point(p, ("x",)) == {"x": Q(-2)}
    with pytest.raises(ValueError):
        find_nonvanishing_point(MultiPoly.zero(), ("x",))


def test_pullback_identity_and_normalization():
    g = _g("abelian", n=2)
    w = TwoForm.from_pairs(4, {(0, 2): Q(3), (1, 3): Q(-2), (2, 3): Q(7)})
    assert pullback(g, diagonal([1] * 4), w) == w
    t = diagonal([Q(1, 3), Q(-1, 2), 1, 1])
    normal = TwoForm.from_pairs(4, {(0, 2): Q(1), (1, 3): Q(1), (2, 3): Q(7)})
    assert pullback(g, t, w) == normal
    with pytest.raises(ValueError, match="invertible"):
        pullback(g, diagonal([0] * 4), w)


def test_pullback_rejects_a_singular_or_out_of_range_map():
    g = _g("abelian", n=2)
    w = TwoForm.from_pairs(4, {(0, 2): Q(3), (1, 3): Q(-2)})
    # rank 3: e_4 -> e_1 + e_2 repeats the sum of the first two columns
    singular = {0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {0: 1, 1: 1}}
    with pytest.raises(ValueError, match="invertible"):
        pullback(g, singular, w)
    # rank 4, but a row index (4) or a column index (-1) outside the algebra
    for bad in ({0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {3: 1, 4: 1}},
                {-1: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {3: 1}}):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pullback(g, bad, w)


def test_pullback_by_automorphism_preserves_closedness():
    g = _g("n4_1")
    # exponential of the inner derivation ad_{e4} (nilpotent, so a finite sum)
    ad = ad_map(g, g.basis_vector(3))
    t = diagonal([1] * g.dim)
    power = diagonal([1] * g.dim)
    for k in range(1, g.dim + 1):
        power = compose(power, ad)
        if not power:
            break
        t = add_maps(t, scale_map(Q(1, math.factorial(k)), power))
    # T[e_i, e_j] = [T e_i, T e_j] on every basis pair
    for i, j in _pairs(g.dim):
        lhs = apply_map(t, g.bracket(g.basis_vector(i), g.basis_vector(j)))
        assert lhs == g.bracket(column_of(t, i, g.dim), column_of(t, j, g.dim))
    verdict = decide_symplectic(g)
    pulled = pullback(g, t, verdict.witness)
    assert is_closed(g, pulled)
    assert pulled.pfaffian() != 0


def test_lagrangian_ideal():
    n = 3
    g = _g("abelian", n=n)
    w0 = TwoForm.from_pairs(2 * n, {(i, n + i): Q(1) for i in range(n)})
    nilpart = Subspace(2 * n, [g.basis_vector(i) for i in range(n)])
    assert is_lagrangian_ideal(g, w0, nilpart)
    assert not is_lagrangian_ideal(g, w0, Subspace.full(2 * n))
    assert not is_lagrangian_ideal(g, w0, Subspace(2 * n, [g.basis_vector(0)]))
    # half-dimensional but not isotropic: the torus half pairs with e_i only,
    # so it is isotropic for w0 but not an ideal
    torus_half = Subspace(2 * n, [g.basis_vector(n + i) for i in range(n)])
    assert not g.is_ideal(torus_half)
    assert not is_lagrangian_ideal(g, w0, torus_half)


def test_top_power_examples():
    # one pair: coefficient 1
    w = TwoForm.from_pairs(2, {(0, 1): Q(1)})
    assert top_power(w) == 1
    # standard dim-4 block: literal square is 2! * Pf
    w4 = TwoForm.from_pairs(4, {(0, 2): Q(1), (1, 3): Q(1)})
    assert top_power(w4) == 2 * w4.pfaffian()
    assert top_power(w4) == -2  # (e^{1,3} + e^{2,4})^2 = -2 vol, by hand
    with pytest.raises(ValueError):
        top_power(TwoForm.zero(3))


def test_top_power_matches_factorial_pfaffian_randomized():
    rng = random.Random(17)
    for n in (2, 4, 6):
        for _ in range(8):
            pairs = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        pairs[(i, j)] = Q(rng.randrange(-4, 5), rng.randrange(1, 3))
            w = TwoForm.from_pairs(n, pairs)
            assert top_power(w) == math.factorial(n // 2) * w.pfaffian()


def test_two_form_validation():
    with pytest.raises(ValueError):
        TwoForm(2, [[1, 0], [0, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        TwoForm(2, [[0, 1], [1, 0]])  # not antisymmetric
    # one nonzero side of a pair: the antisymmetry check must still see it
    for grid in ([[0, 1], [0, 0]], [[0, 0], [1, 0]]):
        with pytest.raises(ValueError, match="not antisymmetric"):
            TwoForm(2, grid)
    x, y = MultiPoly.variables(["x", "y"])
    for grid in (
        [[0, x], [MultiPoly.zero(), 0]],
        [[0, x], [x, 0]],
        [[0, x], [-y, 0]],
        [[0, x], [Q(1), 0]],
        [[0, x + y], [-x, 0]],
        [[0, MultiPoly.constant(3)], [Q(3), 0]],
    ):
        with pytest.raises(ValueError, match=r"^two-form entries are not antisymmetric$"):
            TwoForm(2, grid)
    with pytest.raises(ValueError, match=r"^two-form has a nonzero diagonal entry$"):
        TwoForm(2, [[x, 0], [0, 0]])
    # a mirror over another variable tuple, or a constant against a rational
    TwoForm(2, [[0, x], [MultiPoly(("y", "x"), {((1, 1),): Q(-1)}), 0]])
    TwoForm(2, [[0, MultiPoly.constant(3)], [Q(-3), 0]])
    w = TwoForm.from_pairs(3, {(0, 1): Q(2)})
    assert w.value((1, 0, 0), (0, 1, 0)) == 2
    assert w.value((0, 1, 0), (1, 0, 0)) == -2
    # a vector of the wrong length is neither truncated nor read past its end
    for x, y in (((0, 1, 0, 9), (0, 0, 1)), ((0, 1), (0, 0, 1)), ((1, 0, 0), (0, 1))):
        with pytest.raises(ValueError, match=r"^vector length does not match form dimension$"):
            w.value(x, y)
    # (1, 0) counts as -(0, 1), so the pair cancels to the zero form
    cancelled = TwoForm.from_pairs(3, {(0, 1): 1, (1, 0): 1})
    assert cancelled == TwoForm.zero(3) and cancelled.coords == {}
    with pytest.raises(ValueError, match=r"^two-form index out of range$"):
        TwoForm.from_pairs(3, {(0, 3): 1})


def test_a_form_of_ints_is_concrete_and_a_parametric_one_is_not():
    """A concrete form's zero is the int 0, so concreteness must not be read
    off the zero's type being Fraction."""
    w = TwoForm.from_pairs(4, {(0, 1): 1, (2, 3): 1})
    assert all(type(x) is int for x in w.coords.values())
    assert w.is_concrete() and TwoForm.zero(4).is_concrete()
    assert w.entries == ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
    assert all(type(x) is int for row in w.entries for x in row)
    assert w.pfaffian() == 1 and type(w.pfaffian()) is int
    assert top_power(w) == 2 and type(top_power(w)) is int
    t = MultiPoly.variables(["t1"])[0]
    for p in (
        TwoForm.from_pairs(4, {(0, 1): t, (2, 3): 1}, ("t1",)),
        TwoForm.from_pairs(4, {(0, 1): 1, (2, 3): 1}, ("t1",)),  # variables, no polynomial
    ):
        assert not p.is_concrete()
        with pytest.raises(ValueError, match="top power requires a concrete form"):
            top_power(p)
    assert str(TwoForm.from_pairs(4, {(0, 1): t, (2, 3): 1}, ("t1",)).pfaffian()) == "t1"


# the family members of the benchmark's scale tier
SCALE_ENTRIES = (("L", {"n": 10}), ("L", {"n": 12}), ("Q", {"n": 11}), ("Q", {"n": 13}),
                 ("abelian", {"n": 6}), ("abelian", {"n": 7}))


def test_the_generic_form_is_built_only_where_it_is_read(monkeypatch):
    """The decision packs its Pfaffians from the basis forms and keeps the
    cocycle space; ``check_entry`` builds the generic closed form once for
    an entry with printed conditions, and not at all for one without."""
    calls = []
    original = symplectic._generic_combination

    def counted(n, basis):
        calls.append(n)
        return original(n, basis)

    monkeypatch.setattr(symplectic, "_generic_combination", counted)
    verdict = decide_symplectic(_g("Q", n=13))
    assert verdict.exists == "yes" and calls == []
    bare = build_entry("Q", n=13).nilradical
    assert decide_symplectic(bare).cocycles.dims[0] > 0 and calls == []
    assert build_entry("n4_1").expected.conditions
    assert check_entry(build_entry("n4_1")).conditions and len(calls) == 1
    calls.clear()
    assert not build_entry("n6_2").expected.conditions
    assert check_entry(build_entry("n6_2")).green and calls == []


@pytest.mark.parametrize("name, params", list(DEFAULT_SELECTION) + list(SCALE_ENTRIES))
def test_witnesses_are_the_generic_forms_specialized(name, params):
    """The verdict sums the Z^2 (and B^2) coordinates at the witness point;
    specializing the generic form entry by entry gives the same form."""
    analysis = Analysis(build_entry(name, **params).torus)
    verdict, cs = analysis.verdict, cocycle_space(analysis.algebra)
    # the verdict keeps the cocycle space it decided from, in odd dimension too
    assert verdict.cocycles.z2_basis == cs.z2_basis and verdict.cocycles.b2_basis == cs.b2_basis
    if verdict.exists == "odd":
        assert verdict.witness is None and verdict.exact_witness is None
        return
    # the closed form whose Pfaffian the verdict took
    generic = generic_cocycle(verdict.cocycles)
    assert generic == _generic_combination(verdict.dim, cs.z2_basis)
    assert generic.variables == tuple(f"t{k + 1}" for k in range(len(cs.z2_basis)))
    for basis, pf, witness in (
        (cs.z2_basis, verdict.pfaffian, verdict.witness),
        (cs.b2_basis, verdict.exact_pfaffian, verdict.exact_witness),
    ):
        if pf.is_zero():
            assert witness is None
            continue
        generic = _generic_combination(verdict.dim, basis)
        expected = _specialize(generic, find_nonvanishing_point(pf, generic.variables))
        assert witness == expected and witness.entries == expected.entries
        assert witness.variables == () and witness.pfaffian() != 0
