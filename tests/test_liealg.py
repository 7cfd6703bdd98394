"""Bracket mechanics, Jacobi detection, and the classical subspaces."""

import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesymp.liealg import LieAlgebra, Subspace
from liesymp.catalog import build_entry
from liesymp.structure import semidirect
from liesymp.symplectic import cocycle_space


def n4_1() -> LieAlgebra:
    # [e2,e4] = e1, [e3,e4] = e2 (1-based labels)
    return LieAlgebra(4, {(1, 3): {0: 1}, (2, 3): {1: 1}})


def test_bracket_examples():
    g = n4_1()
    e = g.basis_vector
    assert g.bracket(e(1), e(3)) == e(0)  # [e2,e4] = e1
    assert g.bracket(e(3), e(1)) == tuple(-x for x in e(0))
    x = (Q(1), Q(2), Q(-1), Q(3))
    assert g.bracket(x, x) == (Q(0),) * 4
    abelian = LieAlgebra(3)
    assert abelian.bracket(e := abelian.basis_vector(0), abelian.basis_vector(2)) == (Q(0),) * 3


def test_bracket_bilinear():
    g = n4_1()
    rng = random.Random(5)
    for _ in range(20):
        x, y = ((Q(rng.randrange(-3, 4)) for _ in range(4)) for _ in range(2))
        x, y = tuple(x), tuple(y)
        lhs = g.bracket(tuple(2 * a for a in x), y)
        rhs = tuple(2 * c for c in g.bracket(x, y))
        assert lhs == rhs


def test_self_bracket_rejected():
    with pytest.raises(ValueError):
        LieAlgebra(2, {(0, 0): {1: 1}})


def test_jacobi_holds_catalog_case():
    entry = build_entry("n6_11")
    assert entry.nilradical.jacobi_holds()
    assert LieAlgebra(5).jacobi_holds()  # abelian


def _naive_first_jacobi_failure(g: LieAlgebra):
    """Independent brute force through bracket() on actual vectors."""
    for i, j, k in itertools.combinations(range(g.dim), 3):
        x, y, z = g.basis_vector(i), g.basis_vector(j), g.basis_vector(k)
        total = [Q(0)] * g.dim
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            w = g.bracket(g.bracket(a, b), c)
            total = [t + v for t, v in zip(total, w)]
        if any(t != 0 for t in total):
            return (i, j, k)
    return None


def test_jacobi_perturbation_detected():
    # add [e1,e2] = e4 to n4_1: no longer a Lie algebra
    bad = LieAlgebra(4, {(1, 3): {0: 1}, (2, 3): {1: 1}, (0, 1): {3: 1}})
    failure = bad.jacobi_failure()
    assert failure is not None
    assert failure == _naive_first_jacobi_failure(bad)
    assert not bad.jacobi_holds()


COEFFS = st.sampled_from((-2, -1, 1, 2, Q(1, 2)))


@st.composite
def central_extensions(draw) -> LieAlgebra:
    """An iterated central extension of an abelian algebra by closed 2-forms:
    each step adds a basis vector z and [x, y] += w(x, y) z for a random w in
    Z^2.  Such an algebra is nilpotent in index order."""
    g = LieAlgebra(draw(st.integers(2, 4)))
    for _ in range(draw(st.integers(1, 3))):
        table = {pair: dict(coeffs) for pair, coeffs in g.table.items()}
        for w in cocycle_space(g).z2_basis:
            c = draw(st.sampled_from((0, 0, 1, -1, 2)))
            for pair, x in w.coords.items():
                slot = table.setdefault(pair, {})
                slot[g.dim] = slot.get(g.dim, 0) + c * x
        g = LieAlgebra(g.dim + 1, table)
    return g


def unchecked_product(t) -> LieAlgebra:
    """t ⋉ n with the bracket of ``semidirect`` ([e_i, h] = -h(e_i)), built
    without its torus and Jacobi checks: those walk ``compositions`` too, so
    a fault there would fail a test built through ``semidirect`` before the
    test's own comparison runs."""
    n = t.nilradical.dim
    table = dict(t.nilradical.table)
    for a, d in enumerate(t.generators):
        for i in range(n):
            column = {k: -d.data[k][i] for k in range(n) if d.data[k][i]}
            if column:
                table[(i, n + a)] = column
    return LieAlgebra(n + t.rank, table, t.nilradical.labels + t.labels)


SEMIDIRECT_ENTRIES = (("n3_1", {}), ("n4_1", {}), ("n5_4", {}), ("n6_8", {}),
                      ("L", {"n": 4}), ("Q", {"n": 5}), ("abelian", {"n": 2}))


@st.composite
def sparse_tables(draw) -> LieAlgebra:
    """A Lie algebra (a central extension or a catalog t ⋉ n) with its basis
    permuted and rescaled, so that the index order is no longer adapted to
    the bracket, and perturbed by up to four random terms, which usually
    leaves several triples failing."""
    if draw(st.booleans()):
        g = draw(central_extensions())
    else:
        name, params = draw(st.sampled_from(SEMIDIRECT_ENTRIES))
        g = unchecked_product(build_entry(name, **params).torus)
    n = g.dim
    # f_perm[i] = scale[i] * e_i, so c_ab^k becomes c * scale[a] scale[b] / scale[k]
    perm = draw(st.permutations(range(n)))
    scale = [Q(draw(st.sampled_from((1, -1, 2, Q(1, 3))))) for _ in range(n)]
    table: dict[tuple[int, int], dict[int, Q]] = {}
    for (a, b), coeffs in g.table.items():
        table[(perm[a], perm[b])] = {
            perm[k]: c * scale[a] * scale[b] / scale[k] for k, c in coeffs.items()
        }
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        slot = table.setdefault((i, j), {})
        k = draw(st.integers(0, n - 1))
        slot[k] = slot.get(k, 0) + draw(COEFFS)
    return LieAlgebra(n, table)


@settings(max_examples=150, deadline=None)
@given(g=sparse_tables())
def test_jacobi_failure_matches_brute_force(g):
    assert g.jacobi_failure() == _naive_first_jacobi_failure(g)


@pytest.mark.parametrize("name, params", SEMIDIRECT_ENTRIES)
def test_unchecked_product_is_the_semidirect_product(name, params):
    t = build_entry(name, **params).torus
    assert unchecked_product(t) == semidirect(t)


def test_jacobi_failure_reports_the_first_of_several_triples():
    # n4_1 plus [e1, e3] = e4 fails on (0, 1, 2) and (1, 2, 3); the table's
    # first pair (1, 3) reaches the sum of (1, 2, 3) first
    bad = LieAlgebra(4, {(1, 3): {0: 1}, (2, 3): {1: 1}, (0, 2): {3: 1}})
    assert bad.jacobi_failure() == _naive_first_jacobi_failure(bad) == (0, 1, 2)


def test_jacobi_property_on_random_vectors():
    g = semidirect(build_entry("n4_1").torus)
    assert g.jacobi_holds()
    rng = random.Random(11)
    for _ in range(25):
        x, y, z = (
            tuple(Q(rng.randrange(-2, 3)) for _ in range(g.dim)) for _ in range(3)
        )
        total = [Q(0)] * g.dim
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            w = g.bracket(g.bracket(a, b), c)
            total = [t + v for t, v in zip(total, w)]
        assert all(t == 0 for t in total)


def test_center():
    assert LieAlgebra(3).center().dim == 3
    g = n4_1()
    c = g.center()
    assert c.dim == 1 and c.contains(g.basis_vector(0))
    # semidirect with the catalog torus has trivial center
    full = semidirect(build_entry("n4_1").torus)
    assert full.center().is_zero()
    two_dim = semidirect(build_entry("abelian", n=1).torus)
    assert two_dim.center().is_zero()


def test_center_is_ideal():
    for name in ("n4_1", "n5_4", "n6_8"):
        g = build_entry(name).nilradical
        assert g.is_ideal(g.center())


def test_series_dims():
    L4 = build_entry("L", n=4).nilradical
    dims = [s.dim for s in L4.lower_central_series()]
    assert dims == [4, 2, 1, 0]
    assert L4.is_nilpotent()
    assert LieAlgebra(3).derived_subalgebra().is_zero()
    n5_4 = build_entry("n5_4").nilradical
    derived = n5_4.derived_subalgebra()
    assert derived.dim == 1 and derived.contains(n5_4.basis_vector(0))


def test_series_are_decreasing_chains():
    for name in ("n4_1", "n6_2", "n6_22"):
        g = semidirect(build_entry(name).torus)
        lcs = g.lower_central_series()
        ds = g.derived_series()
        for series in (lcs, ds):
            for bigger, smaller in zip(series, series[1:]):
                assert all(bigger.contains(v) for v in smaller.basis)
        assert g.is_solvable()
        assert ds[-1].is_zero()


def test_is_ideal():
    entry = build_entry("abelian", n=2)
    g = semidirect(entry.torus)
    nilpart = Subspace(4, [g.basis_vector(0), g.basis_vector(1)])
    assert g.is_ideal(nilpart)
    assert g.is_ideal(Subspace.full(4))
    torus_line = Subspace(4, [g.basis_vector(2)])
    assert not g.is_ideal(torus_line)


def test_subspace_membership_and_equality():
    s = Subspace(3, [(1, 1, 0), (0, 0, 2)])
    assert s.dim == 2
    assert s.contains((2, 2, 5))
    assert not s.contains((1, 0, 0))
    assert s == Subspace(3, [(2, 2, 2), (0, 0, 1)])
    assert Subspace.zero(3).is_zero()


def test_labels():
    with pytest.raises(ValueError):
        LieAlgebra(2, labels=("x", "x"))
