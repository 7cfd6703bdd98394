"""Bracket mechanics, Jacobi detection, and the classical subspaces."""

import itertools
import random
from fractions import Fraction as Q

from graphlib import CycleError, TopologicalSorter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesymp import liealg
from liesymp.liealg import LieAlgebra, Subspace
from liesymp.catalog import build_entry
from liesymp.structure import TorusAction, semidirect
from liesymp.symplectic import cocycle_space
from test_linalg import to_grid


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
        grid = to_grid(d, n)
        for i in range(n):
            column = {k: -grid[k][i] for k in range(n) if grid[k][i]}
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


def _naive_compositions(g: LieAlgebra, partners) -> dict:
    """Per triple i < j < k, the cyclic sum over (p, q, r) of (i, j, k) of
    c_pq^m x over the partners (r, col, x) of each e_m, with c_pq^m read
    off bracket() on basis vectors; zero sums and empty triples dropped."""
    out = {}
    for i, j, k in itertools.combinations(range(g.dim), 3):
        acc = {}
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in enumerate(g.bracket(g.basis_vector(p), g.basis_vector(q))):
                for t, col, x in partners[m]:
                    if t == r:
                        acc[col] = acc.get(col, 0) + c * x
        row = {col: y for col, y in acc.items() if y}
        if row:
            out[(i, j, k)] = row
    return out


def _assert_summed(sums) -> None:
    """Triples i < j < k, each with a nonzero sum in every column it holds."""
    assert all(i < j < k for i, j, k in sums)
    assert all(row and all(row.values()) for row in sums.values())


@settings(max_examples=100, deadline=None)
@given(g=sparse_tables(), data=st.data())
def test_compositions_match_the_naive_cyclic_sums(g, data):
    """Random partners (t, col, x), repeated (t, col) among them, against the
    cyclic sums written out triple by triple."""
    n = g.dim
    partner = st.tuples(st.integers(0, n - 1), st.integers(0, 2), COEFFS)
    partners = [data.draw(st.lists(partner, max_size=4)) for _ in range(n)]
    sums = g.compositions(partners)
    _assert_summed(sums)
    assert sums == _naive_compositions(g, partners)


def test_compositions_drop_a_sum_that_cancels():
    # [e0, e1] = e2 and [e0, e3] = e2: with the partners (3, 0, 1) and (1, 0, 1)
    # of e2, both reach column 0 of the triple (0, 1, 3), with the signs +1
    # (t = 3 > 1) and -1 (0 < t = 1 < 3), and cancel; column 1 is reached once
    g = LieAlgebra(4, {(0, 1): {2: 1}, (0, 3): {2: 1}})
    partners = [[], [], [(3, 0, 1), (1, 0, 1)], []]
    assert g.compositions(partners) == {}
    partners[2].append((3, 1, Q(5, 2)))
    sums = g.compositions(partners)
    assert sums == {(0, 1, 3): {1: Q(5, 2)}} == _naive_compositions(g, partners)
    _assert_summed(sums)


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


def test_central_basis_vectors_are_the_ones_in_no_table_pair():
    assert LieAlgebra(3).central_basis_vectors() == (0, 1, 2)
    assert LieAlgebra(0).central_basis_vectors() == ()
    # n4_1's center is spanned by e1, which occurs as a value only
    assert n4_1().central_basis_vectors() == (0,)
    # a pair that sums to zero is dropped from the table, so e4 is central
    g = LieAlgebra(4, {(0, 1): {2: 1}, (0, 3): {2: 1}, (3, 0): {2: 1}})
    assert g.table == {(0, 1): {2: 1}} and g.central_basis_vectors() == (2, 3)
    # a torus vector acting on e1 only: e2 and e3 stay central in t ⋉ n
    t = semidirect(TorusAction(LieAlgebra(3), ({0: {0: 1}},)))
    assert t.central_basis_vectors() == (1, 2) and t.center().dim == 2
    # a central vector need not be a basis vector: e1 - e4 spans this center
    g = LieAlgebra(4, {(0, 1): {2: 1}, (1, 3): {2: -1}})
    assert g.central_basis_vectors() == (2,) and g.center().dim == 2
    assert semidirect(build_entry("n4_1").torus).central_basis_vectors() == ()


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


def _sorts(g: LieAlgebra) -> bool:
    """Whether a topological sort of the bracket graph (a -> k and b -> k
    for every nonzero c_ab^k) succeeds."""
    graph = TopologicalSorter()
    for (a, b), coeffs in g.table.items():
        for k in coeffs:
            graph.add(k, a, b)
    try:
        graph.prepare()
    except CycleError:
        return False
    return True


def _sorters_built(g: LieAlgebra) -> tuple[bool, int]:
    """``g.has_acyclic_bracket_graph()`` and the number of sorters it built."""
    built = []

    def counted():
        built.append(1)
        return TopologicalSorter()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(liealg, "TopologicalSorter", counted)
        answer = g.has_acyclic_bracket_graph()
    return answer, len(built)


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(central_extensions(), sparse_tables()), data=st.data())
def test_acyclic_bracket_graph_matches_the_sorter(g, data):
    """Permuted and relabelled, a table gets the sorter's answer; only a
    basis order that is not topological builds a sorter."""
    perm = data.draw(st.permutations(range(g.dim)))
    table = {(perm[a], perm[b]): {perm[k]: c for k, c in coeffs.items()}
             for (a, b), coeffs in g.table.items()}
    labels = [f"x{perm.index(i)}" for i in range(g.dim)]
    for h in (g, LieAlgebra(g.dim, table, labels)):
        in_order = all(k > max(a, b) for (a, b), coeffs in h.table.items() for k in coeffs)
        assert _sorters_built(h) == (_sorts(h), 0 if in_order else 1)
        if in_order:
            assert _sorts(h)


def test_a_nilpotent_table_out_of_flag_order_falls_back_to_the_sorter():
    # n4_1 in the basis e1 + e4, e2, e3, e4: [f2, f4] = f1 - f4 is a self-loop
    n = LieAlgebra(4, {(0, 1): {0: -1, 3: 1}, (0, 2): {1: -1},
                       (1, 3): {0: 1, 3: -1}, (2, 3): {1: 1}})
    assert _sorters_built(n) == (False, 1)
    assert n.is_nilpotent()
    # n4_1's own basis runs its flag downwards: acyclic, as the sorter finds
    assert _sorters_built(n4_1()) == (True, 1)
    # reversed, the order is topological, and no sorter is built
    assert _sorters_built(LieAlgebra(4, {(0, 2): {3: 1}, (0, 1): {2: 1}})) == (True, 0)
