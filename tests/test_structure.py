"""Derivations, torus verification, semidirect products, roots, completeness."""

import importlib.util
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from liesymp.catalog import DEFAULT_SELECTION, build_entry
from liesymp.fileformat import build, parse
from liesymp.liealg import LieAlgebra
from liesymp.linalg import RationalMatrix
from test_linalg import ad_matrix, dense_apply, in_span
from liesymp.structure import (
    NotRationallyDiagonalizable,
    TorusAction,
    derivation_algebra,
    is_complete,
    is_derivation,
    is_maximal_rank,
    rank_bound,
    root_decomposition,
    semidirect,
    verify_torus,
)


def n4_1() -> LieAlgebra:
    return LieAlgebra(4, {(1, 3): {0: 1}, (2, 3): {1: 1}})


def _matrix_from_action(dim, rules):
    m = [[Q(0)] * dim for _ in range(dim)]
    for j, comps in rules.items():
        for k, c in comps.items():
            m[k - 1][j - 1] = Q(c)
    return RationalMatrix(m)


# the seven derivations of n4_1, as printed: D(e_j) = sum_k c e_k
PRINTED_DERIVATIONS = [
    {1: {1: 1}, 3: {3: -1}, 4: {4: 1}},
    {2: {2: 1}, 3: {3: 2}, 4: {4: -1}},
    {2: {1: 1}, 3: {2: 1}},
    {3: {1: 1}},
    {4: {1: 1}},
    {4: {2: 1}},
    {4: {3: 1}},
]


def test_derivation_dimension_n4_1():
    der = derivation_algebra(n4_1())
    assert der.dim == 7


def test_printed_derivations_span_check():
    g = n4_1()
    der = derivation_algebra(g)
    for rules in PRINTED_DERIVATIONS:
        d = _matrix_from_action(4, rules)
        assert is_derivation(g, d)
        assert in_span(der.basis, d)


def test_derivations_of_abelian_are_all_matrices():
    for n in (1, 2, 3):
        assert derivation_algebra(LieAlgebra(n)).dim == n * n


def test_derivations_two_dimensional_nonabelian():
    # [e2, e1] = e1: solving the four-unknown system by hand leaves dim 2
    g = LieAlgebra(2, {(0, 1): {0: -1}})
    assert derivation_algebra(g).dim == 2


def test_derivation_basis_satisfies_leibniz():
    for name in ("n4_1", "n5_6", "n6_9"):
        g = build_entry(name).nilradical
        der = derivation_algebra(g)
        for d in der.basis:
            assert is_derivation(g, d)


def test_ad_matrices_lie_in_derivation_algebra():
    g = semidirect(build_entry("n4_1").torus)
    der = derivation_algebra(g)
    for i in range(g.dim):
        assert in_span(der.basis, ad_matrix(g, g.basis_vector(i)))


def test_is_complete_examples():
    report = is_complete(semidirect(build_entry("n4_1").torus))
    assert report.complete and report.center_dim == 0 and report.derivation_dim == 6
    assert not is_complete(LieAlgebra(2)).complete  # abelian: center nontrivial
    rep = is_complete(semidirect(build_entry("abelian", n=2).torus))
    assert rep.complete


def test_verify_torus_accepts_catalog_tori():
    for name, params in DEFAULT_SELECTION:
        assert verify_torus(build_entry(name, **params).torus).ok, name


def test_verify_torus_rejects_nilpotent_generator():
    g = LieAlgebra(2)
    jordan = RationalMatrix([[0, 1], [0, 0]])
    check = verify_torus(TorusAction(g, (jordan,)))
    assert not check.ok
    assert "semisimple" in check.violation


def test_verify_torus_rejects_non_derivation():
    g = n4_1()
    bad = RationalMatrix.diagonal([1, 1, 1, 1])  # identity is not a derivation here
    check = verify_torus(TorusAction(g, (bad,)))
    assert not check.ok and "derivation" in check.violation


def test_verify_torus_rejects_non_commuting():
    g = LieAlgebra(2)
    a = RationalMatrix([[0, 1], [1, 0]])
    b = RationalMatrix.diagonal([1, 2])
    check = verify_torus(TorusAction(g, (a, b)))
    assert not check.ok and "commute" in check.violation


def test_verify_torus_rejects_linearly_dependent_generators():
    g = LieAlgebra(2)
    h = RationalMatrix.diagonal([1, 0])
    for gens, violation in (
        ((h, h), "generators e3, e4 are linearly dependent"),
        ((h, RationalMatrix.diagonal([0, 1]), RationalMatrix.diagonal([2, -3])),
         "generators e3, e4, e5 are linearly dependent"),
        ((RationalMatrix.diagonal([0, 0]),), "generator e3 is zero"),
    ):
        check = verify_torus(TorusAction(g, gens))
        assert not check.ok and check.violation == violation
    # a non-semisimple generator is reported as such, not as dependent
    jordan = RationalMatrix([[0, 1], [0, 0]])
    check = verify_torus(TorusAction(g, (jordan, jordan)))
    assert "not semisimple" in check.violation


def test_semidirect_abelian_brackets():
    # the adjoined diagonal torus acts by [e_{n+i}, e_i] = e_i
    n = 3
    g = semidirect(build_entry("abelian", n=n).torus)
    assert g.dim == 2 * n and g.jacobi_holds()
    for i in range(n):
        assert g.bracket(g.basis_vector(n + i), g.basis_vector(i)) == g.basis_vector(i)
        for j in range(n):
            if j != i:
                assert all(
                    x == 0 for x in g.bracket(g.basis_vector(n + i), g.basis_vector(j))
                )


def test_semidirect_restricts_to_nilradical():
    entry = build_entry("n6_8")
    g = semidirect(entry.torus)
    nil = entry.nilradical
    for (i, j), coeffs in nil.table.items():
        assert g.table[(i, j)] == coeffs
    # torus-torus brackets vanish
    r = entry.torus.rank
    for a in range(r):
        for b in range(a + 1, r):
            assert (nil.dim + a, nil.dim + b) not in g.table
    # torus-nilradical brackets reproduce the generator action:
    # [e_i, h] = -h(e_i) is stored on the pair (i, h)
    for a, gen in enumerate(entry.torus.generators):
        h = nil.dim + a
        for i in range(nil.dim):
            expected = {k: -gen[k, i] for k in range(nil.dim) if gen[k, i] != 0}
            assert g.table.get((i, h), {}) == expected


def test_semidirect_empty_torus_returns_the_algebra():
    nil = n4_1()
    g = semidirect(TorusAction(nil, ()))
    assert g.dim == 4
    assert g.table == nil.table


def test_semidirect_labels_follow_nilradical():
    entry = build_entry("n4_1")
    g = semidirect(entry.torus)
    assert g.labels == ("e1", "e2", "e3", "e4", "e5", "e6")


def test_rank_bound_examples():
    assert rank_bound(build_entry("n4_1").nilradical) == 2
    assert rank_bound(build_entry("n5_4").nilradical) == 4
    assert rank_bound(LieAlgebra(3)) == 3
    assert rank_bound(LieAlgebra(0)) == 0


def _series_rank_bound(n: LieAlgebra) -> int:
    """dim n - dim [n, n] read off the full lower central series."""
    series = n.lower_central_series()
    assert series[-1].is_zero()
    return series[0].dim - (series[1] if len(series) > 1 else series[0]).dim


def _files_core_nilradicals() -> list[LieAlgebra]:
    """The valid core sources of the benchmark's ``files`` workload, drawn by
    ``bench/gen.py`` as ``bench/run.py`` does (CORE_SEED, CORE_BLOCKS)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    spec.loader.exec_module(gen)
    sources = gen.generate(1_000_003, 7 * gen.BLOCK, prefix="core")
    return [build(parse(src.text)).nilradical for src in sources if src.kind == "valid"]


# the family members of the benchmark's scale tier
SCALE_ENTRIES = (("L", {"n": 10}), ("L", {"n": 12}), ("Q", {"n": 11}), ("Q", {"n": 13}),
                 ("abelian", {"n": 6}), ("abelian", {"n": 7}))


def test_certified_rank_bound_matches_the_series():
    nilradicals = [build_entry(name, **params).nilradical
                   for name, params in list(DEFAULT_SELECTION) + list(SCALE_ENTRIES)]
    nilradicals += _files_core_nilradicals()
    assert len(nilradicals) == len(DEFAULT_SELECTION) + len(SCALE_ENTRIES) + 105
    for n in nilradicals:
        assert n.has_acyclic_bracket_graph()
        assert rank_bound(n) == _series_rank_bound(n)


def test_center_dim_is_the_dimension_of_the_center():
    """The report counts the center by the rank of its equations; the
    subspace that ``LieAlgebra.center`` solves has that dimension."""
    algebras = []
    for name, params in DEFAULT_SELECTION:
        entry = build_entry(name, **params)
        algebras += [semidirect(entry.torus), entry.nilradical]
    algebras += _files_core_nilradicals()
    dims = [is_complete(g).center_dim for g in algebras]
    assert dims == [g.center().dim for g in algebras]
    assert 0 in dims and max(dims) > 1


def test_rank_bound_falls_back_to_the_series(monkeypatch):
    # n4_1 in the basis f1 = e1 + e4, f2 = e2, f3 = e3, f4 = e4: nilpotent,
    # but [f2, f4] = f1 - f4 and [f1, f2] = -f1 + f4 give f4 and f1 self-loops
    n = LieAlgebra(4, {(0, 1): {0: -1, 3: 1}, (0, 2): {1: -1},
                       (1, 3): {0: 1, 3: -1}, (2, 3): {1: 1}})
    assert n.jacobi_holds() and not n.has_acyclic_bracket_graph()
    series_calls = []
    original = LieAlgebra.lower_central_series

    def counted(self):
        series_calls.append(self)
        return original(self)

    monkeypatch.setattr(LieAlgebra, "lower_central_series", counted)
    assert rank_bound(n) == 2 and series_calls == [n]
    assert _series_rank_bound(n) == 2


def _sl2_times_line() -> LieAlgebra:
    # h, e, f, z: [h, e] = 2e, [h, f] = -2f, [e, f] = h, z central
    return LieAlgebra(4, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


@pytest.mark.parametrize("g", [
    _sl2_times_line(),
    semidirect(build_entry("n4_1").torus),  # solvable, not nilpotent
], ids=["sl2 x R", "t x n4_1"])
def test_rank_bound_rejects_a_non_nilpotent_algebra(g):
    assert not g.has_acyclic_bracket_graph()
    with pytest.raises(ValueError, match=r"^rank bound is defined for nilpotent algebras$"):
        rank_bound(g)


def test_is_maximal_rank():
    assert is_maximal_rank(build_entry("n4_1").torus)
    assert not is_maximal_rank(build_entry("n5_4").torus)
    assert is_maximal_rank(build_entry("abelian", n=3).torus)


def test_too_many_generators_is_an_error():
    g = LieAlgebra(1)
    t = TorusAction(g, (RationalMatrix([[1]]), RationalMatrix([[2]])))
    # commuting semisimple derivations, but two of them on a line
    check = verify_torus(t)
    assert not check.ok and check.violation == "generators e2, e3 are linearly dependent"
    with pytest.raises(ValueError):
        is_maximal_rank(t)


def test_root_decomposition_abelian():
    entry = build_entry("abelian", n=3)
    decomp = root_decomposition(entry.torus)
    assert len(decomp.roots) == 3
    assert sorted(decomp.roots) == [
        (Q(0), Q(0), Q(1)),
        (Q(0), Q(1), Q(0)),
        (Q(1), Q(0), Q(0)),
    ]
    assert all(s.dim == 1 for s in decomp.spaces)


def test_root_decomposition_chain_filiform():
    entry = build_entry("L", n=4)
    decomp = root_decomposition(entry.torus)
    got = {}
    for beta, space in zip(decomp.roots, decomp.spaces):
        assert space.dim == 1
        got[beta] = space
    assert set(got) == {(Q(1), Q(0)), (Q(0), Q(1)), (Q(1), Q(1)), (Q(2), Q(1))}
    # e1 has root (1, 0), e4 has root (2, 1)
    assert got[(Q(1), Q(0))].contains(entry.nilradical.basis_vector(0))
    assert got[(Q(2), Q(1))].contains(entry.nilradical.basis_vector(3))


def test_root_decomposition_eigen_relation():
    entry = build_entry("n6_11")
    decomp = root_decomposition(entry.torus)
    assert sum(s.dim for s in decomp.spaces) == entry.nilradical.dim
    for beta, space in zip(decomp.roots, decomp.spaces):
        for v in space.basis:
            for lam, gen in zip(beta, entry.torus.generators):
                assert dense_apply(gen, v) == tuple(lam * x for x in v)


def test_root_decomposition_irrational_eigenvalues():
    # the mixing generators of n6_5 split over Q at a = 1 but not at a = 2
    decomp = root_decomposition(build_entry("n6_5", a=1).torus)
    assert sum(s.dim for s in decomp.spaces) == 6
    with pytest.raises(NotRationallyDiagonalizable, match="does not split"):
        root_decomposition(build_entry("n6_5", a=2).torus)


@pytest.mark.parametrize("gens", [
    # diag(1, 0) and the swap do not commute: no joint eigenbasis
    (RationalMatrix.diagonal([1, 0]), RationalMatrix([[0, 1], [1, 0]])),
    # a Jordan block: its minimal polynomial splits, its eigenvectors span a line
    (RationalMatrix([[1, 1], [0, 1]]),),
])
def test_root_decomposition_rejects_a_split_that_does_not_fill(gens):
    with pytest.raises(NotRationallyDiagonalizable, match="does not split"):
        root_decomposition(TorusAction(LieAlgebra(2), gens))
