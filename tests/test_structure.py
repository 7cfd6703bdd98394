"""Derivations, torus verification, semidirect products, roots, completeness."""

import importlib.util
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from liesymp import analysis, regression, structure
from liesymp.catalog import DEFAULT_SELECTION, build_entry
from liesymp.fileformat import build, parse
from liesymp.liealg import LieAlgebra
from liesymp.linalg import diagonal
from liesymp.regression import check_entry
from test_analysis import _dense_leibniz
from test_linalg import ad_map, apply_map, columns, in_span, to_grid
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


def _matrix_from_action(rules):
    """The column map of 1-based action rules {j: {k: c}}."""
    return {j - 1: {k - 1: Q(c) for k, c in comps.items()} for j, comps in rules.items()}


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
        d = _matrix_from_action(rules)
        assert is_derivation(g, d)
        assert in_span(der.basis, d, 4)


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
        assert in_span(der.basis, ad_map(g, g.basis_vector(i)), g.dim)


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
    jordan = columns([[0, 1], [0, 0]])
    check = verify_torus(TorusAction(g, (jordan,)))
    assert not check.ok
    assert "semisimple" in check.violation


def test_verify_torus_rejects_non_derivation():
    g = n4_1()
    bad = diagonal([1, 1, 1, 1])  # identity is not a derivation here
    check = verify_torus(TorusAction(g, (bad,)))
    assert not check.ok and "derivation" in check.violation


def test_verify_torus_rejects_non_commuting():
    g = LieAlgebra(2)
    a = columns([[0, 1], [1, 0]])
    b = diagonal([1, 2])
    check = verify_torus(TorusAction(g, (a, b)))
    assert not check.ok and "commute" in check.violation


def test_verify_torus_rejects_linearly_dependent_generators():
    g = LieAlgebra(2)
    h = diagonal([1, 0])
    for gens, violation in (
        ((h, h), "generators e3, e4 are linearly dependent"),
        ((h, diagonal([0, 1]), diagonal([2, -3])),
         "generators e3, e4, e5 are linearly dependent"),
        (({},), "generator e3 is zero"),
        (({0: {0: 0}, 1: {}},), "generator e3 is zero"),
    ):
        check = verify_torus(TorusAction(g, gens))
        assert not check.ok and check.violation == violation
    # a non-semisimple generator is reported as such, not as dependent
    jordan = columns([[0, 1], [0, 0]])
    check = verify_torus(TorusAction(g, (jordan, jordan)))
    assert "not semisimple" in check.violation


# -- torus axioms read off the Jacobi identity of t x n ---------------------------


def _with_entry(d, r: int, c: int, x):
    """The column map d with the entry at row r, column c set to x."""
    out = {j: dict(col) for j, col in d.items()}
    out.setdefault(c, {})[r] = x
    return out


def test_the_printed_n5_2_torus_rule_is_not_a_derivation():
    # the source prints [e6, e3] = -3 e3; the catalog corrects it to -e3
    t = build_entry("n5_2").torus
    assert verify_torus(t).ok
    printed = _with_entry(t.generators[0], 2, 2, -3)
    check = verify_torus(TorusAction(t.nilradical, (printed, t.generators[1]), t.labels))
    assert (check.ok, check.violation) == (False, "generator e6 is not a derivation")


def test_the_lowest_pair_of_derivations_that_do_not_commute_is_reported():
    g = n4_1()
    diagonal = [_matrix_from_action(rules) for rules in PRINTED_DERIVATIONS[:2]]
    shift = _matrix_from_action(PRINTED_DERIVATIONS[3])  # e3 -> e1
    assert all(is_derivation(g, d) for d in diagonal + [shift])
    # the shift commutes with neither diagonal derivation
    for gens, violation in (
        ((diagonal[0], shift), "generators e5 and e6 do not commute"),
        ((diagonal[0], diagonal[1], shift), "generators e5 and e7 do not commute"),
        ((diagonal[1], shift, diagonal[0]), "generators e5 and e6 do not commute"),
    ):
        check = verify_torus(TorusAction(g, gens))
        assert (check.ok, check.violation) == (False, violation)


def test_a_non_derivation_and_a_wrong_shape_are_reported_in_generator_order():
    g = n4_1()
    identity = diagonal([1] * 4)  # not a derivation of n4_1
    large = diagonal([1] * 5)  # e5 lies outside n4_1
    for gens, violation in (
        ((identity, large), "generator e5 is not a derivation"),
        ((large, identity), "generator e5 has the wrong shape"),
    ):
        check = verify_torus(TorusAction(g, gens))
        assert (check.ok, check.violation) == (False, violation)


# a derivation of n4_1 (diag(1, 0, -1, 1)) with one index outside range(4):
# a row (e4 -> 4 e5), a column (e5 -> e1) and a negative column
OUT_OF_RANGE = [
    {0: {0: 1}, 2: {2: -1}, 3: {3: 1, 4: 4}},
    {0: {0: 1}, 2: {2: -1}, 3: {3: 1}, 4: {0: 1}},
    {-1: {0: 1}, 0: {0: 1}, 2: {2: -1}, 3: {3: 1}},
]


@pytest.mark.parametrize("d", OUT_OF_RANGE, ids=["row", "column", "negative-column"])
def test_an_index_outside_the_nilradical_is_the_wrong_shape(d):
    g = n4_1()
    inside = {j: {k: c for k, c in col.items() if 0 <= k < 4} for j, col in d.items() if 0 <= j < 4}
    assert is_derivation(g, inside) and verify_torus(TorusAction(g, (inside,))).ok
    assert not is_derivation(g, d)
    check = verify_torus(TorusAction(g, (d,)))
    assert (check.ok, check.violation) == (False, "generator e5 has the wrong shape")
    with pytest.raises(ValueError, match="wrong shape"):
        root_decomposition(TorusAction(g, (d,)))


@pytest.mark.parametrize("labels", [("e5", "e2"), ("e5", "e5")])
def test_a_repeated_torus_label_is_rejected_when_the_torus_is_built(labels):
    gens = tuple(_matrix_from_action(rules) for rules in PRINTED_DERIVATIONS[:2])
    with pytest.raises(ValueError, match="repeats a basis or torus label"):
        TorusAction(n4_1(), gens, labels)


def test_default_torus_labels_skip_the_nilradical_labels():
    one = (diagonal([1, 1]),)
    two = one + (diagonal([1, 0]),)
    assert TorusAction(LieAlgebra(2), two).labels == ("e3", "e4")
    assert TorusAction(LieAlgebra(2, labels=("e1", "e3")), one).labels == ("e4",)
    assert TorusAction(LieAlgebra(2, labels=("e4", "e3")), two).labels == ("e5", "e6")
    assert TorusAction(LieAlgebra(2, labels=("x", "e4")), two).labels == ("e3", "e5")
    # explicit labels are kept as given, so a collision still raises
    with pytest.raises(ValueError, match="repeats a basis or torus label"):
        TorusAction(LieAlgebra(2, labels=("e1", "e3")), one, ("e3",))


def test_is_derivation_answers_leibniz_on_a_table_that_violates_jacobi():
    # n4_1 plus [e1, e3] = e4 fails Jacobi; Leibniz is still a question on it
    bad = LieAlgebra(4, {(1, 3): {0: 1}, (2, 3): {1: 1}, (0, 2): {3: 1}})
    assert not bad.jacobi_holds()
    candidates = list(derivation_algebra(bad).basis)
    candidates += [_with_entry(d, (3 * k) % 4, k % 4, 1) for k, d in enumerate(candidates)]
    candidates += [diagonal(v) for v in ([1, 1, 2, 2], [0, 1, 1, 1], [0] * 4)]
    answers = [is_derivation(bad, d) for d in candidates]
    assert answers == [_dense_leibniz(bad, d) for d in candidates]
    assert True in answers and False in answers


def test_check_entry_evaluates_the_jacobi_sums_of_t_x_n_once(monkeypatch):
    """One Jacobi evaluation per entry, of the product t x n inside the torus
    check; the nilradical's check is read off it, and ``semidirect``
    evaluates none."""
    evaluated, inside, built = [], [], []
    failures, product = LieAlgebra.jacobi_failures, structure.semidirect

    def counted_failures(self):
        evaluated.append((self.dim, bool(inside)))
        return failures(self)

    def counted_semidirect(t):
        built.append(t)
        inside.append(t)
        try:
            return product(t)
        finally:
            inside.pop()

    monkeypatch.setattr(LieAlgebra, "jacobi_failures", counted_failures)
    for mod in (structure, analysis, regression):
        if getattr(mod, "semidirect", None) is product:
            monkeypatch.setattr(mod, "semidirect", counted_semidirect)
    for name, params in DEFAULT_SELECTION:
        entry = build_entry(name, **params)
        evaluated.clear()
        assert check_entry(entry).green
        assert evaluated == [(entry.total_dim, False)]
    assert len(built) == len(DEFAULT_SELECTION)


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
        grid = to_grid(gen, nil.dim)
        for i in range(nil.dim):
            expected = {k: -grid[k][i] for k in range(nil.dim) if grid[k][i] != 0}
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
    t = TorusAction(g, (diagonal([1]), diagonal([2])))
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
                assert apply_map(gen, v) == tuple(lam * x for x in v)


def test_root_decomposition_irrational_eigenvalues():
    # the mixing generators of n6_5 split over Q at a = 1 but not at a = 2
    decomp = root_decomposition(build_entry("n6_5", a=1).torus)
    assert sum(s.dim for s in decomp.spaces) == 6
    with pytest.raises(NotRationallyDiagonalizable, match="does not split"):
        root_decomposition(build_entry("n6_5", a=2).torus)


@pytest.mark.parametrize("gens", [
    # diag(1, 0) and the swap do not commute: no joint eigenbasis
    (diagonal([1, 0]), columns([[0, 1], [1, 0]])),
    # a Jordan block: its minimal polynomial splits, its eigenvectors span a line
    (columns([[1, 1], [0, 1]]),),
])
def test_root_decomposition_rejects_a_split_that_does_not_fill(gens):
    with pytest.raises(NotRationallyDiagonalizable, match="does not split"):
        root_decomposition(TorusAction(LieAlgebra(2), gens))
