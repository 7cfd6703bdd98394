"""The per-algebra analysis: torus checks against a dense oracle, and each
artifact computed once per algebra.

The oracle for ``verify_torus`` evaluates the Leibniz identity on dense
vectors with a bracket written in this file, commutes generators with the
product of column maps of ``test_linalg`` (``da db == db da``), tests every
generator, diagonal or not, for a squarefree minimal polynomial of its
rows, and the generators for linear independence as flattened vectors.
The dimension of Der(g) that the analysis reads off the weight-0 block is
compared with the full, ungraded Leibniz solve of ``derivation_algebra``.
"""

import itertools
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from liesymp import cli, linalg, structure
from liesymp.analysis import Analysis
from liesymp.catalog import DEFAULT_SELECTION, build_entry
from liesymp.fileformat import build, parse
from liesymp.liealg import LieAlgebra, Subspace
from liesymp.linalg import diagonal, minimal_polynomial, sparse_row, upoly_is_squarefree
from liesymp.regression import run_regression
from liesymp.structure import (
    TorusAction,
    derivation_algebra,
    is_complete,
    is_derivation,
    semidirect,
    verify_torus,
)
from liesymp.symplectic import cocycle_space, d_one_form
from test_liealg import unchecked_product
from test_linalg import (
    add_maps,
    apply_map,
    column_of,
    compose,
    in_span,
    is_diagonal,
    out_of_range,
    scale_map,
    to_grid,
)
from test_symplectic import _coords, _pairs, naive_cocycle_subspace

# -- the dense oracle ---------------------------------------------------------


def _dense_bracket(table, n, x, y):
    out = [Q(0)] * n
    for (i, j), coeffs in table.items():
        f = x[i] * y[j] - x[j] * y[i]
        if f:
            for k, c in coeffs.items():
                out[k] += f * c
    return out


def _dense_leibniz(g, d):
    n = g.dim
    cols = [column_of(d, j, n) for j in range(n)]
    units = [[Q(int(i == j)) for i in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = apply_map(d, _dense_bracket(g.table, n, units[i], units[j]))
            a = _dense_bracket(g.table, n, cols[i], units[j])
            b = _dense_bracket(g.table, n, units[i], cols[j])
            if any(l != p + q for l, p, q in zip(lhs, a, b)):
                return False
    return True


def reference_torus_check(t):
    n = t.nilradical.dim
    gens, labels = t.generators, t.labels
    for a, d in enumerate(gens):
        if out_of_range(d, n):
            return False, f"generator {labels[a]} has the wrong shape"
        if not _dense_leibniz(t.nilradical, d):
            return False, f"generator {labels[a]} is not a derivation"
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            da, db = gens[a], gens[b]
            if compose(da, db) != compose(db, da):
                return False, f"generators {labels[a]} and {labels[b]} do not commute"
    for a, d in enumerate(gens):
        # the rows of the map, where the package passes its columns
        if not upoly_is_squarefree(minimal_polynomial([sparse_row(r) for r in to_grid(d, n)])):
            return False, (
                f"generator {labels[a]} is not semisimple "
                "(minimal polynomial has a repeated factor)"
            )
    for a, d in enumerate(gens):
        if in_span(gens[:a], d, n):
            if len(gens) == 1:
                return False, f"generator {labels[0]} is zero"
            return False, f"generators {', '.join(labels)} are linearly dependent"
    return True, None


# -- random graded nilpotent algebras and candidate generators ----------------


LIKELY = st.sampled_from((True, True, False))


@st.composite
def torus_candidates(draw):
    """A nilpotent table graded by a weight (p_i, q_i) with p_i >= 1, so that
    diag(p) and diag(q) are commuting derivations, and one to three
    candidate generators: weight diagonals, random diagonals, random
    derivations (rarely commuting or semisimple) and perturbed ones.

    A basis vector's weight is either fresh or the sum of two earlier ones,
    so that brackets can land on it; terms are kept only while the Jacobi
    identity holds."""
    n = draw(st.integers(3, 6))
    weights = []
    for i in range(n):
        if i >= 2 and draw(LIKELY):
            a, b = draw(st.lists(st.integers(0, i - 1), min_size=2, max_size=2, unique=True))
            weights.append((weights[a][0] + weights[b][0], weights[a][1] + weights[b][1]))
        else:
            weights.append((1, draw(st.integers(-1, 1))))
    p, q = [w[0] for w in weights], [w[1] for w in weights]
    g = LieAlgebra(n)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if weights[k] != (p[i] + p[j], q[i] + q[j]) or not draw(LIKELY):
                    continue
                table = {pair: dict(c) for pair, c in g.table.items()}
                table.setdefault((i, j), {})[k] = Q(draw(st.sampled_from((-2, -1, 1, 2))))
                trial = LieAlgebra(n, table)
                if trial.jacobi_holds():
                    g = trial
    der = derivation_algebra(g).basis
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ("p", "q", "diagonal", "derivation", "derivation", "perturbed", "perturbed", "shape")
        ))
        if kind in ("p", "q"):
            gens.append(diagonal(p if kind == "p" else q))
        elif kind == "diagonal":
            gens.append(diagonal([draw(st.integers(-2, 2)) for _ in range(n)]))
        elif kind == "shape":
            gens.append(diagonal([0] * n + [1]))  # e_n lies outside the nilradical
        else:
            m = {}
            for d in der:
                c = draw(st.integers(-1, 1))
                if c:
                    m = add_maps(m, scale_map(c, d))
            if kind == "perturbed":
                r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                m = add_maps(m, {c: {r: draw(st.sampled_from((-1, 1)))}})
            gens.append(m)
    return TorusAction(g, tuple(gens))


@settings(max_examples=200, deadline=None)
@given(t=torus_candidates())
def test_verify_torus_matches_the_dense_oracle(t):
    check = verify_torus(t)
    assert (check.ok, check.violation) == reference_torus_check(t)
    n = t.nilradical.dim
    for d in t.generators:
        if out_of_range(d, n):
            assert not is_derivation(t.nilradical, d)
        else:
            assert is_derivation(t.nilradical, d) == _dense_leibniz(t.nilradical, d)


# -- dim Der(g) from the weight-0 block against the full solve ---------------


def _graded_matches_full(t):
    analysis = Analysis(t)
    full = derivation_algebra(semidirect(t)).dim
    assert analysis.completeness.derivation_dim == full
    # the count needs no center term: the center lies in weight 0
    weights = analysis.algebra.weights()
    center = analysis.algebra.center()
    assert all(not any(weights[i]) for v in center.basis for i, x in enumerate(v) if x)
    return analysis


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(t=torus_candidates())
def test_graded_derivation_dim_matches_the_full_solve(t):
    assume(verify_torus(t).ok)
    _graded_matches_full(t)


def _sub_tori(entry):
    gens, labels = entry.torus.generators, entry.torus.labels
    for r in range(len(gens) + 1):
        for idx in itertools.combinations(range(len(gens)), r):
            yield TorusAction(
                entry.nilradical, tuple(gens[i] for i in idx), tuple(labels[i] for i in idx)
            )


@pytest.mark.parametrize(
    "name, params",
    [(n, p) for n, p in DEFAULT_SELECTION
     if any(map(is_diagonal, build_entry(n, **p).torus.generators))],
)
def test_graded_derivation_dim_on_every_sub_torus(name, params):
    """Every valid sub-torus, rank 0 included; many leave a nonzero center,
    which must lie in weight 0."""
    for t in _sub_tori(build_entry(name, **params)):
        if verify_torus(t).ok:
            _graded_matches_full(t)


MIXED_TORI = ("n6_5", "n6_10", "n6_14", "n6_18")


@pytest.mark.parametrize("name", MIXED_TORI)
def test_graded_derivation_dim_on_mixed_tori(name):
    """Tori with a non-diagonal generator are graded by their diagonal
    generators only."""
    t = build_entry(name).torus
    assert not all(map(is_diagonal, t.generators))
    analysis = _graded_matches_full(t)
    assert analysis.completeness.complete
    diagonals = sum(map(is_diagonal, t.generators))
    assert {len(w) for w in analysis.algebra.weights()} == {diagonals}


def test_the_catalog_solves_only_weight_0_blocks(monkeypatch):
    """No full Der(g) solve on the catalog path, and every Leibniz system it
    assembles has only the sum of squared weight-class sizes as unknowns."""
    full = _count_calls(monkeypatch, structure, "derivation_algebra")
    ungraded = _count_calls(monkeypatch, structure, "_full_leibniz_rows")
    original = structure._weight_0_leibniz_rows
    systems = []

    def weight_0_leibniz_rows(g):
        rows = original(g)
        systems.append((g, rows))
        return rows

    monkeypatch.setattr(structure, "_weight_0_leibniz_rows", weight_0_leibniz_rows)
    report = run_regression(DEFAULT_SELECTION)
    assert report.green and full == [] and ungraded == []
    assert len(systems) == len(DEFAULT_SELECTION)  # every center is trivial
    for g, rows in systems:
        n = g.dim
        weights = g.weights()
        # the weight-0 block: sum (class size)^2 unknowns, fewer than n^2
        block = {r * n + c for r in range(n) for c in range(n) if weights[r] == weights[c]}
        assert len(block) < n * n
        assert {c for row in rows.values() for c in row} <= block


# -- the grading read off the bracket table ------------------------------------


def torus_weights(t):
    """The weights of t ⋉ n from its diagonal torus generators: diag(l)
    contributes l_i on e_i and 0 on every torus vector."""
    diagonal = [d for d in t.generators if is_diagonal(d)]
    zero = tuple(Q(0) for _ in diagonal)
    return tuple(
        tuple(d.get(i, {}).get(i, 0) for d in diagonal) for i in range(t.nilradical.dim)
    ) + (zero,) * t.rank


def test_table_weights_grade_algebras_given_without_a_torus():
    # [x, y] = y, where ad x is diagonal
    affine = LieAlgebra(2, {(0, 1): {1: Q(1)}}, ("x", "y"))
    # sl2 with [x, y] = x, [x, z] = y, [y, z] = z, where ad y is diagonal
    sl2 = LieAlgebra(3, {(0, 1): {0: Q(1)}, (0, 2): {1: Q(1)}, (1, 2): {2: Q(1)}}, ("x", "y", "z"))
    assert sl2.jacobi_holds()
    for g, weights, der in ((affine, ((0,), (1,)), 2), (sl2, ((-1,), (0,), (1,)), 3)):
        report = is_complete(g)
        assert g.weights() == weights
        assert report.derivation_dim == derivation_algebra(g).dim == der
        assert report.complete


@pytest.mark.parametrize("name, params", DEFAULT_SELECTION)
def test_table_weights_are_the_diagonal_torus_weights(name, params):
    """On every catalog t ⋉ n, rebuilt as a bare table, the table-read
    grading is the one of the diagonal torus generators and gives the
    dimension of the full Der(g) solve."""
    t = build_entry(name, **params).torus
    product = semidirect(t)
    g = LieAlgebra(product.dim, product.table)
    report = is_complete(g)
    assert g.weights() == torus_weights(t)
    assert report.derivation_dim == derivation_algebra(g).dim


# -- each artifact once per algebra --------------------------------------------


def _count_calls(monkeypatch, owner, name):
    """Record the first argument of every call of ``owner.name``, through
    each binding of it in a liesymp module (or on its class)."""
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, wrapper)
        return calls
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "liesymp" or mod_name.startswith("liesymp."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def _counters(monkeypatch):
    from liesymp import structure, symplectic

    return {
        "verify_torus": _count_calls(monkeypatch, structure, "verify_torus"),
        "cocycle_space": _count_calls(monkeypatch, symplectic, "cocycle_space"),
        "rank_bound": _count_calls(monkeypatch, structure, "rank_bound"),
        "lower_central_series": _count_calls(monkeypatch, LieAlgebra, "lower_central_series"),
        "minimal_polynomial": _count_calls(monkeypatch, linalg, "minimal_polynomial"),
        "jacobi_failures": _count_calls(monkeypatch, LieAlgebra, "jacobi_failures"),
        "weight_scans": _count_calls(monkeypatch, LieAlgebra, "_grade"),
    }


def _at_most_once_each(calls):
    ids = [id(x) for x in calls]
    return len(ids) == len(set(ids))


def test_regression_computes_each_artifact_once_per_entry(monkeypatch):
    counts = _counters(monkeypatch)
    report = run_regression(DEFAULT_SELECTION)
    entries = len(DEFAULT_SELECTION)
    assert len(report.entries) == entries and report.green
    assert len(counts["verify_torus"]) == entries
    assert _at_most_once_each(counts["verify_torus"])
    assert len(counts["cocycle_space"]) <= entries
    assert _at_most_once_each(counts["cocycle_space"])
    assert len(counts["rank_bound"]) <= entries
    # one Jacobi walk per entry, of t ⋉ n, and one scan for its grading
    assert len(counts["jacobi_failures"]) == entries
    assert len(counts["weight_scans"]) == entries
    assert _at_most_once_each(counts["weight_scans"])
    # every catalog nilradical has an acyclic bracket graph, which certifies
    # nilpotency, so the rank bound reads [n, n] without the series
    assert len(counts["lower_central_series"]) == 0
    assert _at_most_once_each(counts["lower_central_series"])
    # one minimal polynomial per non-diagonal torus generator, none for diagonal ones
    non_diagonal = [
        d
        for name, params in DEFAULT_SELECTION
        for d in build_entry(name, **params).torus.generators
        if not is_diagonal(d)
    ]
    assert len(counts["minimal_polynomial"]) == len(non_diagonal) > 0


TORUS_FILE = """\
algebra n4_1
basis e1 e2 e3 e4
[e2,e4] = e1
[e3,e4] = e2
torus e5 e6
[e5,e1] = e1
[e5,e3] = -e3
[e5,e4] = e4
[e6,e2] = e2
[e6,e3] = 2*e3
[e6,e4] = -e4
"""


def test_build_verifies_the_torus_once(monkeypatch, tmp_path, capsys):
    counts = _counters(monkeypatch)
    built = build(parse(TORUS_FILE))
    assert len(counts["verify_torus"]) == 1
    assert len(counts["jacobi_failures"]) == 1
    assert isinstance(built, Analysis)
    assert built.algebra == semidirect(built.torus)
    # the symplectic command reads the nilradical's Jacobi off the torus check
    path = tmp_path / "n4_1.lie"
    path.write_text(TORUS_FILE, encoding="utf-8")
    counts["jacobi_failures"].clear()
    assert cli.main(["symplectic", str(path)]) == 0
    capsys.readouterr()
    assert len(counts["jacobi_failures"]) == 1


def test_symplectic_command_computes_each_artifact_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "n4_1.lie"
    path.write_text(TORUS_FILE, encoding="utf-8")
    counts = _counters(monkeypatch)
    assert cli.main(["symplectic", str(path), "--json"]) == 0
    assert '"maximal_rank": true' in capsys.readouterr().out
    assert len(counts["verify_torus"]) == 1
    assert len(counts["cocycle_space"]) == 1
    assert len(counts["rank_bound"]) <= 1
    assert len(counts["lower_central_series"]) == 0
    assert _at_most_once_each(counts["lower_central_series"])


def test_analysis_without_a_torus_studies_the_algebra_itself():
    g = build_entry("n4_1").nilradical
    analysis = Analysis(g)
    assert analysis.algebra is g and analysis.maximal_rank is None
    assert analysis.rank_bound == 2
    assert analysis.verdict.cocycles.dims == cocycle_space(g).dims


def test_analysis_reads_the_nilradical_jacobi_off_a_valid_torus_check():
    # n4_1 plus [e1, e3] = e4 fails Jacobi; the empty torus passes its check
    bad = LieAlgebra(4, {(1, 3): {0: 1}, (2, 3): {1: 1}, (0, 2): {3: 1}})
    expected = bad.jacobi_failure()
    assert expected is not None
    for subject in (bad, TorusAction(bad, ())):
        assert Analysis(subject).jacobi_failure == expected


def test_analysis_reports_an_invalid_torus_like_semidirect():
    jordan = {1: {0: 1}}  # e_2 -> e_1
    t = TorusAction(LieAlgebra(2), (jordan,))
    analysis = Analysis(t)
    assert not verify_torus(t).ok
    assert analysis.jacobi_failure is None  # computed on n, as the check failed
    try:
        analysis.algebra
    except ValueError as exc:
        assert str(exc) == f"invalid torus action: {verify_torus(t).violation}"
    else:
        raise AssertionError("an invalid torus built a semidirect product")


# -- Z^2 and B^2 against the naive enumerator ----------------------------------


@settings(max_examples=100, deadline=None)
@given(t=torus_candidates())
def test_cocycle_space_matches_the_naive_enumerator(t):
    """On n, and on t x n when the torus is valid: Z^2 is the kernel the
    naive enumerator finds, B^2 lies in it and is spanned by the d e^k, and
    each recorded preimage maps onto its basis form.  The product is built
    without the Jacobi check (see ``test_liealg.unchecked_product``)."""
    algebras = [t.nilradical] + ([unchecked_product(t)] if verify_torus(t).ok else [])
    for g in algebras:
        cs = cocycle_space(g)
        size = len(_pairs(g.dim))
        z2 = Subspace(size, [_coords(w) for w in cs.z2_basis])
        assert z2 == naive_cocycle_subspace(g) and z2.dim == cs.dims[0]
        b2 = Subspace(size, [_coords(b) for b in cs.b2_basis])
        image = Subspace(size, [_coords(d_one_form(g, g.basis_vector(k))) for k in range(g.dim)])
        assert b2 == image and b2.dim == cs.dims[1]
        for b, alpha in zip(cs.b2_basis, cs.b2_preimages):
            assert z2.contains(_coords(b))
            assert d_one_form(g, alpha) == b
