"""The per-algebra analysis: torus checks against a dense oracle, and each
artifact computed once per algebra.

The oracle for ``verify_torus`` evaluates the Leibniz identity on dense
vectors with a bracket written in this file, commutes generators with the
dense product of ``test_linalg`` (``da db == db da``), tests every
generator, diagonal or not, for a squarefree minimal polynomial, and the
generators for linear independence as flattened vectors.  The dimension of
Der(g) that the analysis reads off the weight-0 block is compared with the
full, ungraded Leibniz solve of ``derivation_algebra``.
"""

import itertools
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from liesymp import cli, structure
from liesymp.analysis import Analysis
from liesymp.catalog import DEFAULT_SELECTION, build_entry
from liesymp.fileformat import build, parse
from liesymp.liealg import LieAlgebra, Subspace
from liesymp.linalg import RationalMatrix, upoly_is_squarefree
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
from test_linalg import dense_apply, dense_column, dense_product, dense_scale, dense_sum, in_span
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
    cols = [dense_column(d, j) for j in range(n)]
    units = [[Q(int(i == j)) for i in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = dense_apply(d, _dense_bracket(g.table, n, units[i], units[j]))
            a = _dense_bracket(g.table, n, cols[i], units[j])
            b = _dense_bracket(g.table, n, units[i], cols[j])
            if any(l != p + q for l, p, q in zip(lhs, a, b)):
                return False
    return True


def reference_torus_check(t):
    n = t.nilradical.dim
    gens, labels = t.generators, t.labels
    for a, d in enumerate(gens):
        if d.rows != n or d.cols != n:
            return False, f"generator {labels[a]} has the wrong shape"
        if not _dense_leibniz(t.nilradical, d):
            return False, f"generator {labels[a]} is not a derivation"
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            da, db = gens[a], gens[b]
            if dense_product(da, db) != dense_product(db, da):
                return False, f"generators {labels[a]} and {labels[b]} do not commute"
    for a, d in enumerate(gens):
        if not upoly_is_squarefree(d.minimal_polynomial()):
            return False, (
                f"generator {labels[a]} is not semisimple "
                "(minimal polynomial has a repeated factor)"
            )
    for a, d in enumerate(gens):
        if in_span(gens[:a], d):
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
            gens.append(RationalMatrix.diagonal(p if kind == "p" else q))
        elif kind == "diagonal":
            gens.append(RationalMatrix.diagonal([draw(st.integers(-2, 2)) for _ in range(n)]))
        elif kind == "shape":
            gens.append(RationalMatrix.diagonal([0] * (n + 1)))
        else:
            m = RationalMatrix.diagonal([0] * n)
            for d in der:
                c = draw(st.integers(-1, 1))
                if c:
                    m = dense_sum(m, dense_scale(c, d))
            if kind == "perturbed":
                r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                rows = [list(row) for row in m.data]
                rows[r][c] += draw(st.sampled_from((-1, 1)))
                m = RationalMatrix(rows)
            gens.append(m)
    return TorusAction(g, tuple(gens))


@settings(max_examples=200, deadline=None)
@given(t=torus_candidates())
def test_verify_torus_matches_the_dense_oracle(t):
    check = verify_torus(t)
    assert (check.ok, check.violation) == reference_torus_check(t)
    n = t.nilradical.dim
    for d in t.generators:
        if d.rows == n:
            assert is_derivation(t.nilradical, d) == _dense_leibniz(t.nilradical, d)


# -- dim Der(g) from the weight-0 block against the full solve ---------------


def _graded_matches_full(t):
    analysis = Analysis(t)
    full = derivation_algebra(semidirect(t)).dim
    assert analysis.completeness.derivation_dim == full
    # the count needs no center term: the center lies in weight 0
    weights = analysis.completeness.weights
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
     if any(d.is_diagonal() for d in build_entry(n, **p).torus.generators)],
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
    assert not all(d.is_diagonal() for d in t.generators)
    analysis = _graded_matches_full(t)
    assert analysis.completeness.complete
    diagonal = sum(d.is_diagonal() for d in t.generators)
    assert {len(w) for w in analysis.completeness.weights} == {diagonal}


def test_the_catalog_solves_only_weight_0_blocks(monkeypatch):
    """No full Der(g) solve on the catalog path, and every Leibniz system it
    assembles has only the sum of squared weight-class sizes as unknowns."""
    full = _count_calls(monkeypatch, structure, "derivation_algebra")
    original = structure._leibniz_rows
    systems = []

    def leibniz_rows(g, weights=None):
        rows = original(g, weights)
        systems.append((g, weights, rows))
        return rows

    monkeypatch.setattr(structure, "_leibniz_rows", leibniz_rows)
    report = run_regression(DEFAULT_SELECTION)
    assert report.green and full == []
    assert len(systems) == len(DEFAULT_SELECTION)  # every center is trivial
    for g, weights, rows in systems:
        n = g.dim
        assert weights is not None and len(weights) == n
        # the weight-0 block: sum (class size)^2 unknowns, fewer than n^2
        block = {r * n + c for r in range(n) for c in range(n) if weights[r] == weights[c]}
        assert len(block) < n * n
        assert {c for row in rows.values() for c in row} <= block


# -- the grading read off the bracket table ------------------------------------


def torus_weights(t):
    """The weights of t ⋉ n from its diagonal torus generators: diag(l)
    contributes l_i on e_i and 0 on every torus vector."""
    diagonal = [d for d in t.generators if d.is_diagonal()]
    zero = tuple(Q(0) for _ in diagonal)
    return tuple(
        tuple(d.data[i][i] for d in diagonal) for i in range(t.nilradical.dim)
    ) + (zero,) * t.rank


def test_table_weights_grade_algebras_given_without_a_torus():
    # [x, y] = y, where ad x is diagonal
    affine = LieAlgebra(2, {(0, 1): {1: Q(1)}}, ("x", "y"))
    # sl2 with [x, y] = x, [x, z] = y, [y, z] = z, where ad y is diagonal
    sl2 = LieAlgebra(3, {(0, 1): {0: Q(1)}, (0, 2): {1: Q(1)}, (1, 2): {2: Q(1)}}, ("x", "y", "z"))
    assert sl2.jacobi_holds()
    for g, weights, der in ((affine, ((0,), (1,)), 2), (sl2, ((-1,), (0,), (1,)), 3)):
        report = is_complete(g)
        assert report.weights == weights
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
    assert report.weights == torus_weights(t)
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
        "minimal_polynomial": _count_calls(monkeypatch, RationalMatrix, "minimal_polynomial"),
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
    # every catalog nilradical has an acyclic bracket graph, which certifies
    # nilpotency, so the rank bound reads [n, n] without the series
    assert len(counts["lower_central_series"]) == 0
    assert _at_most_once_each(counts["lower_central_series"])
    # one minimal polynomial per non-diagonal torus generator, none for diagonal ones
    non_diagonal = [
        d
        for name, params in DEFAULT_SELECTION
        for d in build_entry(name, **params).torus.generators
        if not d.is_diagonal()
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


def test_build_verifies_the_torus_once(monkeypatch):
    counts = _counters(monkeypatch)
    built = build(parse(TORUS_FILE))
    assert len(counts["verify_torus"]) == 1
    assert isinstance(built, Analysis)
    assert built.algebra == semidirect(built.torus)


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
    assert analysis.verdict.cocycle_dims == cocycle_space(g).dims


def test_analysis_reports_an_invalid_torus_like_semidirect():
    jordan = RationalMatrix([[0, 1], [0, 0]])
    t = TorusAction(LieAlgebra(2), (jordan,))
    analysis = Analysis(t)
    assert not verify_torus(t).ok
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
