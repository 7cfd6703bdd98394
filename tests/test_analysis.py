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
import json
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
    CompletenessReport,
    TorusAction,
    derivation_algebra,
    is_complete,
    is_derivation,
    semidirect,
    verify_torus,
)
from liesymp.poly import monomial_pfaffian
from liesymp.symplectic import (
    CocycleSpace,
    _pfaffian_and_witness,
    cocycle_space,
    d_one_form,
    decide_symplectic,
)
from test_liealg import sparse_tables, unchecked_product
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
    """No full Der(g) solve on the catalog path.  Each entry assembles one
    Leibniz system, of the weight-0 block with its grading vectors H fixed
    (every center is trivial): no row's pair meets H, and no unknown lies in
    an H column.  Its center is solved on the weight-0 coordinates alone."""
    full = _count_calls(monkeypatch, structure, "derivation_algebra")
    leibniz_rows, center_rows = structure._leibniz_rows, LieAlgebra.center_rows
    systems, centers = [], []

    def recorded_leibniz_rows(g, classes, fixed):
        rows = leibniz_rows(g, classes, fixed)
        systems.append((g, fixed, rows))
        return rows

    def recorded_center_rows(g, columns):
        rows = center_rows(g, columns)
        centers.append((g, rows))
        return rows

    monkeypatch.setattr(structure, "_leibniz_rows", recorded_leibniz_rows)
    monkeypatch.setattr(LieAlgebra, "center_rows", recorded_center_rows)
    report = run_regression(DEFAULT_SELECTION)
    assert report.green and full == []
    assert len(systems) == len(DEFAULT_SELECTION)
    assert [g for g, _ in centers] == [g for g, _, _ in systems]
    for g, fixed, rows in systems:
        n = g.dim
        weights = g.weights()
        grading = set(g.grading_vectors())
        assert grading and set(fixed) == grading
        # the weight-0 block: sum (class size)^2 unknowns, fewer than n^2
        block = {r * n + c for r in range(n) for c in range(n) if weights[r] == weights[c]}
        assert len(block) < n * n
        unknowns = {c for row in rows.values() for c in row}
        assert unknowns <= block
        assert all(c % n not in grading for c in unknowns)
        assert all(not {i, j} & grading for i, j, _ in rows)
    for g, rows in centers:
        assert all(not any(g.weights()[i]) for row in rows for i in row)


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(g=sparse_tables())
def test_completeness_report_matches_the_full_solves_on_rescaled_tables(g):
    """Permuted and rescaled bases move and scale the grading vectors; the
    center and Der(g) counts still match the full solves."""
    assume(g.jacobi_holds())
    report = is_complete(g)
    assert report.center_dim == g.center().dim
    assert report.derivation_dim == derivation_algebra(g).dim


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
    sl2_table = {(0, 1): {0: Q(1)}, (0, 2): {1: Q(1)}, (1, 2): {2: Q(1)}}
    sl2 = LieAlgebra(3, sl2_table, ("x", "y", "z"))
    assert sl2.jacobi_holds()
    # sl2 x R: the grading vector y lies in [g, g], and the center is R
    sl2_r = LieAlgebra(4, sl2_table, ("x", "y", "z", "c"))
    # the affine algebra x R: x -> c is an outer derivation of weight 0
    affine_r = LieAlgebra(3, affine.table, ("x", "y", "c"))
    # sl2 x sl2: [x1, z1] = y1 has no y2-component, so the Leibniz row of
    # (x1, z1) in that component holds only the unknown D[y2][y1]
    shifted = {
        (i + 3, j + 3): {k + 3: c for k, c in cs.items()} for (i, j), cs in sl2_table.items()
    }
    sl2_sl2 = LieAlgebra(6, {**sl2_table, **shifted})
    cases = (
        (affine, ((0,), (1,)), (0,), 0, 2),
        (sl2, ((-1,), (0,), (1,)), (1,), 0, 3),
        (sl2_r, ((-1,), (0,), (1,), (0,)), (1,), 1, 4),
        (affine_r, ((0,), (1,), (0,)), (0,), 1, 4),
        (sl2_sl2, ((-1, 0), (0, 0), (1, 0), (0, -1), (0, 0), (0, 1)), (1, 4), 0, 6),
    )
    for g, weights, grading, center, der in cases:
        report = is_complete(g)
        assert g.weights() == weights and g.grading_vectors() == grading
        assert report.center_dim == g.center().dim == center
        assert report.derivation_dim == derivation_algebra(g).dim == der
        assert report.complete == (center == 0)


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


def _count_solves(monkeypatch, part, owner=CocycleSpace):
    """The instances that solve ``part``, a cached property of ``owner``
    (of :class:`CocycleSpace`, "z2_basis", or "_exact" for B^2), one per
    solve."""
    prop = vars(owner)[part]
    calls = []
    original = prop.func

    def solve(cs):
        calls.append(cs)
        return original(cs)

    monkeypatch.setattr(prop, "func", solve)
    return calls


def _counters(monkeypatch):
    from liesymp import structure

    return {
        "verify_torus": _count_calls(monkeypatch, structure, "verify_torus"),
        "z2_solves": _count_solves(monkeypatch, "z2_basis"),
        "b2_solves": _count_solves(monkeypatch, "_exact"),
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
    # Z^2 is solved once per even entry, B^2 once per even entry whose
    # closed Pfaffian is nonzero, and neither for any of the 17 odd ones
    even = [e for e in report.entries if e.dim % 2 == 0]
    assert entries - len(even) == 17
    assert len(counts["z2_solves"]) == len(even)
    assert len(counts["b2_solves"]) == sum(e.symplectic == "yes" for e in even) > 0
    for part in ("z2_solves", "b2_solves"):
        assert _at_most_once_each(counts[part])
        assert all(cs.algebra.dim % 2 == 0 for cs in counts[part])
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
    assert len(counts["z2_solves"]) == len(counts["b2_solves"]) == 1
    assert len(counts["rank_bound"]) <= 1
    assert len(counts["lower_central_series"]) == 0
    assert _at_most_once_each(counts["lower_central_series"])


# core_003 of the benchmark's files core (bench/gen.py), of dimension 7
ODD_FILE = """\
algebra core_003
basis e1 e2 e3 e4 e5 e6 e7
[e1,e3] = 2*e6
[e3,e5] = 2*e6 - e7
[e3,e6] = e7
"""


def test_an_odd_file_solves_the_cocycle_space_only_for_its_dims(monkeypatch, tmp_path, capsys):
    """The odd verdict reads neither Z^2 nor B^2: ``symplectic --json``
    solves neither, and the text command solves each once, for the line of
    dimensions that the eager solve printed."""
    path = tmp_path / "core_003.lie"
    path.write_text(ODD_FILE, encoding="utf-8")
    counts = _counters(monkeypatch)
    assert cli.main(["symplectic", str(path), "--json"]) == 0
    assert '"exists": "odd"' in capsys.readouterr().out
    assert counts["z2_solves"] == [] and counts["b2_solves"] == []
    assert cli.main(["symplectic", str(path)]) == 0
    out = capsys.readouterr().out
    assert "closed 2-forms: dim Z^2 = 13, dim B^2 = 2, dim H^2 = 11\n" in out
    assert "symplectic: exists = odd\n" in out
    assert len(counts["z2_solves"]) == len(counts["b2_solves"]) == 1


# the catalog's even algebras whose closed Pfaffian is the zero polynomial
EVEN_NO_ENTRIES = (("n6_2", {}), ("n6_18", {}), ("L", {"n": 6}), ("L", {"n": 8}),
                   ("L", {"n": 10}), ("L", {"n": 12}))


def test_a_zero_closed_pfaffian_decides_exact_no_without_solving_b2(monkeypatch):
    """B^2 ⊆ Z^2, so when every closed form is degenerate every exact one
    is too.  The implication is checked, on each even "no" of the catalog
    and of the benchmark's files core: the Pfaffian packed over the B^2
    basis is the zero polynomial, and the verdict, decided without solving
    B^2, has the exact fields of the eager decision.  B^2 is solved only by
    a "yes" with no central basis vector, and every "yes" here has one."""
    from test_structure import _files_core_nilradicals  # it imports this module

    b2_solves = _count_solves(monkeypatch, "_exact")
    algebras = [semidirect(build_entry(name, **params).torus) for name, params in EVEN_NO_ENTRIES]
    algebras += [g for g in _files_core_nilradicals() if g.dim % 2 == 0]
    verdicts = [decide_symplectic(g) for g in algebras]
    assert all(v.exists == "no" for v in verdicts[: len(EVEN_NO_ENTRIES)])
    no = [(g, v) for g, v in zip(algebras, verdicts) if v.exists == "no"]
    assert len(no) == len(EVEN_NO_ENTRIES) + 27
    yes = [g for g, v in zip(algebras, verdicts) if v.exists == "yes"]
    assert len(yes) == len(verdicts) - len(no) > 0
    assert all(g.central_basis_vectors() for g in yes)
    assert b2_solves == []
    assert all("_exact" not in vars(v.cocycles) for _, v in no)
    for g, v in no:
        basis = cocycle_space(g).b2_basis
        names = tuple(f"t{k + 1}" for k in range(len(basis)))
        exact_pf = monomial_pfaffian(g.dim, {((k, 1),): b.coords for k, b in enumerate(basis)}, names)
        assert exact_pf.is_zero()
        # the eager decision: the Pfaffian over B^2, zero, so no witness
        assert _pfaffian_and_witness(g.dim, basis) == (exact_pf, None, None)
        exact = (v.exact_exists, v.exact_pfaffian, v.exact_witness, v.exact_one_form)
        assert exact == ("no", exact_pf, None, None)
        assert str(v.exact_pfaffian) == str(exact_pf) == "0"


def _check_the_central_certificate(g: LieAlgebra) -> bool:
    """For ``g`` satisfying Jacobi: the central basis vectors are the e_i
    that bracket every basis vector to zero, and with one, the center is
    nonzero, ``g`` is not complete, and in even dimension the Pfaffian
    packed over the eagerly solved B^2 basis is zero and the verdict has the
    exact fields of that eager route.  Returns whether the certificate
    fired."""
    e = g.basis_vector
    central = g.central_basis_vectors()
    assert central == tuple(
        i for i in range(g.dim) if not any(any(g.bracket(e(i), e(j))) for j in range(g.dim))
    )
    report, eager = is_complete(g), is_complete(g)
    assert report.complete == (eager.center_dim == 0 and eager.derivation_dim == g.dim)
    if not central:
        return False
    assert report.center_dim >= 1 and not report.complete
    verdict = decide_symplectic(g)
    exact = (verdict.exact_exists, verdict.exact_pfaffian, verdict.exact_witness,
             verdict.exact_one_form)
    if g.dim % 2:
        assert verdict.exact_exists == "odd"
        return True
    exact_pf, witness, point = _pfaffian_and_witness(g.dim, cocycle_space(g).b2_basis)
    assert exact_pf.is_zero() and witness is None and point is None
    assert exact == ("no", exact_pf, None, None) and str(verdict.exact_pfaffian) == "0"
    return True


def test_a_central_basis_vector_decides_completeness_and_exactness_on_known_algebras():
    """The catalog (each t ⋉ n and its nilradical) and the benchmark's files
    core: the certificate fires on every nilradical, each in an adapted
    basis, and on no t ⋉ n, whose torus acts on every basis vector."""
    from test_structure import _files_core_nilradicals  # it imports this module

    products, nilradicals = [], []
    for name, params in DEFAULT_SELECTION:
        entry = build_entry(name, **params)
        products.append(semidirect(entry.torus))
        nilradicals.append(entry.nilradical)
    nilradicals += _files_core_nilradicals()
    assert not any(map(_check_the_central_certificate, products))
    assert all(map(_check_the_central_certificate, nilradicals))


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(g=sparse_tables())
def test_a_central_basis_vector_decides_completeness_and_exactness(g):
    """Permuted and rescaled central extensions and catalog products, as
    they satisfy Jacobi (see ``test_liealg.sparse_tables``)."""
    assume(g.jacobi_holds())
    _check_the_central_certificate(g)


def test_symplectic_json_on_a_nilpotent_yes_solves_neither_center_nor_b2(
    monkeypatch, tmp_path, capsys
):
    """An even nilpotent file with a closed symplectic form: its central
    basis vector answers "complete" and exact "no", so ``symplectic --json``
    solves neither the center nor B^2, while ``der --complete``, which
    prints the center's dimension, solves the center once."""
    path = tmp_path / "core_110.lie"
    path.write_text(
        "algebra core_110\nbasis e1 e2 e3 e4 e5 e6 e7 e8\n"
        "[e1,e3] = -2*e8\n[e2,e3] = e5\n[e3,e5] = -2*e8\n",
        encoding="utf-8",
    )
    b2_solves = _count_solves(monkeypatch, "_exact")
    center_solves = _count_solves(monkeypatch, "center_dim", CompletenessReport)
    assert cli.main(["symplectic", str(path), "--json"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts["complete"] is False and verdicts["symplectic"]["exists"] == "yes"
    assert verdicts["exact"] == {"exists": "no", "witness": None}
    assert b2_solves == [] and center_solves == []
    assert cli.main(["der", str(path), "--complete"]) == 0
    assert "center dimension: 5\n" in capsys.readouterr().out
    assert len(center_solves) == 1


def test_der_without_a_grading_vector_solves_no_center(monkeypatch, tmp_path, capsys):
    """A nilpotent table has no grading vector, so the Der(g) count fixes
    none and reads no center: ``der`` without ``--complete`` solves none.
    Where a grading vector meets a nonzero center (sl2 x R, and abelian
    n=2 with one torus generator) the count still matches the full solve."""
    core_110 = LieAlgebra(8, {(0, 2): {7: -2}, (1, 2): {4: 1}, (2, 4): {7: -2}})
    assert core_110.grading_vectors() == ()
    report = is_complete(core_110)
    assert report.derivation_dim == derivation_algebra(core_110).dim
    assert "center_dim" not in report.__dict__
    path = tmp_path / "core_110.lie"
    path.write_text(
        "algebra core_110\nbasis e1 e2 e3 e4 e5 e6 e7 e8\n"
        "[e1,e3] = -2*e8\n[e2,e3] = e5\n[e3,e5] = -2*e8\n",
        encoding="utf-8",
    )
    center_solves = _count_solves(monkeypatch, "center_dim", CompletenessReport)
    assert cli.main(["der", str(path)]) == 0
    assert capsys.readouterr().out == f"algebra core_110: dim Der = {report.derivation_dim}\n"
    assert center_solves == []
    for text in (
        "algebra sl2r\nbasis x y z c\n[x,y] = x\n[x,z] = y\n[y,z] = z\n",
        "algebra abelian\nbasis e1 e2\ntorus e3\n[e3,e1] = e1\n",
    ):
        g = build(parse(text)).algebra
        report = is_complete(g)
        assert g.grading_vectors() and report.center_dim == g.center().dim == 1
        assert report.derivation_dim == derivation_algebra(g).dim


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
