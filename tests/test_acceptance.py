"""Acceptance suite: one test per advertised guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every expected value here is either computed by an independent oracle inside
the test or frozen from a hand-checked computation; tolerances are exact
(rational equality) and the runtime caps are asserted.
"""

import math
import random
import time
from fractions import Fraction as Q

from test_catalog import documented_typos

from liesymp.catalog import DEFAULT_SELECTION, TYPO_IDS, build_entry
from liesymp.liealg import Subspace
from liesymp.linalg import diagonal
from liesymp.poly import poly_divides
from liesymp.regression import run_regression
from liesymp.structure import derivation_algebra, is_complete, semidirect
from liesymp.symplectic import (
    TwoForm,
    cocycle_space,
    d_one_form,
    d_two_form,
    decide_symplectic,
    generic_cocycle,
    is_lagrangian_ideal,
    pullback,
    top_power,
)

from test_linalg import ad_map, dense_determinant, in_span
from test_symplectic import _coords, _pairs, naive_cocycle_subspace


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def test_acceptance_1_chain_filiform_determinant():
    started = time.monotonic()
    ok = True
    details = []

    g = semidirect(build_entry("L", n=4).torus)
    gen = generic_cocycle(cocycle_space(g))
    # an antisymmetric matrix has determinant Pf^2
    det = gen.pfaffian() ** 2
    # documented renaming (see TYPOS.md, L4-determinant-sign): u and t name
    # the negated (e1,e2), (e1,e3) entries; v names the (e2,e6) entry
    u = -gen.entry(0, 1)
    t = -gen.entry(0, 2)
    v = gen.entry(1, 5)
    identity = det == t**2 * (u**2 - 2 * t * v) ** 2
    ok &= identity
    details.append(f"L4 determinant identity: {identity}")

    for n in (5, 6, 7, 8):
        verdict = decide_symplectic(semidirect(build_entry("L", n=n).torus))
        vanishes = verdict.pfaffian.is_zero()
        ok &= vanishes
        details.append(f"L{n} Pf==0: {vanishes}")

    elapsed = time.monotonic() - started
    ok &= elapsed < 5.0
    _verdict(1, "chain filiform determinant", ok,
             "; ".join(details) + f"; runtime {elapsed:.2f}s < 5s")


def test_acceptance_2_pairing_filiform_top_power():
    started = time.monotonic()
    ok = True
    details = []
    for n in (5, 7, 9):
        g = semidirect(build_entry("Q", n=n).torus)
        m = g.dim // 2
        w = d_one_form(g, g.basis_vector(0)).add(d_one_form(g, g.basis_vector(n)))
        closed = not d_two_form(g, w)
        pf = w.pfaffian()
        literal = top_power(w)
        # the printed top-power constant 4 is the squared Pfaffian; the
        # literal coefficient is m! Pf with |Pf| = 2 (see TYPOS.md)
        good = closed and pf != 0 and pf * pf == 4 and literal == math.factorial(m) * pf
        ok &= good
        details.append(f"Q{n}: closed={closed}, Pf={pf}, Pf^2=4, literal=m!*Pf")
    elapsed = time.monotonic() - started
    ok &= elapsed < 10.0
    _verdict(2, "pairing filiform exact form", ok,
             "; ".join(details) + f"; runtime {elapsed:.2f}s < 10s")


def test_acceptance_3_commutative_nilradical():
    ok = True
    details = []
    for n in (1, 2, 3, 4):
        g = semidirect(build_entry("abelian", n=n).torus)
        cs = cocycle_space(g)

        expected_dim = n + n * (n - 1) // 2
        expected_basis = {(i, n + i) for i in range(n)} | {
            (n + i, n + j) for i in range(n) for j in range(i + 1, n)
        }
        got = set()
        unit_forms = True
        for w in cs.z2_basis:
            support = [
                (i, j)
                for i in range(2 * n)
                for j in range(i + 1, 2 * n)
                if w.entries[i][j] != 0
            ]
            if len(support) == 1 and w.entries[support[0][0]][support[0][1]] == 1:
                got.add(support[0])
            else:
                unit_forms = False
        shape = len(cs.z2_basis) == expected_dim and unit_forms and got == expected_basis

        # normalizing pullback sends any symplectic cocycle to the normal form
        coeffs = [Q(2 * i + 3, i + 1) for i in range(n)]
        pairs = {(i, n + i): coeffs[i] for i in range(n)}
        torus_pairs = {
            (n + i, n + j): Q(i - j) for i in range(n) for j in range(i + 1, n)
        }
        w = TwoForm.from_pairs(2 * n, {**pairs, **torus_pairs})
        t = diagonal([1 / c for c in coeffs] + [Q(1)] * n)
        normal = TwoForm.from_pairs(
            2 * n, {**{(i, n + i): Q(1) for i in range(n)}, **torus_pairs}
        )
        pulled_ok = (not d_two_form(g, w)) and pullback(g, t, w) == normal

        # exact exactly when the torus-torus component vanishes
        b2 = Subspace(len(_pairs(2 * n)), [_coords(b) for b in cs.b2_basis])
        w0 = TwoForm.from_pairs(2 * n, pairs)
        exact_ok = len(cs.b2_basis) == n and b2.contains(_coords(w0))
        if n >= 2:
            exact_ok = exact_ok and not b2.contains(_coords(w))

        lagrangian = is_lagrangian_ideal(
            g, w0, Subspace(2 * n, [g.basis_vector(i) for i in range(n)])
        )

        good = shape and pulled_ok and exact_ok and lagrangian
        ok &= good
        details.append(
            f"n={n}: shape={shape}, pullback={pulled_ok}, "
            f"exact-iff-no-torus-block={exact_ok}, lagrangian={lagrangian}"
        )
    _verdict(3, "commutative nilradical normal form", ok, "; ".join(details))


def test_acceptance_4_table_regression():
    started = time.monotonic()
    report = run_regression()
    ok = report.green
    details = [f"{report.counts['entries']} entries green={report.green}"]

    by_name = {}
    for e in report.entries:
        by_name.setdefault(e.name, []).append(e)

    for name in ("n6_2", "n6_18"):
        entry = by_name[name][0]
        good = entry.symplectic == "never" and entry.pfaffian.is_zero()
        ok &= good
        details.append(f"{name} never admits (Pf==0): {good}")

    odd_rows = [e for e in report.entries if e.dim % 2 == 1]
    odd_ok = all(e.symplectic == "odd" for e in odd_rows)
    ok &= odd_ok
    details.append(f"{len(odd_rows)} odd rows all not-applicable: {odd_ok}")

    yes_rows = [e for e in report.entries if e.symplectic == "yes"]
    witness_ok = all(e.witness_verified for e in yes_rows)
    ok &= witness_ok
    details.append(f"{len(yes_rows)} yes rows with verified witnesses: {witness_ok}")

    rank_comparisons = [
        c
        for e in report.entries
        for c in e.comparisons
        if c.fieldname == "maximal-rank"
    ]
    rank_ok = all(c.status != "mismatch" for c in rank_comparisons)
    ok &= rank_ok and len(rank_comparisons) == report.counts["entries"]
    details.append(f"maximal-rank column matches (or documented): {rank_ok}")

    documented = documented_typos(report)
    doc_ok = set(documented) <= set(TYPO_IDS) and len(documented) <= len(TYPO_IDS)
    ok &= doc_ok
    details.append(
        f"{len(documented)} documented mismatches within the {len(TYPO_IDS)}-entry errata"
    )

    elapsed = time.monotonic() - started
    ok &= elapsed < 60.0
    _verdict(4, "classification-table regression", ok,
             "; ".join(details) + f"; runtime {elapsed:.1f}s < 60s")


def test_acceptance_5_worked_example():
    entry = build_entry("n4_1")
    nil = entry.nilradical
    der = derivation_algebra(nil)
    dim_ok = der.dim == 7

    printed = [
        {1: {1: 1}, 3: {3: -1}, 4: {4: 1}},
        {2: {2: 1}, 3: {3: 2}, 4: {4: -1}},
        {2: {1: 1}, 3: {2: 1}},
        {3: {1: 1}},
        {4: {1: 1}},
        {4: {2: 1}},
        {4: {3: 1}},
    ]
    span_ok = True
    for rules in printed:
        m = {j - 1: {k - 1: Q(c) for k, c in comps.items()} for j, comps in rules.items()}
        span_ok &= in_span(der.basis, m, 4)

    g = semidirect(entry.torus)
    cs = cocycle_space(g)
    z2_ok = len(cs.z2_basis) == 5

    gen = generic_cocycle(cs)
    pf = gen.pfaffian()
    cond1 = gen.entry(1, 3)
    cond2 = 2 * gen.entry(2, 4) * gen.entry(1, 3) - gen.entry(2, 3) ** 2
    cond_ok = poly_divides(cond1, pf) and poly_divides(cond2, pf)

    ok = dim_ok and span_ok and z2_ok and cond_ok
    _verdict(
        5, "worked four-dimensional example", ok,
        f"dim Der = {der.dim} (=7), printed derivations in span: {span_ok}, "
        f"dim Z^2 = {len(cs.z2_basis)} (=5), printed conditions divide Pf: {cond_ok}",
    )


def test_acceptance_6_completeness_suite():
    ok = True
    checked = 0
    for name, params in DEFAULT_SELECTION:
        entry = build_entry(name, **params)
        g = semidirect(entry.torus)
        report = is_complete(g)
        good = report.complete and report.center_dim == 0 and report.derivation_dim == g.dim
        der = derivation_algebra(g)
        ad_spans = all(
            in_span(der.basis, ad_map(g, g.basis_vector(i)), g.dim) for i in range(g.dim)
        )
        ok &= good and ad_spans
        checked += 1
    _verdict(
        6, "completeness of every catalog product", ok,
        f"{checked} semidirect products: trivial center, dim Der = dim g, ad spans Der",
    )


def test_acceptance_7_property_suites():
    ok = True
    details = []

    # d(d(alpha)) = 0 on every catalog algebra, >= 100 random covectors total
    rng = random.Random(424243)
    covectors = 0
    dd_ok = True
    algebras = []
    for name, params in DEFAULT_SELECTION:
        entry = build_entry(name, **params)
        algebras.append(semidirect(entry.torus))
        algebras.append(entry.nilradical)
    for g in algebras[: len(DEFAULT_SELECTION)]:
        for _ in range(3):
            alpha = [Q(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(g.dim)]
            dd_ok &= not d_two_form(g, d_one_form(g, alpha))
            covectors += 1
    ok &= dd_ok and covectors >= 100
    details.append(f"d∘d = 0 on {covectors} random covectors: {dd_ok}")

    # Pfaffian squared equals determinant on 200 random antisymmetric matrices
    pf_ok = True
    for i in range(200):
        n = (2, 4, 6, 8)[i % 4]
        upper = {
            (r, c): Q(rng.randrange(-6, 7), rng.randrange(1, 4))
            for r in range(n)
            for c in range(r + 1, n)
        }
        grid = [
            [upper.get((r, c), -upper.get((c, r), Q(0)) if r > c else Q(0)) for c in range(n)]
            for r in range(n)
        ]
        pf_ok &= TwoForm(n, grid).pfaffian() ** 2 == dense_determinant(grid)
    ok &= pf_ok
    details.append(f"Pf^2 = det on 200 random antisymmetric matrices: {pf_ok}")

    # brute-force cocycle enumeration agrees on every algebra of dim <= 6
    oracle_ok = True
    small = 0
    for g in algebras:
        if g.dim > 6:
            continue
        small += 1
        cs = cocycle_space(g)
        mine = Subspace(len(_pairs(g.dim)), [_coords(w) for w in cs.z2_basis])
        oracle_ok &= mine == naive_cocycle_subspace(g)
    ok &= oracle_ok and small >= 30
    details.append(f"cocycle space equals brute-force enumeration on {small} algebras: {oracle_ok}")

    # every returned witness re-verifies: closed and non-degenerate
    witness_ok = True
    witnesses = 0
    for g in algebras[: len(DEFAULT_SELECTION)]:
        verdict = decide_symplectic(g)
        if verdict.exists == "yes" and not verdict.degenerate:
            witnesses += 1
            w = verdict.witness
            witness_ok &= (
                w is not None and not d_two_form(g, w) and w.pfaffian() != 0
            )
        if verdict.exact_exists == "yes" and verdict.exact_one_form is not None:
            rebuilt = d_one_form(g, verdict.exact_one_form)
            witness_ok &= rebuilt == verdict.exact_witness
            witness_ok &= rebuilt.pfaffian() != 0
    ok &= witness_ok
    details.append(f"{witnesses} symplectic witnesses re-verified: {witness_ok}")

    _verdict(7, "property suites", ok, "; ".join(details))
