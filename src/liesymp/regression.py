"""Regression runner: recompute every catalog verdict and compare.

For each selected entry the runner rebuilds the semidirect product from
scratch, re-verifies the axioms, decides symplectic and exact existence, and
checks the printed non-degeneracy conditions by exact polynomial division
against the computed Pfaffian (or its square, since a printed determinant
is the Pfaffian squared; see :func:`divides_pfaffian`).

A comparison that disagrees with the reference value is a mismatch; if the
expectation it compares against carries an erratum id (see TYPOS.md) it is
counted as documented.  The report is green exactly when no undocumented
mismatch or condition failure remains.

Each entry has one :class:`~liesymp.analysis.Analysis`, so each artifact
(the torus check, the product, the completeness report, the verdict, ...)
is computed once, and the generic closed form only where it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import Analysis
from .catalog import DEFAULT_SELECTION, CatalogEntry, build_entry
from .liealg import Subspace
from .linalg import Q, diagonal, reduce_row, sparse_rref
from .poly import MultiPoly, poly_divides, poly_divmod
from .structure import semidirect
from .symplectic import (
    TwoForm,
    cocycle_space,
    d_one_form,
    generic_cocycle,
    is_closed,
    is_lagrangian_ideal,
    pullback,
    top_power,
)

MATCH = "match"
DOCUMENTED = "documented-mismatch"
MISMATCH = "mismatch"


@dataclass(frozen=True)
class Comparison:
    fieldname: str
    computed: str
    expected: str
    status: str
    typo: str | None = None


@dataclass(frozen=True)
class ConditionResult:
    label: str
    divides: str  # "pf" | "pf^2" | "no"
    status: str
    typo: str | None = None


@dataclass(frozen=True)
class EntryResult:
    name: str
    params: dict
    dim: int
    symplectic: str
    exact: str
    pfaffian: MultiPoly
    witness_verified: bool | None
    comparisons: tuple[Comparison, ...]
    conditions: tuple[ConditionResult, ...]

    @property
    def green(self) -> bool:
        return all(c.status != MISMATCH for c in self.comparisons) and all(
            c.status != MISMATCH for c in self.conditions
        )


@dataclass(frozen=True)
class RegressionReport:
    entries: tuple[EntryResult, ...]

    @property
    def green(self) -> bool:
        return all(e.green for e in self.entries)

    @property
    def counts(self) -> dict[str, int]:
        out = {"entries": len(self.entries), MATCH: 0, DOCUMENTED: 0, MISMATCH: 0}
        for e in self.entries:
            for c in list(e.comparisons) + list(e.conditions):
                out[c.status] += 1
        return out


def _verdict_word(v: str) -> str:
    return {"yes": "yes", "no": "never", "odd": "odd"}[v]


def _status(agrees: bool, typo: str | None) -> tuple[str, str | None]:
    """A comparison's status and typo: a disagreement is documented when the
    expectation carries an erratum id ``typo``."""
    if agrees:
        return MATCH, None
    return (MISMATCH, None) if typo is None else (DOCUMENTED, typo)


def divides_pfaffian(p: MultiPoly, pf: MultiPoly) -> str:
    """How a nonzero condition p divides the Pfaffian pf: "pf" when p | pf,
    "pf^2" when p divides pf^2 but not pf, and "no" otherwise, decided from
    one division of pf by p."""
    rem = poly_divmod(pf, p)[1]
    if rem.is_zero():
        return "pf"
    # pf = q*p + r gives pf^2 = p*(q^2*p + 2*q*r) + r^2, so p | pf^2 iff p | r^2
    return "pf^2" if poly_divides(p, rem * rem) else "no"


def check_entry(entry: CatalogEntry) -> EntryResult:
    """Recompute all verdicts for one entry and compare with the reference."""
    comparisons: list[Comparison] = []
    conditions: list[ConditionResult] = []
    analysis = Analysis(entry.torus)

    def compare(fieldname: str, computed, expected=True) -> None:
        """Record ``computed`` against ``expected``, excused by the erratum
        id that the entry's expected verdicts file under ``fieldname``."""
        comparisons.append(Comparison(
            fieldname, str(computed), str(expected),
            *_status(computed == expected, entry.expected.typos.get(fieldname)),
        ))

    compare("nilradical-jacobi", analysis.jacobi_failure is None)
    compare("torus-axioms", entry.torus.check.ok)
    g = analysis.algebra
    compare("complete", analysis.completeness.complete)
    compare("maximal-rank", analysis.maximal_rank, entry.expected.maximal_rank)

    verdict = analysis.verdict
    computed_word = _verdict_word(verdict.exists)
    compare("symplectic", computed_word, entry.expected.symplectic)

    witness_verified: bool | None = None
    if verdict.exists == "yes" and not verdict.degenerate:
        w = verdict.witness
        witness_verified = w is not None and is_closed(g, w) and w.pfaffian() != 0
        compare("witness-reverified", witness_verified)

    if entry.expected.exact is not None and verdict.exact_exists in ("yes", "no"):
        compare("exact", verdict.exact_exists == "yes", entry.expected.exact)
    if verdict.exact_exists == "yes" and verdict.exact_one_form is not None:
        rebuilt = d_one_form(g, verdict.exact_one_form)
        compare(
            "exact-witness-is-d-of-one-form",
            rebuilt == verdict.exact_witness and rebuilt.pfaffian() != 0,
        )

    if entry.expected.conditions:
        # a zero Pfaffian (odd dimension included) divides no condition
        pf = verdict.pfaffian
        generic = None if pf.is_zero() else generic_cocycle(verdict.cocycles)
        for cond in entry.expected.conditions:
            p = None if generic is None else cond.polynomial(generic)
            divides = "no" if p is None or p.is_zero() else divides_pfaffian(p, pf)
            conditions.append(ConditionResult(
                cond.label, divides,
                *_status(divides != "no", cond.typo),
            ))

    return EntryResult(
        name=entry.name,
        params=dict(entry.params),
        dim=g.dim,
        symplectic=computed_word,
        exact=verdict.exact_exists,
        pfaffian=verdict.pfaffian,
        witness_verified=witness_verified,
        comparisons=tuple(comparisons),
        conditions=tuple(conditions),
    )


def run_regression(selection=None) -> RegressionReport:
    """Check a selection of (name, params) pairs; defaults to the whole catalog."""
    if selection is None:
        selection = DEFAULT_SELECTION
    # every entry is built first, so that invalid parameters are rejected
    # before any entry is checked
    entries = [build_entry(name, **params) for name, params in selection]
    return RegressionReport(tuple(check_entry(entry) for entry in entries))


# -- reproduction of the three families' statements ---------------------------


@dataclass(frozen=True)
class PropItem:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class PropositionsReport:
    items: tuple[PropItem, ...]

    @property
    def green(self) -> bool:
        return all(item.ok for item in self.items)


def _reproduce_commutative(n: int) -> list[PropItem]:
    """Abelian nilradical of dimension n: shape of Z^2, normal form, exactness."""
    g = semidirect(build_entry("abelian", n=n).torus)
    cs = cocycle_space(g)
    items: list[PropItem] = []

    expected_basis = set()
    for i in range(n):
        expected_basis.add((i, n + i))
    for i in range(n):
        for j in range(i + 1, n):
            expected_basis.add((n + i, n + j))
    got_basis = set()
    shape_ok = len(cs.z2_basis) == n + n * (n - 1) // 2
    for w in cs.z2_basis:
        if list(w.coords.values()) == [1]:
            got_basis.update(w.coords)
        else:
            shape_ok = False
    shape_ok = shape_ok and got_basis == expected_basis
    items.append(
        PropItem(
            f"abelian n={n}: Z^2 basis is {{e^(i,n+i)}} plus the torus 2-forms",
            shape_ok,
            f"dim Z^2 = {len(cs.z2_basis)}",
        )
    )

    # a closed form with chosen diagonal coefficients and torus block
    coeffs = [Q(i + 2, i + 1) for i in range(n)]  # deterministic, all nonzero
    pairs: dict[tuple[int, int], Fraction] = {(i, n + i): coeffs[i] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            pairs[(n + i, n + j)] = Q(1)
    w = TwoForm(2 * n, pairs)
    t_map = diagonal([1 / c for c in coeffs] + [Q(1)] * n)
    pulled = pullback(g, t_map, w)
    normal_pairs = {(i, n + i): Q(1) for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            normal_pairs[(n + i, n + j)] = Q(1)
    normal = TwoForm(2 * n, normal_pairs)
    items.append(
        PropItem(
            f"abelian n={n}: rescaling pullback maps the form to the normal form",
            is_closed(g, w) and pulled == normal,
        )
    )

    # exactness holds exactly when the torus block vanishes: a form is exact
    # when its coordinates reduce to zero against those of the B^2 basis
    b2 = sparse_rref(b.coords for b in cs.b2_basis)
    w0 = TwoForm(2 * n, {(i, n + i): coeffs[i] for i in range(n)})
    exact_ok = len(cs.b2_basis) == n and not reduce_row(w0.coords, b2)
    if n >= 2:
        exact_ok = exact_ok and bool(reduce_row(w.coords, b2))
    items.append(
        PropItem(
            f"abelian n={n}: exact exactly when the torus block vanishes",
            exact_ok,
            f"dim B^2 = {len(cs.b2_basis)}",
        )
    )

    lagr = Subspace(2 * n, [g.basis_vector(i) for i in range(n)])
    items.append(
        PropItem(
            f"abelian n={n}: the nilradical is a Lagrangian ideal of the normal form",
            is_lagrangian_ideal(g, normal, lagr) and is_lagrangian_ideal(g, w0, lagr),
        )
    )
    return items


def _reproduce_chain() -> list[PropItem]:
    """Chain filiform nilradicals: symplectic only in the 6-dimensional case."""
    items: list[PropItem] = []
    for n in (4, 5, 6, 7, 8):
        analysis = Analysis(build_entry("L", n=n).torus)
        g = analysis.algebra
        verdict = analysis.verdict
        if n == 4:
            generic = generic_cocycle(verdict.cocycles)
            det = verdict.pfaffian * verdict.pfaffian
            # documented renaming: u, t are the negated (1,2), (1,3) entries;
            # v is the (2,6) entry (the printed matrix layout carries the
            # opposite sign from the printed general cocycle on the u, t group)
            u = -generic.entry(0, 1)
            t = -generic.entry(0, 2)
            v = generic.entry(1, 5)
            identity_ok = det == t**2 * (u**2 - 2 * t * v) ** 2
            entry_form_ok = det == generic.entry(0, 2) ** 2 * (
                generic.entry(0, 1) ** 2 + 2 * generic.entry(0, 2) * generic.entry(1, 5)
            ) ** 2
            items.append(
                PropItem(
                    "L n=4: determinant identity t^2 (u^2 - 2 t v)^2 under the "
                    "documented renaming",
                    identity_ok and entry_form_ok and verdict.exists == "yes",
                )
            )
        else:
            items.append(
                PropItem(
                    f"L n={n}: generic-cocycle Pfaffian is the zero polynomial",
                    verdict.pfaffian.is_zero() and verdict.exists in ("no", "odd"),
                    f"dim g = {g.dim}",
                )
            )
    return items


def _reproduce_pairing() -> list[PropItem]:
    """Pairing filiform nilradicals: d(e^0) + d(e^n) is an exact symplectic form."""
    items: list[PropItem] = []
    for n in (5, 7, 9):
        entry = build_entry("Q", n=n)
        g = semidirect(entry.torus)
        m = g.dim // 2
        e0 = g.basis_vector(0)
        en = g.basis_vector(n)
        w = d_one_form(g, e0).add(d_one_form(g, en))
        closed = is_closed(g, w)
        pf = w.pfaffian()
        literal = top_power(w)
        consistent = literal == math.factorial(m) * pf
        # the printed constant 4 is the squared Pfaffian; the Pfaffian itself
        # is +-2 and the literal wedge coefficient is +-2 m!  (see TYPOS.md)
        items.append(
            PropItem(
                f"Q n={n}: d(e^0)+d(e^n) closed, non-degenerate, squared Pfaffian 4",
                closed and pf != 0 and pf * pf == 4 and abs(pf) == 2 and consistent,
                f"Pf = {pf}, literal top power = {literal} = m! Pf",
            )
        )
    return items


def reproduce_propositions() -> PropositionsReport:
    """Re-derive the three families' reference statements from scratch:
    the commutative, then the chain filiform, then the pairing filiform."""
    items: list[PropItem] = []
    for n in (1, 2, 3, 4):
        items.extend(_reproduce_commutative(n))
    items.extend(_reproduce_chain())
    items.extend(_reproduce_pairing())
    return PropositionsReport(tuple(items))
