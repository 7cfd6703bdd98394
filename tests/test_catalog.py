"""Catalog integrity and the regression runner."""

import re
from fractions import Fraction as Q

import pytest

from liesymp.catalog import (
    DEFAULT_SELECTION,
    FAMILY_NAMES,
    TABLE_NAMES,
    TYPOS,
    build_entry,
    entry_names,
    entry_parameters,
)
from liesymp.regression import (
    DOCUMENTED,
    MISMATCH,
    check_entry,
    reproduce_propositions,
    run_regression,
)
from liesymp.structure import semidirect, verify_torus
from liesymp.symplectic import decide_symplectic


def documented_typos(report) -> list[str]:
    """The typo ids that excuse the report's documented mismatches."""
    return [
        c.typo
        for e in report.entries
        for c in list(e.comparisons) + list(e.conditions)
        if c.status == DOCUMENTED and c.typo
    ]


def test_entry_names_cover_tables_and_families():
    names = entry_names()
    assert len(TABLE_NAMES) == 30
    assert set(FAMILY_NAMES) == {"abelian", "L", "Q"}
    for d, count in ((3, 1), (4, 1), (5, 6), (6, 22)):
        assert sum(1 for n in names if n.startswith(f"n{d}_")) == count


def test_every_entry_satisfies_axioms_at_defaults():
    for name, params in DEFAULT_SELECTION:
        entry = build_entry(name, **params)
        assert entry.nilradical.jacobi_holds(), name
        assert verify_torus(entry.torus).ok, name
        g = semidirect(entry.torus)
        assert g.dim == entry.total_dim
        assert g.jacobi_holds(), name


def test_every_catalog_product_is_solvable():
    for name, params in DEFAULT_SELECTION:
        g = semidirect(build_entry(name, **params).torus)
        series = g.derived_series()
        assert series[-1].is_zero(), name
        assert build_entry(name, **params).nilradical.is_nilpotent(), name


def test_pairing_family_bracket_display():
    # Q at n = 5: chain, pairings, and the two torus rows
    entry = build_entry("Q", n=5)
    g = semidirect(entry.torus)
    assert g.dim == 8
    e = g.basis_vector
    assert g.bracket(e(0), e(1)) == e(2)
    assert g.bracket(e(0), e(3)) == e(4)
    assert all(x == 0 for x in g.bracket(e(0), e(4)))  # chain stops at n-2
    assert g.bracket(e(1), e(4)) == tuple(-x for x in e(5))
    assert g.bracket(e(2), e(3)) == e(5)
    assert g.bracket(e(6), e(0)) == e(0)  # [e_{n+1}, e0] = e0
    assert g.bracket(e(6), e(5)) == tuple(3 * x for x in e(5))
    assert g.bracket(e(7), e(5)) == tuple(2 * x for x in e(5))
    assert g.bracket(e(7), e(2)) == e(2)


def test_build_entry_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_entry("Q", n=6)  # even
    with pytest.raises(ValueError):
        build_entry("Q", n=3)
    with pytest.raises(ValueError):
        build_entry("abelian", n=0)
    with pytest.raises(ValueError):
        build_entry("L", n=2)
    with pytest.raises(ValueError):
        build_entry("n6_5", a=0)
    with pytest.raises(ValueError):
        build_entry("n6_18", a=Q(0))
    with pytest.raises(ValueError):
        build_entry("no_such_entry")
    with pytest.raises(ValueError, match=r"'n4_1': unexpected parameter 'a'"):
        build_entry("n4_1", a=1)  # not parametric


def test_an_unknown_name_raises_the_same_error_everywhere():
    # entry_parameters once raised KeyError where build_entry raised ValueError
    for call in (build_entry, entry_parameters):
        with pytest.raises(ValueError, match=r"^unknown catalog entry 'zz'; see entry_names\(\)$"):
            call("zz")
    with pytest.raises(ValueError, match=r"^unknown catalog entry 'zz'"):
        build_entry("zz", n=3)  # the name is checked before the parameters
    assert entry_parameters("Q") == ("n",) and entry_parameters("n4_1") == ()


def test_each_build_makes_its_own_algebra_and_torus():
    # a torus check or grading cached on one entry must not reach the next
    for name, params in (("n4_1", {}), ("n6_5", {"a": Q(3)})):
        first, second = build_entry(name, **params), build_entry(name, **params)
        assert first.nilradical is not second.nilradical, name
        assert first.torus is not second.torus, name
        assert first.torus.nilradical is first.nilradical, name


def _label_polynomial(sympy, label: str, params: dict):
    """lhs - rhs of a printed condition "lhs != rhs", read with sympy; the
    form entry a_{i,j} is the symbol x_i_j and a bare ``a`` the parameter."""
    text = re.sub(r"\s+\[(as printed|corrected)\]$", "", label)
    text = re.sub(r"a_\{(\d+),(\d+)\}", r"x_\1_\2", text)
    text = re.sub(r"\ba\b", f"({params['a']})" if "a" in params else "a", text)
    text = re.sub(r"(?<=[\w)])\s+(?=[\w(])", "*", text).replace("^", "**")
    lhs, rhs = text.split(" != ")
    return sympy.expand(sympy.sympify(lhs) - sympy.sympify(rhs))


def test_condition_labels_match_their_terms():
    sympy = pytest.importorskip("sympy")
    selection = list(DEFAULT_SELECTION) + [
        (name, {"a": a}) for name in ("n6_5", "n6_10", "n6_14", "n6_18") for a in (Q(1, 3), Q(-2))
    ]
    checked = 0
    for name, params in selection:
        entry = build_entry(name, **params)
        for cond in entry.expected.conditions:
            terms = sympy.expand(sum(
                sympy.Rational(coeff.numerator, coeff.denominator)
                * sympy.Mul(*(sympy.Symbol(f"x_{i}_{j}") for i, j in pairs))
                for coeff, pairs in cond.terms
            ))
            printed = _label_polynomial(sympy, cond.label, entry.params)
            assert printed - terms == 0 or printed + terms == 0, (name, params, cond.label)
            checked += 1
    assert checked > 40


def test_parametric_entries_revalidate_after_override():
    for name, a in (("n6_5", Q(1)), ("n6_10", Q(-3)), ("n6_14", Q(2)), ("n6_18", Q(1, 2))):
        entry = build_entry(name, a=a)
        assert entry.nilradical.jacobi_holds()
        assert verify_torus(entry.torus).ok
        assert semidirect(entry.torus).jacobi_holds()


def test_expected_verdicts_are_transcribed_not_computed():
    # spot check: odd-dimensional entries carry the "odd" column verbatim
    assert build_entry("n5_2").expected.symplectic == "odd"
    assert build_entry("n6_2").expected.symplectic == "never"
    assert build_entry("n6_18").expected.symplectic == "never"
    assert build_entry("n6_21").expected.maximal_rank is False  # printed value


def test_check_entry_single_rows():
    result = check_entry(build_entry("n4_1"))
    assert result.green
    assert result.symplectic == "yes"
    assert decide_symplectic(semidirect(build_entry("n4_1").torus)).cocycles.dims[0] == 5
    result = check_entry(build_entry("n6_2"))
    assert result.green and result.symplectic == "never"
    result = check_entry(build_entry("n5_2"))
    assert result.green and result.symplectic == "odd"


def test_full_regression_is_green():
    report = run_regression()
    assert report.green
    counts = report.counts
    assert counts["entries"] == len(DEFAULT_SELECTION)
    assert counts[MISMATCH] == 0
    # every excusal points at an erratum id, and there are not more
    # excusals than errata
    documented = documented_typos(report)
    assert set(documented) <= set(TYPOS)
    assert len(documented) <= len(TYPOS)


def test_regression_catches_wrong_expectations():
    import dataclasses

    entry = build_entry("n4_1")
    wrong = dataclasses.replace(
        entry, expected=dataclasses.replace(entry.expected, symplectic="never")
    )
    result = check_entry(wrong)
    assert not result.green
    assert any(c.status == MISMATCH and c.fieldname == "symplectic" for c in result.comparisons)


def test_documented_mismatches_are_the_known_typos():
    report = run_regression()
    flagged = {}
    for e in report.entries:
        for c in list(e.comparisons) + list(e.conditions):
            if c.status == DOCUMENTED:
                flagged.setdefault(e.name, []).append(c.typo)
    assert set(flagged) == {"n6_5", "n6_13", "n6_16", "n6_17", "n6_21"}
    assert flagged["n6_21"] == ["n6_21-maximal-rank", "n6_21-condition"]


def test_reproductions_are_green():
    report = reproduce_propositions()
    assert report.green
    labels = [item.label for item in report.items]
    assert any("n=4: determinant identity" in lbl for lbl in labels)
    assert any("Q n=9" in lbl for lbl in labels)


def test_typo_registry_is_documented():
    import pathlib
    import re

    doc = pathlib.Path(__file__).resolve().parent.parent / "TYPOS.md"
    text = doc.read_text(encoding="utf-8")
    bullets = re.findall(r"^- \*\*`([^`]+)`\*\*", text, flags=re.MULTILINE)
    assert len(bullets) == len(set(bullets)), "an erratum is described twice"
    assert set(bullets) == set(TYPOS)
    assert len(TYPOS) == len(set(TYPOS)) == 13


def test_the_default_selection_references_exactly_the_typos():
    """Every erratum is used: each id is among the selection's corrections,
    condition typos or expected-verdict typos, and no other id is."""
    referenced = set()
    for name, params in DEFAULT_SELECTION:
        entry = build_entry(name, **params)
        referenced.update(entry.corrections, entry.expected.typos.values())
        referenced.update(c.typo for c in entry.expected.conditions if c.typo)
    assert referenced == set(TYPOS)


CORRECTIONS = {
    ("n3_1", ()): ("n3_1-torus-action",),
    ("n5_2", ()): ("n5_2-torus-action",),
    ("n6_10", ()): ("n6_10-torus-action",),
    ("n6_5", ()): ("n6_5-condition-1", "n6_5-condition-2"),
    ("n6_13", ()): ("n6_13-condition",),
    ("n6_16", ()): ("n6_16-condition",),
    ("n6_17", ()): ("n6_17-condition",),
    ("n6_21", ()): ("n6_21-maximal-rank", "n6_21-condition"),
    ("L", (("n", 4),)): ("L4-determinant-sign",),
    ("Q", (("n", 5),)): ("Q-chain-range", "Q-top-power-constant"),
    ("Q", (("n", 7),)): ("Q-chain-range", "Q-top-power-constant"),
    ("Q", (("n", 9),)): ("Q-chain-range", "Q-top-power-constant"),
}


def test_corrections_are_pinned():
    """Each entry lists its data fixes, then the ids on its expected
    verdicts, then those on its conditions in condition order."""
    for name, params in DEFAULT_SELECTION:
        key = (name, tuple(sorted(params.items())))
        assert build_entry(name, **params).corrections == CORRECTIONS.get(key, ()), key
    assert build_entry("n6_5", a=Q(1, 3)).corrections == CORRECTIONS[("n6_5", ())]
    assert build_entry("n6_10", a=-2).corrections == CORRECTIONS[("n6_10", ())]
