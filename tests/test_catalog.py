"""Catalog integrity and the regression runner."""

from fractions import Fraction as Q

import pytest

from liesymp.catalog import (
    DEFAULT_SELECTION,
    FAMILY_NAMES,
    TABLE_NAMES,
    TYPO_IDS,
    build_entry,
    entry_names,
)
from liesymp.regression import (
    DOCUMENTED,
    MISMATCH,
    check_entry,
    reproduce_propositions,
    run_regression,
)
from liesymp.structure import semidirect, verify_torus


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
    with pytest.raises(ValueError):
        build_entry("n4_1", a=1)  # not parametric


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
    assert result.cocycle_dims[0] == 5
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
    # every excusal points at a registered typo, and there are not more
    # excusals than registry entries describing row data
    documented = documented_typos(report)
    assert set(documented) <= set(TYPO_IDS)
    assert len(documented) <= len(TYPO_IDS)


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

    doc = pathlib.Path(__file__).resolve().parent.parent / "TYPOS.md"
    text = doc.read_text(encoding="utf-8")
    for ident in TYPO_IDS:
        assert ident in text, f"typo {ident} missing from TYPOS.md"
