"""Cross-cutting checks that sweep the whole catalog through the surfaces
the focused module tests only sample."""

import json
import random
from fractions import Fraction as Q

import pytest

from liesymp.catalog import DEFAULT_SELECTION, build_entry
from liesymp.cli import SYMPLECTIC_REPORT_SCHEMA, main
from liesymp.fileformat import build, parse, print_file
from liesymp.structure import (
    NotRationallyDiagonalizable,
    root_decomposition,
    semidirect,
)
from liesymp.symplectic import d_two_form, decide_symplectic
from test_linalg import apply_map


def test_root_decomposition_across_catalog():
    """Every torus either splits the nilradical over Q with exact eigen
    relations, or is reported as not rationally diagonalizable."""
    split = 0
    refused = 0
    for name, params in DEFAULT_SELECTION:
        entry = build_entry(name, **params)
        try:
            decomp = root_decomposition(entry.torus)
        except NotRationallyDiagonalizable:
            refused += 1
            continue
        split += 1
        n = entry.nilradical.dim
        assert sum(s.dim for s in decomp.spaces) == n, name
        for beta, space in zip(decomp.roots, decomp.spaces):
            for v in space.basis:
                for lam, gen in zip(beta, entry.torus.generators):
                    assert apply_map(gen, v) == tuple(lam * x for x in v), name
    assert split >= 35
    # the mixing generators at the defaults a=2 (n6_5, n6_10) and a=1
    # (n6_14, n6_18) leave exactly the irrational-eigenvalue cases
    assert refused == 4


def test_catalog_show_round_trips_through_parser_for_all_entries(capsys):
    for name, params in DEFAULT_SELECTION:
        args = ["catalog", "show", name]
        for k, v in params.items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 0
        out = capsys.readouterr().out
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#")) + "\n"
        parsed = parse(body)
        built = build(parsed)
        reference = semidirect(build_entry(name, **params).torus)
        assert built.algebra.dim == reference.dim, name
        assert built.algebra.table == reference.table, name


def test_symplectic_json_without_torus(tmp_path, capsys):
    path = tmp_path / "heis.lie"
    path.write_text("algebra heis\nbasis x y z\n[x,y] = z\n", encoding="utf-8")
    assert main(["symplectic", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    import jsonschema

    jsonschema.validate(data, SYMPLECTIC_REPORT_SCHEMA)
    assert data["verdicts"]["maximal_rank"] is None
    assert data["verdicts"]["symplectic"]["exists"] == "odd"
    assert data["verdicts"]["complete"] is False


def test_symplectic_on_a_torus_over_a_non_nilpotent_bracket_part(tmp_path, capsys):
    """The rank bound is undefined when the bracket part is not nilpotent:
    the JSON mode reports maximal_rank null and exits 0, as the text mode
    does."""
    path = tmp_path / "s.lie"
    path.write_text(
        "algebra s\nbasis x y\n[x,y] = y\ntorus h\n[h,y] = y\n", encoding="utf-8"
    )
    assert main(["symplectic", str(path)]) == 0
    assert "symplectic: exists = odd" in capsys.readouterr().out
    assert main(["symplectic", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    import jsonschema

    jsonschema.validate(data, SYMPLECTIC_REPORT_SCHEMA)
    assert data["verdicts"]["maximal_rank"] is None
    assert data["verdicts"]["symplectic"]["exists"] == "odd"


def test_decide_symplectic_on_bare_nilpotent_algebras():
    """The decision is total: it applies to any rational Lie algebra, not
    only to the torus extensions; witnesses always re-verify."""
    for name in ("n4_1", "n6_2", "n6_11", "n6_22"):
        g = build_entry(name).nilradical
        verdict = decide_symplectic(g)
        if g.dim % 2 == 1:
            assert verdict.exists == "odd"
            continue
        assert verdict.exists in ("yes", "no")
        if verdict.exists == "yes":
            w = verdict.witness
            assert not d_two_form(g, w) and w.pfaffian() != 0


def test_witnesses_are_deterministic():
    g = semidirect(build_entry("n5_1").torus)
    first = decide_symplectic(g)
    second = decide_symplectic(g)
    assert first.witness == second.witness
    assert first.exact_one_form == second.exact_one_form
    assert str(first.pfaffian) == str(second.pfaffian)


def test_random_round_trips_through_printer():
    rng = random.Random(1234)
    for _ in range(25):
        n = rng.randrange(1, 6)
        labels = [f"v{i}" for i in range(n)]
        lines = [f"algebra rt{n}", "basis " + " ".join(labels)]
        used = set()
        for _ in range(rng.randrange(0, 4)):
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j or (i, j) in used or (j, i) in used:
                continue
            used.add((i, j))
            terms = []
            for k in rng.sample(range(n), rng.randrange(1, n + 1)):
                c = Q(rng.randrange(-5, 6), rng.randrange(1, 4))
                if c != 0:
                    terms.append((c, labels[k]))
            chunks = []
            for idx, (c, lbl) in enumerate(terms):
                body = lbl if abs(c) == 1 else f"{abs(c)}*{lbl}"
                if idx == 0:
                    chunks.append(("-" if c < 0 else "") + body)
                else:
                    chunks.append(("- " if c < 0 else "+ ") + body)
            rhs = " ".join(chunks) if chunks else "0"
            lines.append(f"[{labels[i]},{labels[j]}] = {rhs}")
        source = "\n".join(lines) + "\n"
        f = parse(source)
        assert parse(print_file(f)) == f
