"""CLI contract: exit codes, JSON schemas, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

import liesymp
from liesymp.catalog import DEFAULT_SELECTION, entry_names, entry_parameters
from liesymp.cli import (
    CATALOG_REPORT_SCHEMA,
    PROPS_REPORT_SCHEMA,
    SYMPLECTIC_REPORT_SCHEMA,
    _parse_sets,
    main,
)
from liesymp.fileformat import build, parse
from liesymp.liealg import MAX_DIM
from liesymp.symplectic import decide_symplectic, find_nonvanishing_point, generic_cocycle

GOOD = """\
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

JACOBI_BAD = """\
algebra bad
basis e1 e2 e3
[e1,e2] = e3
[e1,e3] = e1
"""


@pytest.fixture()
def good_file(tmp_path):
    path = tmp_path / "n4_1.lie"
    path.write_text(GOOD, encoding="utf-8")
    return str(path)


def test_check_ok(good_file, capsys):
    assert main(["check", good_file]) == 0
    out = capsys.readouterr().out
    assert "jacobi identity: holds" in out


def test_jacobi_violation_reads_the_same_under_every_command(tmp_path, capsys):
    path = tmp_path / "bad.lie"
    path.write_text(JACOBI_BAD, encoding="utf-8")
    for command in ("check", "props", "der", "symplectic"):
        assert main([command, str(path)]) == 2, command
        err = capsys.readouterr().err
        assert _one_error_line(err) == "error: jacobi identity fails on (e1, e2, e3)", command


def _one_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err
    return lines[0]


def test_symplectic_jacobi_violation_with_torus_block_exits_2(tmp_path, capsys):
    # diag(1, -1, 0) satisfies l_a + l_b = l_k on every structure constant,
    # so it passes the torus axioms; the semidirect product then inherits the
    # Jacobi failure of the table
    path = tmp_path / "bad_torus.lie"
    path.write_text(JACOBI_BAD + "torus h\n[h,e1] = e1\n[h,e2] = -e2\n", encoding="utf-8")
    assert main(["symplectic", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "violates Jacobi" in _one_error_line(captured.err)


DEPENDENT_TORI = {
    # both generators scale e1: the torus spans rank 1, not the bound 2
    "repeated": ("torus h k\n[h,e1] = e1\n[k,e1] = e1\n",
                 "generators h, k are linearly dependent"),
    # a torus label with no rules acts by zero
    "zero": ("torus h\n", "generator h is zero"),
}


@pytest.mark.parametrize("kind", sorted(DEPENDENT_TORI))
@pytest.mark.parametrize(
    "argv", [["check"], ["props"], ["der", "--complete"], ["symplectic", "--json"]]
)
def test_linearly_dependent_torus_generators_exit_2(kind, argv, tmp_path, capsys):
    block, violation = DEPENDENT_TORI[kind]
    path = tmp_path / "dependent.lie"
    path.write_text("algebra dep\nbasis e1 e2\n" + block, encoding="utf-8")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: torus block is not a torus action: {violation}"
    )


# A nilpotent algebra whose generic closed form has 12 parameters and
# Pfaffian t11*t12*(t12^2 - t11^2): it vanishes at every point with
# coordinates in {-1, 0, 1}, so a witness search bounded by 1 finds nothing.
# The pruned walk fixes t1..t10 at -1 without branching (they do not occur)
# and tries a handful of values for t11 and t12, so exhausting the box takes
# milliseconds, not a visit to each of its 3**12 points.
NO_WITNESS_IN_FIRST_SHELL = """\
algebra shell2
basis e1 e2 e3 e4 e5 e6 e7 e8
[e1,e2] = -2*e5 + 2*e8
[e1,e3] = 2*e4 - 2*e5 + e7
[e1,e4] = -2*e8
[e2,e3] = e6
[e2,e6] = e8
[e3,e4] = -e5 - 2*e8
[e3,e6] = -2*e7
"""


def test_symplectic_witness_past_the_first_shell_exits_0(tmp_path, capsys):
    # the Pfaffian t11 t12 (t12 - t11) (t12 + t11) vanishes on all of shell 1
    path = tmp_path / "shell2.lie"
    path.write_text(NO_WITNESS_IN_FIRST_SHELL, encoding="utf-8")
    assert main(["symplectic", str(path), "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    symplectic = json.loads(captured.out)["verdicts"]["symplectic"]
    assert symplectic["exists"] == "yes"
    verdict = decide_symplectic(build(parse(NO_WITNESS_IN_FIRST_SHELL)).algebra)
    generic = generic_cocycle(verdict.cocycles)
    point = find_nonvanishing_point(verdict.pfaffian, generic.variables)
    assert max(abs(v) for v in point.values()) == 2
    assert symplectic["witness"]["matrix"] == [[str(x) for x in row] for row in verdict.witness.entries]



# Far over the bound: without the check, each of these would start a build
# (and eliminations) of that size; with it, only the rejection path runs.
HUGE = 10**9


def _labels_file(tmp_path, count: int, torus: int = 0) -> str:
    basis = " ".join(f"e{i}" for i in range(1, count + 1))
    source = f"algebra wide\nbasis {basis}\n"
    if torus:
        # h_i scales e_i: independent commuting derivations of the abelian table
        source += "torus " + " ".join(f"h{i}" for i in range(1, torus + 1)) + "\n"
        source += "".join(f"[h{i},e{i}] = e{i}\n" for i in range(1, torus + 1))
    path = tmp_path / "wide.lie"
    path.write_text(source, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv, dim",
    [
        (["catalog", "show", "L", "--set", f"n={HUGE}"], HUGE + 2),
        (["catalog", "show", "Q", "--set", f"n={HUGE + 1}"], HUGE + 4),
        (["catalog", "show", "abelian", "--set", f"n={MAX_DIM // 2 + 1}"], MAX_DIM + 2),
        (["catalog", "verify", "--set", f"n={HUGE}"], 2 * HUGE),
    ],
)
def test_catalog_parameter_over_the_size_bound_exits_2(argv, dim, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) == (
        f"error: algebra dimension {dim} exceeds the maximum of {MAX_DIM}"
    )


@pytest.mark.parametrize("command", ["check", "props", "der", "symplectic"])
def test_file_over_the_size_bound_exits_2(command, tmp_path, capsys):
    path = _labels_file(tmp_path, 10 * MAX_DIM, torus=2)
    assert main([command, path]) == 2
    assert _one_error_line(capsys.readouterr().err) == (
        f"error: algebra dimension {10 * MAX_DIM + 2} exceeds the maximum of {MAX_DIM}"
    )


def test_many_labels_are_rejected_in_linear_time(tmp_path, capsys):
    # reading the labels takes about 0.1 s; a quadratic duplicate check
    # took 4 s for this file
    path = _labels_file(tmp_path, 20_000)
    start = time.perf_counter()
    assert main(["symplectic", path]) == 2
    assert time.perf_counter() - start < 2
    assert "exceeds the maximum" in _one_error_line(capsys.readouterr().err)


def test_the_size_bound_admits_its_maximum(tmp_path, capsys):
    assert main(["catalog", "show", "abelian", "--set", f"n={MAX_DIM // 2}"]) == 0
    assert main(["check", _labels_file(tmp_path, MAX_DIM - 1, torus=1)]) == 0
    assert capsys.readouterr().err == ""


def test_check_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.lie"
    path.write_text("algebra x\nbasis e1\n[e1,e2] = e1\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "undeclared" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    # every file command reports an unreadable file in the same one line
    for argv in (["check"], ["props"], ["der", "--complete"], ["symplectic", "--json"]):
        assert main([argv[0], "/nonexistent/path.lie", *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_error_line(captured.err).startswith("error: cannot read /nonexistent/path.lie: ")


def test_props(good_file, capsys):
    assert main(["props", good_file]) == 0
    out = capsys.readouterr().out
    assert "center dimension: 0" in out
    assert "solvable: True" in out


def test_der_complete(good_file, capsys):
    assert main(["der", good_file, "--complete"]) == 0
    out = capsys.readouterr().out
    assert "dim Der = 6" in out and "complete: True" in out


def test_symplectic_human(good_file, capsys):
    assert main(["symplectic", good_file, "--witness"]) == 0
    out = capsys.readouterr().out
    assert "exists = yes" in out
    assert "witness" in out


def test_symplectic_exact_only(good_file, capsys):
    assert main(["symplectic", good_file, "--exact-only"]) == 0
    out = capsys.readouterr().out
    assert "exact (Frobenius)" in out
    assert "dim Z^2" not in out


def test_symplectic_json_schema_and_determinism(good_file, capsys):
    assert main(["symplectic", good_file, "--json"]) == 0
    first = capsys.readouterr().out
    data = json.loads(first)
    jsonschema.validate(data, SYMPLECTIC_REPORT_SCHEMA)
    assert data["verdicts"]["symplectic"]["exists"] == "yes"
    assert data["verdicts"]["complete"] is True
    assert data["verdicts"]["maximal_rank"] is True
    assert main(["symplectic", good_file, "--json"]) == 0
    assert capsys.readouterr().out == first  # byte-for-byte deterministic


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "n6_22" in out and "abelian" in out


# sha256 prefixes of known-good ``liesymp catalog ...`` stdout: the list,
# every entry at its defaults, and the parameter values the CI battery shows
CATALOG_DIGESTS = {
    "list": "c1dc64a1a09ebf2b",
    "show n3_1": "1635da81b2e09001",
    "show n4_1": "489d2d9c58496044",
    "show n5_1": "6027903c5b049ee0",
    "show n5_2": "3ce1ff3a85838fcf",
    "show n5_3": "8b901c2b3679514a",
    "show n5_4": "1ba2984b9c9ace69",
    "show n5_5": "5803f8b07aa76039",
    "show n5_6": "fd6f85a8c57a72fc",
    "show n6_1": "0d87a7d9f70e6186",
    "show n6_2": "974cb2966c335a29",
    "show n6_3": "ff5f62329cb8a7c7",
    "show n6_4": "1475c059b91a1c53",
    "show n6_5": "21207c8e97ce0500",
    "show n6_6": "c53f3d99d1db0e9f",
    "show n6_7": "49a391b8496ec5b3",
    "show n6_8": "25c2c4bbdd20ca77",
    "show n6_9": "fccce2477debedf1",
    "show n6_10": "1f0baca2f6b59be8",
    "show n6_11": "c10ce28b750fd394",
    "show n6_12": "4743c0d60623b521",
    "show n6_13": "35c9080a40568a3f",
    "show n6_14": "dab6b389bed15915",
    "show n6_15": "c32d939f86046283",
    "show n6_16": "4fb7af882aa410a2",
    "show n6_17": "9514b4df7285e3fa",
    "show n6_18": "3a61d96761e52616",
    "show n6_19": "27115e6044311322",
    "show n6_20": "a2cd21fb12b50919",
    "show n6_21": "f196e069bdeedf1b",
    "show n6_22": "8fd6231552d6be2d",
    "show abelian": "35a26355323bd5f5",
    "show L": "c36cb7339d367e81",
    "show Q": "fb6aacc77dbd6f62",
    "show n6_5 --set a=1/3": "7ebb223d87f0897b",
    "show n6_10 --set a=-2": "e865afa1bace066c",
    "show n6_14 --set a=5": "2f8f4869979eb115",
    "show n6_18 --set a=7/2": "11ec7af1a15e943a",
    "show Q --set n=13": "089d71a3b59d51cf",
    "show L --set n=12": "763da52fe9e4b18d",
    "show abelian --set n=5": "0b0423e99589cb78",
}


def test_catalog_show_and_list_outputs_are_pinned(capsys):
    defaults = [key.split()[1] for key in CATALOG_DIGESTS if key.count(" ") == 1]
    assert defaults == list(entry_names())
    for command, want in CATALOG_DIGESTS.items():
        assert main(["catalog", *command.split()]) == 0, command
        got = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()[:16]
        assert got == want, f"`liesymp catalog {command}` prints other bytes than recorded"


def test_catalog_show_roundtrips(capsys, tmp_path):
    assert main(["catalog", "show", "n4_1"]) == 0
    out = capsys.readouterr().out
    body = "\n".join(line for line in out.splitlines() if not line.startswith("#"))
    path = tmp_path / "shown.lie"
    path.write_text(body + "\n", encoding="utf-8")
    assert main(["symplectic", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdicts"]["symplectic"]["exists"] == "yes"


def test_catalog_show_with_param(capsys):
    assert main(["catalog", "show", "Q", "--set", "n=7"]) == 0
    out = capsys.readouterr().out
    assert "e8" in out  # torus labels for n = 7
    assert main(["catalog", "show", "n6_5", "--set", "a=0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "show", "Q", "--set", "alpha=1/0"],
        ["catalog", "verify", "--set", "alpha=1/0"],
        ["catalog", "verify", "--json", "--set", "alpha=1/0"],
    ],
)
def test_catalog_zero_denominator_in_set_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --set alpha=1/0: zero denominator\n"


@pytest.mark.parametrize(
    "item", ["a=1e3", "a=1.5", "a=1_0", "a=١", "a=1/-2", "a=1e99999999", "n=4/2", "n=1e3"]
)
@pytest.mark.parametrize("command", [["catalog", "show", "n6_5"], ["catalog", "verify"]])
def test_set_takes_only_the_file_formats_numbers(command, item, capsys):
    """A sign, ASCII digits and an optional positive denominator; an
    exponent was read by Fraction, and 1e99999999 ran for minutes."""
    start = time.perf_counter()
    assert main(command + ["--set", item]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    key, _, value = item.partition("=")
    want = "an integer" if key == "n" else "an integer or a fraction p/q"
    assert _one_error_line(captured.err) == f"error: --set {item}: expected {want} in ASCII digits"


@pytest.mark.parametrize("item", ["a=-{big}", "a=1/{big}", "n={big}"])
def test_set_number_longer_than_the_int_string_limit_exits_2(item, capsys):
    big = "7" * 5000
    assert main(["catalog", "show", "n6_5", "--set", item.format(big=big)]) == 2
    key = item.partition("=")[0]
    assert _one_error_line(capsys.readouterr().err) == f"error: --set {key}: number too long (5000 digits)"


def test_set_keeps_signed_integers_and_fractions(capsys):
    assert main(["catalog", "show", "n6_5", "--set", " a = +7/2 "]) == 0
    assert main(["catalog", "show", "Q", "--set", "n=+7"]) == 0
    assert main(["catalog", "show", "Q", "--set", "n=7"]) == 0
    shown = capsys.readouterr().out.split("algebra ")
    assert shown[2] == shown[3]


def test_catalog_verify_dim_filter(capsys):
    assert main(["catalog", "verify", "--dim", "4"]) == 0
    out = capsys.readouterr().out
    assert "summary: 1 entries" in out
    assert main(["catalog", "verify", "--dim", "6"]) == 0
    out = capsys.readouterr().out
    assert "summary: 22 entries" in out


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--dim", "7"], "error: --dim 7: no table section has that nilradical dimension"),
        (["--dim", "-1"], "error: --dim -1: no table section has that nilradical dimension"),
        (["--json", "--dim", "2"], "error: --dim 2: no table section has that nilradical dimension"),
        (["--set", "zz=3"], "error: --set zz: no selected entry takes this parameter"),
        (["--dim", "5", "--set", "a=3"], "error: --set a: no selected entry takes this parameter"),
        (["--dim", "3", "--set", "n=5"], "error: --set n: no selected entry takes this parameter"),
        (["--set", "n=5", "--set", "zz=1/2"], "error: --set zz: no selected entry takes this parameter"),
    ],
)
def test_catalog_verify_rejects_a_vacuous_selection(argv, error, capsys):
    """An empty table section, or a --set key that no selected entry takes,
    exits 2 with one error line; both used to report an empty or unchanged
    selection as green."""
    assert main(["catalog", "verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) == error


def test_catalog_verify_json(capsys):
    assert main(["catalog", "verify", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, CATALOG_REPORT_SCHEMA)
    assert data["green"] is True
    assert data["summary"]["mismatch"] == 0


def test_catalog_verify_set_reaches_the_entries_that_take_it(capsys):
    assert main(["catalog", "verify", "--json", "--set", "a=3"]) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, CATALOG_REPORT_SCHEMA)
    overridden = [e["name"] for e in data["entries"] if e["params"].get("a") == "3"]
    assert overridden == ["n6_5", "n6_10", "n6_14", "n6_18"]
    assert all(e["params"].keys() <= {"n"} for e in data["entries"] if e["name"] not in overridden)


def test_catalog_verify_set_leaves_out_the_entries_that_reject_it(capsys):
    """Q takes n but rejects an even one, so --set n=4 verifies abelian and
    L at n=4 and leaves Q out."""
    assert main(["catalog", "verify", "--json", "--set", "n=4"]) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, CATALOG_REPORT_SCHEMA)
    assert data["green"] is True
    families = [(e["name"], e["params"]) for e in data["entries"] if "n" in e["params"]]
    assert [name for name, _ in families] == ["abelian"] * 4 + ["L"] * 6
    assert all(params == {"n": "4"} for _, params in families)
    assert len(data["entries"]) == len(DEFAULT_SELECTION) - 3


@pytest.mark.parametrize(
    "value, error",
    [
        ("n=0", "error: abelian family requires n >= 1"),
        ("a=0", "error: parameter a must be nonzero (printed condition: a != 0)"),
    ],
)
def test_catalog_verify_set_that_every_entry_rejects_exits_2(value, error, capsys):
    """The first rejection, in the order of the selection, of a value that
    every entry taking its key rejects."""
    assert main(["catalog", "verify", "--set", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) == error


@pytest.mark.parametrize("sets", [["n=5"], ["n=7"], ["a=3"], ["a=-1/2", "n=9"]])
def test_catalog_verify_set_that_every_entry_accepts_keeps_the_selection(
    sets, monkeypatch, capsys
):
    """A value that every entry taking its key accepts reaches each of them,
    as it did before entries could be left out."""
    import liesymp.cli as cli

    selections = []
    real = cli.run_regression
    monkeypatch.setattr(cli, "run_regression", lambda sel: selections.append(sel) or real(sel))
    assert main(["catalog", "verify"] + [x for s in sets for x in ("--set", s)]) == 0
    params = _parse_sets(sets)
    assert selections == [[
        (name, {**ps, **{k: v for k, v in params.items() if k in entry_parameters(name)}})
        for name, ps in DEFAULT_SELECTION
    ]]


def test_catalog_verify_exit_code_follows_greenness(monkeypatch, capsys):
    import dataclasses

    import liesymp.cli as cli
    from liesymp.regression import run_regression

    real = run_regression([("n4_1", {})])
    entry = real.entries[0]
    broken_entry = dataclasses.replace(
        entry,
        comparisons=tuple(
            dataclasses.replace(c, status="mismatch") for c in entry.comparisons[:1]
        )
        + entry.comparisons[1:],
    )
    broken = dataclasses.replace(real, entries=(broken_entry,))
    monkeypatch.setattr(cli, "run_regression", lambda selection=None, bound=None: broken)
    assert main(["catalog", "verify"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_repro_props(capsys):
    assert main(["repro-props"]) == 0
    out = capsys.readouterr().out
    assert "reproduction: green" in out


def test_repro_props_json(capsys):
    assert main(["repro-props", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, PROPS_REPORT_SCHEMA)
    assert data["green"] is True


def test_closed_stdout_ends_without_a_traceback():
    """``liesymp catalog verify --json | head -1``: the reader closes the pipe
    after the first line.  The pipe is shrunk to one page, so the report
    (about 60 kB) cannot fit in it before the close and the write must fail."""
    fcntl = pytest.importorskip("fcntl")
    read_fd, write_fd = os.pipe()
    one_page = hasattr(fcntl, "F_SETPIPE_SZ")
    if one_page:
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    src = str(Path(liesymp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "liesymp.cli", "catalog", "verify", "--json"],
        stdout=write_fd, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as reader:
        assert reader.readline() == b"{\n"
    _, err = proc.communicate(timeout=300)
    # without a one-page pipe the report may fit before the close
    assert proc.returncode == 2 if one_page else proc.returncode in (0, 1, 2)
    assert b"Traceback" not in err
