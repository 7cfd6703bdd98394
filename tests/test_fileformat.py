"""Parsing, diagnostics, canonical printing, and building algebras from text."""

from fractions import Fraction as Q

import pytest

from liesymp.analysis import Analysis
from liesymp.catalog import build_entry
from liesymp.fileformat import ParseError, build, parse, print_file
from liesymp.structure import semidirect

N4_1_SOURCE = """\
# a four-dimensional nilradical and its rank-2 torus
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


def test_parse_full_example():
    f = parse(N4_1_SOURCE)
    assert f.name == "n4_1"
    assert f.basis == ("e1", "e2", "e3", "e4")
    assert len(f.brackets) == 2
    assert f.torus_labels == ("e5", "e6")
    assert len(f.torus_rules) == 6
    assert f.brackets[0] == ("e2", "e4", ((Q(1), "e1"),))


def test_built_semidirect_matches_catalog():
    built = build(parse(N4_1_SOURCE))
    assert built.torus is not None
    g = built.algebra
    reference = semidirect(build_entry("n4_1").torus)
    assert g.dim == reference.dim
    assert g.table == reference.table


def test_linear_combinations():
    f = parse("algebra t\nbasis e1 e2 e3 e4\n[e1,e2] = 1/2*e3 - e4\n")
    (_, _, terms) = f.brackets[0]
    assert dict((lbl, c) for c, lbl in terms) == {"e3": Q(1, 2), "e4": Q(-1)}
    f = parse("algebra t\nbasis a b c\n[a,b] = -c\n[a,c] = 0\n")
    assert f.brackets[0][2] == ((Q(-1), "c"),)
    assert f.brackets[1][2] == ()


def test_whitespace_and_comments_are_insignificant():
    squashed = "algebra t basis e1 e2 e3 [e1,e2]=e3 # trailing comment"
    f = parse(squashed)
    assert f.basis == ("e1", "e2", "e3")
    spread = "algebra t\n basis\n e1\n e2 e3\n [ e1 , e2 ]\n =\n e3\n"
    assert parse(spread) == f


def test_self_bracket_must_be_zero():
    with pytest.raises(ParseError) as info:
        parse("algebra t\nbasis e1\n[e1,e1] = e1\n")
    assert "itself must be 0" in str(info.value)
    # explicit zero is fine
    f = parse("algebra t\nbasis e1\n[e1,e1] = 0\n")
    assert f.brackets[0][2] == ()


def test_positioned_diagnostics():
    with pytest.raises(ParseError) as info:
        parse("algebra t\nbasis e1 e2\n[e1,e9] = e2\n")
    err = info.value
    assert err.line == 3 and "undeclared" in err.message and "e9" in err.message
    with pytest.raises(ParseError) as info:
        parse("algebra t\nbasis e1 e2\n[e1,e2] = 1/0*e1\n")
    assert "denominator" in info.value.message
    with pytest.raises(ParseError) as info:
        parse("basis e1\n[e1,e1]=e1")
    assert info.value.line == 1
    with pytest.raises(ParseError) as info:
        parse("algebra t\nbasis e1 e2\n[e1,e2] = e1\n[e2,e1] = e2\n")
    assert "duplicate" in info.value.message
    with pytest.raises(ParseError) as info:
        parse("algebra torus\nbasis e1\n")
    assert "reserved" in info.value.message
    with pytest.raises(ParseError) as info:
        parse("algebra t\nbasis e1 basis e2\n")
    assert "unexpected" in info.value.message


@pytest.mark.parametrize("digit", ["\u00b2", "\u0661"])  # superscript two, Arabic-Indic one
def test_numbers_are_ascii_digits(digit):
    """Only ASCII digits start a number; any other character that
    ``str.isdigit`` accepts is a positioned error, not a number."""
    with pytest.raises(ParseError) as info:
        parse(f"algebra a\nbasis x y z\n[x,y] = {digit}*z\n")
    err = info.value
    assert (err.line, err.col) == (3, 9)
    assert err.message == f"unexpected character {digit!r}"


def test_torus_rules_are_validated():
    with pytest.raises(ParseError) as info:
        parse("algebra t\nbasis e1 e2\n[e1,e2]=0\ntorus h\n[e1,e2] = e1\n")
    assert "torus label" in info.value.message
    with pytest.raises(ParseError) as info:
        parse("algebra t\nbasis e1 e2\ntorus h\n[h,h] = 0\n")
    assert "act on basis labels" in info.value.message


def test_round_trip_through_printer():
    for source in (
        N4_1_SOURCE,
        "algebra t\nbasis a b c\n[a,b] = -c\n[a,c] = 0\n",
        "algebra t\nbasis e1 e2\n[e1,e2] = 2/3*e1 - 5*e2\n",
        "algebra flat\nbasis x y\n",
    ):
        f = parse(source)
        assert parse(print_file(f)) == f


def test_round_trip_catalog_shapes():
    # files synthesised from catalog entries survive the printer
    from liesymp.cli import _entry_to_file

    for name in ("n3_1", "n5_3", "n6_5", "Q"):
        f = _entry_to_file(build_entry(name))
        assert parse(print_file(f)) == f


def test_build_without_torus():
    built = build(parse("algebra heis\nbasis x y z\n[x,y] = z\n"))
    assert isinstance(built, Analysis)
    assert built.torus is None and built.nilradical is built.algebra
    assert built.algebra.dim == 3
    assert built.algebra.table == {(0, 1): {2: Q(1)}}


def test_build_rejects_invalid_torus():
    # identity action is not a derivation of the Heisenberg bracket
    src = "algebra bad\nbasis x y z\n[x,y] = z\ntorus h\n[h,x] = x\n[h,y] = y\n[h,z] = z\n"
    with pytest.raises(ValueError) as info:
        build(parse(src))
    assert "torus" in str(info.value)
