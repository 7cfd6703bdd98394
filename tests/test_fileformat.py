"""Parsing, diagnostics, canonical printing, and building algebras from text."""

import string
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesymp import cli
from liesymp.analysis import Analysis
from liesymp.catalog import build_entry
from liesymp.fileformat import ParseError, _error, _tokenize, build, parse, print_file
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


def test_coefficients_are_ints_where_integral():
    f = parse("algebra t\nbasis a b c\n[a,b] = 4/2*c - 6/4*a + b\n[a,c] = -3*b\n")
    coeffs = [c for _, _, terms in f.brackets for c, _ in terms]
    assert coeffs == [2, Q(-3, 2), 1, -3]
    assert [type(c) for c in coeffs] == [int, Q, int, int]
    table = build(f).algebra.table
    assert table == {(0, 1): {2: 2, 0: Q(-3, 2), 1: 1}, (0, 2): {1: -3}}


@pytest.mark.parametrize("rule", ["[e1,e2] = {}*e3", "[e1,e2] = 1/{}*e3"])
def test_an_overlong_number_is_a_positioned_error(rule, tmp_path, capsys):
    """A number past the interpreter's int-string limit (4300 digits by
    default) is reported at its token, through parse and through the CLI."""
    digits = "7" * 5000
    source = "algebra a\nbasis e1 e2 e3\n" + rule.format(digits) + "\n"
    col = rule.index("{") + 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError) as info:
            parse(source)
        path = tmp_path / "long.lie"
        path.write_text(source)
        code = cli.main(["symplectic", str(path)])
    finally:
        sys.set_int_max_str_digits(limit)
    err = info.value
    assert (err.message, err.line, err.col) == ("number too long (5000 digits)", 3, col)
    assert code == 2
    assert capsys.readouterr().err == f"error: 3:{col}: number too long (5000 digits)\n"


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


# -- the tokenizer against a character-by-character oracle ------------------


def _oracle_tokens(source: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) of each token, by a scan that walks the text
    one character at a time and counts lines and columns as it goes (the
    tokenizer the regular expression replaced)."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            kind = "ident"
        elif ch in "0123456789":
            j = i
            while j < n and source[j] in "0123456789":
                j += 1
            kind = "number"
        elif ch in "[],=+-*/":
            j, kind = i + 1, ch
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append((kind, source[i:j], line, col))
        col += j - i
        i = j
    return tokens


def _outcome(scan, source):
    try:
        return scan(source)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


def _positioned(source: str) -> list[tuple[str, str, int, int]]:
    tokens = _tokenize(source)
    assert tokens[-1] == ("end", "", len(source))
    out = []
    for kind, text, offset in tokens[:-1]:
        at = _error(source, "", offset)
        out.append((kind, text, at.line, at.col))
    return out


# ASCII letters and digits, the punctuation, the skipped characters, and three
# non-ASCII ones: a non-decimal digit that \w accepts, a decimal digit that is
# not ASCII, and a letter
TEXT_CHARS = string.ascii_letters + string.digits + "_[],=+-*/" + " \t\r\n#" + "\u00b2\u0661\u00e9"


@settings(max_examples=400, deadline=None)
@given(source=st.text(alphabet=TEXT_CHARS, max_size=80))
def test_tokenizer_matches_the_character_oracle(source):
    assert _outcome(_positioned, source) == _outcome(_oracle_tokens, source)


PIECES = ["algebra", "basis", "torus", "a", "e1", "e2", "h", "_x", "e\u00e9", "\u00e9",
          "\u00b2", "\u0661", "e\u00b2", "0", "2", "10", "[", "]", ",", "=", "+", "-", "*",
          "/", " ", "\t", "\n", "\r\n", "# c $\n", "$"]


@settings(max_examples=400, deadline=None)
@given(
    header=st.sampled_from(["", "algebra a\n", "algebra a\r\nbasis e1 e2\r\n",
                            "algebra a\nbasis e1 e2\n[e1,e2] = e2\ntorus h\n"]),
    pieces=st.lists(st.sampled_from(PIECES), max_size=25),
)
def test_every_parse_error_sits_where_the_oracle_puts_a_token(header, pieces):
    """A bad character fails parse exactly as it fails the oracle; any other
    ParseError is at the line and column the oracle gives some token, or at
    the end of input."""
    source = header + "".join(pieces)
    try:
        parse(source)
    except ParseError as exc:
        err = (exc.message, exc.line, exc.col)
    else:
        return
    oracle = _outcome(_oracle_tokens, source)
    if isinstance(oracle, tuple):
        assert ("error",) + err == oracle
    elif err[0].endswith(" (at end of input)"):
        assert err[1:] == (source.count("\n") + 1, 1)
    else:
        assert err[1:] in {(line, col) for _, _, line, col in oracle}


@pytest.mark.parametrize("source, at", [
    ("algebra a\r\nbasis x y # a comment with $ in it\r\n\t[x,y] = 2*x $\r\n", (3, 14)),
    ("\u00b2", (1, 1)),
    ("algebra a\nbasis x\n\t\r\u0661", (3, 3)),
    ("# only a comment $", None),
])
def test_bad_characters_are_positioned_by_characters(source, at):
    if at is None:
        assert _tokenize(source) == [("end", "", len(source))]
        return
    with pytest.raises(ParseError) as info:
        parse(source)
    assert (info.value.line, info.value.col) == at
    assert info.value.message.startswith("unexpected character")
