"""Text format for user-defined Lie algebras, and its canonical printer.

Grammar (token-level, whitespace-insensitive, ``#`` comments to end of line)::

    file        := header basis_decl bracket* torus_block?
    header      := "algebra" IDENT
    basis_decl  := "basis" IDENT+
    bracket     := "[" IDENT "," IDENT "]" "=" linear
    linear      := ["-"] term (("+" | "-") term)* | "0"
    term        := (RATIONAL "*")? IDENT
    torus_block := "torus" IDENT+ bracket*
    RATIONAL    := INT | INT "/" POSINT

Bracket rules in the main section relate declared basis labels; rules after
``torus`` must have a torus label on the left and act on basis labels.  The
parser is total in the sense that every failure is reported as a positioned
:class:`ParseError` (line and column, 1-based; every character, a tab
included, is one column).  A coefficient is parsed as an ``int`` where
integral and as a ``Fraction`` otherwise.

``parse(print_file(f)) == f`` for every :class:`AlgebraFile`,
``build(f)`` is the :class:`~liesymp.analysis.Analysis` of the algebra
``f`` denotes, and :func:`to_file` writes a nilradical with its torus back
as a file, so both directions between torus rules and generator columns
live here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .analysis import Analysis
from .liealg import LieAlgebra, check_dim
from .linalg import as_exact
from .structure import TorusAction

KEYWORDS = ("algebra", "basis", "torus")

Term = tuple[int | Fraction, str]  # (coefficient, label); an int where integral
Rule = tuple[str, str, tuple[Term, ...]]
# (kind, text, offset): kind is "ident", "number", one of "[],=+-*/", or "end"
# for the sentinel after the last token
Token = tuple[str, str, int]

# One alternative per token kind; whitespace and comments match no group.
# \w is exactly str.isalnum() plus "_".  An identifier starts with a letter
# or "_": [^\W\d] also admits the non-decimal numerics ("²", "½"), so the
# non-ASCII branch is checked with str.isalpha.  A number is ASCII digits
# only (str.isdigit also accepts "²" and "١").  Every other character is
# "bad", so the scan skips nothing.
_TOKEN = re.compile(
    r"[ \t\r\n]+|#[^\n]*"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<uident>[^\W\d]\w*)"
    r"|(?P<number>[0-9]+)"
    r"|(?P<punct>[\[\],=+\-*/])"
    r"|(?P<bad>.)"
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _error(source: str, message: str, offset: int) -> ParseError:
    """A ParseError at ``offset``; every character, a tab or "\\r" too, is
    one column."""
    line = source.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - source.rfind("\n", 0, offset))


@dataclass(frozen=True)
class AlgebraFile:
    name: str
    basis: tuple[str, ...]
    brackets: tuple[Rule, ...] = ()
    torus_labels: tuple[str, ...] = ()
    torus_rules: tuple[Rule, ...] = ()


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:
            continue
        text = m.group()
        if kind == "punct":
            kind = text
        elif kind == "uident":
            kind = "ident" if text[0].isalpha() else "bad"
        if kind == "bad":
            raise _error(source, f"unexpected character {text[0]!r}", m.start())
        append((kind, text, m.start()))
    append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def fail(self, message: str, tok: Token | None = None):
        if tok is None:
            tok = self.peek()
        if tok[0] == "end":
            raise ParseError(message + " (at end of input)", self.source.count("\n") + 1, 1)
        raise _error(self.source, message, tok[2])

    def expect(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok[0] != kind:
            self.fail(f"expected {what}", tok)
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.next()
        if tok[0] != "ident" or tok[1] != word:
            self.fail(f"expected keyword {word!r}", tok)
        return tok

    def ident(self, what: str) -> Token:
        tok = self.expect("ident", what)
        if tok[1] in KEYWORDS:
            self.fail(f"{tok[1]!r} is a reserved word and cannot be {what}", tok)
        return tok

    def label_list(self, what: str) -> list[Token]:
        out = []
        while True:
            tok = self.peek()
            if tok[0] != "ident" or tok[1] in KEYWORDS:
                break
            out.append(self.next())
        if not out:
            self.fail(f"expected at least one {what}")
        return out

    def integer(self, tok: Token) -> int:
        try:
            return int(tok[1])
        except ValueError:  # longer than the interpreter's int-string limit
            self.fail(f"number too long ({len(tok[1])} digits)", tok)

    def rational(self) -> int | Fraction:
        num = self.integer(self.expect("number", "a number"))
        if self.at("/"):
            self.next()
            tok = self.expect("number", "a positive denominator")
            den = self.integer(tok)
            if den == 0:
                self.fail("denominator must be positive", tok)
            return as_exact(Fraction(num, den))
        return num

    def linear(self, known: dict[str, int], what: str) -> tuple[Term, ...]:
        # "0" alone denotes the zero combination
        tok = self.peek()
        if tok[1] == "0" and tok[0] == "number" and self.tokens[self.pos + 1][0] not in ("*", "/"):
            self.next()
            return ()
        terms: list[Term] = []
        negative = tok[0] == "-"
        if negative:
            self.next()
        while True:
            terms.append(self._term(negative, known, what))
            kind = self.peek()[0]
            if kind != "+" and kind != "-":
                break
            negative = kind == "-"
            self.next()
        return tuple(terms)

    def _term(self, negative: bool, known: dict[str, int], what: str) -> Term:
        tok = self.peek()
        if tok[0] == "number":
            coeff = self.rational()
            self.expect("*", "'*' between coefficient and label")
        elif tok[0] == "ident":
            coeff = 1
        else:
            self.fail("expected a term", tok)
        label = self.ident("a basis label")
        if label[1] not in known:
            self.fail(f"undeclared {what} {label[1]!r}", label)
        return (-coeff if negative else coeff, label[1])


def parse(source: str) -> AlgebraFile:
    """Parse the text format; raises ParseError with line/column on failure."""
    p = _Parser(source)

    p.expect_keyword("algebra")
    name = p.ident("an algebra name")[1]
    p.expect_keyword("basis")
    basis_index: dict[str, int] = {}
    for tok in p.label_list("basis label"):
        if tok[1] in basis_index:
            p.fail(f"duplicate basis label {tok[1]!r}", tok)
        basis_index[tok[1]] = len(basis_index)
    basis = list(basis_index)

    brackets: list[Rule] = []
    seen_pairs: set[tuple[str, str]] = set()
    while p.at("["):
        brackets.append(_bracket_rule(p, basis_index, seen_pairs))

    torus_labels: list[str] = []
    torus_rules: list[Rule] = []
    tok = p.peek()
    if tok[0] == "ident" and tok[1] == "torus":
        p.next()
        torus_index: dict[str, int] = {}
        for t in p.label_list("torus label"):
            if t[1] in basis_index or t[1] in torus_index:
                p.fail(f"duplicate label {t[1]!r}", t)
            torus_index[t[1]] = len(torus_index)
        torus_labels = list(torus_index)
        seen_torus: set[tuple[str, str]] = set()
        while p.at("["):
            torus_rules.append(_torus_rule(p, basis_index, torus_index, seen_torus))

    tok = p.peek()
    if tok[0] != "end":
        p.fail(f"unexpected {tok[1]!r}", tok)
    return AlgebraFile(name, tuple(basis), tuple(brackets), tuple(torus_labels), tuple(torus_rules))


def _bracket_rule(p: _Parser, basis_index: dict[str, int], seen: set) -> Rule:
    p.expect("[", "'['")
    left = p.ident("a basis label")
    if left[1] not in basis_index:
        p.fail(f"undeclared basis label {left[1]!r}", left)
    p.expect(",", "','")
    right = p.ident("a basis label")
    if right[1] not in basis_index:
        p.fail(f"undeclared basis label {right[1]!r}", right)
    p.expect("]", "']'")
    p.expect("=", "'='")
    terms = p.linear(basis_index, "basis label")
    if left[1] == right[1] and terms:
        p.fail("bracket of a label with itself must be 0", left)
    key = (left[1], right[1])
    if key in seen or (right[1], left[1]) in seen:
        p.fail(f"duplicate bracket rule for [{left[1]},{right[1]}]", left)
    seen.add(key)
    return (left[1], right[1], terms)


def _torus_rule(p: _Parser, basis_index, torus_index, seen: set) -> Rule:
    p.expect("[", "'['")
    left = p.ident("a torus label")
    if left[1] not in torus_index:
        p.fail(f"torus rules must start with a torus label, got {left[1]!r}", left)
    p.expect(",", "','")
    right = p.ident("a basis label")
    if right[1] not in basis_index:
        p.fail(f"torus rules must act on basis labels, got {right[1]!r}", right)
    p.expect("]", "']'")
    p.expect("=", "'='")
    terms = p.linear(basis_index, "basis label")
    key = (left[1], right[1])
    if key in seen:
        p.fail(f"duplicate torus rule for [{left[1]},{right[1]}]", left)
    seen.add(key)
    return (left[1], right[1], terms)


def _format_linear(terms: tuple[Term, ...]) -> str:
    if not terms:
        return "0"
    chunks = []
    for idx, (coeff, label) in enumerate(terms):
        mag = abs(coeff)
        body = label if mag == 1 else f"{mag}*{label}"
        if idx == 0:
            chunks.append(("-" if coeff < 0 else "") + body)
        else:
            chunks.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(chunks)


def print_file(f: AlgebraFile) -> str:
    """Canonical text for an AlgebraFile; parse(print_file(f)) == f."""
    lines = [f"algebra {f.name}", "basis " + " ".join(f.basis)]
    for left, right, terms in f.brackets:
        lines.append(f"[{left},{right}] = {_format_linear(terms)}")
    if f.torus_labels:
        lines.append("torus " + " ".join(f.torus_labels))
        for left, right, terms in f.torus_rules:
            lines.append(f"[{left},{right}] = {_format_linear(terms)}")
    return "\n".join(lines) + "\n"


def build(f: AlgebraFile) -> Analysis:
    """The analysis of the algebra a parsed file denotes: its ``nilradical``
    is the bracket part, ``torus`` the optional torus, and ``algebra`` the
    semidirect product when a torus is present, else the bracket part.

    Raises ValueError when the algebra is larger than
    :data:`liesymp.liealg.MAX_DIM`, the torus block fails the torus axioms
    or the product violates the Jacobi identity; Jacobi on the bracket part
    alone is *not* checked here (``check`` reports it separately).
    """
    n = len(f.basis)
    check_dim(n + len(f.torus_labels))
    index = {lbl: i for i, lbl in enumerate(f.basis)}
    table: dict[tuple[int, int], dict[int, int | Fraction]] = {}
    for left, right, terms in f.brackets:
        i, j = index[left], index[right]
        if i == j:
            continue
        table[(i, j)] = {index[lbl]: c for lbl, c in _combine(terms).items()}
    nil = LieAlgebra(n, table, f.basis)
    if not f.torus_labels:
        return Analysis(nil)
    # [h, e_j] = sum_k c e_k is column j of the generator h
    gens: dict[str, dict] = {lbl: {} for lbl in f.torus_labels}
    for left, right, terms in f.torus_rules:
        gens[left][index[right]] = {index[lbl]: c for lbl, c in _combine(terms).items()}
    torus = TorusAction(nil, tuple(gens.values()), f.torus_labels)
    check = torus.check
    if not check.ok:
        raise ValueError(f"torus block is not a torus action: {check.violation}")
    analysis = Analysis(torus)
    analysis.algebra  # the product is built here, so a Jacobi failure raises here
    return analysis


def to_file(name: str, torus: TorusAction) -> AlgebraFile:
    """The file of the algebra ``torus`` acts on, with the torus block: the
    inverse of :func:`build`, ``build(to_file(name, torus))`` rebuilds the
    same bracket table and generator columns."""
    labels = torus.nilradical.labels

    def linear(comps) -> tuple[Term, ...]:
        return tuple((c, labels[k]) for k, c in sorted(comps.items()))

    brackets = tuple(
        (labels[i], labels[j], linear(comps))
        for (i, j), comps in sorted(torus.nilradical.table.items())
    )
    torus_rules = tuple(
        (label, labels[j], linear(col))
        for label, gen in zip(torus.labels, torus.generators)
        for j, col in sorted(gen.items())
    )
    return AlgebraFile(name, labels, brackets, torus.labels, torus_rules)


def _combine(terms: tuple[Term, ...]) -> dict[str, int | Fraction]:
    out: dict[str, int | Fraction] = {}
    for coeff, label in terms:
        out[label] = out.get(label, 0) + coeff
        if out[label] == 0:
            del out[label]
    return out
