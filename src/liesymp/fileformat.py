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
:class:`ParseError` (line and column, 1-based).

``parse(print_file(f)) == f`` for every :class:`AlgebraFile`, and
``build(f)`` is the :class:`~liesymp.analysis.Analysis` of the algebra
``f`` denotes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import Analysis
from .liealg import LieAlgebra, check_dim
from .linalg import Q, RationalMatrix
from .structure import TorusAction

KEYWORDS = ("algebra", "basis", "torus")
DIGITS = "0123456789"  # INT is ASCII; str.isdigit also accepts "²" and "١"

Term = tuple[Fraction, str]
Rule = tuple[str, str, tuple[Term, ...]]


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class AlgebraFile:
    name: str
    basis: tuple[str, ...]
    brackets: tuple[Rule, ...] = ()
    torus_labels: tuple[str, ...] = ()
    torus_rules: tuple[Rule, ...] = ()


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "number" | one of "[],=+-*/"
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("ident", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in DIGITS:
            j = i
            while j < n and source[j] in DIGITS:
                j += 1
            tokens.append(Token("number", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "[],=+-*/":
            tokens.append(Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], source_len_line: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = source_len_line

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        if tok is None:
            tok = self.peek()
        if tok is None:
            raise ParseError(message + " (at end of input)", self.end_line, 1)
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok is None or tok.kind != kind:
            self.fail(f"expected {what}", tok)
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.next()
        if tok is None or tok.kind != "ident" or tok.text != word:
            self.fail(f"expected keyword {word!r}", tok)
        return tok

    def ident(self, what: str) -> Token:
        tok = self.expect("ident", what)
        if tok.text in KEYWORDS:
            self.fail(f"{tok.text!r} is a reserved word and cannot be {what}", tok)
        return tok

    def label_list(self, what: str) -> list[Token]:
        out = []
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "ident" or tok.text in KEYWORDS:
                break
            out.append(self.next())
        if not out:
            self.fail(f"expected at least one {what}")
        return out

    def rational(self) -> Fraction:
        num = self.expect("number", "a number")
        if self.peek() is not None and self.peek().kind == "/":
            self.next()
            den = self.expect("number", "a positive denominator")
            if int(den.text) == 0:
                self.fail("denominator must be positive", den)
            return Fraction(int(num.text), int(den.text))
        return Fraction(int(num.text))

    def linear(self, known: dict[str, int], what: str) -> tuple[Term, ...]:
        # "0" alone denotes the zero combination
        tok = self.peek()
        if tok is not None and tok.kind == "number" and tok.text == "0":
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt is None or nxt.kind not in ("*", "/"):
                self.next()
                return ()
        terms: list[Term] = []
        sign = Q(1)
        if tok is not None and tok.kind == "-":
            self.next()
            sign = Q(-1)
        while True:
            terms.append(self._term(sign, known, what))
            tok = self.peek()
            if tok is not None and tok.kind in ("+", "-"):
                sign = Q(1) if tok.kind == "+" else Q(-1)
                self.next()
                continue
            break
        return tuple(terms)

    def _term(self, sign: Fraction, known: dict[str, int], what: str) -> Term:
        tok = self.peek()
        if tok is None:
            self.fail("expected a term")
        if tok.kind == "number":
            coeff = self.rational()
            self.expect("*", "'*' between coefficient and label")
            label = self.ident("a basis label")
        elif tok.kind == "ident":
            coeff = Q(1)
            label = self.ident("a basis label")
        else:
            self.fail("expected a term", tok)
        if label.text not in known:
            self.fail(f"undeclared {what} {label.text!r}", label)
        return (sign * coeff, label.text)


def parse(source: str) -> AlgebraFile:
    """Parse the text format; raises ParseError with line/column on failure."""
    end_line = source.count("\n") + 1
    p = _Parser(_tokenize(source), end_line)

    p.expect_keyword("algebra")
    name = p.ident("an algebra name").text
    p.expect_keyword("basis")
    basis_index: dict[str, int] = {}
    for tok in p.label_list("basis label"):
        if tok.text in basis_index:
            p.fail(f"duplicate basis label {tok.text!r}", tok)
        basis_index[tok.text] = len(basis_index)
    basis = list(basis_index)

    brackets: list[Rule] = []
    seen_pairs: set[tuple[str, str]] = set()
    while p.peek() is not None and p.peek().kind == "[":
        brackets.append(_bracket_rule(p, basis_index, seen_pairs))

    torus_labels: list[str] = []
    torus_rules: list[Rule] = []
    tok = p.peek()
    if tok is not None and tok.kind == "ident" and tok.text == "torus":
        p.next()
        torus_index: dict[str, int] = {}
        for t in p.label_list("torus label"):
            if t.text in basis_index or t.text in torus_index:
                p.fail(f"duplicate label {t.text!r}", t)
            torus_index[t.text] = len(torus_index)
        torus_labels = list(torus_index)
        seen_torus: set[tuple[str, str]] = set()
        while p.peek() is not None and p.peek().kind == "[":
            torus_rules.append(_torus_rule(p, basis_index, torus_index, seen_torus))

    tok = p.peek()
    if tok is not None:
        p.fail(f"unexpected {tok.text!r}", tok)
    return AlgebraFile(name, tuple(basis), tuple(brackets), tuple(torus_labels), tuple(torus_rules))


def _bracket_rule(p: _Parser, basis_index: dict[str, int], seen: set) -> Rule:
    p.expect("[", "'['")
    left = p.ident("a basis label")
    if left.text not in basis_index:
        p.fail(f"undeclared basis label {left.text!r}", left)
    p.expect(",", "','")
    right = p.ident("a basis label")
    if right.text not in basis_index:
        p.fail(f"undeclared basis label {right.text!r}", right)
    p.expect("]", "']'")
    p.expect("=", "'='")
    terms = p.linear(basis_index, "basis label")
    if left.text == right.text and terms:
        p.fail("bracket of a label with itself must be 0", left)
    key = (left.text, right.text)
    if key in seen or (right.text, left.text) in seen:
        p.fail(f"duplicate bracket rule for [{left.text},{right.text}]", left)
    seen.add(key)
    return (left.text, right.text, terms)


def _torus_rule(p: _Parser, basis_index, torus_index, seen: set) -> Rule:
    p.expect("[", "'['")
    left = p.ident("a torus label")
    if left.text not in torus_index:
        p.fail(f"torus rules must start with a torus label, got {left.text!r}", left)
    p.expect(",", "','")
    right = p.ident("a basis label")
    if right.text not in basis_index:
        p.fail(f"torus rules must act on basis labels, got {right.text!r}", right)
    p.expect("]", "']'")
    p.expect("=", "'='")
    terms = p.linear(basis_index, "basis label")
    key = (left.text, right.text)
    if key in seen:
        p.fail(f"duplicate torus rule for [{left.text},{right.text}]", left)
    seen.add(key)
    return (left.text, right.text, terms)


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
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for left, right, terms in f.brackets:
        i, j = index[left], index[right]
        if i == j:
            continue
        table[(i, j)] = {index[lbl]: c for lbl, c in _combine(terms).items()}
    nil = LieAlgebra(n, table, f.basis)
    if not f.torus_labels:
        return Analysis(nil)
    gens = []
    for t_idx, t_label in enumerate(f.torus_labels):
        m = [[Q(0)] * n for _ in range(n)]
        for left, right, terms in f.torus_rules:
            if left != t_label:
                continue
            j = index[right]
            for lbl, c in _combine(terms).items():
                m[index[lbl]][j] += c
        gens.append(RationalMatrix(m))
    torus = TorusAction(nil, tuple(gens), f.torus_labels)
    check = torus.check
    if not check.ok:
        raise ValueError(f"torus block is not a torus action: {check.violation}")
    analysis = Analysis(torus)
    analysis.algebra  # the product is built here, so a Jacobi failure raises here
    return analysis


def _combine(terms: tuple[Term, ...]) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for coeff, label in terms:
        out[label] = out.get(label, Q(0)) + coeff
        if out[label] == 0:
            del out[label]
    return out
