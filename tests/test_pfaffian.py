"""The one Pfaffian recursion against oracles that share no code with it.

``sparsest_row_pfaffian`` expands each minor along its sparsest row, reading
the nonzero entries above the diagonal.  The reference here is the textbook
expansion of the full grid along the first row, with no memo and no choice
of row.  A ``TwoForm`` built from the same grid must agree with both and
give the grid back as its dense view.  ``tests/test_kernel_oracle.py`` checks Pf^2 = det
against sympy.

Polynomial entries reach the recursion packed as integer polynomials by one
packer, ``monomial_pfaffian``, over matrices keyed by sparse monomials: the
decision keys each Z^2 and B^2 basis form by its parameter t_k, and
``TwoForm.pfaffian`` and ``PolyMatrix.pfaffian`` go through
``polynomial_pfaffian``, which splits each entry into its monomials.  The two
ways in are checked against each other and, through polynomials with higher
exponents and Fraction coefficients, against the reference.
"""

import hashlib
import time
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_liealg import sparse_tables

from liesymp.catalog import DEFAULT_SELECTION, build_entry
from liesymp.cli import main
from liesymp.liealg import LieAlgebra
from liesymp.linalg import RationalMatrix
from liesymp.poly import MultiPoly, PolyMatrix, monomial_pfaffian
from liesymp.structure import semidirect
from liesymp.symplectic import TwoForm, cocycle_space, decide_symplectic, generic_cocycle


def first_row_pfaffian(data, zero, one):
    """Pf(A) = sum_j (-1)^(j+1) a_0j Pf(A without rows and columns 0, j)."""

    def pf(active):
        if not active:
            return one
        row, rest = data[active[0]], active[1:]
        total = zero
        for pos, j in enumerate(rest):
            if row[j]:
                term = row[j] * pf(rest[:pos] + rest[pos + 1 :])
                total = total + term if pos % 2 == 0 else total - term
        return total

    return pf(tuple(range(len(data))))


PATTERNS = ("sparse", "dense", "banded", "zero-row")


@st.composite
def skew_grids(draw, entry, zero, max_size=8):
    """An antisymmetric grid of even size 0..max_size whose upper entries
    are drawn by ``entry`` where the pattern puts a nonzero."""
    n = 2 * draw(st.integers(0, max_size // 2))
    pattern = draw(st.sampled_from(PATTERNS))
    width = draw(st.integers(1, 3))
    empty = draw(st.integers(0, max(n - 1, 0)))
    grid = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if pattern == "sparse":
                keep = draw(st.integers(0, 3)) == 0
            elif pattern == "banded":
                keep = j - i <= width
            elif pattern == "zero-row":
                keep = empty not in (i, j)
            else:
                keep = True
            if keep:
                x = draw(entry)
                grid[i][j], grid[j][i] = x, -x
    return tuple(map(tuple, grid))


FRACTIONS = st.builds(Q, st.integers(-5, 5), st.integers(1, 3))

NAMES = ("a", "b", "c")
COEFFICIENTS = st.integers(-50, 50) | st.builds(Q, st.integers(-50, 50), st.integers(1, 7))


@st.composite
def polys(draw):
    """A sum of a constant and up to two terms c * x^e, e from 1 to 3 and c
    an int or a Fraction; the variable tuple is sometimes all of NAMES and
    sometimes one name or none, so the entries have different variable
    tuples.  A packing base too small for the exponents, or a wrong power of
    the common denominator, gives a wrong Pfaffian."""
    p = MultiPoly.constant(draw(COEFFICIENTS))
    for _ in range(draw(st.integers(0, 2))):
        c = draw(COEFFICIENTS)
        i = draw(st.integers(0, len(NAMES) - 1))
        if draw(st.booleans()):
            x = MultiPoly.variables(NAMES)[i]
        else:
            x = MultiPoly.variable(NAMES[i])
        p = p + c * x ** draw(st.integers(1, 3))
    return p


@settings(max_examples=300, deadline=None)
@given(grid=skew_grids(FRACTIONS, Q(0), max_size=10))
def test_rational_pfaffian_matches_first_row_expansion(grid):
    expected = first_row_pfaffian(grid, Q(0), Q(1))
    assert RationalMatrix(grid).pfaffian() == expected
    form = TwoForm(len(grid), grid)
    assert form.pfaffian() == expected
    assert form.entries == grid


@settings(max_examples=150, deadline=None)
@given(grid=skew_grids(polys(), MultiPoly.zero()))
def test_polynomial_pfaffian_matches_first_row_expansion(grid):
    expected = first_row_pfaffian(grid, MultiPoly.zero(), MultiPoly.constant(1))
    assert PolyMatrix(grid).pfaffian() == expected
    form = TwoForm(len(grid), grid)
    assert form.pfaffian() == expected
    assert form.entries == grid


def test_pfaffian_of_edge_shapes():
    assert RationalMatrix([]).pfaffian() == 1
    assert PolyMatrix([]).pfaffian() == 1
    a = MultiPoly.variable("a")
    assert RationalMatrix([[0, 0], [0, 0]]).pfaffian() == 0
    assert PolyMatrix([[0, a], [-a, 0]]).pfaffian() == a
    # the last row is empty, so the Pfaffian is zero whatever the rest holds
    grid = [[0, 1, 2, 0], [-1, 0, 3, 0], [-2, -3, 0, 0], [0, 0, 0, 0]]
    assert RationalMatrix(grid).pfaffian() == 0


def test_pfaffian_sign_when_the_sparsest_row_is_not_first():
    # row 3 holds one entry, so it is expanded first: a_30 = -a_03 at
    # positions p = 3, q = 0 carries the sign (-1)^(3+0)
    grid = [[0, 2, 5, 7], [-2, 0, 3, 0], [-5, -3, 0, 0], [-7, 0, 0, 0]]
    assert RationalMatrix(grid).pfaffian() == 7 * 3
    assert first_row_pfaffian(grid, 0, 1) == 7 * 3


def test_pfaffian_variables_follow_their_first_occurrence():
    # the entries' variable tuples differ, so the result's variable order,
    # and with it the printed order of each term's factors, is the order in
    # which the variables first occur among the upper entries
    p, r, u, w, s = (MultiPoly.variable(v) for v in "pruws")
    zero = MultiPoly.zero()
    grid = [[zero, p, r, u], [-p, zero, w, s], [-r, -w, zero, zero], [-u, -s, zero, zero]]
    pf = PolyMatrix(grid).pfaffian()
    assert pf.vars == ("p", "r", "u", "w", "s")
    assert str(pf) == "-r*s + u*w"


def test_the_packer_keeps_the_top_exponents_apart():
    # s^2 in the decision's linear case and s^4 from the monomial s^2 are
    # the largest exponents, which a base one too small packs onto t's key;
    # the t form's denominators 3 and 2 make the common scale 6, divided
    # back out to the power n/2 = 2
    s, t = MultiPoly.variables(("s", "t"))
    forms = {((0, 1),): {(0, 1): 1, (2, 3): 1}, ((1, 1),): {(0, 2): Q(1, 3), (1, 3): Q(1, 2)}}
    assert monomial_pfaffian(4, forms, ("s", "t")) == s * s - Q(1, 6) * t * t
    forms = {((0, 2),): {(0, 1): 1, (2, 3): 1}, ((1, 1),): {(0, 2): 1, (1, 3): 1}}
    assert monomial_pfaffian(4, forms, ("s", "t")) == s**4 - t * t


BARE_Q29_JSON = """\
{
  "algebra": "Q",
  "diagnostics": [],
  "verdicts": {
    "complete": false,
    "exact": {
      "exists": "no",
      "witness": null
    },
    "maximal_rank": null,
    "symplectic": {
      "conditions": [],
      "exists": "no",
      "pfaffian": "0",
      "witness": null
    }
  }
}
"""


def test_bare_chain_nilradical_does_not_hang(tmp_path, capsys):
    # The dim-30 nilradical of Q n=29: its first rows are dense and its last
    # rows nearly empty.  Expanding along the first row takes 7-8 s on two
    # shared cores and grows about 7x per four dimensions; the sparsest row
    # takes milliseconds.
    assert main(["catalog", "show", "Q", "--set", "n=29"]) == 0
    path = tmp_path / "bare_q29.lie"
    path.write_text(capsys.readouterr().out.split("\ntorus")[0] + "\n")  # cut the torus block
    start = time.perf_counter()
    code = main(["symplectic", str(path), "--json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out == BARE_Q29_JSON
    assert elapsed < 1.5


# -- the two ways into the one packer -----------------------------------------


def _same_pfaffian_both_ways(g: LieAlgebra) -> None:
    """The decision's Pfaffian, packed from the Z^2 basis forms keyed by t_k,
    equals that of the generic closed form split into monomials by
    ``polynomial_pfaffian``, and prints the same."""
    decided = decide_symplectic(g).pfaffian
    general = generic_cocycle(cocycle_space(g)).pfaffian()
    assert decided == general
    assert str(decided) == str(general)


EVEN_ITEMS = [
    (name, params)
    for name, params in list(DEFAULT_SELECTION) + [("Q", {"n": 11}), ("Q", {"n": 13})]
    if build_entry(name, **params).total_dim % 2 == 0
]


@pytest.mark.parametrize("name, params", EVEN_ITEMS)
def test_the_basis_packer_matches_the_general_packer(name, params):
    # Q n=11 and n=13 each have one Z^2 basis form with a Fraction coordinate
    _same_pfaffian_both_ways(semidirect(build_entry(name, **params).torus))


@settings(max_examples=40, deadline=None)
@given(g=sparse_tables())
def test_the_basis_packer_matches_the_general_packer_on_drawn_tables(g):
    assume(g.dim % 2 == 0)
    _same_pfaffian_both_ways(g)


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


@pytest.mark.parametrize("name, params", [("Q", {"n": 13}), ("n6_5", {})])
def test_the_decision_does_no_polynomial_arithmetic(monkeypatch, name, params):
    g = semidirect(build_entry(name, **params).torus)
    calls = []
    for op in ARITHMETIC:
        original = getattr(MultiPoly, op)

        def counted(self, other, op=op, original=original):
            calls.append(op)
            return original(self, other)

        monkeypatch.setattr(MultiPoly, op, counted)
    verdict = decide_symplectic(g)
    assert verdict.exists == "yes"
    assert calls == []
    verdict.pfaffian * verdict.pfaffian  # the counter does count
    assert calls == ["__mul__"]


def test_the_bare_abelian_dim_10_pfaffian_is_pinned():
    # the generic Pfaffian of all 45 two-forms: its packed keys reach
    # 6^45, far wider than 64 bits; the digest is that of the MultiPoly
    # recursion the packed one replaced
    pf = decide_symplectic(LieAlgebra(10)).pfaffian
    assert (len(pf.terms), len(pf.vars)) == (945, 45)
    assert hashlib.sha256(str(pf).encode()).hexdigest()[:16] == "59ad3122d40db9d2"


@pytest.mark.parametrize(
    "n, digest, exact_digest",
    [(11, "3d4b0f1cb264a62a", "63abc2f8aae5cd8e"), (13, "2a2df4fda4aadec0", "6336783650e4b522")],
)
def test_the_chain_pfaffians_with_fraction_coefficients_are_pinned(n, digest, exact_digest):
    # each has one Z^2 basis form with a Fraction coordinate, and its generic
    # Pfaffian has non-integral coefficients, so the form's scale and its
    # powers are divided back out; digests of the MultiPoly recursion the
    # packed one replaced
    verdict = decide_symplectic(semidirect(build_entry("Q", n=n).torus))
    assert any(c.denominator != 1 for c in verdict.pfaffian.terms.values())
    assert hashlib.sha256(str(verdict.pfaffian).encode()).hexdigest()[:16] == digest
    assert hashlib.sha256(str(verdict.exact_pfaffian).encode()).hexdigest()[:16] == exact_digest
