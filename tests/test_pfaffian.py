"""The one Pfaffian recursion against oracles that share no code with it.

``sparsest_row_pfaffian`` expands each minor along its sparsest row, reading
the nonzero entries above the diagonal.  The reference here is the textbook
expansion of the full grid along the first row, with no memo and no choice
of row.  A ``TwoForm`` built from the same grid must agree with both and
give the grid back as its dense view.  ``tests/test_kernel_oracle.py`` checks Pf^2 = det
against sympy.
"""

import time
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from liesymp.cli import main
from liesymp.linalg import RationalMatrix
from liesymp.poly import MultiPoly, PolyMatrix
from liesymp.symplectic import TwoForm


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


@st.composite
def polys(draw):
    """A sum of a constant and up to two variable terms; the variable tuple
    is sometimes all of NAMES and sometimes one name or none, so the
    recursion adds and multiplies across different variable tuples."""
    p = MultiPoly.constant(draw(st.integers(-2, 2)))
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.integers(-2, 2))
        i = draw(st.integers(0, len(NAMES) - 1))
        if draw(st.booleans()):
            x = MultiPoly.variables(NAMES)[i]
        else:
            x = MultiPoly.variable(NAMES[i])
        p = p + c * x
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
    pf = PolyMatrix(grid).pfaffian()
    assert pf == expected
    assert PolyMatrix(grid).determinant() == expected * expected
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
