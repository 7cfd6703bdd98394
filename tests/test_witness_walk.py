"""The witness walk against a brute-force enumeration of the same shells.

``find_nonvanishing_point`` walks each max-norm shell depth first and
prunes subtrees; the reference here enumerates every point of a shell in
lexicographic order, evaluates the polynomial on it with integer
arithmetic of its own, and returns the first nonzero point.  The two must
agree exactly shell by shell, including on a shell where the polynomial
vanishes, and the search must end with a witness within the shells
1 .. d // 2 + 1 for d the largest exponent of any variable.
"""

import itertools
import math
import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesymp import symplectic
from liesymp.fileformat import build, parse
from liesymp.poly import MultiPoly, _integer_terms
from liesymp.symplectic import (
    _first_in_shell,
    decide_symplectic,
    find_nonvanishing_point,
)

from monomials import to_dense

VARS = ("x1", "x2", "x3", "x4", "x5")


def _value(terms, names, point):
    """p at point, from the (variable, exponent) pairs of each term."""
    at = dict(zip(names, point))
    total = 0
    for monomial, c in terms:
        val = c
        for name, e in monomial:
            val *= at[name] ** e
        total += val
    return total


def brute_force_shell(p: MultiPoly, names, radius):
    """First point (in lex order) of max-norm ``radius`` where p is nonzero,
    or None.

    The coefficients are scaled to integers first: that keeps the zero set,
    and integer arithmetic keeps the enumeration of up to 7^5 points fast.
    """
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    terms = [
        (tuple((v, e) for v, e in zip(p.vars, exps) if e), int(c * den))
        for exps, c in to_dense(p.terms, len(p.vars)).items()
    ]
    for point in itertools.product(range(-radius, radius + 1), repeat=len(names)):
        if max(abs(v) for v in point) != radius:
            continue
        if _value(terms, names, point) != 0:
            return {nm: Q(v) for nm, v in zip(names, point)}
    return None


def brute_force_point(p: MultiPoly, names, bound):
    """First point (by shell, then lex) where p is nonzero, or None."""
    for radius in range(1, bound + 1):
        point = brute_force_shell(p, names, radius)
        if point is not None:
            return point
    return None


def _degree(p: MultiPoly) -> int:
    """The largest exponent of any variable in p."""
    return max((e for exps in to_dense(p.terms, len(p.vars)) for e in exps), default=0)


def _shell_matches_brute_force(p, names, radius):
    expected = brute_force_shell(p, names, radius)
    got = _first_in_shell(_integer_terms(p, tuple(names)), len(names), radius)
    if expected is None:
        assert got is None
    else:
        assert got == tuple(expected[nm] for nm in names)


@st.composite
def sparse_polys(draw):
    """A product of a few random sparse factors and of factors that vanish
    on whole shells, so shells without a witness happen often."""
    k = draw(st.integers(1, len(VARS)))
    xs = MultiPoly.variables(VARS[:k])
    p = MultiPoly.constant(1)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("sparse", "sparse", "shell", "diagonal", "vanishing")))
        if kind == "sparse":
            factor = MultiPoly.zero()
            for _ in range(draw(st.integers(1, 3))):
                term = MultiPoly.constant(
                    Q(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
                )
                for x in xs:
                    term = term * x ** draw(st.integers(0, 2))
                factor = factor + term
        elif kind == "shell":
            # zero whenever the coordinate lies in -r..r
            x = draw(st.sampled_from(xs))
            factor = x
            for r in range(1, draw(st.integers(1, 2)) + 1):
                factor = factor * (x - r) * (x + r)
        elif kind == "vanishing":
            # x (x^2 - 1) times the sum of the other variables: zero on the
            # whole unit box, which the walk must see without visiting it
            x = draw(st.sampled_from(xs))
            factor = x * (x - 1) * (x + 1)
            rest = [y for y in xs if y is not x]
            if rest:
                factor = factor * sum(rest[1:], rest[0])
        else:
            x, y = draw(st.sampled_from(xs)), draw(st.sampled_from(xs))
            factor = x - y if x is not y else x + 1
        p = p * factor
    names = draw(st.permutations(VARS[:k]))
    return p, tuple(names)


@settings(max_examples=150, deadline=None)
@given(case=sparse_polys(), radius=st.integers(1, 3))
def test_walk_matches_brute_force_enumeration(case, radius):
    p, names = case
    if not p.is_zero():
        _shell_matches_brute_force(p, names, radius)


@settings(max_examples=150, deadline=None)
@given(case=sparse_polys())
def test_search_finds_a_witness_within_the_derived_radius(case):
    p, names = case
    if p.is_zero():
        return
    expected = brute_force_point(p, names, _degree(p) // 2 + 1)
    assert expected is not None
    assert find_nonvanishing_point(p, names) == expected


def test_walk_matches_brute_force_on_hand_picked_cases():
    x, y, z = MultiPoly.variables(["x", "y", "z"])
    cases = [
        (x * y, ("x", "y")),
        ((x - 1) * (x + 1) * x, ("x",)),  # zero on all of shell 1
        (MultiPoly.constant(3), ("x", "y", "z")),  # no variable occurs
        (z, ("x", "y", "z")),  # x and y do not occur
        (x * (y - 1) * (y + 1) * y + z, ("x", "y", "z")),
        ((x - y) * (y - z) * (x - z), ("x", "y", "z")),
        (x * x - y * y, ("y", "x")),
    ]
    for p, names in cases:
        for radius in (1, 2, 3):
            _shell_matches_brute_force(p, names, radius)
        expected = brute_force_point(p, names, _degree(p) // 2 + 1)
        assert find_nonvanishing_point(p, names) == expected


@pytest.mark.parametrize("r", range(1, 6))
def test_derived_radius_is_tight(r):
    # x (x - 1)(x + 1) ... (x - r)(x + r) has degree 2r + 1 and vanishes on
    # every shell up to r, so its witness sits on the last shell searched
    (x,) = MultiPoly.variables(["x"])
    p = x
    for v in range(1, r + 1):
        p = p * (x - v) * (x + v)
    terms = _integer_terms(p, ("x",))
    assert all(_first_in_shell(terms, 1, radius) is None for radius in range(1, r + 1))
    assert _degree(p) // 2 + 1 == r + 1
    assert find_nonvanishing_point(p, ("x",)) == {"x": -(r + 1)}


def test_search_past_the_derived_radius_is_an_internal_error(monkeypatch):
    # a walk that missed every witness contradicts the grid lemma: it is a
    # bug, never an input error
    (x,) = MultiPoly.variables(["x"])
    monkeypatch.setattr(symplectic, "_first_in_shell", lambda terms, m, radius: None)
    with pytest.raises(AssertionError, match=r"shells 1\.\.2"):
        find_nonvanishing_point(x * x * x, ("x",))


def test_walk_rejects_unnamed_variables():
    x, y = MultiPoly.variables(["x", "y"])
    with pytest.raises(ValueError, match="no value for variable"):
        find_nonvanishing_point(x * y, ("x",))


def test_walk_over_no_names_needs_a_constant():
    # with no names a point is the empty assignment, which gives x no value
    for names in ((), ("y",)):
        with pytest.raises(ValueError, match="no value for variable"):
            find_nonvanishing_point(MultiPoly.variable("x"), names)
    assert find_nonvanishing_point(MultiPoly.constant(Q(3, 2)), ()) == {}


@settings(max_examples=100, deadline=None)
@given(case=sparse_polys(), data=st.data())
def test_integer_terms_in_declared_and_permuted_order(case, data):
    """In the declared order the terms are kept as they are (scaled to
    integers); a permutation of the variables permutes every exponent tuple."""
    p = case[0]
    names = tuple(data.draw(st.permutations(p.vars)))
    width = len(p.vars)
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    for terms in (_integer_terms(p, p.vars), _integer_terms(p, names)):
        # the walk reads mono[0] as the lowest index a monomial holds
        assert all(
            [k for k, _ in mono] == sorted({k for k, _ in mono}) and all(e > 0 for _, e in mono)
            for mono in terms
        )
    declared = to_dense(_integer_terms(p, p.vars), width)
    assert declared == {exps: int(c * den) for exps, c in to_dense(p.terms, width).items()}
    assert all(type(c) is int for c in declared.values())
    order = [p.vars.index(v) for v in names]
    permuted = {tuple(exps[i] for i in order): c for exps, c in declared.items()}
    assert to_dense(_integer_terms(p, names), width) == permuted


def test_deep_witness_among_many_parameters_is_found_fast():
    # 24 parameters; the product vanishes whenever an even-indexed one is -1,
    # so the lex-first point of shell 1 sits past more than 3**23 points of
    # the shell that an enumeration would visit first.
    m = 24
    names = tuple(f"t{i + 1}" for i in range(m))
    ts = MultiPoly.variables(names)
    p = MultiPoly.constant(1)
    for t in ts[1::2]:
        p = p * (t + 1)
    start = time.perf_counter()
    point = find_nonvanishing_point(p, names)
    elapsed = time.perf_counter() - start
    assert point == {nm: Q(-1 if i % 2 == 0 else 0) for i, nm in enumerate(names)}
    assert elapsed < 5


def test_factor_vanishing_on_the_box_in_a_late_variable_is_pruned():
    # x_k (x_k^2 - 1) (x_1 + ... + x_{k-1}) is zero on all of shell 1, and
    # only its last variable shows it: without looking ahead the walk would
    # visit every prefix of shell 1 (about 3^k nodes) before reaching shell 2.
    k = 20
    names = tuple(f"x{i + 1}" for i in range(k))
    xs = MultiPoly.variables(names)
    p = xs[-1] * (xs[-1] - 1) * (xs[-1] + 1) * sum(xs[1:-1], xs[0])
    start = time.perf_counter()
    point = find_nonvanishing_point(p, names)
    elapsed = time.perf_counter() - start
    assert point == {nm: Q(-2) for nm in names}
    assert elapsed < 1


# A generated nilpotent algebra with 33 closed-form parameters and a
# 90-term Pfaffian in 30 of them; its witness is the 6,562nd point of shell 1
# in lex order.  The frozen matrix is what the exhaustive enumeration returned.
DEEP_WITNESS = """\
algebra core_008
basis e1 e2 e3 e4 e5 e6 e7 e8 e9 e10
[e1,e5] = 2*e10
[e4,e5] = 2*e8
"""

DEEP_WITNESS_MATRIX = (
    (0, -1, -1, -1, -1, -1, -1, 0, -1, -1),
    (1, 0, -1, -1, -1, -1, -1, 0, -1, 0),
    (1, 1, 0, -1, -1, -1, -1, 0, -1, 0),
    (1, 1, 1, 0, -1, -1, -1, -1, -1, 0),
    (1, 1, 1, 1, 0, -1, -1, -1, -1, -1),
    (1, 1, 1, 1, 1, 0, -1, 0, -1, 0),
    (1, 1, 1, 1, 1, 1, 0, 0, -1, 0),
    (0, 0, 0, 1, 1, 0, 0, 0, 0, 0),
    (1, 1, 1, 1, 1, 1, 1, 0, 0, 0),
    (1, 0, 0, 0, 1, 0, 0, 0, 0, 0),
)


def test_deep_witness_of_a_generated_algebra_is_frozen():
    g = build(parse(DEEP_WITNESS)).algebra
    start = time.perf_counter()
    verdict = decide_symplectic(g)
    elapsed = time.perf_counter() - start
    assert verdict.cocycles.dims[0] == 33
    assert len(verdict.pfaffian.terms) == 90
    assert len(verdict.pfaffian.used_vars()) == 30
    assert verdict.witness.entries == tuple(
        tuple(Q(x) for x in row) for row in DEEP_WITNESS_MATRIX
    )
    assert elapsed < 5
