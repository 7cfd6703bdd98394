"""Sparse polynomial arithmetic and the symbolic Pfaffian."""

import random
import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesymp.poly import MultiPoly, PolyMatrix, poly_divides, poly_divmod
from liesymp.symplectic import find_nonvanishing_point

from monomials import to_dense, to_sparse


def _random_poly(rng, names=("x", "y", "z"), terms=4, degree=3):
    out = MultiPoly.zero()
    for _ in range(rng.randrange(terms + 1)):
        coeff = Q(rng.randrange(-6, 7), rng.randrange(1, 4))
        mono = MultiPoly.constant(coeff)
        for name in names:
            mono = mono * MultiPoly.variable(name) ** rng.randrange(degree)
        out = out + mono
    return out


def test_construction_and_equality():
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    assert x + y == y + x
    assert (x - x).is_zero()
    assert MultiPoly.constant(0).is_zero()
    assert x * 0 == MultiPoly.zero()
    # equality ignores variables that never occur
    widened = MultiPoly(("x", "y"), {((0, 1),): Q(1)})
    assert widened == x
    assert hash(widened) == hash(x)


def test_a_repeated_variable_name_is_rejected():
    # x - x over ("x", "x") would print "x*x - 1" and not be zero
    with pytest.raises(ValueError, match="repeated variable name"):
        MultiPoly(("x", "x"), {((0, 1),): 1, ((1, 1),): -1})
    with pytest.raises(ValueError, match="repeated variable name"):
        MultiPoly.variables(("x", "y", "x"))
    with pytest.raises(ValueError, match="repeated variable name"):
        find_nonvanishing_point(MultiPoly.variable("x"), ("x", "x"))
    assert MultiPoly(("x", "y"), {((0, 1),): 1, ((1, 1),): -1}) != 0


@pytest.mark.parametrize(
    "key",
    [
        ((0, -1),),  # a negative exponent
        ((0, 1.5),),  # exponents are ints
        ((0, Q(1)),),
        ((0, True),),
        ((1, 1),),  # an index outside range(len(vars))
        ((-1, 1),),
        ((0, 1), (0, 2)),  # a repeated index
        ((0, 1), (0, 0)),
        (-1,),  # a dense exponent tuple is no monomial
        (1.5,),
        ((0, 1, 2),),
        ("x",),
    ],
)
def test_the_constructor_rejects_a_bad_monomial(key):
    # x^-1 and x^1.5 are no polynomial terms: the printer and the witness
    # search's degree bound assume nonnegative int exponents
    with pytest.raises(ValueError, match=r"^monomial .* is not a tuple of \(variable index, exponent\) pairs"):
        MultiPoly(("x",), {key: 1})
    with pytest.raises(ValueError, match=r"^monomial "):
        MultiPoly(("x",), {key: 0})  # a zero coefficient does not excuse its key


def test_the_constructor_sorts_pairs_and_drops_zero_exponents():
    p = MultiPoly(("x", "y", "z"), {((2, 1), (0, 3), (1, 0)): 2, ((1, 0),): 5, (): -1})
    assert p.terms == {((0, 3), (2, 1)): 2, (): 4}
    assert str(p) == "2*x^3*z + 4" and p.used_vars() == ("x", "z")
    # keys that name the same monomial add up, and a zero sum is dropped
    q = MultiPoly(
        ("x", "y"),
        {((1, 1), (0, 1)): 1, ((0, 1), (1, 1)): Q(1, 2), ((0, 2),): 1, ((0, 2), (1, 0)): -1},
    )
    assert q.terms == {((0, 1), (1, 1)): Q(3, 2)}


def test_ring_laws_randomized():
    rng = random.Random(7)
    for _ in range(60):
        p = _random_poly(rng)
        q = _random_poly(rng)
        r = _random_poly(rng)
        assert (p + q) - q == p
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_pow_and_scalars():
    x = MultiPoly.variable("x")
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert (x + 1) ** 0 == MultiPoly.constant(1)
    assert 2 * x - x == x
    with pytest.raises(ValueError):
        x ** -1


def test_evaluate():
    x, y = MultiPoly.variables(["x", "y"])
    p = x * x - 2 * x * y
    assert p.evaluate({"x": Q(1), "y": Q(1)}) == -1
    assert MultiPoly.zero().evaluate({}) == 0
    assert MultiPoly.variable("x").evaluate({"x": Q(3, 2)}) == Q(3, 2)
    with pytest.raises(ValueError):
        p.evaluate({"x": Q(1)})
    # unused variables need no value
    assert (x * 0 + y).evaluate({"y": Q(2)}) == 2


def test_divides_examples():
    x, y = MultiPoly.variables(["x", "y"])
    assert poly_divides(x, x * x * y)
    assert poly_divides(x + y, x * x - y * y)
    assert not poly_divides(x, x + 1)
    with pytest.raises(ZeroDivisionError):
        poly_divides(MultiPoly.zero(), x)


def test_divides_reconstructs_product():
    rng = random.Random(99)
    for _ in range(40):
        d = _random_poly(rng)
        q = _random_poly(rng)
        if d.is_zero():
            continue
        p = d * q
        quot, rem = poly_divmod(p, d)
        assert rem.is_zero()
        assert quot * d == p
        assert poly_divides(d, p)


def _from_sympy(expr, gens) -> MultiPoly:
    import sympy

    terms = sympy.Poly(expr, *gens).terms()
    return MultiPoly([str(g) for g in gens], to_sparse({e: Q(int(c.p), int(c.q)) for e, c in terms}))


@pytest.mark.parametrize(
    "p, d",
    [
        ("(2*x**2 - 3*y) * (x*y - 1)", "2*x**2 - 3*y"),  # divides: the quotient is x*y - 1
        ("x**3 + y", "2*x**2 + y"),  # the quotient x/2 leaves -x*y/2 + y
        ("3*x**2*y + x*y**2 - 5", "x + y"),  # two quotient terms leave 2*y**3 - 5
    ],
    ids=["dividing", "half-quotient", "non-dividing"],
)
def test_divmod_matches_sympy_div(p, d):
    """Quotient and remainder against sympy's ``div`` on int coefficients,
    on cases where its recursive division in x agrees with graded-lex
    division: a remainder whose leading term no leading term of d divides."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x y")
    env = dict(zip(("x", "y"), gens))
    ps, ds = sympy.sympify(p, locals=env), sympy.sympify(d, locals=env)
    q_expected, r_expected = sympy.div(ps, ds, *gens)
    quot, rem = poly_divmod(_from_sympy(ps, gens), _from_sympy(ds, gens))
    assert quot == _from_sympy(q_expected, gens) and rem == _from_sympy(r_expected, gens)
    assert quot * _from_sympy(ds, gens) + rem == _from_sympy(ps, gens)
    for r in (quot, rem):
        assert all(type(c) in (int, Q) for c in r.terms.values())
    assert poly_divides(_from_sympy(ds, gens), _from_sympy(ps, gens)) == (r_expected == 0)


def test_string_form_is_graded_lex():
    x, y = MultiPoly.variables(["x", "y"])
    p = y + x * x * y - 2 * x
    assert str(p) == "x^2*y - 2*x + y"
    assert str(MultiPoly.zero()) == "0"
    assert str(MultiPoly.constant(Q(-3, 2))) == "-3/2"


LETTERS = ("w", "x", "y", "z")


def _monomials_in_print_order(text: str, names) -> list[tuple[int, ...]]:
    """The dense exponent tuples of the terms of ``str(p)``, in printed order."""
    out = []
    for chunk in re.split(r" [+-] ", text.lstrip("-")):
        exps = dict.fromkeys(names, 0)
        for factor in chunk.split("*"):
            name, _, e = factor.partition("^")
            if name in exps:
                exps[name] = int(e or 1)
        out.append(tuple(exps.values()))
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_print_order_matches_sympy_grlex(data):
    """Over 3 or 4 variables in any declared order, str(p) lists the terms
    as sympy's ``Poly.terms(order="grlex")`` does: x*z before y^2 over
    (x, y, z), which two variables cannot show."""
    sympy = pytest.importorskip("sympy")
    names = tuple(data.draw(st.permutations(LETTERS[: data.draw(st.integers(3, 4))])))
    terms = data.draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 3) for _ in names]),
            st.sampled_from((Q(1), Q(-1), Q(3), Q(-5, 2))),
            min_size=1,
            max_size=8,
        )
    )
    p = MultiPoly(names, to_sparse(terms))
    expected = sympy.Poly.from_dict(terms, *sympy.symbols(names)).terms(order="grlex")
    assert _monomials_in_print_order(str(p), names) == [m for m, _ in expected]


DIVISION_TERMS = st.dictionaries(
    st.tuples(*[st.integers(0, 2) for _ in range(3)]),
    st.sampled_from((Q(1), Q(-1), Q(2), Q(-3), Q(1, 2))),
    max_size=3,
)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), with_rest=st.booleans())
def test_divides_matches_sympy_reduced(data, with_rest):
    """poly_divides(d, p) against sympy's graded-lex reduction of p by d, on
    p = d*q and p = d*q + r, with d declared over a permuted variable tuple;
    one divisor is a Groebner basis, so d divides p iff the remainder is 0."""
    sympy = pytest.importorskip("sympy")
    names = ("x", "y", "z")
    gens = sympy.symbols(names)
    dd = data.draw(DIVISION_TERMS.filter(bool))
    qd = data.draw(DIVISION_TERMS)
    rd = data.draw(DIVISION_TERMS) if with_rest else {}
    order = data.draw(st.permutations(range(3)))
    d = MultiPoly(
        [names[i] for i in order], to_sparse({tuple(e[i] for i in order): c for e, c in dd.items()})
    )
    p = d * MultiPoly(names, to_sparse(qd)) + MultiPoly(names, to_sparse(rd))

    def expr(terms):
        return sympy.Poly.from_dict(terms or {(0, 0, 0): 0}, *gens).as_expr()

    ps = expr(dd) * expr(qd) + expr(rd)
    remainder = sympy.reduced(ps, [expr(dd)], *gens, order="grlex")[1]
    assert poly_divides(d, p) == (remainder == 0)


def _grlex_dense(r: MultiPoly, names) -> dict[tuple[int, ...], Q]:
    """The terms of r keyed by dense exponent tuples over ``names``."""
    return {
        tuple(dict(zip(r.vars, exps)).get(v, 0) for v in names): c
        for exps, c in to_dense(r.terms, len(r.vars)).items()
    }


@settings(max_examples=80, deadline=None)
@given(data=st.data(), with_rest=st.booleans())
def test_divmod_is_the_textbook_division(data, with_rest):
    """p = quot*d + rem, no term of rem is a multiple of the leading term of
    d, and quot and rem are those of sympy's graded-lex reduction of p by d,
    with d declared over a permuted variable tuple: as one divisor is a
    Groebner basis, rem is the normal form, which a division that stops at
    the first irreducible term does not reach."""
    sympy = pytest.importorskip("sympy")
    names = ("x", "y", "z")
    gens = sympy.symbols(names)
    dd = data.draw(DIVISION_TERMS.filter(bool))
    qd = data.draw(DIVISION_TERMS)
    rd = data.draw(DIVISION_TERMS) if with_rest else {}
    order = data.draw(st.permutations(range(3)))
    d = MultiPoly(
        [names[i] for i in order], to_sparse({tuple(e[i] for i in order): c for e, c in dd.items()})
    )

    def expr(terms):
        return sympy.Poly.from_dict(terms or {(0, 0, 0): 0}, *gens).as_expr()

    ps = sympy.expand(expr(dd) * expr(qd) + expr(rd))
    p = _from_sympy(ps, gens)
    quot, rem = poly_divmod(p, d)
    assert quot * d + rem == p
    lead = max(dd, key=lambda e: (sum(e), e))
    assert not any(
        all(a >= b for a, b in zip(exps, lead)) for exps in _grlex_dense(rem, names)
    )
    q_expected, r_expected = sympy.reduced(ps, [expr(dd)], *gens, order="grlex")
    # sympy lists no quotient for p = 0
    assert quot == _from_sympy(q_expected[0] if q_expected else 0, gens)
    assert rem == _from_sympy(r_expected, gens)


def test_constant_and_zero_store_what_the_validating_constructor_stores():
    """Built unchecked, a constant still holds an int where integral, a
    Fraction otherwise, and no term for zero, read from any value the
    validating constructor takes."""
    for value in (3, -1, 0, Q(4, 2), Q(-5, 2), "3/4", "6/3", "0", True):
        built, validated = MultiPoly.constant(value), MultiPoly((), {(): value})
        assert built.vars == validated.vars == ()
        assert built.terms == validated.terms
        assert [type(c) for c in built.terms.values()] == [type(c) for c in validated.terms.values()]
    assert MultiPoly.zero().vars == () and MultiPoly.zero().terms == {}
    with pytest.raises(TypeError):
        MultiPoly.constant(0.5)


def test_a_constant_hashes_as_its_value():
    """A constant polynomial equals its value, so it hashes as one: a set or
    a dict key that mixes them holds one element."""
    x = MultiPoly.variable("x")
    for value in (3, Q(-5, 2), 0):
        constant = MultiPoly.constant(value)
        assert constant == value and hash(constant) == hash(value)
        assert len({constant, value}) == 1 and {value: 1}[constant] == 1
        # a constant over declared variables is the same constant
        over_x = MultiPoly(("x",), {(): value})
        assert over_x == constant and hash(over_x) == hash(value)
    assert hash(x - x) == hash(0) and len({x, x * 1}) == 1


def test_pfaffian_structure_errors():
    a, b = MultiPoly.variables(["a", "b"])
    for grid in ([[0, a], [a, 0]], [[0, a], [-b, 0]], [[a, 0], [0, -a]]):
        bad = PolyMatrix(grid)
        assert not bad.is_antisymmetric()
        with pytest.raises(ValueError, match=r"^pfaffian requires an antisymmetric matrix$"):
            bad.pfaffian()
    # a mirror over another variable tuple is still antisymmetric
    assert PolyMatrix([[0, a], [MultiPoly(("b", "a"), {((1, 1),): Q(-1)}), 0]]).is_antisymmetric()
    with pytest.raises(ValueError):
        PolyMatrix([[0]]).pfaffian()  # odd size


def test_pfaffian_2x2_and_4x4():
    a, b, c, d, e, f = MultiPoly.variables(list("abcdef"))
    assert PolyMatrix([[0, a], [-a, 0]]).pfaffian() == a
    m = PolyMatrix(
        [[0, a, b, c], [-a, 0, d, e], [-b, -d, 0, f], [-c, -e, -f, 0]]
    )
    assert m.pfaffian() == a * f - b * e + c * d


def _cofactor_determinant(grid) -> MultiPoly:
    """Independent oracle: naive cofactor expansion of a square grid of
    polynomials, no antisymmetry shortcut."""

    def det(rows: tuple[int, ...], cols: tuple[int, ...]) -> MultiPoly:
        if not rows:
            return MultiPoly.constant(1)
        r = rows[0]
        total = MultiPoly.zero()
        for pos, c in enumerate(cols):
            entry = grid[r][c]
            if not entry:
                continue
            sub = det(rows[1:], tuple(x for x in cols if x != c))
            term = entry * sub
            total = total + term if pos % 2 == 0 else total - term
        return total

    return det(tuple(range(len(grid))), tuple(range(len(grid))))


def test_pfaffian_squared_is_determinant_symbolic():
    rng = random.Random(3)
    for n in (2, 4, 6):
        upper = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    continue
                upper[(i, j)] = MultiPoly.variable(f"v{i}{j}")
        grid = [[MultiPoly.zero() for _ in range(n)] for _ in range(n)]
        for (i, j), v in upper.items():
            grid[i][j] = v
            grid[j][i] = -v
        pf = PolyMatrix(grid).pfaffian()
        # the cofactor oracle shares nothing with the Pfaffian recursion
        assert pf * pf == _cofactor_determinant(grid)


def test_determinant_cofactor_general():
    # the oracle of the Pf^2 = det checks expands any square grid, not only
    # an antisymmetric one
    x, y = MultiPoly.variables(["x", "y"])
    one = MultiPoly.constant(1)
    assert _cofactor_determinant([[x, one], [one, x]]) == x * x - 1
    assert _cofactor_determinant([[x, y, 0 * x], [one, x, y], [0 * x, one, x]]) == (
        x * x * x - 2 * x * y
    )


# -- the arithmetic keeps the invariants the validating constructor enforces --

MIXED_VARS = (("x", "y", "z"), ("y", "x"), ("z",), ())


@st.composite
def mixed_polys(draw):
    """A polynomial over one of MIXED_VARS, with terms drawn to cancel
    against those of other draws (few exponents, few coefficients)."""
    names = draw(st.sampled_from(MIXED_VARS))
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2) for _ in names]),
            st.sampled_from((Q(1), Q(-1), Q(2), Q(-1, 2))),
            max_size=4,
        )
    )
    return MultiPoly(names, to_sparse(terms))


def _rebuilt(p: MultiPoly) -> MultiPoly:
    return MultiPoly(p.vars, dict(p.terms))


def _reference(op: str, p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p op q the long way: both sides moved onto the merged variable tuple
    (p's variables, then q's new ones), combined term by term, and passed
    through the validating constructor, which drops zero coefficients."""
    merged = p.vars + tuple(v for v in q.vars if v not in p.vars)

    def moved(r):
        return {
            tuple(dict(zip(r.vars, exps)).get(v, 0) for v in merged): c
            for exps, c in to_dense(r.terms, len(r.vars)).items()
        }

    a, b = moved(p), moved(q)
    out = {}
    if op == "+":
        for terms in (a, b):
            for exps, c in terms.items():
                out[exps] = out.get(exps, 0) + c
    else:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                exps = tuple(x + y for x, y in zip(e1, e2))
                out[exps] = out.get(exps, 0) + c1 * c2
    return MultiPoly(merged, to_sparse(out))


def _holds_invariants(p: MultiPoly) -> bool:
    """Nonzero int or Fraction coefficients, each keyed by sorted distinct
    variable indices in range with positive int exponents."""
    return all(
        type(c) in (int, Q) and c != 0
        and [k for k, _ in mono] == sorted({k for k, _ in mono})
        and all(type(k) is int and 0 <= k < len(p.vars) and type(e) is int and e > 0 for k, e in mono)
        for mono, c in p.terms.items()
    )


@settings(max_examples=150, deadline=None)
@given(p=mixed_polys(), q=mixed_polys(), k=st.integers(0, 3))
def test_arithmetic_results_hold_the_constructor_invariants(p, q, k):
    results = [p + q, p - q, p - p, -p, p * q, q * p, p ** k, p + 1, 2 * q, p * 0]
    for r in results:
        assert _holds_invariants(r)
        rebuilt = _rebuilt(r)
        assert rebuilt.vars == r.vars and rebuilt.terms == r.terms
        assert r == rebuilt and str(r) == str(rebuilt) and hash(r) == hash(rebuilt)
    for op, r in (("+", p + q), ("*", p * q)):
        expected = _reference(op, p, q)
        assert r.vars == expected.vars and r.terms == expected.terms
        assert r == expected and str(r) == str(expected)
    assert (p - p).is_zero() and str(p - p) == "0"
    assert p + q == q + p and p * q == q * p


def _naive_used_vars(p: MultiPoly) -> tuple[str, ...]:
    return tuple(
        v for i, v in enumerate(p.vars) if any(exps[i] for exps in to_dense(p.terms, len(p.vars)))
    )


@settings(max_examples=150, deadline=None)
@given(p=mixed_polys(), q=mixed_polys())
def test_used_vars_matches_the_naive_scan(p, q):
    for r in (p, q, p * q, p + q, p - p):
        assert r.used_vars() == _naive_used_vars(r)


def test_used_vars_edge_cases():
    assert MultiPoly.zero().used_vars() == ()
    assert MultiPoly(("x", "y"), {}).used_vars() == ()
    assert MultiPoly.constant(Q(3, 2)).used_vars() == ()
    # declared variables that no term uses are dropped; declared order is kept
    widened = MultiPoly(("z", "x", "y"), {((1, 2),): 1, ((0, 1),): -3, (): 5})
    assert widened.used_vars() == ("z", "x")


# -- evaluation in integers, and the antisymmetry test -------------------------


def _fraction_evaluate(p: MultiPoly, assignment) -> Q:
    """The value term by term in Fraction arithmetic."""
    total = Q(0)
    for exps, c in to_dense(p.terms, len(p.vars)).items():
        val = c
        for name, e in zip(p.vars, exps):
            val *= Q(assignment[name]) ** e
        total += val
    return total


POINT_VALUES = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(max_denominator=6).map(str),
    st.integers(-4, 4).map(str),
)


@settings(max_examples=200, deadline=None)
@given(p=mixed_polys(), k=st.integers(0, 3), values=st.lists(POINT_VALUES, min_size=3, max_size=3))
def test_evaluate_matches_a_fraction_reference(p, k, values):
    p = p**k
    point = dict(zip(("x", "y", "z"), values))
    value = p.evaluate(point)
    assert isinstance(value, Q) and value == _fraction_evaluate(p, point)
    # a variable without occurrence needs no value
    used = {v: point[v] for v in p.used_vars()}
    assert p.evaluate(used) == value
    # rescaling the coefficients rescales the value
    assert (p * Q(3, 7)).evaluate(point) == value * Q(3, 7)


def test_evaluate_edge_cases():
    assert MultiPoly.zero().evaluate({}) == 0
    assert isinstance(MultiPoly.zero().evaluate({}), Q)
    assert MultiPoly.constant(Q(-5, 3)).evaluate({"x": Q(1, 2)}) == Q(-5, 3)
    widened = MultiPoly(("x", "y", "z"), {((1, 2),): Q(1, 2), (): Q(-3)})
    assert widened.evaluate({"y": "2/3"}) == Q(1, 2) * Q(4, 9) - 3
    assert widened.evaluate({"y": 5, "x": "junk is never read"}) == Q(25, 2) - 3
    with pytest.raises(ValueError, match=r"^no value for variable\(s\) y$"):
        widened.evaluate({"x": 1, "z": 1})
    x, y = MultiPoly.variables(["x", "y"])
    with pytest.raises(ValueError, match=r"^no value for variable\(s\) x, y$"):
        (x * y).evaluate({})
