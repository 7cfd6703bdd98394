"""Sparse multivariate polynomials over the rationals, and matrices of them.

A :class:`MultiPoly` stores an ordered variable tuple plus a map from exponent
tuples to nonzero exact coefficients, each an int or a Fraction (the
validating constructor stores an integral coefficient as an int; see
:mod:`liesymp.linalg`).  The zero polynomial has an empty term map.
Arithmetic never rounds; equality compares canonical forms (variables with
no occurrence are ignored), so two equal polynomials compare equal no matter
how they were built.

The monomial order used for division and printing is graded lexicographic
over the declared variable tuple.

:class:`PolyMatrix` is a dense adapter for antisymmetric matrices of
polynomials: it checks the shape and antisymmetry, passes its entries above
the diagonal to :func:`liesymp.linalg.sparsest_row_pfaffian` (the recursion
that the symplectic decision calls directly on a two-form's coordinates),
and gives the determinant of an antisymmetric matrix as the Pfaffian
squared.

Only the public constructor validates; arithmetic, whose operands already
hold the invariants, builds its results through a trusted one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .linalg import Q, as_exact, as_fraction, exact_quotient, sparsest_row_pfaffian, upper_entries

Exponents = tuple[int, ...]


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str] = (), terms: Mapping[Exponents, Fraction] | None = None):
        self.vars: tuple[str, ...] = tuple(variables)
        clean: dict[Exponents, Fraction] = {}
        if terms:
            width = len(self.vars)
            for exps, coeff in terms.items():
                coeff = as_fraction(coeff)
                if coeff == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != width:
                    raise ValueError("exponent tuple width does not match variable count")
                coeff += clean.get(exps, 0)
                if coeff:
                    clean[exps] = as_exact(coeff)
                else:
                    del clean[exps]
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls((), {})

    @classmethod
    def constant(cls, value) -> "MultiPoly":
        value = as_exact(value)
        return cls((), {(): value} if value != 0 else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): 1})

    @classmethod
    def variables(cls, names: Sequence[str]) -> list["MultiPoly"]:
        """The coordinate polynomials t_i inside one shared variable context."""
        names = tuple(names)
        out = []
        for i in range(len(names)):
            exps = tuple(1 if j == i else 0 for j in range(len(names)))
            out.append(cls(names, {exps: 1}))
        return out

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    def used_vars(self) -> tuple[str, ...]:
        """The declared variables that some term raises to a positive power,
        in declared order: one scan down each exponent column."""
        return tuple(v for v, column in zip(self.vars, zip(*self.terms)) if any(column))

    def canonical(self) -> tuple[tuple[str, ...], tuple[tuple[Exponents, Fraction], ...]]:
        """Display form: unused variables pruned (declared order kept), terms
        sorted graded-lex descending."""
        keep = self.used_vars()
        idx = [self.vars.index(v) for v in keep]
        terms = {tuple(exps[i] for i in idx): c for exps, c in self.terms.items()}
        ordered = tuple(sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True))
        return keep, ordered

    def _signature(self) -> tuple[tuple[str, ...], tuple[tuple[Exponents, Fraction], ...]]:
        """Order-independent form: occurring variables sorted by name."""
        keep = tuple(sorted(self.used_vars()))
        idx = [self.vars.index(v) for v in keep]
        terms = {tuple(exps[i] for i in idx): c for exps, c in self.terms.items()}
        return keep, tuple(sorted(terms.items()))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic -----------------------------------------------------------

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: dict[Exponents, Fraction]) -> "MultiPoly":
        """A polynomial from parts that already hold the invariants; no copy
        and no check."""
        p = cls.__new__(cls)
        p.vars = variables
        p.terms = terms
        return p

    def _aligned(self, other: "MultiPoly") -> tuple[tuple[str, ...], dict, dict]:
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        # a constant over no variables has at most the one term (): widen it
        if not other.vars:
            return self.vars, self.terms, {(0,) * len(self.vars): c for c in other.terms.values()}
        if not self.vars:
            return other.vars, {(0,) * len(other.vars): c for c in self.terms.values()}, other.terms
        merged = list(self.vars) + [v for v in other.vars if v not in self.vars]
        return tuple(merged), _remap(self, merged), _remap(other, merged)

    def __add__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        variables, a, b = self._aligned(other)
        out = dict(a)
        for exps, c in b.items():
            x = out.get(exps)
            if x is None:
                out[exps] = c
            else:
                x += c
                if x:
                    out[exps] = x
                else:
                    del out[exps]
        return MultiPoly._trusted(variables, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        variables, a, b = self._aligned(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(add, e1, e2))
                c = out.get(key)
                c = c1 * c2 if c is None else c + c1 * c2
                if c:
                    out[key] = c
                else:
                    del out[key]
        return MultiPoly._trusted(variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation and division ----------------------------------------------

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a point; every occurring variable must be assigned.

        The sum runs in integers: with the point written as a_i / b over one
        denominator b, the coefficients as num / den over one denominator D,
        and top the largest degree, a term of degree d adds
        num * (D / den) * prod a_i^e_i * b^(top - d), and the value is the
        total over D * b^top.
        """
        used = self.used_vars()
        missing = [v for v in used if v not in assignment]
        if missing:
            raise ValueError(f"no value for variable(s) {', '.join(missing)}")
        if not self.terms:
            return Q(0)
        point = {v: as_fraction(assignment[v]) for v in used}
        b = math.lcm(*(x.denominator for x in point.values()))
        # an unused variable has only zero exponents, so its 0 is never read
        nums = [0] * len(self.vars)
        for i, v in enumerate(self.vars):
            x = point.get(v)
            if x is not None:
                nums[i] = x.numerator * (b // x.denominator)
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        top = self.total_degree()
        total = 0
        for exps, coeff in self.terms.items():
            val = coeff.numerator * (den // coeff.denominator)
            degree = 0
            for x, e in zip(nums, exps):
                if e:
                    val *= x**e
                    degree += e
            if b != 1 and degree != top:
                val *= b ** (top - degree)
            total += val
        return Fraction(total, den * b**top)

    def leading(self) -> tuple[Exponents, Fraction]:
        """Leading term under graded-lex over this polynomial's variables."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex)
        return exps, self.terms[exps]

    def __str__(self) -> str:
        keep, ordered = self.canonical()
        if not ordered:
            return "0"
        chunks = []
        for exps, coeff in ordered:
            factors = []
            for name, e in zip(keep, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def negates(a, b) -> bool:
    """Whether a + b is zero, for polynomials or rationals.

    Two polynomials over the same variable tuple are compared term by term,
    without building the sum: their term maps hold no zero coefficient, and
    their coefficients are ints or Fractions in lowest terms (an int has
    denominator 1), so c' = -c exactly when the numerators are opposite and
    the denominators equal.
    """
    if isinstance(a, MultiPoly) and isinstance(b, MultiPoly) and a.vars == b.vars:
        at, bt = a.terms, b.terms
        if len(at) != len(bt):
            return False
        for exps, c in at.items():
            x = bt.get(exps)
            if x is None or x.numerator != -c.numerator or x.denominator != c.denominator:
                return False
        return True
    return not (a + b)


def _coerce(x) -> "MultiPoly":
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MultiPoly.constant(x)
    return NotImplemented


def _remap(p: MultiPoly, merged: Sequence[str]) -> dict[Exponents, Fraction]:
    pos = {v: i for i, v in enumerate(merged)}
    width = len(merged)
    out: dict[Exponents, Fraction] = {}
    for exps, c in p.terms.items():
        key = [0] * width
        for name, e in zip(p.vars, exps):
            key[pos[name]] = e
        out[tuple(key)] = c
    return out


def poly_divmod(p: MultiPoly, d: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Quotient and remainder of p by a single divisor d under graded-lex.

    While the leading term of the remainder is a multiple of that of d, the
    multiple f * step of d that cancels it is taken off, in place, from one
    remainder map; f * step is the next quotient term.  The remainder is
    zero exactly when d divides p.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    variables, pt, dt = p._aligned(d)
    rem = dict(pt)
    quot: dict[Exponents, Fraction] = {}
    d_exps = max(dt, key=_grlex)
    d_coeff = dt[d_exps]
    tail = [(exps, c) for exps, c in dt.items() if exps != d_exps]
    while rem:
        r_exps = max(rem, key=_grlex)
        step = tuple(a - b for a, b in zip(r_exps, d_exps))
        if any(e < 0 for e in step):
            break
        f = exact_quotient(rem.pop(r_exps), d_coeff)
        quot[step] = f
        for exps, c in tail:
            key = tuple(map(add, step, exps))
            x = rem.get(key)
            x = -f * c if x is None else x - f * c
            if x:
                rem[key] = x
            else:
                del rem[key]
    return (
        MultiPoly._trusted(variables if quot else (), quot),
        MultiPoly._trusted(variables, rem),
    )


def _grlex(exps: Exponents) -> tuple[int, Exponents]:
    """The graded-lex sort key of a monomial."""
    return sum(exps), exps


def poly_divides(d: MultiPoly, p: MultiPoly) -> bool:
    """True iff exact multivariate division of p by d leaves no remainder."""
    if d.is_zero():
        raise ZeroDivisionError("cannot test divisibility by zero")
    return poly_divmod(p, d)[1].is_zero()


class PolyMatrix:
    """Dense matrix of MultiPoly entries (constants are lifted automatically)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable]):
        grid = []
        for row in data:
            out = []
            for x in row:
                p = _coerce(x)
                if p is NotImplemented:
                    raise TypeError(f"bad matrix entry {x!r}")
                out.append(p)
            grid.append(tuple(out))
        self.data = tuple(grid)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged rows")

    def __getitem__(self, ij: tuple[int, int]) -> MultiPoly:
        i, j = ij
        return self.data[i][j]

    def is_antisymmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        data = self.data
        for i in range(self.rows):
            for j in range(i, self.cols):
                a, b = data[i][j], data[j][i]
                if (a.terms or b.terms) and not negates(a, b):
                    return False
        return True

    def pfaffian(self) -> MultiPoly:
        """Pfaffian by :func:`liesymp.linalg.sparsest_row_pfaffian`; requires
        an antisymmetric matrix of even size."""
        if self.rows != self.cols or self.rows % 2 != 0:
            raise ValueError("pfaffian requires an antisymmetric matrix of even size")
        if not self.is_antisymmetric():
            raise ValueError("pfaffian requires an antisymmetric matrix")
        upper = upper_entries(self.data)
        return sparsest_row_pfaffian(self.rows, upper, MultiPoly.zero(), MultiPoly.constant(1))

    def determinant(self) -> MultiPoly:
        """Determinant of an antisymmetric matrix: the Pfaffian squared, and
        zero in odd size."""
        if not self.is_antisymmetric():
            raise ValueError("determinant requires an antisymmetric matrix")
        if self.rows % 2 != 0:
            return MultiPoly.zero()
        p = self.pfaffian()
        return p * p
