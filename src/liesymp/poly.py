"""Sparse multivariate polynomials over the rationals.

A :class:`MultiPoly` stores an ordered variable tuple plus a map from
monomials to nonzero exact coefficients, each an int or a Fraction (the
validating constructor stores an integral coefficient as an int; see
:mod:`liesymp.linalg`).  A monomial is a :data:`Monomial`: its
(variable index, positive exponent) pairs, indices increasing, so ``()``
is the constant monomial over any variable tuple.  This one format runs
from the Pfaffian packer through arithmetic, division and printing to the
witness walk of :mod:`liesymp.symplectic`.  The zero polynomial has an
empty term map.  Arithmetic never rounds; equality reads each monomial by
its variables' names, so two equal polynomials compare equal no matter
how they were built.

The monomial order used for division and printing is graded lexicographic
over the declared variable tuple.

No Pfaffian is expanded over MultiPolys.  :func:`monomial_pfaffian` is the
one packer: it takes the Pfaffian of sum_mu t^mu * M_mu from the concrete
matrices M_mu keyed by monomials mu (the symplectic decision passes its
generic closed form sum_k t_k * z_k as the basis forms z_k), packs the
entries as integer polynomials keyed by one int per monomial
(:data:`liesymp.linalg.PACKED`), runs the one recursion
:func:`liesymp.linalg.sparsest_row_pfaffian` on them, and reads the result
back as a MultiPoly.  :func:`polynomial_pfaffian` hands it the terms of a
matrix of polynomial entries, their variable indices remapped onto one
tuple.  The dense :class:`PolyMatrix` is no part of any computation:
nothing in the package calls it, and it keeps only the ``pfaffian``
adapter (with the shape and antisymmetry check it needs) that the
benchmark's tracing table names.

Only the public constructor validates; arithmetic, whose operands already
hold the invariants, builds its results through a trusted one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linalg import (
    PACKED,
    Q,
    as_exact,
    as_fraction,
    exact_quotient,
    integer_multiple,
    sparsest_row_pfaffian,
    upper_entries,
)

# a monomial, as its (variable index, positive exponent) pairs, indices increasing
Monomial = tuple[tuple[int, int], ...]


class MultiPoly:
    """A polynomial over ``vars``: ``terms`` maps each :data:`Monomial` to its coefficient."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str] = (), terms: Mapping[Monomial, Fraction] | None = None):
        self.vars: tuple[str, ...] = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"repeated variable name in {self.vars}")
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = _checked(mono, len(self.vars))
                coeff = as_fraction(coeff) + clean.pop(mono, 0)
                if coeff:
                    clean[mono] = as_exact(coeff)
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        """The zero polynomial over no variables; built unchecked, as an
        empty term map holds every invariant."""
        return cls._trusted((), {})

    @classmethod
    def constant(cls, value) -> "MultiPoly":
        """The constant ``value`` (an int, a Fraction or a string such as
        "3/4") over no variables, stored as :func:`as_exact` gives it.  The
        empty monomial needs no check, so it is built unchecked."""
        value = as_exact(value)
        return cls._trusted((), {(): value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls((name,), {((0, 1),): 1})

    @classmethod
    def variables(cls, names: Sequence[str]) -> list["MultiPoly"]:
        """The coordinate polynomials t_i inside one shared variable context."""
        names = tuple(names)
        return [cls(names, {((k, 1),): 1}) for k in range(len(names))]

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e for _, e in mono) for mono in self.terms)

    def used_vars(self) -> tuple[str, ...]:
        """The declared variables that some term raises to a positive power,
        in declared order."""
        used = {k for mono in self.terms for k, _ in mono}
        return tuple(v for k, v in enumerate(self.vars) if k in used)

    def _signature(self) -> frozenset:
        """Order-independent form: each monomial keyed by its variables' names."""
        return frozenset(
            (frozenset((self.vars[k], e) for k, e in mono), c) for mono, c in self.terms.items()
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._signature() == other._signature()

    def __hash__(self):
        # a constant equals its value (see __eq__), so it hashes as one
        if not any(self.terms):
            return hash(self.terms.get((), 0))
        return hash(self._signature())

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic -----------------------------------------------------------

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: dict[Monomial, Fraction]) -> "MultiPoly":
        """A polynomial from parts that already hold the invariants; no copy
        and no check."""
        p = cls.__new__(cls)
        p.vars = variables
        p.terms = terms
        return p

    def _aligned(self, other: "MultiPoly") -> tuple[tuple[str, ...], dict, dict]:
        """Both term maps over self's variables, then other's new ones: only
        other's indices move, and none where one tuple begins the other."""
        if other.vars == self.vars[: len(other.vars)]:
            return self.vars, self.terms, other.terms
        if self.vars == other.vars[: len(self.vars)]:
            return other.vars, self.terms, other.terms
        at = {v: k for k, v in enumerate(self.vars)}
        for v in other.vars:
            at.setdefault(v, len(at))
        return tuple(at), self.terms, _remap(other.terms, [at[v] for v in other.vars])

    def __add__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        variables, a, b = self._aligned(other)
        out = dict(a)
        for mono, c in b.items():
            x = out.get(mono)
            if x is None:
                out[mono] = c
            else:
                x += c
                if x:
                    out[mono] = x
                else:
                    del out[mono]
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
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                key = _times(m1, m2, 1)
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
        point = {v: as_exact(assignment[v]) for v in used}
        b = math.lcm(*(x.denominator for x in point.values()))
        # an unused variable occurs in no monomial, so its 0 is never read
        nums = [point[v].numerator * (b // point[v].denominator) if v in point else 0 for v in self.vars]
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        top = self.total_degree()
        total = 0
        for mono, coeff in self.terms.items():
            val = coeff.numerator * (den // coeff.denominator)
            degree = 0
            for k, e in mono:
                val *= nums[k] ** e
                degree += e
            if b != 1 and degree != top:
                val *= b ** (top - degree)
            total += val
        return Fraction(total, den * b**top)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.vars
        chunks = []
        for mono, coeff in sorted(self.terms.items(), key=lambda kv: _grlex(kv[0]), reverse=True):
            mono = "*".join(names[k] if e == 1 else f"{names[k]}^{e}" for k, e in mono)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            chunks.append(("- " if coeff < 0 else "+ ") + body)
        text = " ".join(chunks)  # "+ a - b ...": the leading sign loses its space
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _checked(mono, width: int) -> Monomial:
    """A monomial key of the public constructor, validated: its pairs
    sorted and zero exponents dropped."""
    try:
        pairs = sorted((k, e) for k, e in mono)
        ok = len({k for k, _ in pairs}) == len(pairs) and all(
            type(k) is type(e) is int and 0 <= k < width and e >= 0 for k, e in pairs
        )
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(
            f"monomial {mono!r} is not a tuple of (variable index, exponent) pairs "
            f"with distinct indices below {width} and nonnegative int exponents"
        )
    return tuple(pair for pair in pairs if pair[1])


def _coerce(x) -> "MultiPoly":
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MultiPoly.constant(x)
    return NotImplemented


def _remap(terms: dict[Monomial, Fraction], at: Sequence[int]) -> dict[Monomial, Fraction]:
    """The terms with variable index k renamed ``at[k]``."""
    if all(k == j for k, j in enumerate(at)):
        return terms
    return {tuple(sorted((at[k], e) for k, e in mono)): c for mono, c in terms.items()}


def _integer_terms(p: MultiPoly, names: tuple[str, ...]) -> dict[Monomial, int]:
    """p scaled to integer coefficients (which keeps its zero set), its
    monomials over the indices of ``names`` (a variable p does not use
    need not be among them)."""
    pos = {nm: i for i, nm in enumerate(names)}
    missing = [v for v in p.used_vars() if v not in pos]
    if missing:
        raise ValueError(f"no value for variable(s) {', '.join(missing)}")
    return integer_multiple(_remap(p.terms, [pos.get(v) for v in p.vars]))[1]


def _times(a: Monomial, b: Monomial, sign: int) -> Monomial | None:
    """The monomial a * b^sign, sign 1 or -1, by one merge of the sorted pairs;
    None when a negative exponent is left, that is, when b does not divide a."""
    out, i, n = [], 0, len(a)
    for k, e in b:
        while i < n and a[i][0] < k:
            out.append(a[i])
            i += 1
        e *= sign
        if i < n and a[i][0] == k:
            e += a[i][1]
            i += 1
        if e < 0:
            return None
        if e:
            out.append((k, e))
    out.extend(a[i:])
    return tuple(out)


def _grlex(mono: Monomial) -> tuple[int, Monomial]:
    """The graded-lex sort key of a monomial: the order of its dense
    exponent tuple, as a lower index that occurs outranks a higher one."""
    return sum([e for _, e in mono]), tuple([(-k, e) for k, e in mono])


def poly_divmod(p: MultiPoly, d: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Quotient and remainder of p by a single divisor d under graded-lex:
    the textbook division, so p = quot * d + rem and no term of rem is a
    multiple of the leading term of d.

    The leading term of what is left of p is taken off at each step: when
    the leading term of d divides it, the multiple f * step of d that
    cancels it is taken off, in place, and f * step is the next quotient
    term; otherwise the term moves to the remainder.  The remainder is the
    graded-lex normal form of p modulo (d), as {d} is a Groebner basis of
    that ideal, so it is zero exactly when d divides p.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    variables, pt, dt = p._aligned(d)
    left = dict(pt)
    quot: dict[Monomial, Fraction] = {}
    rem: dict[Monomial, Fraction] = {}
    order = {mono: _grlex(mono) for mono in left}  # each sort key built once per division
    d_mono = max(dt, key=_grlex)
    d_coeff = dt[d_mono]
    tail = [(mono, c) for mono, c in dt.items() if mono != d_mono]
    while left:
        r_mono = max(left, key=order.__getitem__)
        step = _times(r_mono, d_mono, -1)
        if step is None:
            rem[r_mono] = left.pop(r_mono)
            continue
        f = exact_quotient(left.pop(r_mono), d_coeff)
        quot[step] = f
        for mono, c in tail:
            key = _times(step, mono, 1)
            if key not in order:
                order[key] = _grlex(key)
            x = left.get(key)
            x = -f * c if x is None else x - f * c
            if x:
                left[key] = x
            else:
                del left[key]
    return (
        MultiPoly._trusted(variables if quot else (), quot),
        MultiPoly._trusted(variables, rem),
    )


def poly_divides(d: MultiPoly, p: MultiPoly) -> bool:
    """True iff exact multivariate division of p by d leaves no remainder."""
    if d.is_zero():
        raise ZeroDivisionError("cannot test divisibility by zero")
    return poly_divmod(p, d)[1].is_zero()


class PolyMatrix:
    """Dense matrix of MultiPoly entries (constants are lifted automatically),
    kept for its traced ``pfaffian`` only."""

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

    def is_antisymmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        data = self.data
        for i in range(self.rows):
            for j in range(i, self.cols):
                if data[i][j] + data[j][i]:
                    return False
        return True

    def pfaffian(self) -> MultiPoly:
        """Pfaffian by :func:`polynomial_pfaffian`; requires an
        antisymmetric matrix of even size."""
        if self.rows != self.cols or self.rows % 2 != 0:
            raise ValueError("pfaffian requires an antisymmetric matrix of even size")
        if not self.is_antisymmetric():
            raise ValueError("pfaffian requires an antisymmetric matrix")
        return polynomial_pfaffian(self.rows, upper_entries(self.data))


def polynomial_pfaffian(n: int, upper: Mapping[tuple[int, int], object]) -> MultiPoly:
    """Pfaffian of the antisymmetric n x n matrix, n even, with the nonzero
    upper entries ``upper`` (MultiPolys or exact rationals), as a MultiPoly
    over the entries' variables in order of first occurrence: the entries'
    monomials, remapped onto that tuple, go to :func:`monomial_pfaffian`."""
    entries = {pair: _coerce(x) for pair, x in upper.items()}
    names = tuple(dict.fromkeys(v for p in entries.values() for v in p.vars))
    index = {v: k for k, v in enumerate(names)}
    forms: dict[Monomial, dict[tuple[int, int], object]] = {}
    for pair, p in entries.items():
        for mono, c in _remap(p.terms, [index[v] for v in p.vars]).items():
            forms.setdefault(mono, {})[pair] = c
    return monomial_pfaffian(n, forms, names)


def monomial_pfaffian(n: int, forms: Mapping[Monomial, Mapping], names: Sequence[str]) -> MultiPoly:
    """Pfaffian of sum_mu t^mu * M_mu, n even, as a MultiPoly over ``names``:
    each key mu is a distinct monomial, and ``forms[mu]`` holds the
    nonzero upper entries (exact rationals) of the antisymmetric n x n M_mu.

    The entries are packed for :data:`liesymp.linalg.PACKED`: each is scaled
    by s, the lcm of every denominator, so that Pf(sM) = s^(n/2) Pf(M) has
    int coefficients, and t^e is keyed sum_k e_k * D^k with
    D = (n/2) * (largest exponent) + 1, above any exponent of the Pfaffian.
    """
    top = max((e for mu in forms for _, e in mu), default=0)
    base = n // 2 * top + 1
    powers = [base**k for k in range(len(names))]
    scale = math.lcm(*(c.denominator for form in forms.values() for c in form.values()))
    upper: dict[tuple[int, int], dict[int, int]] = {}
    for mu, form in forms.items():
        key = sum(e * powers[k] for k, e in mu)
        for pair, c in form.items():
            upper.setdefault(pair, {})[key] = c.numerator * (scale // c.denominator)
    terms = _unpacked(sparsest_row_pfaffian(n, upper, PACKED), powers)
    den = scale ** (n // 2)
    if den != 1:
        terms = {mono: exact_quotient(c, den) for mono, c in terms.items()}
    return MultiPoly._trusted(tuple(names), terms)


def _unpacked(packed: Mapping[int, int], powers: Sequence[int]) -> dict[Monomial, int]:
    """The terms of a packed polynomial (see :data:`liesymp.linalg.PACKED`)
    whose k-th variable is keyed ``powers[k]``, by monomials."""
    out = {}
    for key, c in packed.items():
        mono = []
        while key:  # one step per variable that occurs: the highest first
            k = bisect_right(powers, key) - 1
            e, key = divmod(key, powers[k])
            mono.append((k, e))
        out[tuple(reversed(mono))] = c
    return out
