"""Closed 2-forms, cocycle spaces, and the Pfaffian symplectic decision.

Sign conventions (fixed once, used everywhere):

* one-forms:  (d a)(x, y) = -a([x, y])
* two-forms:  (d w)(x, y, z) = -( w([x,y], z) + w([y,z], x) + w([z,x], y) )

With these choices d(d a) = 0 holds identically, and only the zero set of d
matters for cocycle spaces, so the decision procedure is unaffected by the
global sign.

* matrices:   w = sum_{i<j} M[i][j] e^i ^ e^j with (e^i ^ e^j)(e_i, e_j) = 1,
  so the literal top wedge power satisfies w^m = m! * Pf(M) * vol.

A :class:`TwoForm` is stored once, as its nonzero coordinates M[i][j] on the
pairs i < j, so antisymmetry holds by construction.  The Z^2 and B^2 bases,
the generic closed form, witnesses, sums and pullbacks are all built in that
format, and the Pfaffian reads it directly
(:func:`liesymp.linalg.sparsest_row_pfaffian`); ``TwoForm.entries`` is a
dense view for printing.

A two-form is *symplectic* when it is closed and its Pfaffian is nonzero;
existence over Q is decided by testing whether the Pfaffian of the generic
closed form is the zero polynomial.  The witness point is the first integer
parameter point p in growing max-norm shells, lexicographic within a shell
(deterministic order), found by a pruned depth-first walk of each shell; the
witness form is sum_k p_k * z_k, summed from the coordinates of the Z^2
basis forms z_k (and the exact witness likewise over B^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .liealg import LieAlgebra, Subspace
from .linalg import (
    RationalMatrix,
    as_exact,
    dense_row,
    sparse_kernel_rows,
    sparse_rref,
    sparsest_row_pfaffian,
    vector,
)
from .poly import MultiPoly, negates

# the nonzero upper coordinates {(i, j): w(e_i, e_j)}, i < j, of a two-form
Coords = dict[tuple[int, int], object]


class TwoForm:
    """Antisymmetric bilinear form, held as its upper coordinates.

    ``coords[(i, j)]`` for i < j is w(e_i, e_j), an exact rational (an int
    where integral, else a Fraction) or a MultiPoly, and only nonzero
    coordinates are stored; w(e_j, e_i) = -w(e_i, e_j) and the zero
    diagonal hold by construction.
    A form is parametric when it has variables or a polynomial coordinate,
    and concrete otherwise.
    """

    __slots__ = ("dim", "coords", "variables", "_zero")

    def __init__(self, dim: int, entries: Sequence[Sequence], variables: Sequence[str] = ()):
        grid = tuple(tuple(map(_as_entry, row)) for row in entries)
        if len(grid) != dim or any(len(r) != dim for r in grid):
            raise ValueError("entry grid does not match dimension")
        coords: Coords = {}
        # entries are ints, Fractions or MultiPolys, all false exactly when zero
        for i, row in enumerate(grid):
            if row[i]:
                raise ValueError("two-form has a nonzero diagonal entry")
            for j in range(i + 1, dim):
                a, b = row[j], grid[j][i]
                if a or b:
                    if not negates(a, b):
                        raise ValueError("two-form entries are not antisymmetric")
                    coords[(i, j)] = a
        self._hold(dim, coords, variables)

    @classmethod
    def _of(cls, dim: int, coords: Coords, variables: Sequence[str] = ()) -> "TwoForm":
        """A form from coordinates that already hold the invariants (pairs
        i < j < dim, no zero value); no copy and no check."""
        w = cls.__new__(cls)
        w._hold(dim, coords, variables)
        return w

    def _hold(self, dim: int, coords: Coords, variables: Sequence[str]) -> None:
        self.dim = dim
        self.coords = coords
        self.variables = tuple(variables)
        parametric = self.variables or any(isinstance(x, MultiPoly) for x in coords.values())
        self._zero = MultiPoly.zero() if parametric else 0

    @classmethod
    def from_pairs(cls, dim: int, pairs: Mapping[tuple[int, int], object], variables: Sequence[str] = ()) -> "TwoForm":
        """sum of value * e^i ^ e^j over the pairs; (j, i) counts as -(i, j)."""
        items = []
        for (i, j), value in pairs.items():
            if i == j:
                raise ValueError("diagonal coefficient in a two-form")
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError("two-form index out of range")
            v = _as_entry(value)
            items.append(((i, j), v) if i < j else ((j, i), -v))
        return _form_sum(dim, items, variables)

    @classmethod
    def zero(cls, dim: int) -> "TwoForm":
        return cls._of(dim, {})

    def is_concrete(self) -> bool:
        return not isinstance(self._zero, MultiPoly)

    def entry(self, i: int, j: int):
        """w(e_i, e_j)."""
        if i < j:
            return self.coords.get((i, j), self._zero)
        x = self.coords.get((j, i))
        return self._zero if x is None else -x

    @property
    def entries(self) -> tuple[tuple, ...]:
        """The dense matrix (w(e_i, e_j)), built from the coordinates on each read."""
        grid = [[self._zero] * self.dim for _ in range(self.dim)]
        for (i, j), x in self.coords.items():
            grid[i][j], grid[j][i] = x, -x
        return tuple(map(tuple, grid))

    def value(self, x: Sequence, y: Sequence):
        """w(x, y) for coordinate vectors; exact whatever the entry type."""
        x, y = vector(x), vector(y)
        total = 0
        for (i, j), c in self.coords.items():
            f = x[i] * y[j] - x[j] * y[i]
            if f:
                total = total + f * c
        return total if total != 0 else self._zero

    def pfaffian(self) -> int | Fraction | MultiPoly:
        """Pfaffian of the form's matrix: if concrete, an int where integral
        and a Fraction otherwise; else a MultiPoly."""
        if self.dim % 2 != 0:
            raise ValueError("pfaffian requires even dimension")
        one = 1 if self.is_concrete() else MultiPoly.constant(1)
        return _as_entry(sparsest_row_pfaffian(self.dim, self.coords, self._zero, one))

    def add(self, other: "TwoForm") -> "TwoForm":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        items = chain(self.coords.items(), other.coords.items())
        return _form_sum(self.dim, items, self.variables or other.variables)

    def scale(self, c) -> "TwoForm":
        items = ((pair, c * x) for pair, x in self.coords.items())
        return _form_sum(self.dim, items, self.variables)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwoForm):
            return NotImplemented
        # no zero is stored, so equal forms have the same pairs
        return self.dim == other.dim and self.coords == other.coords

    def __repr__(self) -> str:
        kind = "concrete" if self.is_concrete() else f"parametric({len(self.variables)})"
        return f"TwoForm(dim {self.dim}, {kind})"


def _as_entry(x):
    """A MultiPoly as it is, any other value as :func:`as_exact` gives it."""
    return x if isinstance(x, MultiPoly) else as_exact(x)


def _form_sum(
    dim: int, items: Iterable[tuple[tuple[int, int], object]], variables: Sequence[str] = ()
) -> TwoForm:
    """The form sum of value * e^i ^ e^j over the (pair, value) items, pairs
    i < j; coordinates that sum to zero are dropped, and an integral sum is
    held as an int."""
    coords: Coords = {}
    for pair, v in items:
        x = coords.get(pair)
        if x is not None:
            v = x + v
        if v:
            coords[pair] = v
        elif x is not None:
            del coords[pair]
    return TwoForm._of(dim, {pair: _as_entry(v) for pair, v in coords.items()}, variables)


# -- exterior differentials ---------------------------------------------------


def d_one_form(g: LieAlgebra, alpha: Sequence) -> TwoForm:
    """(d a)(x, y) = -a([x, y]), extended bilinearly."""
    a = vector(alpha)
    if len(a) != g.dim:
        raise ValueError("covector length does not match algebra dimension")
    items = ((pair, -sum(c * a[k] for k, c in coeffs.items())) for pair, coeffs in g.table.items())
    return _form_sum(g.dim, items)


def d_two_form(g: LieAlgebra, w: TwoForm) -> dict[tuple[int, int, int], object]:
    """Values of dw on basis triples i < j < k, in increasing order of the
    triples (zero triples omitted).

    dw(x,y,z) = -( w([x,y],z) + w([y,z],x) + w([z,x],y) ); the sign makes
    d_two_form(d_one_form(a)) vanish identically.  The sums are those of
    :meth:`LieAlgebra.compositions` with the partners (t, w(e_m, e_t)) of
    each e_m, over the form's nonzero coordinates.
    """
    if w.dim != g.dim:
        raise ValueError("form dimension does not match algebra dimension")
    partners: list[list[tuple[int, object]]] = [[] for _ in range(g.dim)]
    for (i, j), x in w.coords.items():
        partners[i].append((j, x))
        partners[j].append((i, -x))
    sums: dict[tuple[int, int, int], object] = {}
    for key, f, _, x in g.compositions(partners):
        total = sums.get(key)
        sums[key] = f * x if total is None else total + f * x
    return {key: _as_entry(-sums[key]) for key in sorted(sums) if sums[key]}


def is_closed(g: LieAlgebra, w: TwoForm) -> bool:
    return not d_two_form(g, w)


# -- cocycle spaces -----------------------------------------------------------


def _pair_index(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class CocycleSpace:
    """Closed 2-forms (Z^2), exact 2-forms (B^2) and their dimensions."""

    algebra: LieAlgebra
    z2_basis: tuple[TwoForm, ...]
    b2_basis: tuple[TwoForm, ...]
    b2_preimages: tuple[tuple[Fraction, ...], ...]

    @property
    def dims(self) -> tuple[int, int, int]:
        z, b = len(self.z2_basis), len(self.b2_basis)
        return (z, b, z - b)


def cocycle_space(g: LieAlgebra) -> CocycleSpace:
    """Z^2 as the kernel of d on antisymmetric forms; B^2 as the image of d
    on covectors, with a covector preimage recorded for each basis element.

    Both systems are assembled sparse from the bracket table and solved by
    the elimination kernel of :mod:`liesymp.linalg`; the rows of dw = 0 are
    the sums of :meth:`LieAlgebra.compositions` over every pair {m, t}.
    """
    n = g.dim
    pairs = _pair_index(n)
    size = len(pairs)
    # column[s][t] is the column of the pair {s, t}
    column = [[0] * n for _ in range(n)]
    for idx, (i, j) in enumerate(pairs):
        column[i][j] = column[j][i] = idx

    # dw = 0, one row per triple; w(e_m, e_t) is the coordinate of the
    # pair's column if m < t, else its negation
    partners = [[(t, (column[m][t], m < t)) for t in range(n) if t != m] for m in range(n)]
    rows: dict[tuple[int, int, int], dict[int, Fraction]] = {}
    for key, f, neg, (col, up) in g.compositions(partners):
        row = rows.setdefault(key, {})
        v = f if up else neg
        x = row.get(col)
        if x is None:
            row[col] = v
        else:
            x += v
            if x:
                row[col] = x
            else:
                del row[col]
    z2 = tuple(
        TwoForm._of(n, {pairs[j]: as_exact(c) for j, c in v.items()})
        for v in sparse_kernel_rows(sparse_rref(rows.values()), size)
    )

    # B^2: the rows d(e^k) = -sum c_ab^k e^a ^ e^b, each tagged with e^k in
    # the columns after the pairs, so that reduction records the preimages.
    image: list[dict[int, int | Fraction]] = [{size + k: 1} for k in range(n)]
    for (a, b), coeffs in g.table.items():
        for k, c in coeffs.items():
            image[k][column[a][b]] = -c
    pivots = sparse_rref(image)
    b2 = []
    b2_pre = []
    for p in sorted(pivots):
        if p < size:
            upper = {pairs[j]: as_exact(c) for j, c in pivots[p].items() if j < size}
            b2.append(TwoForm._of(n, upper))
            b2_pre.append(vector(dense_row(pivots[p], size, size + n)))
    return CocycleSpace(g, z2, tuple(b2), tuple(b2_pre))


def generic_cocycle(cs: CocycleSpace) -> TwoForm:
    """sum_i t_i * (i-th Z^2 basis element) with fresh parameters t1..tm."""
    return _generic_combination(cs.algebra.dim, cs.z2_basis)


def _generic_combination(n: int, basis: Sequence[TwoForm]) -> TwoForm:
    """sum_k t_k * basis[k], built coordinate by coordinate: each is one
    polynomial with a term c * t_k per form."""
    m = len(basis)
    names = tuple(f"t{k + 1}" for k in range(m))
    upper: dict[tuple[int, int], dict[tuple[int, ...], Fraction]] = {}
    for k, z in enumerate(basis):
        unit = tuple(1 if j == k else 0 for j in range(m))
        for pair, c in z.coords.items():
            upper.setdefault(pair, {})[unit] = c
    # one unit-exponent term per form, with a nonzero coefficient
    coords = {pair: MultiPoly._trusted(names, terms) for pair, terms in upper.items()}
    return TwoForm._of(n, coords, names)


def _specialized_combination(
    n: int, basis: Sequence[TwoForm], names: Sequence[str], point: Mapping[str, int]
) -> TwoForm:
    """``_generic_combination(n, basis)`` specialized at ``point``: the form
    sum_k point[names[k]] * basis[k]."""
    items = []
    for name, z in zip(names, basis):
        p = point[name]
        if p:
            items.extend((pair, p * c) for pair, c in z.coords.items())
    return _form_sum(n, items)


# -- witness search -----------------------------------------------------------


def find_nonvanishing_point(p: MultiPoly, names: Sequence[str]) -> dict[str, int]:
    """First integer point (by max-norm shell, then lex) where p is nonzero,
    its coordinates ints.

    A nonzero polynomial whose degree in each variable is at most d is
    nonzero somewhere on the grid {+-1, ..., +-r}^m once 2r > d (the grid
    lemma of Schwartz and of the Combinatorial Nullstellensatz), so the
    shells 1 .. d // 2 + 1 hold a witness and the search needs no cap.
    Each shell is walked depth first in lex order (see ``_first_in_shell``),
    so the walk never visits the points of a subtree on which p vanishes
    identically; the point it returns is re-checked with
    ``MultiPoly.evaluate``.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes everywhere")
    names = tuple(names)
    if not names:
        return {}
    terms = _integer_terms(p, names)
    degree = max(map(max, terms))
    for radius in range(1, degree // 2 + 2):
        point = _first_in_shell(terms, len(names), radius)
        if point is not None:
            assignment = dict(zip(names, point))
            if p.evaluate(assignment) == 0:
                raise AssertionError(f"witness walk returned a zero of the polynomial: {point}")
            return assignment
    raise AssertionError(
        f"no witness in shells 1..{degree // 2 + 1}, although a nonzero polynomial "
        f"of degree at most {degree} in each variable is nonzero on that grid"
    )


def _integer_terms(p: MultiPoly, names: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """p scaled to integer coefficients (which keeps its zero set), with
    exponents listed in the order of ``names``."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    if p.vars == names:  # the exponents are already in that order
        return {exps: c.numerator * (den // c.denominator) for exps, c in p.terms.items()}
    pos = {nm: i for i, nm in enumerate(names)}
    missing = [v for v in p.used_vars() if v not in pos]
    if missing:
        raise ValueError(f"no value for variable(s) {', '.join(missing)}")
    out: dict[tuple[int, ...], int] = {}
    for exps, c in p.terms.items():
        key = [0] * len(names)
        for name, e in zip(p.vars, exps):
            if e:
                key[pos[name]] = e
        out[tuple(key)] = c.numerator * (den // c.denominator)
    return out


def _fix_first(terms: dict[tuple[int, ...], int], v: int) -> dict[tuple[int, ...], int]:
    """Substitute v for the first variable; zero terms are dropped."""
    out: dict[tuple[int, ...], int] = {}
    for exps, c in terms.items():
        key = exps[1:]
        x = out.get(key, 0) + (c * v ** exps[0] if exps[0] else c)
        if x:
            out[key] = x
        else:
            out.pop(key, None)
    return out


def _first_in_shell(terms: dict[tuple[int, ...], int], m: int, radius: int) -> tuple[int, ...] | None:
    """The lex-first integer point of max-norm exactly ``radius`` at which
    the polynomial ``terms`` is nonzero, or None.

    Coordinates are fixed one at a time from -radius to radius, each
    substituted into the polynomial.  A subtree whose partial polynomial is
    identically zero is pruned, and so is one where some later variable
    makes it vanish for each of its 2 radius + 1 values.  A coordinate that
    no longer occurs is set to -radius without branching: that value comes
    first, puts the point on the shell, and so admits every completion any
    other value admits.
    """
    point = [0] * m
    # A polynomial of degree <= 2 radius in x that vanishes for each of the
    # 2 radius + 1 values of x is zero, so only variables of higher degree
    # can prune; substitution never raises a degree, so this list holds all
    # the variables that ever can.
    high = [j for j, d in enumerate(map(max, zip(*terms))) if d > 2 * radius]

    def vanishes_on_line(rest: dict[tuple[int, ...], int], k: int) -> bool:
        """Whether rest is zero for each value of its k-th variable."""
        if any(exps[k] == 0 for exps in rest):
            return False  # nonzero at x = 0
        by_rest: dict[tuple[int, ...], dict[int, int]] = {}
        for exps, c in rest.items():
            by_rest.setdefault(exps[:k] + exps[k + 1:], {})[exps[k]] = c
        return all(
            not sum(c * v**e for e, c in line.items())
            for line in by_rest.values()
            for v in range(-radius, radius + 1)
        )

    def walk(pos: int, rest: dict[tuple[int, ...], int], touched: bool) -> bool:
        if pos == m:
            return True  # the last coordinate takes only values that reach the shell
        if any(vanishes_on_line(rest, j - pos) for j in high if j >= pos):
            return False
        if all(exps[0] == 0 for exps in rest):
            point[pos] = -radius
            return walk(pos + 1, {exps[1:]: c for exps, c in rest.items()}, True)
        for v in range(-radius, radius + 1):
            reached = touched or abs(v) == radius
            if not reached and pos == m - 1:
                continue
            point[pos] = v
            fixed = _fix_first(rest, v)
            if fixed and walk(pos + 1, fixed, reached):
                return True
        return False

    return tuple(point) if walk(0, terms, False) else None


# -- the decision -------------------------------------------------------------


@dataclass(frozen=True)
class SymplecticVerdict:
    """Outcome of the symplectic / exact-symplectic decision for one algebra.

    ``exists`` and ``exact_exists`` are "yes", "no" or "odd" (odd dimension,
    not applicable).  ``generic`` is the generic closed form whose Pfaffian
    is ``pfaffian`` (None in odd dimension, where none is taken).  When
    "yes", the matching witness fields hold a concrete closed two-form with
    nonzero Pfaffian; ``exact_witness`` is d of the recorded
    ``exact_one_form``.
    """

    dim: int
    exists: str
    generic: TwoForm | None
    pfaffian: MultiPoly
    witness: TwoForm | None
    exact_exists: str
    exact_pfaffian: MultiPoly
    exact_witness: TwoForm | None
    exact_one_form: tuple[Fraction, ...] | None
    cocycle_dims: tuple[int, int, int]

    @property
    def degenerate(self) -> bool:
        """Dimension zero: the empty form is vacuously symplectic and exact."""
        return self.dim == 0


def decide_symplectic(g: LieAlgebra) -> SymplecticVerdict:
    """Decide symplectic existence through the Pfaffian of the generic closed
    form ``generic_cocycle(cocycle_space(g))``, and exact existence through
    that of the generic exact form.

    Odd dimension short-circuits to "odd" with a zero Pfaffian (an odd
    antisymmetric matrix is always singular).  In dimension zero the empty
    Pfaffian is 1, so the algebra is vacuously symplectic (and flagged as
    ``degenerate``).  The witness search bounds itself
    (see :func:`find_nonvanishing_point`).
    """
    cs = cocycle_space(g)
    n = g.dim
    if n % 2 != 0:
        zero = MultiPoly.zero()
        return SymplecticVerdict(
            dim=n,
            exists="odd",
            generic=None,
            pfaffian=zero,
            witness=None,
            exact_exists="odd",
            exact_pfaffian=zero,
            exact_witness=None,
            exact_one_form=None,
            cocycle_dims=cs.dims,
        )

    generic = generic_cocycle(cs)
    pf, witness, _ = _pfaffian_and_witness(generic, cs.z2_basis)
    exact_generic = _generic_combination(n, cs.b2_basis)
    exact_pf, exact_witness, point = _pfaffian_and_witness(exact_generic, cs.b2_basis)
    exact_one_form = None
    if point is not None:
        alpha = [0] * n
        for name, pre in zip(exact_generic.variables, cs.b2_preimages):
            c = point[name]
            if c:
                for k, x in enumerate(pre):
                    if x:
                        alpha[k] += c * x
        exact_one_form = tuple(alpha)

    return SymplecticVerdict(
        dim=n,
        exists="yes" if not pf.is_zero() else "no",
        generic=generic,
        pfaffian=pf,
        witness=witness,
        exact_exists="yes" if not exact_pf.is_zero() else "no",
        exact_pfaffian=exact_pf,
        exact_witness=exact_witness,
        exact_one_form=exact_one_form,
        cocycle_dims=cs.dims,
    )


def _pfaffian_and_witness(
    generic: TwoForm, basis: Sequence[TwoForm]
) -> tuple[MultiPoly, TwoForm | None, dict[str, int] | None]:
    """The Pfaffian of ``generic = _generic_combination(n, basis)`` and, when
    it is nonzero, the witness form at its first nonvanishing point, and that
    point; otherwise None for both."""
    pf = sparsest_row_pfaffian(generic.dim, generic.coords, MultiPoly.zero(), MultiPoly.constant(1))
    if pf.is_zero():
        return pf, None, None
    point = find_nonvanishing_point(pf, generic.variables)
    return pf, _specialized_combination(generic.dim, basis, generic.variables, point), point


# -- geometry helpers -----------------------------------------------------------


def pullback(g: LieAlgebra, t: RationalMatrix, w: TwoForm) -> TwoForm:
    """(T* w)(x, y) = w(Tx, Ty); as matrices, T^t M T."""
    if t.rows != g.dim or t.cols != g.dim or w.dim != g.dim:
        raise ValueError("dimension mismatch")
    if not t.is_invertible():
        raise ValueError("pullback requires an invertible map")
    # w(Te_i, Te_j) = sum over the pairs a < b of w_ab (T_ai T_bj - T_bi T_aj)
    n = g.dim
    items = []
    for (a, b), c in w.coords.items():
        ra, rb = t.row(a), t.row(b)
        for i in range(n):
            for j in range(i + 1, n):
                f = ra[i] * rb[j] - rb[i] * ra[j]
                if f:
                    items.append(((i, j), f * c))
    return _form_sum(n, items, w.variables)


def is_lagrangian_ideal(g: LieAlgebra, w: TwoForm, sub: Subspace) -> bool:
    """An ideal of half the dimension on which the form vanishes identically."""
    if not w.is_concrete():
        raise ValueError("lagrangian test requires a concrete form")
    if g.dim % 2 != 0:
        raise ValueError("lagrangian test requires even dimension")
    if sub.ambient_dim != g.dim:
        raise ValueError("subspace ambient dimension mismatch")
    if sub.dim != g.dim // 2:
        return False
    if not g.is_ideal(sub):
        return False
    basis = sub.basis
    for a in range(sub.dim):
        for b in range(a + 1, sub.dim):
            if w.value(basis[a], basis[b]) != 0:
                return False
    return True


def top_power(w: TwoForm) -> int | Fraction:
    """Coefficient c of the basis volume form in the literal wedge power w^m,
    an int where integral and a Fraction otherwise.

    Computed by expanding the wedge product directly (independent of the
    Pfaffian recursion); equals m! * Pf(M) under this package's conventions.
    """
    if not w.is_concrete():
        raise ValueError("top power requires a concrete form")
    if w.dim % 2 != 0:
        raise ValueError("top power requires even dimension")
    n = w.dim
    m = n // 2
    if n == 0:
        return 1
    pair_terms = list(w.coords.items())
    acc: dict[tuple[int, ...], int | Fraction] = {(): 1}
    for _ in range(m):
        nxt: dict[tuple[int, ...], int | Fraction] = {}
        for subset, coeff in acc.items():
            taken = set(subset)
            for (i, j), c in pair_terms:
                if i in taken or j in taken:
                    continue
                sign = 1
                cnt_i = sum(1 for s in subset if s > i)
                cnt_j = sum(1 for s in subset if s > j)
                if (cnt_i + cnt_j) % 2:
                    sign = -1
                key = tuple(sorted(subset + (i, j)))
                val = nxt.get(key, 0) + sign * coeff * c
                if val == 0:
                    nxt.pop(key, None)
                else:
                    nxt[key] = val
        acc = nxt
    return as_exact(acc.get(tuple(range(n)), 0))
