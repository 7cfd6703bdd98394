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
pairs i < j, so antisymmetry holds by construction; ``TwoForm(dim, pairs)``
is its one constructor, and takes a pair in either orientation.  dw and
the rows of dw = 0 are the sums of one walk of the bracket table
(:meth:`LieAlgebra.compositions`).  The Z^2 and B^2 bases,
the generic closed form, witnesses, sums and pullbacks are all built in that
format, and the Pfaffian reads it directly
(:func:`liesymp.linalg.sparsest_row_pfaffian`); ``TwoForm.entries`` is a
dense view for printing.  A parametric Pfaffian is taken over packed
integer polynomials by :func:`liesymp.poly.monomial_pfaffian`: the
decision's from the basis forms, the k-th keyed by t_k, and
``TwoForm.pfaffian``'s through :func:`liesymp.poly.polynomial_pfaffian`.
So the decision builds no generic form; its verdict keeps the
:class:`CocycleSpace`, from which :func:`generic_cocycle` builds one.
Each part of a cocycle space, Z^2 and B^2, is solved when read: in odd
dimension the decision reads neither, and once the closed Pfaffian is
zero the exact one is zero too (B^2 ⊆ Z^2), so B^2 is not read.  Nor is
it when a basis vector lies in no pair of the bracket table, as in every
nilpotent table in an adapted basis: that vector is central, so it lies in
the kernel of every exact form.

Z^2 is solved by the weights of :meth:`LieAlgebra.weights`, the grading
that completeness uses too: only the weight-0 block of dw = 0 is
eliminated, and every other block is exact (Cartan's formula) and read off
the rows d(e^k), in a column order that keeps the basis the one the
ungraded solve gives (see :attr:`CocycleSpace.z2_basis`).

A two-form is *symplectic* when it is closed and its Pfaffian is nonzero;
existence over Q is decided by testing whether the Pfaffian of the generic
closed form is the zero polynomial.  The witness point is the first integer
parameter point p in growing max-norm shells, lexicographic within a shell
(deterministic order): the shell's corner (-r, ..., -r) if the Pfaffian is
nonzero there, else found by a pruned depth-first walk of the shell; the
witness form is sum_k p_k * z_k, summed from the coordinates of the Z^2
basis forms z_k (and the exact witness likewise over B^2).  A concrete
form's Pfaffian and dw are taken on s * w, in ints (``TwoForm.pfaffian``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .liealg import LieAlgebra, Subspace
from .linalg import (
    as_exact,
    dense_row,
    exact_quotient,
    integer_multiple,
    sparse_kernel_rows,
    sparse_rref,
    sparsest_row_pfaffian,
    vector,
)
from .poly import Monomial, MultiPoly, _integer_terms, monomial_pfaffian, polynomial_pfaffian
from .structure import _in_range

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

    def __init__(
        self,
        dim: int,
        pairs: Mapping[tuple[int, int], object] | None = None,
        variables: Sequence[str] = (),
    ):
        """sum of value * e^i ^ e^j over the pairs, a pair (j, i) counting as
        -(i, j), so that both orientations of a pair sum; no pairs give the
        zero form."""
        items = []
        for (i, j), value in (pairs or {}).items():
            if i == j:
                raise ValueError("diagonal coefficient in a two-form")
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError("two-form index out of range")
            v = _as_entry(value)
            items.append(((i, j), v) if i < j else ((j, i), -v))
        w = _form_sum(dim, items, variables)
        self._hold(dim, w.coords, w.variables, w.is_concrete())

    @classmethod
    def _of(
        cls, dim: int, coords: Coords, variables: Sequence[str] = (), concrete: bool = True
    ) -> "TwoForm":
        """A form from coordinates that already hold the invariants (pairs
        i < j < dim, no zero value), ``concrete`` exactly when there are no
        variables and no MultiPoly value; no copy and no check."""
        w = cls.__new__(cls)
        w._hold(dim, coords, tuple(variables), concrete)
        return w

    def _hold(
        self, dim: int, coords: Coords, variables: tuple[str, ...], concrete: bool
    ) -> None:
        self.dim = dim
        self.coords = coords
        self.variables = variables
        self._zero = 0 if concrete else MultiPoly.zero()

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
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match form dimension")
        total = 0
        for (i, j), c in self.coords.items():
            f = x[i] * y[j] - x[j] * y[i]
            if f:
                total = total + f * c
        return total if total != 0 else self._zero

    def pfaffian(self) -> int | Fraction | MultiPoly:
        """Pfaffian of the form's matrix: if concrete, an int where integral
        and a Fraction otherwise; else a MultiPoly.  A concrete one is taken
        in ints, on s * w for s the lcm of the denominators
        (:func:`liesymp.linalg.integer_multiple`), as Pf(s w) / s^(n/2)."""
        if self.dim % 2 != 0:
            raise ValueError("pfaffian requires even dimension")
        if self.is_concrete():
            s, coords = integer_multiple(self.coords)
            return exact_quotient(sparsest_row_pfaffian(self.dim, coords), s ** (self.dim // 2))
        return polynomial_pfaffian(self.dim, self.coords)

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
    held as an int.  The form is concrete when there are no ``variables``
    and no sum is a MultiPoly, which the coercing pass reads off."""
    sums: Coords = {}
    for pair, v in items:
        x = sums.get(pair)
        if x is not None:
            v = x + v
        if v:
            sums[pair] = v
        elif x is not None:
            del sums[pair]
    variables = tuple(variables)
    concrete = not variables
    coords: Coords = {}
    for pair, v in sums.items():
        if isinstance(v, MultiPoly):
            concrete = False
        else:
            v = as_exact(v)
        coords[pair] = v
    return TwoForm._of(dim, coords, variables, concrete)


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
    :func:`_dw_sums`, negated.
    """
    sums = _dw_sums(g, w)
    return {key: _as_entry(-sums[key][0]) for key in sorted(sums)}


def _dw_sums(g: LieAlgebra, w: TwoForm) -> dict[tuple[int, int, int], dict[int, object]]:
    """-dw on the triples where it is nonzero, in walk order: the sums of
    :meth:`LieAlgebra.compositions` with the partners (t, 0, w(e_m, e_t))
    of each e_m, over the form's nonzero coordinates, in one column."""
    if w.dim != g.dim:
        raise ValueError("form dimension does not match algebra dimension")
    partners: list[list[tuple[int, int, object]]] = [[] for _ in range(g.dim)]
    for (i, j), x in w.coords.items():
        partners[i].append((j, 0, x))
        partners[j].append((i, 0, -x))
    return g.compositions(partners)


def is_closed(g: LieAlgebra, w: TwoForm) -> bool:
    """Whether dw = 0: whether the walk of :func:`_dw_sums` finds no nonzero
    sum.  A concrete w is tested as s * w, its coordinates ints (see
    :meth:`TwoForm.pfaffian`), which is closed exactly when w is."""
    if w.is_concrete():
        w = TwoForm._of(w.dim, integer_multiple(w.coords)[1])
    return not _dw_sums(g, w)


# -- cocycle spaces -----------------------------------------------------------


def _pair_index(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class CocycleSpace:
    """Closed 2-forms (Z^2), exact 2-forms (B^2) and their dimensions, each
    part solved when first read and kept.

    ``algebra`` must satisfy the Jacobi identity, which makes the weights of
    :meth:`LieAlgebra.weights` a grading; its classes of basis indices by
    weight are :meth:`LieAlgebra.weight_classes`, computed once per algebra
    and shared with the Der(g) count of the completeness report.  Z^2
    (``z2_basis``) and B^2 (``b2_basis`` with ``b2_preimages``) are two
    eliminations, each run at most once, on the first read of a field that
    needs it; ``dims`` reads both.  A space nobody reads, as in odd
    dimension, solves nothing.  B^2 ⊆ Z^2, as d(d a) = 0, so when every
    closed form is degenerate every exact one is too, and the decision
    reads no B^2 then, nor when a basis vector is central (see
    :func:`decide_symplectic`).
    """

    algebra: LieAlgebra

    @property
    def dims(self) -> tuple[int, int, int]:
        z, b = len(self.z2_basis), len(self.b2_basis)
        return (z, b, z - b)

    @cached_property
    def _image(self) -> list[dict[int, int | Fraction]]:
        """The rows d(e^k) = -sum c_ab^k e^a ^ e^b on the pair columns, each
        tagged with e^k in the k-th column after the pairs; read by both
        parts."""
        n = self.algebra.dim
        size = n * (n - 1) // 2
        image: list[dict[int, int | Fraction]] = [{size + k: 1} for k in range(n)]
        for (a, b), coeffs in self.algebra.table.items():
            j = a * (2 * n - a - 1) // 2 + b - a - 1  # the column of the pair (a, b)
            for k, c in coeffs.items():
                image[k][j] = -c
        return image

    @cached_property
    def z2_basis(self) -> tuple[TwoForm, ...]:
        """Z^2 as the kernel of d on antisymmetric forms, solved by weight:
        the pair {m, t} has weight w_m + w_t, and d keeps weights.  A closed
        form of weight mu != 0 is exact, by Cartan's formula
        theta(h) = d i_h + i_h d for a grading vector e_h with mu(h) != 0, so
        Z^2 = Z^2_0 + B^2_{!=0}.  Only the rows of dw = 0 on the weight-0
        pairs are assembled (the sums of :meth:`LieAlgebra.compositions`
        with the partners (t, column of {m, t}, +-1) of e_m, w_t = -w_m, the
        sign that of w(e_m, e_t)) and solved by the
        elimination kernel of :mod:`liesymp.linalg`; each vector of its
        kernel basis has 1 at its free column, which is its last, and 0 at
        every other free column.  The other blocks are the rows d(e^k) with
        w_k != 0, reduced with the pair columns in reversed order, which
        gives each row the same shape: 1 at its last pair and 0 at the last
        pair of every other row.  So the two parts, merged by last pair, are
        the kernel basis of the ungraded solve, form by form.  With one
        weight class, as in a nilpotent algebra, the dw = 0 system is the
        whole one."""
        g = self.algebra
        n = g.dim
        weights = g.weights()
        classes = g.weight_classes()
        opposite = {w: classes.get(tuple(-x for x in w), ()) for w in classes}
        # the weight-0 pairs {m, t}, w_t = -w_m, in their order among all pairs;
        # column[s][t] is the column of the weight-0 pair {s, t}
        zero_pairs = [(m, t) for m, w in enumerate(weights) for t in opposite[w] if t > m]
        column = [[0] * n for _ in range(n)]
        for idx, (i, j) in enumerate(zero_pairs):
            column[i][j] = column[j][i] = idx
        # w(e_m, e_t) is the coordinate of the pair's column if m < t, else its negation
        partners: list[list[tuple[int, int, int]]] = [
            [(t, column[m][t], 1 if m < t else -1) for t in opposite[w] if t != m]
            for m, w in enumerate(weights)
        ]
        # dw = 0 on the weight-0 pairs, one row per triple
        rows = g.compositions(partners)
        z2 = [
            TwoForm._of(n, {zero_pairs[j]: c for j, c in v.items()})
            for v in sparse_kernel_rows(sparse_rref(rows.values()), len(zero_pairs))
        ]

        # Z^2_{!=0} = B^2_{!=0}, with column j reversed to size - 1 - j
        size = n * (n - 1) // 2
        last = size - 1
        graded = sparse_rref(
            {last - j: x for j, x in self._image[k].items() if j < size}
            for k in range(n)
            if any(weights[k])
        )
        if graded:
            pairs = _pair_index(n)
            z2.extend(
                TwoForm._of(n, {pairs[last - j]: c for j, c in row.items()})
                for row in graded.values()
            )
            z2.sort(key=lambda z: max(z.coords))
        return tuple(z2)

    @cached_property
    def _exact(self) -> tuple[tuple[TwoForm, ...], tuple[tuple[Fraction, ...], ...]]:
        """B^2 as the reduced echelon form of all the rows d(e^k), each
        tagged with e^k in the columns after the pairs, so that reduction
        records a covector preimage of each basis form."""
        n = self.algebra.dim
        pairs = _pair_index(n)
        size = len(pairs)
        pivots = sparse_rref(self._image)
        b2 = []
        b2_pre = []
        for p in sorted(pivots):
            if p < size:
                upper = {pairs[j]: c for j, c in pivots[p].items() if j < size}
                b2.append(TwoForm._of(n, upper))
                b2_pre.append(dense_row(pivots[p], size, size + n))
        return tuple(b2), tuple(b2_pre)

    @property
    def b2_basis(self) -> tuple[TwoForm, ...]:
        return self._exact[0]

    @property
    def b2_preimages(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._exact[1]


def cocycle_space(g: LieAlgebra) -> CocycleSpace:
    """The cocycle space of ``g``, ``CocycleSpace(g)``: nothing is solved
    here, and each of Z^2 and B^2 is solved when first read, so a reader
    that needs only Z^2 (a decision whose closed Pfaffian is zero, which
    makes the exact one zero as B^2 ⊆ Z^2) or neither (odd dimension) pays
    for no more."""
    return CocycleSpace(g)


def generic_cocycle(cs: CocycleSpace) -> TwoForm:
    """sum_i t_i * (i-th Z^2 basis element) with fresh parameters t1..tm."""
    return _generic_combination(cs.algebra.dim, cs.z2_basis)


def _generic_combination(n: int, basis: Sequence[TwoForm]) -> TwoForm:
    """sum_k t_k * basis[k], built coordinate by coordinate: each is one
    polynomial with a term c * t_k per form."""
    names = _parameters(len(basis))
    upper: dict[tuple[int, int], dict[Monomial, Fraction]] = {}
    for k, z in enumerate(basis):
        t_k = ((k, 1),)
        for pair, c in z.coords.items():
            upper.setdefault(pair, {})[t_k] = c
    # one term c * t_k per form, with a nonzero coefficient
    coords = {pair: MultiPoly._trusted(names, terms) for pair, terms in upper.items()}
    return TwoForm._of(n, coords, names, concrete=not names)


def _parameters(m: int) -> tuple[str, ...]:
    """The parameter names t1..tm of a generic combination of m forms."""
    return tuple(f"t{k + 1}" for k in range(m))


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
    Each shell is tried at its corner, then walked depth first in lex order
    (see ``_first_in_shell``), so the walk never visits the points of a
    subtree on which p vanishes identically; the point found is re-checked
    with ``MultiPoly.evaluate``.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes everywhere")
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValueError(f"repeated variable name in {names}")
    terms = _integer_terms(p, names)  # raises if p has a variable not in names
    if not names:
        return {}
    degree = max((e for mono in terms for _, e in mono), default=0)
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


def _fix_first(terms: dict[Monomial, int], k: int, v: int) -> dict[Monomial, int]:
    """Substitute v for variable k, the lowest any monomial holds; zero terms are dropped."""
    out: dict[Monomial, int] = {}
    for mono, c in terms.items():
        if mono and mono[0][0] == k:
            c *= v ** mono[0][1]
            mono = mono[1:]
        x = out.get(mono, 0) + c
        if x:
            out[mono] = x
        else:
            out.pop(mono, None)
    return out


def _first_in_shell(terms: dict[Monomial, int], m: int, radius: int) -> tuple[int, ...] | None:
    """The lex-first integer point of max-norm exactly ``radius`` at which
    the polynomial ``terms`` over the variables 0 .. m-1 is nonzero, or None.

    Coordinates are fixed one at a time, in index order, from -radius to
    radius, each substituted into the polynomial, so the next one sits at
    the front of each monomial that holds it.  A subtree whose partial
    polynomial is identically zero is pruned, and so is one where some later
    variable makes it vanish for each of its 2 radius + 1 values.  A
    coordinate that no longer occurs is set to -radius without branching:
    that value comes first, puts the point on the shell, and so admits
    every completion any other value admits.

    The walk starts only when the value at the corner (-radius, ..., -radius),
    the lex-first point of the shell, sum c * (-radius)^deg, is zero.
    """
    if sum(c * (-radius) ** sum(e for _, e in mono) for mono, c in terms.items()):
        return (-radius,) * m
    point = [0] * m
    # A polynomial of degree <= 2 radius in x that vanishes for each of the
    # 2 radius + 1 values of x is zero, so only variables of higher degree
    # can prune; substitution never raises a degree, so this list holds all
    # the variables that ever can.
    high = sorted({k for mono in terms for k, e in mono if e > 2 * radius})

    def vanishes_on_line(rest: dict[Monomial, int], k: int) -> bool:
        """Whether rest is zero for each value of variable k."""
        by_rest: dict[Monomial, dict[int, int]] = {}
        for mono, c in rest.items():
            for i, (j, e) in enumerate(mono):
                if j == k:
                    by_rest.setdefault(mono[:i] + mono[i + 1:], {})[e] = c
                    break
            else:
                return False  # nonzero at x_k = 0
        return all(
            not sum(c * v**e for e, c in line.items())
            for line in by_rest.values()
            for v in range(-radius, radius + 1)
        )

    def walk(pos: int, rest: dict[Monomial, int], touched: bool) -> bool:
        if pos == m:
            return True  # the last coordinate takes only values that reach the shell
        if any(vanishes_on_line(rest, k) for k in high if k >= pos):
            return False
        if not any(mono and mono[0][0] == pos for mono in rest):
            point[pos] = -radius
            return walk(pos + 1, rest, True)
        for v in range(-radius, radius + 1):
            reached = touched or abs(v) == radius
            if not reached and pos == m - 1:
                continue
            point[pos] = v
            fixed = _fix_first(rest, pos, v)
            if fixed and walk(pos + 1, fixed, reached):
                return True
        return False

    return tuple(point) if walk(0, terms, False) else None


# -- the decision -------------------------------------------------------------


@dataclass(frozen=True)
class SymplecticVerdict:
    """Outcome of the symplectic / exact-symplectic decision for one algebra.

    ``exists`` and ``exact_exists`` are "yes", "no" or "odd" (odd dimension,
    not applicable).  ``pfaffian`` and ``exact_pfaffian`` are those of the
    generic forms over the Z^2 and B^2 bases of ``cocycles`` (zero in odd
    dimension, where none is taken).  After a "no" for Z^2, or when a basis
    vector is central (in no pair of the bracket table), ``exact_pfaffian``
    is the zero polynomial over no variables: it is not taken, since
    B^2 ⊆ Z^2, or the central vector's zero row, makes it zero.  When
    "yes", the matching witness
    fields hold a concrete closed two-form with nonzero Pfaffian;
    ``exact_witness`` is d of the recorded ``exact_one_form``.
    """

    dim: int
    exists: str
    pfaffian: MultiPoly
    witness: TwoForm | None
    exact_exists: str
    exact_pfaffian: MultiPoly
    exact_witness: TwoForm | None
    exact_one_form: tuple[Fraction, ...] | None
    cocycles: CocycleSpace

    @property
    def degenerate(self) -> bool:
        """Dimension zero: the empty form is vacuously symplectic and exact."""
        return self.dim == 0


def decide_symplectic(g: LieAlgebra) -> SymplecticVerdict:
    """Decide symplectic existence through the Pfaffian of the generic closed
    form ``generic_cocycle(cocycle_space(g))``, and exact existence through
    that of the generic exact form.

    Odd dimension short-circuits to "odd" with a zero Pfaffian (an odd
    antisymmetric matrix is always singular), and solves neither Z^2 nor
    B^2: the verdict's ``cocycles`` solves each when read.  When the closed
    Pfaffian is the zero polynomial, every rational closed form is
    degenerate; every exact form is closed (B^2 ⊆ Z^2), so the exact
    Pfaffian vanishes at every rational point, and, Q being infinite, is
    the zero polynomial: exact existence is "no" without solving B^2.  So
    it is when a basis vector e_z lies in no pair of the bracket table
    (:meth:`LieAlgebra.central_basis_vectors`), as in every nilpotent table
    in an adapted basis: e_z is central, (d a)(e_z, .) = -a([e_z, .]) = 0,
    so every B^2 basis form has a zero row at z and the exact Pfaffian is
    the zero polynomial, given as the one over no variables.  In
    dimension zero the empty Pfaffian is 1, so the algebra is vacuously
    symplectic (and flagged as ``degenerate``).  The witness search bounds
    itself (see :func:`find_nonvanishing_point`).  Neither generic form is
    built: each Pfaffian is packed from its basis forms.
    """
    cs = cocycle_space(g)
    n = g.dim
    if n % 2 != 0:
        zero = MultiPoly.zero()
        return SymplecticVerdict(
            dim=n,
            exists="odd",
            pfaffian=zero,
            witness=None,
            exact_exists="odd",
            exact_pfaffian=zero,
            exact_witness=None,
            exact_one_form=None,
            cocycles=cs,
        )

    pf, witness, _ = _pfaffian_and_witness(n, cs.z2_basis)
    if pf.is_zero() or g.central_basis_vectors():
        # every closed form is degenerate, so every exact one is (B^2 ⊆ Z^2);
        # or a central e_z is in the kernel of every exact form
        exact_pf, exact_witness, point = MultiPoly.zero(), None, None
    else:
        exact_pf, exact_witness, point = _pfaffian_and_witness(n, cs.b2_basis)
    exact_one_form = None
    if point is not None:
        alpha = [0] * n
        for name, pre in zip(_parameters(len(cs.b2_basis)), cs.b2_preimages):
            c = point[name]
            if c:
                for k, x in enumerate(pre):
                    if x:
                        alpha[k] += c * x
        exact_one_form = tuple(alpha)

    return SymplecticVerdict(
        dim=n,
        exists="yes" if not pf.is_zero() else "no",
        pfaffian=pf,
        witness=witness,
        exact_exists="yes" if not exact_pf.is_zero() else "no",
        exact_pfaffian=exact_pf,
        exact_witness=exact_witness,
        exact_one_form=exact_one_form,
        cocycles=cs,
    )


def _pfaffian_and_witness(
    n: int, basis: Sequence[TwoForm]
) -> tuple[MultiPoly, TwoForm | None, dict[str, int] | None]:
    """The Pfaffian of ``_generic_combination(n, basis)``, over its parameters
    t1..tm, and, when it is nonzero, the witness form at its first
    nonvanishing point, and that point; otherwise None for both.  The
    Pfaffian is packed straight from the basis forms, the k-th keyed by the
    monomial t_k, so the generic form itself is not built."""
    names = _parameters(len(basis))
    pf = monomial_pfaffian(n, {((k, 1),): z.coords for k, z in enumerate(basis)}, names)
    if pf.is_zero():
        return pf, None, None
    point = find_nonvanishing_point(pf, names)
    return pf, _specialized_combination(n, basis, names, point), point


# -- geometry helpers -----------------------------------------------------------


def pullback(g: LieAlgebra, t: Mapping[int, Mapping[int, object]], w: TwoForm) -> TwoForm:
    """(T* w)(x, y) = w(Tx, Ty), for T given by its sparse columns
    {j: {k: c}} (T e_j = sum_k c e_k); as matrices, T^t M T."""
    n = g.dim
    if w.dim != n or not _in_range(t, n):
        raise ValueError("dimension mismatch")
    if len(sparse_rref(t.values())) != n:
        raise ValueError("pullback requires an invertible map")
    # w(Te_i, Te_j) = sum over the pairs a < b of w_ab (T_ai T_bj - T_bi T_aj)
    items = []
    cols = sorted(t.items())
    for (a, b), c in w.coords.items():
        for x, (i, ci) in enumerate(cols):
            for j, cj in cols[x + 1 :]:
                f = ci.get(a, 0) * cj.get(b, 0) - ci.get(b, 0) * cj.get(a, 0)
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
    # a partial product e^S is keyed by the bitmask of S; e^{i j} moves past
    # the members of S above i and above j, which sets its sign
    pair_terms = [(i, j, 1 << i | 1 << j, c) for (i, j), c in w.coords.items()]
    acc: dict[int, int | Fraction] = {0: 1}
    for _ in range(m):
        nxt: dict[int, int | Fraction] = {}
        for mask, coeff in acc.items():
            for i, j, bits, c in pair_terms:
                if mask & bits:
                    continue
                term = coeff * c
                if ((mask >> i).bit_count() + (mask >> j).bit_count()) & 1:
                    term = -term
                key = mask | bits
                val = nxt.get(key, 0) + term
                if val == 0:
                    nxt.pop(key, None)
                else:
                    nxt[key] = val
        acc = nxt
    return as_exact(acc.get((1 << n) - 1, 0))
