"""Lie algebras given by rational structure constants.

A :class:`LieAlgebra` stores, for each basis pair i < j, the expansion of
[e_i, e_j] in the basis; pairs that never appear bracket to zero and the
(j, i) orientation is implied by antisymmetry.  A structure constant is an
int when it is integral and a Fraction otherwise, so the systems assembled
from the table (Jacobi sums, dw, Z^2/B^2, the center, the Leibniz rows) run
on ints wherever no denominator appears.  The Jacobi sums, dw and the
Z^2 rows are one walk of the table, :meth:`LieAlgebra.compositions`,
summed per basis triple and column.  All vectors are plain tuples of
exact values (see :mod:`liesymp.linalg`) in the algebra's basis coordinates.

:class:`Subspace` keeps its basis in reduced echelon form, which makes
equality, membership and dimension exact and canonical.
"""

from __future__ import annotations

from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from itertools import chain
from typing import Container, Iterable, Mapping, Sequence

from .linalg import (
    as_exact,
    as_fraction,
    dense_row,
    reduce_row,
    sparse_kernel_rows,
    sparse_row,
    sparse_rref,
    vector,
)


MAX_DIM = 64
"""The largest algebra dimension accepted from outside input: a ``.lie``
file (basis plus torus labels) or a catalog family parameter.  It is well
above the dimensions studied (up to about 20) and bounds the size of every
exact linear system built from the input."""


def check_dim(dim: int) -> None:
    """Raise ValueError, before anything is built, for an algebra of
    dimension ``dim`` above :data:`MAX_DIM`."""
    if dim > MAX_DIM:
        raise ValueError(f"algebra dimension {dim} exceeds the maximum of {MAX_DIM}")


class Subspace:
    """A linear subspace of Q^n with a canonical (reduced echelon) basis.

    The spanning vectors may be dense sequences or sparse ``{index: Fraction}``
    rows (see :mod:`liesymp.linalg`).  The echelon basis is kept as sparse
    pivot rows; ``basis`` and ``pivots`` are dense views of them.
    """

    __slots__ = ("ambient_dim", "_rows")

    def __init__(
        self, ambient_dim: int, vectors: Iterable[Sequence | Mapping[int, Fraction]] = ()
    ):
        rows = []
        for v in vectors:
            if isinstance(v, Mapping):
                if any(not 0 <= j < ambient_dim for j in v):
                    raise ValueError("vector index out of the ambient dimension")
                rows.append(v)
            else:
                v = vector(v)
                if len(v) != ambient_dim:
                    raise ValueError("vector length does not match ambient dimension")
                rows.append(sparse_row(v))
        self._rows = sparse_rref(rows)
        self.ambient_dim = ambient_dim

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    @property
    def basis(self) -> tuple[tuple[int | Fraction, ...], ...]:
        return tuple(dense_row(self._rows[p], 0, self.ambient_dim) for p in self.pivots)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_zero(self) -> bool:
        return not self._rows

    def contains(self, v: Sequence) -> bool:
        v = vector(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return not reduce_row(sparse_row(v), self._rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, ({i: 1} for i in range(n)))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, ())


def _default_labels(dim: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(dim))


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q, defined by structure constants.

    ``table`` maps basis pairs (i, j) with i < j to sparse coefficient maps
    {k: c} meaning [e_i, e_j] = sum_k c * e_k, each c nonzero, an int when
    integral and a Fraction otherwise.  Construction accepts ints, strings
    and Fractions in either orientation and normalises; a pair bracketing to
    zero is simply omitted.
    """

    __slots__ = ("dim", "labels", "table", "_grading")

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, Fraction]] | None = None,
        labels: Sequence[str] | None = None,
    ):
        labels = _default_labels(dim) if labels is None else tuple(labels)
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        if len(set(labels)) != dim:
            raise ValueError("duplicate basis labels")
        table: dict[tuple[int, int], dict[int, int | Fraction]] = {}
        if brackets:
            for (i, j), coeffs in brackets.items():
                if not (0 <= i < dim and 0 <= j < dim):
                    raise ValueError(f"basis index out of range in pair ({i}, {j})")
                if i == j:
                    if any(as_fraction(c) != 0 for c in coeffs.values()):
                        raise ValueError(f"[e_{i}, e_{i}] must be zero")
                    continue
                flip = i > j
                if flip:
                    i, j = j, i
                slot = table.setdefault((i, j), {})
                for k, c in coeffs.items():
                    if not 0 <= k < dim:
                        raise ValueError(f"component index {k} out of range")
                    c = as_exact(c)
                    if flip:
                        c = -c
                    x = slot.get(k)
                    if x is not None:
                        c = as_exact(c + x)
                    if c:
                        slot[k] = c
                    elif x is not None:
                        del slot[k]
                if not slot:
                    del table[(i, j)]
        self._hold(dim, table, labels)

    @classmethod
    def _trusted(
        cls, dim: int, table: dict[tuple[int, int], dict[int, int | Fraction]],
        labels: Sequence[str] | None = None,
    ) -> "LieAlgebra":
        """An algebra from a table that already holds the invariants (pairs
        i < j < dim, components in range(dim), each value nonzero and an int
        when integral) and distinct labels, the default ones when None; no
        copy and no check."""
        g = cls.__new__(cls)
        g._hold(dim, table, _default_labels(dim) if labels is None else tuple(labels))
        return g

    def _hold(self, dim: int, table: dict, labels: tuple[str, ...]) -> None:
        self.dim = dim
        self.labels = labels
        self.table = table
        self._grading = None  # (weights, weight_classes, grading_vectors), read once by _grade

    # -- bracket --------------------------------------------------------------

    def bracket(self, x: Sequence, y: Sequence) -> tuple[int | Fraction, ...]:
        """Bilinear antisymmetric extension of the structure constants."""
        x, y = vector(x), vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        return dense_row(self._bracket_rows(sparse_row(x), sparse_row(y)), 0, self.dim)

    def _bracket_rows(
        self, x: Mapping[int, Fraction], y: Mapping[int, Fraction]
    ) -> dict[int, Fraction]:
        """[x, y] for sparse coordinate maps, summed over their nonzero
        coordinates only; the result may hold zero entries."""
        table = self.table
        out: dict[int, Fraction] = {}
        for i, a in x.items():
            for j, b in y.items():
                if i < j:
                    coeffs = table.get((i, j))
                    f = a * b
                elif i > j:
                    coeffs = table.get((j, i))
                    f = -a * b
                else:
                    continue
                if coeffs:
                    for k, c in coeffs.items():
                        out[k] = out.get(k, 0) + f * c
        return out

    def basis_vector(self, i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self.labels == other.labels
            and self.table == other.table
        )

    def __repr__(self) -> str:
        return f"LieAlgebra(dim {self.dim}, {len(self.table)} bracket pairs)"

    # -- axioms ----------------------------------------------------------------

    def compositions(
        self, partners: Sequence[Sequence[tuple[int, object, object]]]
    ) -> dict[tuple[int, int, int], dict[object, object]]:
        """The compositions of the bracket table with the partners of each
        basis vector, summed per triple and column, each term signed by the
        orientation of its triple.

        For each table pair a < b, each e_m in [e_a, e_b] = sum_m c e_m and
        each (t, col, x) in ``partners[m]`` with t not in {a, b}, adds f x to
        the column ``col`` of the triple {a, b, t} sorted, where f = c times
        the sign of (a, b, t) as a cyclic order of it, -1 when a < t < b.
        Returns {triple: {col: sum}}, the triples in the order the walk
        first reaches them, with no zero sum and no empty triple.  The Jacobi
        check, ``dw`` and the Z^2 system of ``cocycle_space`` each read it in
        one call.
        """
        sums: dict[tuple[int, int, int], dict[object, object]] = {}
        for (a, b), coeffs in self.table.items():
            for m, c in coeffs.items():
                for t, col, x in partners[m]:
                    if t > b:
                        key, f = (a, b, t), c
                    elif t < a:
                        key, f = (t, a, b), c
                    elif a < t < b:
                        key, f = (a, t, b), -c
                    else:
                        continue
                    acc = sums.setdefault(key, {})
                    y = acc.get(col)
                    acc[col] = f * x if y is None else y + f * x
        out = {}
        for key, acc in sums.items():
            row = {col: y for col, y in acc.items() if y}
            if row:
                out[key] = row
        return out

    def jacobi_failures(self) -> list[tuple[int, int, int]]:
        """Every basis triple (i < j < k) violating the Jacobi identity.

        The Jacobi sum of i < j < k is [[e_i, e_j], e_k] + [[e_j, e_k], e_i]
        - [[e_i, e_k], e_j]: the walk of :meth:`compositions` with the
        partners (t, u, c) of each e_m, one per term c e_u of [e_m, e_t].
        """
        partners: list[list[tuple[int, int, int | Fraction]]] = [[] for _ in range(self.dim)]
        for (a, b), coeffs in self.table.items():
            for u, c in coeffs.items():
                partners[a].append((b, u, c))
                partners[b].append((a, u, -c))
        return list(self.compositions(partners))

    def jacobi_failure(self) -> tuple[int, int, int] | None:
        """The first triple of :meth:`jacobi_failures`, if any."""
        return min(self.jacobi_failures(), default=None)

    def jacobi_holds(self) -> bool:
        return self.jacobi_failure() is None

    # -- grading -----------------------------------------------------------------

    def weights(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """The weight of each basis vector: its eigenvalues under the
        :meth:`grading_vectors`, in increasing order of h, read off the
        bracket table once and kept.

        Each such ad h is a derivation, so the weights grade the algebra:
        [e_a, e_b] has weight w_a + w_b.  With no such h, as in a nilpotent
        algebra, every weight is ().
        """
        if self._grading is None:
            self._grading = self._grade()
        return self._grading[0]

    def weight_classes(self) -> dict[tuple[int | Fraction, ...], tuple[int, ...]]:
        """The basis indices of each weight of :meth:`weights`, increasing;
        computed with the weights."""
        self.weights()
        return self._grading[1]

    def grading_vectors(self) -> tuple[int, ...]:
        """The basis indices h whose ad h is diagonal and nonzero, increasing,
        each of weight 0 ([e_h, e_h'] is a multiple of e_h and of e_h')."""
        self.weights()
        return self._grading[2]

    def _grade(self):
        """The one scan of the bracket table behind :meth:`weights`,
        :meth:`weight_classes` and :meth:`grading_vectors`."""
        ad: dict[int, dict[int, int | Fraction]] = {}  # ad[h][i] = c where [e_h, e_i] = c e_i
        off: set[int] = set()  # the h with some [e_h, e_i] not a multiple of e_i
        for (a, b), coeffs in self.table.items():
            if len(coeffs) == 1 and b in coeffs:
                ad.setdefault(a, {})[b] = coeffs[b]
                off.add(b)
            elif len(coeffs) == 1 and a in coeffs:
                ad.setdefault(b, {})[a] = -coeffs[a]
                off.add(a)
            else:
                off.update((a, b))
        grading = tuple(h for h in sorted(ad) if h not in off)
        weights = tuple(tuple([ad[h].get(i, 0) for h in grading]) for i in range(self.dim))
        classes: dict[tuple, list[int]] = {}
        for i, w in enumerate(weights):
            classes.setdefault(w, []).append(i)
        return weights, {w: tuple(idx) for w, idx in classes.items()}, grading

    # -- classical subspaces ----------------------------------------------------

    def central_basis_vectors(self) -> tuple[int, ...]:
        """The basis indices i in no pair of the bracket table, increasing:
        exactly the e_i with [e_i, e_j] = 0 for every j, read off the table
        in one scan of its pairs.

        A nonempty answer proves a nonzero center without solving for it.
        A nilpotent table in an adapted basis, every nonzero c_ab^k (a < b)
        with k > b as in the catalog and the generated files, always has
        one: its last basis vector, the sink of the acyclic bracket graph
        (see :meth:`has_acyclic_bracket_graph`), has no pair (a, n - 1) with
        a nonzero bracket.
        """
        paired = set(chain.from_iterable(self.table))
        if len(paired) == self.dim:  # as in every t ⋉ n of the catalog
            return ()
        return tuple(i for i in range(self.dim) if i not in paired)

    def center_rows(self, columns: Container[int]) -> list[dict[int, int | Fraction]]:
        """The center's equations, one per (j, k): sum_i c_ij^k x_i = 0 over the
        i in ``columns`` (the other x_i held at zero), as sparse rows."""
        rows: dict[tuple[int, int], dict[int, int | Fraction]] = {}
        for (a, b), coeffs in self.table.items():
            for k, c in coeffs.items():
                if a in columns:
                    rows.setdefault((b, k), {})[a] = c
                if b in columns:
                    rows.setdefault((a, k), {})[b] = -c
        return list(rows.values())

    def center(self) -> Subspace:
        """Kernel of x |-> ([x, e_j])_j, i.e. everything that brackets to
        zero: the solutions of :meth:`center_rows` on every coordinate."""
        kernel = sparse_kernel_rows(sparse_rref(self.center_rows(range(self.dim))), self.dim)
        return Subspace(self.dim, kernel)

    def subalgebra_product(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of all [x, y] with x in a, y in b."""
        return Subspace(
            self.dim,
            (self._bracket_rows(x, y) for x in a._rows.values() for y in b._rows.values()),
        )

    def derived_subalgebra(self) -> Subspace:
        """[g, g], the span of the bracket table's values."""
        return Subspace(self.dim, self.table.values())

    def lower_central_series(self) -> list[Subspace]:
        """g, [g, g], [g, [g, g]], ... until the chain stabilises."""
        return self._series(lower=True)

    def derived_series(self) -> list[Subspace]:
        """g, [g, g], [[g, g], [g, g]], ... until the chain stabilises."""
        return self._series(lower=False)

    def _series(self, lower: bool) -> list[Subspace]:
        """From g, bracket the last term with g (``lower``) or with itself,
        until the term is 0 or repeats."""
        series = [Subspace.full(self.dim)]
        while not series[-1].is_zero():
            nxt = self.subalgebra_product(series[0] if lower else series[-1], series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
        return series

    def has_acyclic_bracket_graph(self) -> bool:
        """Whether the graph with an edge a -> k and b -> k for every nonzero
        c_ab^k has no cycle (a self-loop is one).

        This certifies nilpotency: in a topological order of the graph, every
        ad e_a sends each e_b to later basis vectors, so every ad x lowers the
        flag of that order.  A nilpotent algebra in a basis adapted to no such
        flag has a cycle too, so a cycle alone proves nothing.

        The basis order is topological when every nonzero c_ab^k (a < b) has
        k > b, as in the adapted bases of the catalog; only a table where
        it is not sorts the graph.
        """
        if all(k > b for (_, b), coeffs in self.table.items() for k in coeffs):
            return True
        graph = TopologicalSorter()
        for (a, b), coeffs in self.table.items():
            for k in coeffs:
                graph.add(k, a, b)
        try:
            graph.prepare()
        except CycleError:
            return False
        return True

    def is_nilpotent(self) -> bool:
        return self.has_acyclic_bracket_graph() or self.lower_central_series()[-1].is_zero()

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].is_zero()

    def is_ideal(self, w: Subspace) -> bool:
        """True iff [e_i, w] lies in w for every basis vector e_i."""
        if w.ambient_dim != self.dim:
            raise ValueError("subspace ambient dimension does not match")
        return all(
            not reduce_row(self._bracket_rows({i: 1}, v), w._rows)
            for i in range(self.dim)
            for v in w._rows.values()
        )
