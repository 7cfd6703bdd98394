"""Lie algebras given by rational structure constants.

A :class:`LieAlgebra` stores, for each basis pair i < j, the expansion of
[e_i, e_j] in the basis; pairs that never appear bracket to zero and the
(j, i) orientation is implied by antisymmetry.  All vectors are plain tuples
of Fractions in the algebra's basis coordinates.

:class:`Subspace` keeps its basis in reduced echelon form, which makes
equality, membership and dimension exact and canonical.
"""

from __future__ import annotations

from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Mapping, Sequence

from .linalg import (
    Q,
    RationalMatrix,
    as_fraction,
    dense_row,
    reduce_row,
    sparse_kernel_basis,
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
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
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

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

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
        return cls(n, ({i: Q(1)} for i in range(n)))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, ())


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q, defined by structure constants.

    ``table`` maps basis pairs (i, j) with i < j to sparse coefficient maps
    {k: c} meaning [e_i, e_j] = sum_k c * e_k.  Construction accepts either
    orientation and normalises; a pair bracketing to zero is simply omitted.
    """

    __slots__ = ("dim", "labels", "table")

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, Fraction]] | None = None,
        labels: Sequence[str] | None = None,
    ):
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(dim))
        labels = tuple(labels)
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        if len(set(labels)) != dim:
            raise ValueError("duplicate basis labels")
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
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
                    c = as_fraction(c)
                    if flip:
                        c = -c
                    x = slot.get(k)
                    if x is not None:
                        c += x
                    if c:
                        slot[k] = c
                    elif x is not None:
                        del slot[k]
                if not slot:
                    del table[(i, j)]
        self.dim = dim
        self.labels = labels
        self.table = table

    # -- bracket --------------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a sparse coefficient map."""
        if i == j:
            return {}
        if i < j:
            return dict(self.table.get((i, j), {}))
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
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

    def ad_matrix(self, x: Sequence) -> RationalMatrix:
        """Matrix of ad_x = [x, .] in the basis (columns are images)."""
        x = vector(x)
        cols = [self.bracket(x, unit) for unit in RationalMatrix.identity(self.dim).data]
        return RationalMatrix.from_columns(cols)

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Q(1) if j == i else Q(0) for j in range(self.dim))

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown basis label {label!r}") from None

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

    def jacobi_failure(self) -> tuple[int, int, int] | None:
        """First basis triple (i < j < k) violating the Jacobi identity, if any.

        The Jacobi sum of i < j < k is [[e_i, e_j], e_k] + [[e_j, e_k], e_i]
        - [[e_i, e_k], e_j].  Only nonzero compositions are formed: for each
        table pair a < b, each e_m in [e_a, e_b] and each t with
        [e_m, e_t] != 0, the term c_ab^m [e_m, e_t] goes into the sum of the
        triple {a, b, t}, negated when a < t < b.
        """
        # ad e_m as (t, [e_m, e_t] up to sign, negated) for each neighbour t
        neighbours: list[list[tuple[int, Mapping[int, Fraction], bool]]] = [
            [] for _ in range(self.dim)
        ]
        for (a, b), coeffs in self.table.items():
            neighbours[a].append((b, coeffs, False))
            neighbours[b].append((a, coeffs, True))
        sums: dict[tuple[int, int, int], dict[int, Fraction]] = {}
        for (a, b), coeffs in self.table.items():
            for m, x in coeffs.items():
                for t, terms, negated in neighbours[m]:
                    if t > b:
                        key, sign = (a, b, t), negated
                    elif t < a:
                        key, sign = (t, a, b), negated
                    elif a < t < b:
                        key, sign = (a, t, b), not negated
                    else:
                        continue
                    f = -x if sign else x
                    acc = sums.setdefault(key, {})
                    for u, y in terms.items():
                        acc[u] = acc.get(u, 0) + f * y
        failing = [key for key, acc in sums.items() if any(acc.values())]
        return min(failing) if failing else None

    def jacobi_holds(self) -> bool:
        return self.jacobi_failure() is None

    # -- classical subspaces ----------------------------------------------------

    def center(self) -> Subspace:
        """Kernel of x |-> ([x, e_j])_j, i.e. everything that brackets to zero.

        One equation per (j, k), sum_i c_ij^k x_i = 0, assembled from the
        bracket table.
        """
        rows: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (a, b), coeffs in self.table.items():
            for k, c in coeffs.items():
                rows.setdefault((b, k), {})[a] = c
                rows.setdefault((a, k), {})[b] = -c
        kernel = sparse_kernel_basis(sparse_rref(rows.values()), self.dim)
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
        full = Subspace.full(self.dim)
        series = [full]
        while True:
            nxt = self.subalgebra_product(full, series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
            if nxt.is_zero():
                break
        return series

    def derived_series(self) -> list[Subspace]:
        """g, [g, g], [[g, g], [g, g]], ... until the chain stabilises."""
        series = [Subspace.full(self.dim)]
        while True:
            nxt = self.subalgebra_product(series[-1], series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
            if nxt.is_zero():
                break
        return series

    def has_acyclic_bracket_graph(self) -> bool:
        """Whether the graph with an edge a -> k and b -> k for every nonzero
        c_ab^k has no cycle (a self-loop is one).

        This certifies nilpotency: in a topological order of the graph, every
        ad e_a sends each e_b to later basis vectors, so every ad x lowers the
        flag of that order.  A nilpotent algebra in a basis adapted to no such
        flag has a cycle too, so a cycle alone proves nothing.
        """
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
            not reduce_row(self._bracket_rows({i: Q(1)}, v), w._rows)
            for i in range(self.dim)
            for v in w._rows.values()
        )
