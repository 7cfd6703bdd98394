"""Derivation algebras, torus actions, semidirect products, completeness.

A torus action packages an abelian family of semisimple derivations of a
nilpotent algebra; adjoining its generators after the nilradical basis gives
the solvable algebra ``semidirect(t)`` with the bracket

    [h1 + n1, h2 + n2] = h1(n2) - h2(n1) + [n1, n2].

Tori are supplied (from reference data or the user) and verified here; no
attempt is made to construct a maximal torus from scratch.  Maximality is
instead certified numerically through the rank bound dim(n / [n, n]) and,
independently, through the completeness check on the semidirect product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .liealg import LieAlgebra, Subspace
from .linalg import (
    RationalMatrix,
    sparse_kernel_basis,
    sparse_rref,
    upoly_is_squarefree,
    upoly_rational_roots,
    upoly_splits_over_q,
)


@dataclass(frozen=True)
class DerivationBasis:
    """A basis of Der(g), each element an n x n matrix acting on basis columns."""

    algebra_dim: int
    basis: tuple[RationalMatrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, m: RationalMatrix) -> bool:
        if not self.basis:
            return m.is_zero()
        system = RationalMatrix.from_columns([d.flatten() for d in self.basis])
        return system.solve(m.flatten()) is not None


def _leibniz_rows(g: LieAlgebra) -> dict[tuple[int, int, int], dict[int, Fraction]]:
    """The Leibniz identity D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] as
    linear equations in the entries of D.

    D is flattened row-major (D[r][c] at index r*n + c, so column c holds
    D e_c); there is one sparse row per basis pair i < j and component k,
    assembled from the bracket table.  Equations with no terms are absent.
    """
    n = g.dim
    rows: dict[tuple[int, int, int], dict[int, Fraction]] = {}

    def add(key: tuple[int, int, int], col: int, c: Fraction) -> None:
        row = rows.setdefault(key, {})
        x = row.get(col, 0) + c
        if x:
            row[col] = x
        else:
            del row[col]

    for (a, b), coeffs in g.table.items():
        for m, c in coeffs.items():
            # D applied to [e_a, e_b] = sum_m c e_m, in every component k
            for k in range(n):
                add((a, b, k), k * n + m, c)
        for k, c in coeffs.items():
            # minus [D e_i, e_j]: the e_a- and e_b-components of D e_i
            for i in range(b):
                add((i, b, k), a * n + i, -c)
            for i in range(a):
                add((i, a, k), b * n + i, c)
            # minus [e_i, D e_j]: the e_b- and e_a-components of D e_j
            for j in range(a + 1, n):
                add((a, j, k), b * n + j, -c)
            for j in range(b + 1, n):
                add((b, j, k), a * n + j, c)
    return rows


def _satisfies(rows: dict[tuple[int, int, int], dict[int, Fraction]], d: RationalMatrix) -> bool:
    flat = d.flatten()
    return all(sum(c * flat[col] for col, c in row.items()) == 0 for row in rows.values())


def is_derivation(g: LieAlgebra, d: RationalMatrix) -> bool:
    """Leibniz identity D[x,y] = [Dx,y] + [x,Dy] on all basis pairs."""
    if d.rows != g.dim or d.cols != g.dim:
        return False
    return _satisfies(_leibniz_rows(g), d)


def derivation_algebra(g: LieAlgebra) -> DerivationBasis:
    """Solve the Leibniz identity as a linear system on n x n matrices,
    flattened row-major (see ``_leibniz_rows``)."""
    n = g.dim
    kernel = sparse_kernel_basis(sparse_rref(_leibniz_rows(g).values()), n * n)
    mats = tuple(
        RationalMatrix([v[r * n : (r + 1) * n] for r in range(n)]) for v in kernel
    )
    return DerivationBasis(n, mats)


@dataclass(frozen=True)
class CompletenessReport:
    """Center and derivation dimensions of an algebra.

    Der(g) is solved only when ``derivation_dim`` is read, and ``complete``
    reads it only for a trivial center: otherwise the answer is already no.
    """

    algebra: LieAlgebra
    center_dim: int

    @cached_property
    def derivation_dim(self) -> int:
        return derivation_algebra(self.algebra).dim

    @property
    def ad_dim(self) -> int:
        return self.algebra.dim - self.center_dim

    @property
    def complete(self) -> bool:
        return self.center_dim == 0 and self.derivation_dim == self.algebra.dim


def is_complete(g: LieAlgebra) -> CompletenessReport:
    """Trivial center plus dim Der(g) = dim g forces every derivation inner."""
    return CompletenessReport(g, g.center().dim)


@dataclass(frozen=True)
class TorusAction:
    """Commuting semisimple derivations acting on a nilpotent algebra."""

    nilradical: LieAlgebra
    generators: tuple[RationalMatrix, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        labels = tuple(self.labels)
        if not labels:
            n = self.nilradical.dim
            labels = tuple(f"e{n + a + 1}" for a in range(len(gens)))
        if len(labels) != len(gens):
            raise ValueError("one label per torus generator is required")
        object.__setattr__(self, "labels", labels)

    @property
    def rank(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class TorusCheck:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_torus(t: TorusAction) -> TorusCheck:
    """Check the torus axioms, reporting the first violated property.

    Semisimplicity is tested as squarefreeness of the minimal polynomial,
    which characterises semisimple action over any field of characteristic
    zero (rational diagonalisability is strictly stronger and not required).
    A diagonal generator is semisimple outright, and diagonal generators
    commute, so neither test runs for them.
    """
    n = t.nilradical.dim
    rows = _leibniz_rows(t.nilradical)
    for a, d in enumerate(t.generators):
        if d.rows != n or d.cols != n:
            return TorusCheck(False, f"generator {t.labels[a]} has the wrong shape")
        if not _satisfies(rows, d):
            return TorusCheck(False, f"generator {t.labels[a]} is not a derivation")
    diagonal = [d.is_diagonal() for d in t.generators]
    for a in range(len(t.generators)):
        for b in range(a + 1, len(t.generators)):
            if diagonal[a] and diagonal[b]:
                continue
            da, db = t.generators[a], t.generators[b]
            if not (da @ db - db @ da).is_zero():
                return TorusCheck(
                    False, f"generators {t.labels[a]} and {t.labels[b]} do not commute"
                )
    for a, d in enumerate(t.generators):
        if not diagonal[a] and not upoly_is_squarefree(d.minimal_polynomial()):
            return TorusCheck(
                False,
                f"generator {t.labels[a]} is not semisimple "
                "(minimal polynomial has a repeated factor)",
            )
    return TorusCheck(True)


def semidirect(t: TorusAction) -> LieAlgebra:
    """The solvable algebra on h + n with torus generators adjoined last.

    Raises ValueError when the torus axioms fail or the product violates
    the Jacobi identity (as it does when the nilradical table does).
    """
    check = verify_torus(t)
    if not check.ok:
        raise ValueError(f"invalid torus action: {check.violation}")
    n = t.nilradical.dim
    r = t.rank
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {
        pair: dict(coeffs) for pair, coeffs in t.nilradical.table.items()
    }
    for a, d in enumerate(t.generators):
        h = n + a
        for i in range(n):
            col = {k: -d[k, i] for k in range(n) if d[k, i] != 0}
            if col:
                brackets[(i, h)] = col  # [e_i, h] = -h(e_i)
    labels = t.nilradical.labels + t.labels
    g = LieAlgebra(n + r, brackets, labels)
    failure = g.jacobi_failure()
    if failure is not None:
        raise ValueError(f"semidirect product violates Jacobi at triple {failure}")
    return g


def rank_bound(n: LieAlgebra) -> int:
    """dim n - dim [n, n]; an upper bound for the dimension of any torus."""
    if not n.is_nilpotent():
        raise ValueError("rank bound is defined for nilpotent algebras")
    return n.dim - n.derived_subalgebra().dim


def is_maximal_rank(t: TorusAction, bound: int | None = None) -> bool:
    """Whether the supplied torus exhausts the rank bound of its nilradical
    (``bound``, when the caller has already computed it)."""
    if bound is None:
        bound = rank_bound(t.nilradical)
    if t.rank > bound:
        raise ValueError(
            f"torus has {t.rank} generators but the rank bound is {bound}; "
            "the generators cannot be an independent commuting semisimple family"
        )
    return t.rank == bound


class NotRationallyDiagonalizable(ValueError):
    """A torus generator has irrational eigenvalues; no root split over Q."""


@dataclass(frozen=True)
class RootDecomposition:
    roots: tuple[tuple[Fraction, ...], ...]
    spaces: tuple[Subspace, ...]

    def root_of(self, v: Sequence) -> tuple[Fraction, ...] | None:
        for beta, space in zip(self.roots, self.spaces):
            if space.contains(v):
                return beta
        return None


def root_decomposition(t: TorusAction) -> RootDecomposition:
    """Simultaneous eigenspace decomposition of the nilradical.

    Requires every generator to act diagonalizably over Q; otherwise raises
    NotRationallyDiagonalizable (the decomposition is skipped, not falsified).
    """
    n = t.nilradical.dim
    pieces: list[tuple[tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]] = [
        ((), Subspace.full(n).basis)
    ]
    for a, d in enumerate(t.generators):
        minpoly = d.minimal_polynomial()
        if not upoly_splits_over_q(minpoly):
            raise NotRationallyDiagonalizable(
                f"generator {t.labels[a]} is not diagonalizable over Q "
                "(its minimal polynomial has irrational roots)"
            )
        eigenvalues = upoly_rational_roots(minpoly)
        refined = []
        for beta, basis in pieces:
            if not basis:
                continue
            # restrict the generator to the invariant piece
            piece = RationalMatrix(basis)
            images = RationalMatrix([d.apply(v) for v in basis])
            restricted_rows = []
            for img in images.data:
                sol = piece.transpose().solve(img)
                if sol is None:
                    raise AssertionError("torus generator does not preserve the piece")
                restricted_rows.append(sol)
            restricted = RationalMatrix(restricted_rows).transpose()
            covered = 0
            for lam in eigenvalues:
                shifted = restricted - RationalMatrix.identity(len(basis)).scale(lam)
                kernel = shifted.kernel_basis()
                if not kernel:
                    continue
                lifted = tuple(
                    tuple(
                        sum(c * basis[m][j] for m, c in enumerate(coeffs))
                        for j in range(n)
                    )
                    for coeffs in kernel
                )
                refined.append((beta + (lam,), lifted))
                covered += len(kernel)
            if covered != len(basis):
                raise NotRationallyDiagonalizable(
                    f"generator {t.labels[a]} does not split the nilradical over Q"
                )
        pieces = refined
    pieces.sort(key=lambda item: item[0])
    roots = tuple(beta for beta, _ in pieces)
    spaces = tuple(Subspace(n, basis) for _, basis in pieces)
    if sum(s.dim for s in spaces) != n:
        raise AssertionError("root spaces do not fill the nilradical")
    return RootDecomposition(roots, spaces)
