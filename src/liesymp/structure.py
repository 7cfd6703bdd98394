"""Derivation algebras, torus actions, semidirect products, completeness.

A torus action packages an abelian family of semisimple derivations of a
nilpotent algebra; adjoining its generators after the nilradical basis gives
the solvable algebra ``semidirect(t)`` with the bracket

    [h1 + n1, h2 + n2] = h1(n2) - h2(n1) + [n1, n2].

Tori are supplied (from reference data or the user) and verified here; no
attempt is made to construct a maximal torus from scratch.  Maximality is
instead certified numerically through the rank bound dim(n / [n, n]) and,
independently, through the completeness check on the semidirect product.
The rank bound needs n nilpotent, which an acyclic bracket graph certifies
from the table alone; only a table with a cycle computes the lower central
series.

The completeness check solves Der(g) by weight: every basis vector h whose
ad h is diagonal (each [e_h, e_i] a multiple of e_i, read off the bracket
table) grades g, as the torus vector of a diagonal generator diag(l) does
on t ⋉ n, with l_i on e_i and 0 on the torus.  Der(g) splits by the weight
w_r - w_c of an entry D[r][c], and a derivation of weight mu != 0 is inner.
Only the Leibniz rows of the weight-0 block are solved, and

    dim Der(g) = dim Der_0(g) + (dim g - dim g_0)

(see :class:`CompletenessReport`).  ``derivation_algebra`` solves the full
system, for a basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

from .liealg import LieAlgebra, Subspace
from .linalg import (
    RationalMatrix,
    as_exact,
    sparse_kernel_basis,
    sparse_product,
    sparse_row,
    sparse_rref,
    upoly_is_squarefree,
    upoly_rational_roots,
)


@dataclass(frozen=True)
class DerivationBasis:
    """A basis of Der(g), each element an n x n matrix acting on basis columns."""

    algebra_dim: int
    basis: tuple[RationalMatrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _weight_classes(weights: Sequence) -> list[list[int]]:
    """For each basis index, the increasing indices of the same weight."""
    classes: dict = {}
    for i, w in enumerate(weights):
        classes.setdefault(w, []).append(i)
    return [classes[w] for w in weights]


def _leibniz_rows(
    g: LieAlgebra, weights: Sequence | None = None
) -> dict[tuple[int, int, int], dict[int, Fraction]]:
    """The Leibniz identity D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] as
    linear equations in the entries of D.

    D is flattened row-major (D[r][c] at index r*n + c, so column c holds
    D e_c); there is one sparse row per basis pair i < j and component k,
    assembled from the bracket table.  Equations with no terms are absent.

    With ``weights`` (one per basis vector, grading the bracket), only the
    weight-0 unknowns D[r][c] with weights[r] == weights[c] are kept: the
    rows are the Leibniz system of the weight-0 derivations.  Without, every
    basis vector has the same weight and the system is the full one.
    """
    n = g.dim
    classes = _weight_classes(weights or ((),) * n)
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
            for k in classes[m]:
                add((a, b, k), k * n + m, c)
        for k, c in coeffs.items():
            # minus [D e_i, e_j] and [e_i, D e_j]: the e_a-component D[a][i]
            # of D e_i meets e_b, and the e_b-component D[b][j] meets e_a
            for i in classes[a]:
                if i < b:
                    add((i, b, k), a * n + i, -c)
                elif i > b:
                    add((b, i, k), a * n + i, c)
            for j in classes[b]:
                if j < a:
                    add((j, a, k), b * n + j, c)
                elif j > a:
                    add((a, j, k), b * n + j, -c)
    return rows


def _leibniz_holds(g: LieAlgebra, d: RationalMatrix, diagonal: bool) -> bool:
    """The Leibniz identity D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] on every
    basis pair, evaluated on the nonzero entries of D only.

    A ``diagonal`` D = diag(l) satisfies it iff l_a + l_b = l_k for every
    nonzero structure constant c_ab^k, read straight from the bracket table.
    """
    n = g.dim
    rows = d.data
    if diagonal:
        return all(
            rows[a][a] + rows[b][b] == rows[k][k]
            for (a, b), coeffs in g.table.items()
            for k in coeffs
        )
    cols = [{r: rows[r][c] for r in range(n) if rows[r][c]} for c in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # [D e_i, e_j] + [e_i, D e_j] - D[e_i, e_j]
            acc = g._bracket_rows(cols[i], {j: 1})
            for k, c in g._bracket_rows({i: 1}, cols[j]).items():
                acc[k] = acc.get(k, 0) + c
            for m, c in g.table.get((i, j), {}).items():
                for k, x in cols[m].items():
                    acc[k] = acc.get(k, 0) - c * x
            if any(acc.values()):
                return False
    return True


def is_derivation(g: LieAlgebra, d: RationalMatrix) -> bool:
    """Leibniz identity D[x,y] = [Dx,y] + [x,Dy] on all basis pairs."""
    if d.rows != g.dim or d.cols != g.dim:
        return False
    return _leibniz_holds(g, d, d.is_diagonal())


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

    The center and Der(g) are solved only when read, and ``complete`` reads
    Der(g) only for a trivial center: otherwise the answer is already no.
    Only the center's dimension is needed, so ``center_dim`` is dim g minus
    the rank of :meth:`LieAlgebra.center_rows`, with no basis solved.

    ``weights`` (one per basis vector) are the eigenvalues of the diagonal
    inner derivations ad h, such as those of the diagonal torus generators
    of t ⋉ n.  They commute, so Der(g) splits by weight, and a derivation D
    of weight mu != 0 is inner: for h with mu(h) != 0,
    mu(h) D = [ad h, D] = -ad(D h).  The center lies in weight 0, as
    [h, x] = mu(h) x vanishes for central x, so ad is injective on each
    g_mu with mu != 0, and only the weight-0 block is solved:

        dim Der(g) = dim Der_0(g) + (dim g - dim g_0).
    """

    algebra: LieAlgebra

    @cached_property
    def center_dim(self) -> int:
        g = self.algebra
        return g.dim - len(sparse_rref(g.center_rows()))

    @cached_property
    def weights(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """The eigenvalues of each basis vector under the basis vectors h
        whose ad h is diagonal and nonzero, read off the bracket table."""
        g = self.algebra
        ad: dict[int, dict[int, Fraction]] = {}  # ad[h][i] = c where [e_h, e_i] = c e_i
        off: set[int] = set()  # the h with some [e_h, e_i] not a multiple of e_i
        for (a, b), coeffs in g.table.items():
            for h, i, sign in ((a, b, 1), (b, a, -1)):
                if len(coeffs) == 1 and i in coeffs:
                    ad.setdefault(h, {})[i] = sign * coeffs[i]
                else:
                    off.add(h)
        diagonal = [ad[h] for h in sorted(ad) if h not in off]
        return tuple(tuple(col.get(i, 0) for col in diagonal) for i in range(g.dim))

    @cached_property
    def derivation_dim(self) -> int:
        weights = self.weights
        # summed over indices, class sizes give the sum of squared class sizes
        unknowns = sum(len(c) for c in _weight_classes(weights))
        rank = len(sparse_rref(_leibniz_rows(self.algebra, weights).values()))
        return unknowns - rank + sum(1 for w in weights if any(w))

    @property
    def ad_dim(self) -> int:
        return self.algebra.dim - self.center_dim

    @property
    def complete(self) -> bool:
        return self.center_dim == 0 and self.derivation_dim == self.algebra.dim


def is_complete(g: LieAlgebra) -> CompletenessReport:
    """Trivial center plus dim Der(g) = dim g forces every derivation inner."""
    return CompletenessReport(g)


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

    @cached_property
    def diagonal(self) -> tuple[bool, ...]:
        """Which generators are diagonal matrices, computed once."""
        return tuple(d.is_diagonal() for d in self.generators)

    @cached_property
    def check(self) -> TorusCheck:
        """``verify_torus(self)``, computed once."""
        return verify_torus(self)


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
    A diagonal generator is semisimple outright and is checked against the
    bracket table directly; diag(l) commutes with A iff A_ij = 0 wherever
    l_i != l_j, and two non-diagonal generators are multiplied sparsely.
    Linear independence of the generators is checked last, as the rank of
    their flattened entries, so that the torus rank is the number of
    generators.
    """
    n = t.nilradical.dim
    diagonal = t.diagonal
    for a, d in enumerate(t.generators):
        if d.rows != n or d.cols != n:
            return TorusCheck(False, f"generator {t.labels[a]} has the wrong shape")
        if not _leibniz_holds(t.nilradical, d, diagonal[a]):
            return TorusCheck(False, f"generator {t.labels[a]} is not a derivation")
    for a in range(len(t.generators)):
        for b in range(a + 1, len(t.generators)):
            if not _commute(t.generators[a], t.generators[b], diagonal[a], diagonal[b]):
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
    flat = (
        {i * n + j: x for i, row in enumerate(d.data) for j, x in enumerate(row) if x}
        for d in t.generators
    )
    if len(sparse_rref(flat)) < t.rank:
        if t.rank == 1:
            return TorusCheck(False, f"generator {t.labels[0]} is zero")
        return TorusCheck(False, f"generators {', '.join(t.labels)} are linearly dependent")
    return TorusCheck(True)


def _commute(x: RationalMatrix, y: RationalMatrix, x_diagonal: bool, y_diagonal: bool) -> bool:
    """Whether xy = yx for square matrices of one size, given which are diagonal."""
    if x_diagonal and y_diagonal:
        return True
    if x_diagonal or y_diagonal:
        lam, m = (x, y) if x_diagonal else (y, x)
        # [diag(l), A]_ij = (l_i - l_j) A_ij
        return all(
            not a or lam.data[i][i] == lam.data[j][j]
            for i, row in enumerate(m.data)
            for j, a in enumerate(row)
        )
    xs, ys = [sparse_row(r) for r in x.data], [sparse_row(r) for r in y.data]
    return sparse_product(xs, ys) == sparse_product(ys, xs)


def semidirect(t: TorusAction) -> LieAlgebra:
    """The solvable algebra on h + n with torus generators adjoined last.

    Raises ValueError when the torus axioms fail (``t.check``) or the
    product violates the Jacobi identity (as it does when the nilradical
    table does).
    """
    check = t.check
    if not check.ok:
        raise ValueError(f"invalid torus action: {check.violation}")
    n = t.nilradical.dim
    r = t.rank
    # LieAlgebra copies the coefficient maps, so the nilradical's are shared
    brackets: dict[tuple[int, int], Mapping[int, Fraction]] = dict(t.nilradical.table)
    for a, d in enumerate(t.generators):
        # [e_i, h] = -h(e_i): column i of the generator, negated
        cols: list[dict[int, Fraction]] = [{} for _ in range(n)]
        for k, row in enumerate(d.data):
            for i, x in enumerate(row):
                if x:
                    cols[i][k] = -x
        h = n + a
        for i, col in enumerate(cols):
            if col:
                brackets[(i, h)] = col
    labels = t.nilradical.labels + t.labels
    g = LieAlgebra(n + r, brackets, labels)
    failure = g.jacobi_failure()
    if failure is not None:
        raise ValueError(f"semidirect product violates Jacobi at triple {failure}")
    return g


def rank_bound(n: LieAlgebra) -> int:
    """dim n - dim [n, n]; an upper bound for the dimension of any torus.

    Defined for nilpotent n.  An acyclic bracket graph certifies nilpotency
    from the table alone (see :meth:`LieAlgebra.has_acyclic_bracket_graph`);
    otherwise the lower central series decides, and a series that does not
    end in 0 raises ValueError.
    """
    if not n.has_acyclic_bracket_graph() and not n.lower_central_series()[-1].is_zero():
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
    """The torus does not split the nilradical into joint eigenspaces over Q."""


@dataclass(frozen=True)
class RootDecomposition:
    roots: tuple[tuple[Fraction, ...], ...]
    spaces: tuple[Subspace, ...]


def root_decomposition(t: TorusAction) -> RootDecomposition:
    """Simultaneous eigenspace decomposition of the nilradical.

    Each joint eigenspace is the kernel of the stacked sparse rows of
    d_a - l_a I, one block per generator.  A piece is split only when its
    eigenspaces fill it: every generator must act diagonalizably over Q, and
    the generators must commute, or NotRationallyDiagonalizable is raised
    (the decomposition is skipped, not falsified).
    """
    n = t.nilradical.dim
    # (roots so far, their stacked rows, a basis of the joint eigenspace)
    pieces: list[tuple[tuple[Fraction, ...], list, Sequence]] = [((), [], Subspace.full(n).basis)]
    for a, d in enumerate(t.generators):
        # the sparse rows of d - lam I
        blocks = {
            lam: [
                sparse_row(as_exact(x - lam) if j == i else x for j, x in enumerate(row))
                for i, row in enumerate(d.data)
            ]
            for lam in upoly_rational_roots(d.minimal_polynomial())
        }
        refined = []
        for beta, rows, basis in pieces:
            covered = 0
            for lam, block in blocks.items():
                stacked = rows + block
                kernel = sparse_kernel_basis(sparse_rref(stacked), n)
                if kernel:
                    refined.append((beta + (lam,), stacked, kernel))
                    covered += len(kernel)
            if covered != len(basis):
                raise NotRationallyDiagonalizable(
                    f"generator {t.labels[a]} does not split the nilradical over Q"
                )
        pieces = refined
    pieces.sort(key=lambda item: item[0])
    roots = tuple(beta for beta, _, _ in pieces)
    spaces = tuple(Subspace(n, basis) for _, _, basis in pieces)
    return RootDecomposition(roots, spaces)
