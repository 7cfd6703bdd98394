"""Derivation algebras, torus actions, semidirect products, completeness.

A torus action packages an abelian family of semisimple derivations of a
nilpotent algebra; adjoining its generators after the nilradical basis gives
the solvable algebra ``semidirect(t)`` with the bracket

    [h1 + n1, h2 + n2] = h1(n2) - h2(n1) + [n1, n2].

Every linear map of the nilradical here (a torus generator, an element of
a :class:`DerivationBasis`, the argument of ``is_derivation``) is one
format, its sparse columns {j: {k: c}}: e_j -> sum_k c e_k, 0-based, with
no zero entry and no empty column.  That is how a file's torus block and
the catalog state the action ([h, e_j] = sum_k c e_k), and ``_adjoin``
reads each column straight into the bracket table as [e_j, h] = -column j.

For a Lie algebra n, this bracket satisfies Jacobi exactly when the
generators are commuting derivations, so ``verify_torus`` builds t ⋉ n once
and reads both axioms off its failing Jacobi triples; ``semidirect`` returns
that product and checks nothing again.  Its failing triples inside n are
n's own, so a valid torus check also answers the nilradical's Jacobi
identity (:attr:`liesymp.analysis.Analysis.jacobi_failure`).

Tori are supplied (from reference data or the user) and verified here; no
attempt is made to construct a maximal torus from scratch.  Maximality is
instead certified numerically through the rank bound dim(n / [n, n]) and,
independently, through the completeness check on the semidirect product.
The rank bound needs n nilpotent, which an acyclic bracket graph certifies
from the table alone; only a table with a cycle computes the lower central
series.

The completeness check solves Der(g) by weight: every basis vector h whose
ad h is diagonal (each [e_h, e_i] a multiple of e_i, read off the bracket
table by :meth:`LieAlgebra.weights`) grades g, as the torus vector of a
diagonal generator diag(l) does on t ⋉ n, with l_i on e_i and 0 on the
torus.  Der(g) splits by the weight w_r - w_c of an entry D[r][c], and a
derivation of weight mu != 0 is inner.  Only the Leibniz rows of the
weight-0 block are solved, over the classes of basis indices by weight
(:meth:`LieAlgebra.weight_classes`, scanned with the weights once per
algebra and shared with ``cocycle_space``), and

    dim Der(g) = dim Der_0(g) + (dim g - dim g_0)

(see :class:`CompletenessReport`).  ``derivation_algebra`` solves the full
system, for a basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import count, islice
from typing import Mapping, Sequence

from .liealg import LieAlgebra, Subspace
from .linalg import (
    as_exact,
    minimal_polynomial,
    sparse_kernel_basis,
    sparse_kernel_rows,
    sparse_rref,
    upoly_is_squarefree,
    upoly_rational_roots,
)

# A linear map of the nilradical as its sparse columns {j: {k: c}}, 0-based:
# e_j -> sum_k c e_k, with no zero entry and no empty column.
Columns = dict[int, dict[int, int | Fraction]]


def _columns(flat: Mapping[int, int | Fraction], n: int) -> Columns:
    """The column map of a matrix flattened row-major (entry (r, c) at
    r * n + c), columns and entries in increasing order."""
    cols: Columns = {}
    for idx, x in sorted(flat.items()):
        r, c = divmod(idx, n)
        cols.setdefault(c, {})[r] = x
    return dict(sorted(cols.items()))


def _in_range(d: Columns, n: int) -> bool:
    """Whether every column and row index of ``d`` lies in range(n)."""
    return all(0 <= j < n and all(0 <= k < n for k in col) for j, col in d.items())


@dataclass(frozen=True)
class DerivationBasis:
    """A basis of Der(g), each element the column map of a derivation."""

    algebra_dim: int
    basis: tuple[Columns, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _full_leibniz_rows(g: LieAlgebra) -> dict[tuple[int, int, int], dict[int, Fraction]]:
    """The Leibniz system of every derivation: all n^2 unknowns."""
    return _leibniz_rows(g, [range(g.dim)] * g.dim)


def _weight_0_leibniz_rows(g: LieAlgebra) -> dict[tuple[int, int, int], dict[int, Fraction]]:
    """The Leibniz system of the weight-0 derivations: only the unknowns
    D[r][c] with e_r and e_c of one weight (:meth:`LieAlgebra.weights`),
    read off :meth:`LieAlgebra.weight_classes`."""
    classes = g.weight_classes()
    return _leibniz_rows(g, [classes[w] for w in g.weights()])


def _leibniz_rows(
    g: LieAlgebra, classes: Sequence[Sequence[int]]
) -> dict[tuple[int, int, int], dict[int, Fraction]]:
    """The Leibniz identity D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] as
    linear equations in the entries D[r][c] with r in ``classes[c]``, the
    others held at zero.

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


def is_derivation(g: LieAlgebra, d: Columns) -> bool:
    """Leibniz identity D[x,y] = [Dx,y] + [x,Dy] on all basis pairs, for
    the column map ``d``; False when an index lies outside range(g.dim).

    The Jacobi sum of {e_i, e_j, h} in g with h = D adjoined (see
    :func:`_adjoin`) is the Leibniz identity of D on (e_i, e_j), so D is a
    derivation when no failing triple contains h; triples inside g, which
    fail when g itself violates Jacobi, do not count.
    """
    if not _in_range(d, g.dim):
        return False
    return all(k != g.dim for _, _, k in _adjoin(g, (d,)).jacobi_failures())


def derivation_algebra(g: LieAlgebra) -> DerivationBasis:
    """Solve the Leibniz identity as a linear system on n x n matrices,
    flattened row-major (see ``_leibniz_rows``), for a basis of column maps."""
    n = g.dim
    kernel = sparse_kernel_rows(sparse_rref(_full_leibniz_rows(g).values()), n * n)
    return DerivationBasis(n, tuple(_columns(v, n) for v in kernel))


@dataclass(frozen=True)
class CompletenessReport:
    """Center and derivation dimensions of an algebra.

    The center and Der(g) are solved only when read, and ``complete`` reads
    Der(g) only for a trivial center: otherwise the answer is already no.
    Only the center's dimension is needed, so ``center_dim`` is dim g minus
    the rank of :meth:`LieAlgebra.center_rows`, with no basis solved.

    The weights of :meth:`LieAlgebra.weights` (one per basis vector) are the
    eigenvalues of the diagonal inner derivations ad h, such as those of the
    diagonal torus generators of t ⋉ n.  They commute, so Der(g) splits by
    weight, and a derivation D of weight mu != 0 is inner: for h with
    mu(h) != 0, mu(h) D = [ad h, D] = -ad(D h).  The center lies in weight 0, as
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
    def derivation_dim(self) -> int:
        g = self.algebra
        unknowns = sum(len(c) ** 2 for c in g.weight_classes().values())
        rank = len(sparse_rref(_weight_0_leibniz_rows(g).values()))
        return unknowns - rank + sum(1 for w in g.weights() if any(w))

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
    """Commuting semisimple derivations acting on a nilpotent algebra.

    Each generator is a column map {j: {k: c}}, [h, e_j] = sum_k c e_k.
    Construction coerces each c (see :func:`liesymp.linalg.as_exact`) and
    drops zero entries and empty columns, keeping columns and entries in
    increasing order.  Without ``labels`` the generators are named e{k} for
    the successive k >= n + 1 that no label of the nilradical already takes.
    """

    nilradical: LieAlgebra
    generators: tuple[Columns, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        gens = []
        for d in self.generators:
            cols = {}
            for j, col in sorted(d.items()):
                col = {k: x for k, c in sorted(col.items()) if (x := as_exact(c))}
                if col:
                    cols[j] = col
            gens.append(cols)
        gens = tuple(gens)
        object.__setattr__(self, "generators", gens)
        labels = tuple(self.labels)
        if not labels:
            used = set(self.nilradical.labels)
            fresh = (f"e{k}" for k in count(self.nilradical.dim + 1) if f"e{k}" not in used)
            labels = tuple(islice(fresh, len(gens)))
        if len(labels) != len(gens):
            raise ValueError("one label per torus generator is required")
        # the labels name the basis of t ⋉ n after the nilradical's
        taken = set(self.nilradical.labels)
        for label in labels:
            if label in taken:
                raise ValueError(f"torus label {label!r} repeats a basis or torus label")
            taken.add(label)
        object.__setattr__(self, "labels", labels)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @cached_property
    def check(self) -> TorusCheck:
        """``verify_torus(self)``, computed once."""
        return verify_torus(self)


@dataclass(frozen=True)
class TorusCheck:
    """The verdict of :func:`verify_torus`.  A valid torus also keeps its
    product t ⋉ n and the first triple at which that violates Jacobi (one
    inside n), for :func:`semidirect` and for
    :attr:`liesymp.analysis.Analysis.jacobi_failure`."""

    ok: bool
    violation: str | None = None
    product: LieAlgebra | None = None
    jacobi_failure: tuple[int, int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _adjoin(
    n: LieAlgebra, generators: Sequence[Columns], labels: Sequence[str] | None = None
) -> LieAlgebra:
    """The bracket of t ⋉ n: n with the generators adjoined after its basis,
    [e_i, h] = -h(e_i), and [h, h'] = 0, whatever the generators are.  With
    ``labels``, the basis is labelled n's labels then these."""
    dim = n.dim
    # LieAlgebra copies the coefficient maps, so the nilradical's are shared
    brackets: dict[tuple[int, int], Mapping[int, Fraction]] = dict(n.table)
    for a, d in enumerate(generators):
        for i, col in d.items():
            # [e_i, h] = -h(e_i): column i of the generator, negated
            brackets[(i, dim + a)] = {k: -c for k, c in col.items()}
    if labels is not None:
        labels = n.labels + tuple(labels)
    return LieAlgebra(dim + len(generators), brackets, labels)


def verify_torus(t: TorusAction) -> TorusCheck:
    """Check the torus axioms, reporting the first violated property.

    The product t ⋉ n is built once, from the generators before the first
    one of the wrong shape: one with a column or row index outside
    range(dim n).  For basis vectors e_i of n, the Jacobi sum of
    {e_i, e_j, h_a} is the Leibniz identity of h_a on (e_i, e_j), and that of
    {e_i, h_a, h_b} is -[h_a, h_b] e_i.  So a failing triple with one torus
    index names a generator that is not a derivation, and one with two a
    pair that does not commute; failing triples inside n are left to
    ``semidirect``.

    Semisimplicity is tested as squarefreeness of the minimal polynomial,
    which characterises semisimple action over any field of characteristic
    zero (rational diagonalisability is strictly stronger and not required);
    a diagonal generator is semisimple outright.  Linear independence of the
    generators is checked last, as the rank of their flattened entries, so
    that the torus rank is the number of generators.
    """
    n = t.nilradical.dim
    labels = t.labels
    shaped = next((a for a, d in enumerate(t.generators) if not _in_range(d, n)), t.rank)
    product = _adjoin(t.nilradical, t.generators[:shaped], labels[:shaped])
    failures = product.jacobi_failures()
    # the torus generators in each failing triple, whose indices sort last
    torus_indices = [tuple(x - n for x in triple if x >= n) for triple in failures]
    not_derivations = [h[0] for h in torus_indices if len(h) == 1]
    if not_derivations:
        return TorusCheck(False, f"generator {labels[min(not_derivations)]} is not a derivation")
    if shaped < t.rank:
        return TorusCheck(False, f"generator {labels[shaped]} has the wrong shape")
    pairs = [h for h in torus_indices if len(h) == 2]
    if pairs:
        a, b = min(pairs)
        return TorusCheck(False, f"generators {labels[a]} and {labels[b]} do not commute")
    for a, d in enumerate(t.generators):
        if all(col.keys() == {j} for j, col in d.items()):
            continue  # diagonal
        # the columns are the rows of the transpose, which has the same minimal polynomial
        if not upoly_is_squarefree(minimal_polynomial([d.get(j, {}) for j in range(n)])):
            return TorusCheck(
                False,
                f"generator {labels[a]} is not semisimple "
                "(minimal polynomial has a repeated factor)",
            )
    flat = (
        {j * n + k: c for j, col in d.items() for k, c in col.items()} for d in t.generators
    )
    if len(sparse_rref(flat)) < t.rank:
        if t.rank == 1:
            return TorusCheck(False, f"generator {labels[0]} is zero")
        return TorusCheck(False, f"generators {', '.join(labels)} are linearly dependent")
    return TorusCheck(True, product=product, jacobi_failure=min(failures, default=None))


def semidirect(t: TorusAction) -> LieAlgebra:
    """The solvable algebra on h + n with torus generators adjoined last:
    the product that ``t.check`` built.

    Raises ValueError when the torus axioms fail or the product violates the
    Jacobi identity (as it does when the nilradical table does), both read
    off ``t.check``.
    """
    check = t.check
    if not check.ok:
        raise ValueError(f"invalid torus action: {check.violation}")
    if check.jacobi_failure is not None:
        raise ValueError(
            f"semidirect product violates Jacobi at triple {check.jacobi_failure}"
        )
    return check.product


def rank_bound(n: LieAlgebra) -> int:
    """dim n - dim [n, n]; an upper bound for the dimension of any torus.

    Defined for nilpotent n.  An acyclic bracket graph certifies nilpotency
    from the table alone (see :meth:`LieAlgebra.has_acyclic_bracket_graph`);
    otherwise the lower central series decides, and a series that does not
    end in 0 raises ValueError.
    """
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
    """The torus does not split the nilradical into joint eigenspaces over Q."""


@dataclass(frozen=True)
class RootDecomposition:
    roots: tuple[tuple[Fraction, ...], ...]
    spaces: tuple[Subspace, ...]


def _shifted(row: Mapping[int, int | Fraction], i: int, lam: Fraction) -> dict:
    """Row i of a matrix minus lam times row i of the identity."""
    out = dict(row)
    x = as_exact(out.pop(i, 0) - lam)
    if x:
        out[i] = x
    return out


def root_decomposition(t: TorusAction) -> RootDecomposition:
    """Simultaneous eigenspace decomposition of the nilradical.

    Each joint eigenspace is the kernel of the stacked sparse rows of
    d_a - l_a I, one block per generator.  A piece is split only when its
    eigenspaces fill it: every generator must act diagonalizably over Q, and
    the generators must commute, or NotRationallyDiagonalizable is raised
    (the decomposition is skipped, not falsified).  A generator with an
    index outside range(dim n) raises ValueError.
    """
    n = t.nilradical.dim
    if not all(_in_range(d, n) for d in t.generators):
        raise ValueError("a torus generator has the wrong shape")
    # (roots so far, their stacked rows, a basis of the joint eigenspace)
    pieces: list[tuple[tuple[Fraction, ...], list, Sequence]] = [((), [], Subspace.full(n).basis)]
    for a, d in enumerate(t.generators):
        d_rows: list[dict[int, int | Fraction]] = [{} for _ in range(n)]
        for j, col in d.items():
            for k, c in col.items():
                d_rows[k][j] = c
        # the sparse rows of d - lam I, from the rows of d
        blocks = {
            lam: [_shifted(row, i, lam) for i, row in enumerate(d_rows)]
            for lam in upoly_rational_roots(minimal_polynomial(d_rows))
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
