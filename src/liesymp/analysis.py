"""One analysis per algebra: each derived artifact computed at most once.

An :class:`Analysis` studies one algebra, either a Lie algebra as given or
the semidirect product t ⋉ n of a torus t acting on its nilradical n.  Every
artifact is a cached property, computed on first read from the artifacts it
needs: the torus check feeds the semidirect product, the center feeds the
completeness report (which solves Der(g) only when its dimension is read),
the rank bound is dim n - dim [n, n] of the nilradical (see
:func:`liesymp.structure.rank_bound`), and the cocycle space gives the
generic cocycle, which feeds both the symplectic verdict and any condition
checked against it.

An analysis holds no state beyond its caches and is built afresh for each
catalog entry, file or command; nothing is shared between analyses.
"""

from __future__ import annotations

from functools import cached_property

from .liealg import LieAlgebra, Subspace
from .structure import (
    CompletenessReport,
    TorusAction,
    TorusCheck,
    _semidirect_product,
    _torus_weights,
    is_maximal_rank,
    rank_bound,
    verify_torus,
)
from .symplectic import (
    CocycleSpace,
    SymplecticVerdict,
    TwoForm,
    _decide,
    cocycle_space,
    generic_cocycle,
)


class Analysis:
    """The artifacts of ``subject``: a Lie algebra, or a torus action whose
    semidirect product is the algebra studied.  ``bound`` caps the witness
    search (see :func:`liesymp.symplectic.find_nonvanishing_point`)."""

    def __init__(self, subject: LieAlgebra | TorusAction, bound: int | None = None):
        if isinstance(subject, TorusAction):
            self.torus: TorusAction | None = subject
            self.nilradical = subject.nilradical
        else:
            self.torus = None
            self.nilradical = subject  # the algebra itself when there is no torus
        self.bound = bound

    @cached_property
    def torus_check(self) -> TorusCheck:
        """The torus axioms (only for a torus action)."""
        return verify_torus(self.torus)

    @cached_property
    def algebra(self) -> LieAlgebra:
        """The algebra studied: t ⋉ n built from the checked torus, raising
        ValueError as :func:`liesymp.structure.semidirect` does."""
        if self.torus is None:
            return self.nilradical
        return _semidirect_product(self.torus, self.torus_check)

    @cached_property
    def center(self) -> Subspace:
        return self.algebra.center()

    @cached_property
    def completeness(self) -> CompletenessReport:
        """Graded by the diagonal torus generators, if any (see
        :class:`liesymp.structure.CompletenessReport`)."""
        weights = None if self.torus is None else _torus_weights(self.torus)
        return CompletenessReport(self.algebra, self.center.dim, weights)

    @cached_property
    def rank_bound(self) -> int:
        """dim n - dim [n, n] (see :func:`liesymp.structure.rank_bound`)."""
        return rank_bound(self.nilradical)

    @property
    def maximal_rank(self) -> bool | None:
        """Whether the torus exhausts the rank bound; None without a torus."""
        if self.torus is None:
            return None
        return is_maximal_rank(self.torus, self.rank_bound)

    @cached_property
    def cocycles(self) -> CocycleSpace:
        return cocycle_space(self.algebra)

    @cached_property
    def generic_cocycle(self) -> TwoForm:
        return generic_cocycle(self.cocycles)

    @cached_property
    def verdict(self) -> SymplecticVerdict:
        even = self.algebra.dim % 2 == 0
        return _decide(self.cocycles, self.generic_cocycle if even else None, self.bound)
