"""One analysis per algebra: each derived artifact computed at most once.

An :class:`Analysis` studies one algebra, either a Lie algebra as given or
the semidirect product t ⋉ n of a torus t acting on its nilradical n.  Every
artifact is a cached property, one call of the public function for it:
``semidirect(torus)`` (which returns the product that the torus check
cached on the torus, ``TorusAction.check``, built and checked for the
Jacobi identity), ``is_complete(algebra)`` (whose report solves the
center and Der(g) only when read), ``rank_bound(nilradical)`` and
``decide_symplectic(algebra)`` (whose verdict keeps the cocycle space it
decided from, out of which a reader builds the generic closed form).  The
nilradical's Jacobi identity is read off that torus check, as t ⋉ n holds
every triple of n.

An analysis holds no state beyond its caches and is built afresh for each
catalog entry, file or command; nothing is shared between analyses.
"""

from __future__ import annotations

from functools import cached_property

from .liealg import LieAlgebra
from .structure import (
    CompletenessReport,
    TorusAction,
    is_complete,
    is_maximal_rank,
    rank_bound,
    semidirect,
)
from .symplectic import SymplecticVerdict, decide_symplectic


class Analysis:
    """The artifacts of ``subject``: a Lie algebra, or a torus action whose
    semidirect product is the algebra studied."""

    def __init__(self, subject: LieAlgebra | TorusAction):
        if isinstance(subject, TorusAction):
            self.torus: TorusAction | None = subject
            self.nilradical = subject.nilradical
        else:
            self.torus = None
            self.nilradical = subject  # the algebra itself when there is no torus

    @cached_property
    def algebra(self) -> LieAlgebra:
        """The algebra studied: ``semidirect(torus)``, raising ValueError as
        it does, or the algebra itself."""
        if self.torus is None:
            return self.nilradical
        return semidirect(self.torus)

    @cached_property
    def jacobi_failure(self) -> tuple[int, int, int] | None:
        """The nilradical's first triple violating the Jacobi identity, if
        any: the one a valid torus's check found in t ⋉ n, which holds every
        triple of n, else computed on n."""
        if self.torus is not None and self.torus.check.ok:
            return self.torus.check.jacobi_failure
        return self.nilradical.jacobi_failure()

    @cached_property
    def completeness(self) -> CompletenessReport:
        return is_complete(self.algebra)

    @cached_property
    def rank_bound(self) -> int:
        """dim n - dim [n, n] (see :func:`liesymp.structure.rank_bound`)."""
        return rank_bound(self.nilradical)

    @property
    def maximal_rank(self) -> bool | None:
        """Whether the torus exhausts the rank bound; None without a torus,
        or when the nilradical is not nilpotent and the bound is undefined."""
        if self.torus is None:
            return None
        try:
            bound = self.rank_bound
        except ValueError:  # raised by rank_bound for a non-nilpotent n
            return None
        return is_maximal_rank(self.torus, bound)

    @cached_property
    def verdict(self) -> SymplecticVerdict:
        return decide_symplectic(self.algebra)
