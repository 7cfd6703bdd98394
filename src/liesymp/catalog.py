"""Built-in reference collection of solvable complete Lie algebras.

Each entry packages a nilpotent algebra (dimension at most six, or one of
three parametric families), a verified torus action on it, and the reference
verdicts the regression suite compares against: symplectic existence
("yes" / "never" / "odd" for odd total dimension), maximal rank of the torus,
and the printed non-degeneracy conditions as polynomials in the entries of
the general closed 2-form.

The reference data is transcribed from published classification tables.  A
few printed values contradict the algebra axioms (a torus rule that is not a
derivation, for example); those are corrected here, and every correction is
recorded in the :data:`TYPOS` registry and in the top-level TYPOS.md.
Expected verdicts are never computed, only transcribed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .liealg import LieAlgebra, check_dim
from .linalg import Q, as_fraction, diagonal
from .poly import MultiPoly
from .structure import TorusAction
from .symplectic import TwoForm


@dataclass(frozen=True)
class Condition:
    """A printed non-degeneracy condition, as a polynomial in form entries.

    ``terms`` is a sum of (coefficient, entry-pair product): the pair (i, j)
    stands for the value of the general closed form on (e_i, e_j), 1-based.
    """

    label: str
    terms: tuple[tuple[Fraction, tuple[tuple[int, int], ...]], ...]

    def polynomial(self, generic: TwoForm) -> MultiPoly:
        total = MultiPoly.zero()
        for coeff, pairs in self.terms:
            term = MultiPoly.constant(coeff)
            for (i, j) in pairs:
                term = term * generic.entry(i - 1, j - 1)
            total = total + term
        return total


@dataclass(frozen=True)
class Expected:
    """Reference verdicts for one entry; ``exact`` is None when the source
    is silent about exact (Frobenius) forms."""

    symplectic: str  # "yes" | "never" | "odd"
    maximal_rank: bool
    conditions: tuple[Condition, ...] = ()
    exact: bool | None = None


@dataclass(frozen=True)
class Typo:
    ident: str
    where: str
    description: str


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: dict
    nilradical: LieAlgebra
    torus: TorusAction
    expected: Expected
    corrections: tuple[str, ...] = ()
    known_mismatches: Mapping[str, str] = field(default_factory=dict)
    known_condition_failures: Mapping[str, str] = field(default_factory=dict)

    @property
    def total_dim(self) -> int:
        return self.nilradical.dim + self.torus.rank


TYPOS: tuple[Typo, ...] = (
    Typo(
        "n3_1-torus-action",
        "n3_1, first torus generator",
        "The printed rules give e4: e1 -> e1, e2 -> e2 and stop; the derivation "
        "identity applied to [e1, e2] = e3 forces [e4, e3] = 2 e3, which the "
        "source omits.  The forced rule is included here.",
    ),
    Typo(
        "n5_2-torus-action",
        "n5_2, first torus generator",
        "The printed rule [e6, e3] = -3 e3 contradicts the derivation identity: "
        "with [e6, e4] = -2 e4 and [e6, e5] = e5 the chain brackets force "
        "[e6, e3] = -e3 (and then [e6, e2] = 0, [e6, e1] = e1 as printed).  "
        "The coefficient is corrected to -1.",
    ),
    Typo(
        "n6_10-torus-action",
        "n6_10, first torus generator",
        "The printed rule [e7, e3] = 2 e2 is corrected to [e7, e3] = 2 e3: "
        "e3 = [e1, e2] must carry eigenvalue 2 for the diagonal generator with "
        "[e7, e1] = e1, [e7, e2] = e2, and an e2 component is not a derivation.",
    ),
    Typo(
        "n6_21-maximal-rank",
        "n6_21, maximal-rank column",
        "The table prints No, but the torus printed in the same row has two "
        "generators and dim n/[n, n] = 2, so it attains the rank bound: the "
        "computed verdict is Yes.  The printed value is kept as the expected "
        "one and the disagreement is reported as documented.",
    ),
    Typo(
        "n6_17-condition",
        "n6_17, conditions column",
        "The printed condition 2 a_{3,8} a_{6,8} != a_{4,8} is not homogeneous "
        "and its polynomial does not divide the computed Pfaffian; the "
        "quadratic form 2 a_{3,8} a_{6,8} - a_{4,8}^2 does.  Both are checked; "
        "the printed one is reported as a documented failure.",
    ),
    Typo(
        "n6_5-condition-1",
        "n6_5, conditions column",
        "The printed factor a_{6,8}^2 - a_{6,9}^2 does not divide the computed "
        "Pfaffian; a a_{6,8}^2 - a_{6,9}^2 does (and divides twice, the "
        "Pfaffian being its square times a linear factor).  The analogous "
        "printed condition of n6_10 does carry the parameter a.",
    ),
    Typo(
        "n6_5-condition-2",
        "n6_5, conditions column",
        "The printed factor a (a_{7,8} + a_{8,9}) - a_{7,10} - a_{9,10} does "
        "not divide the computed Pfaffian; the sign of the last term is "
        "flipped: a (a_{7,8} + a_{8,9}) - a_{7,10} + a_{9,10} divides, for "
        "every tested value of a.",
    ),
    Typo(
        "n6_13-condition",
        "n6_13, conditions column",
        "The printed factor a_{3,8} a_{6,8} - a_{4,8}^2 does not divide the "
        "computed Pfaffian; 2 a_{3,8} a_{6,8} - a_{4,8}^2 does (a factor 2 "
        "is missing on the cross term).",
    ),
    Typo(
        "n6_16-condition",
        "n6_16, conditions column",
        "The printed cubic 3 a_{3,8} a_{6,8}^2 - 3 a_{4,8} a_{5,8} a_{6,8} "
        "- a_{5,8}^3 does not divide the computed Pfaffian; the sign of the "
        "a_{5,8}^3 term is flipped: 3 a_{3,8} a_{6,8}^2 - 3 a_{4,8} a_{5,8} "
        "a_{6,8} + a_{5,8}^3 divides.",
    ),
    Typo(
        "n6_21-condition",
        "n6_21, conditions column",
        "The printed factor a_{2,8} a_{6,8} - 8 a_{3,8} a_{5,8} - 3 a_{4,8}^2 "
        "does not divide the computed Pfaffian, which factors as a_{6,8}^2 "
        "times 8 a_{2,8} a_{6,8} - 8 a_{3,8} a_{5,8} + 3 a_{4,8}^2 (up to a "
        "constant): the 8 belongs on the a_{2,8} a_{6,8} term and the "
        "a_{4,8}^2 sign is flipped.",
    ),
    Typo(
        "Q-chain-range",
        "Q family, chain brackets",
        "The chain [e0, ei] = e(i+1) is printed for 1 <= i <= n-1, but with "
        "i = n-1 included the printed torus weights are not derivations "
        "(e_n would need weight n-1 and n-2 at once).  The chain stops at "
        "i = n-2; the displayed d(e^n) then has no e^{n-1,0} term.",
    ),
    Typo(
        "Q-top-power-constant",
        "Q family, top wedge power",
        "The printed coefficient 4 of e^0 ^ ... ^ e^{n+2} equals the squared "
        "Pfaffian (determinant) of d(e^0) + d(e^n).  The literal wedge power "
        "is +-2 (k+2)! times the volume form and the (k+2)!-normalised "
        "coefficient is the Pfaffian +-2; no single normalisation of the "
        "wedge power yields 4.",
    ),
    Typo(
        "L4-determinant-sign",
        "L family, n = 4 determinant",
        "The printed determinant a13^2 (a12^2 - 2 a13 a26)^2 matches the "
        "printed coefficient matrix, whose a_{1,j} rows carry the opposite "
        "sign from the printed general cocycle.  In terms of the form's "
        "actual entries the identity is det = w(e1,e3)^2 (w(e1,e2)^2 + "
        "2 w(e1,e3) w(e2,e6))^2; equivalently the printed identity holds "
        "under the renaming u = -w(e1,e2), t = -w(e1,e3), v = w(e2,e6).",
    ),
)

TYPO_IDS = tuple(t.ident for t in TYPOS)


# -- construction helpers ------------------------------------------------------


def _nil(dim: int, brackets: Mapping[tuple[int, int], Mapping[int, object]],
         labels: Sequence[str] | None = None) -> LieAlgebra:
    """Nilradical from 1-based bracket data {(i, j): {k: c}}; ``LieAlgebra``
    coerces each c."""
    table = {
        (i - 1, j - 1): {k - 1: c for k, c in comps.items()}
        for (i, j), comps in brackets.items()
    }
    return LieAlgebra(dim, table, labels)


def _action(rules: Mapping[int, Mapping[int, object]]) -> dict[int, dict[int, object]]:
    """Generator columns from 1-based action data {j: {k: c}} (e_j -> sum c e_k);
    ``TorusAction`` coerces each c."""
    return {j - 1: {k - 1: c for k, c in comps.items()} for j, comps in rules.items()}


def _cond(label: str, *terms) -> Condition:
    packed = tuple(
        (as_fraction(coeff), tuple((int(i), int(j)) for (i, j) in pairs))
        for coeff, pairs in terms
    )
    return Condition(label, packed)


def _table_entry(
    name: str,
    dim: int,
    nil: Mapping[tuple[int, int], Mapping[int, object]],
    torus: Mapping[str, Mapping[int, Mapping[int, object]]],
    symplectic: str,
    maximal: bool,
    conditions: Sequence[Condition] = (),
    corrections: Sequence[str] = (),
    known_mismatches: Mapping[str, str] | None = None,
    known_condition_failures: Mapping[str, str] | None = None,
    params: dict | None = None,
) -> CatalogEntry:
    nilradical = _nil(dim, nil)
    labels = tuple(torus.keys())
    gens = tuple(_action(rules) for rules in torus.values())
    return CatalogEntry(
        name=name,
        params=params or {},
        nilradical=nilradical,
        torus=TorusAction(nilradical, gens, labels),
        expected=Expected(symplectic, maximal, tuple(conditions)),
        corrections=tuple(corrections),
        known_mismatches=dict(known_mismatches or {}),
        known_condition_failures=dict(known_condition_failures or {}),
    )


# -- fixed table rows ----------------------------------------------------------


def _build_n3_1() -> CatalogEntry:
    return _table_entry(
        "n3_1", 3,
        nil={(1, 2): {3: 1}},
        torus={
            "e4": {1: {1: 1}, 2: {2: 1}, 3: {3: 2}},  # [e4,e3]=2e3 forced, see TYPOS
            "e5": {2: {2: 1}, 3: {3: 1}},
        },
        symplectic="odd", maximal=True,
        corrections=("n3_1-torus-action",),
    )


def _build_n4_1() -> CatalogEntry:
    return _table_entry(
        "n4_1", 4,
        nil={(2, 4): {1: 1}, (3, 4): {2: 1}},
        torus={
            "e5": {1: {1: 1}, 3: {3: -1}, 4: {4: 1}},
            "e6": {2: {2: 1}, 3: {3: 2}, 4: {4: -1}},
        },
        symplectic="yes", maximal=True,
        conditions=(
            _cond("a_{2,4} != 0", (1, [(2, 4)])),
            _cond("2 a_{3,5} a_{2,4} != a_{3,4}^2",
                  (2, [(3, 5), (2, 4)]), (-1, [(3, 4), (3, 4)])),
        ),
    )


def _build_n5_1() -> CatalogEntry:
    return _table_entry(
        "n5_1", 5,
        nil={(3, 5): {1: 1}, (4, 5): {2: 1}},
        torus={
            "e6": {1: {1: 1}, 4: {4: -1}, 5: {5: 1}},
            "e7": {2: {2: 1}, 4: {4: 1}},
            "e8": {3: {3: 1}, 4: {4: 1}, 5: {5: -1}},
        },
        symplectic="yes", maximal=True,
        conditions=(
            _cond("a_{4,5} != 0", (1, [(4, 5)])),
            _cond("a_{3,5} != 0", (1, [(3, 5)])),
            _cond("a_{3,5} a_{4,8} != a_{3,8} a_{4,5}",
                  (1, [(3, 5), (4, 8)]), (-1, [(3, 8), (4, 5)])),
        ),
    )


def _build_n5_2() -> CatalogEntry:
    return _table_entry(
        "n5_2", 5,
        nil={(2, 5): {1: 1}, (3, 5): {2: 1}, (4, 5): {3: 1}},
        torus={
            "e6": {1: {1: 1}, 3: {3: -1}, 4: {4: -2}, 5: {5: 1}},  # -1, see TYPOS
            "e7": {2: {2: 1}, 3: {3: 2}, 4: {4: 3}, 5: {5: -1}},
        },
        symplectic="odd", maximal=True,
        corrections=("n5_2-torus-action",),
    )


def _build_n5_3() -> CatalogEntry:
    return _table_entry(
        "n5_3", 5,
        nil={(3, 4): {2: 1}, (3, 5): {1: 1}, (4, 5): {3: 1}},
        torus={
            "e6": {1: {1: 1}, 3: {3: Q(1, 3)}, 4: {4: Q(-1, 3)}, 5: {5: Q(2, 3)}},
            "e7": {2: {2: 1}, 3: {3: Q(1, 3)}, 4: {4: Q(2, 3)}, 5: {5: Q(-1, 3)}},
        },
        symplectic="odd", maximal=True,
    )


def _build_n5_4() -> CatalogEntry:
    return _table_entry(
        "n5_4", 5,
        nil={(2, 4): {1: 1}, (3, 5): {1: 1}},
        torus={
            "e6": {1: {1: 1}, 4: {4: 1}, 5: {5: 1}},
            "e7": {3: {3: 1}, 5: {5: -1}},
            "e8": {2: {2: 1}, 4: {4: -1}},
        },
        symplectic="yes", maximal=False,
        conditions=(
            _cond("a_{7,8} != 0", (1, [(7, 8)])),
            _cond("a_{3,5} != 0", (1, [(3, 5)])),
        ),
    )


def _build_n5_5() -> CatalogEntry:
    return _table_entry(
        "n5_5", 5,
        nil={(2, 5): {1: 1}, (3, 4): {1: 1}, (3, 5): {2: 1}},
        torus={
            "e6": {1: {1: 1}, 3: {3: -1}, 4: {4: 2}, 5: {5: 1}},
            "e7": {2: {2: 1}, 3: {3: 2}, 4: {4: -2}, 5: {5: -1}},
        },
        symplectic="odd", maximal=False,
    )


def _build_n5_6() -> CatalogEntry:
    return _table_entry(
        "n5_6", 5,
        nil={(2, 5): {1: 1}, (3, 4): {1: 1}, (3, 5): {2: 1}, (4, 5): {3: 1}},
        torus={
            "e6": {1: {1: 1}, 2: {2: Q(4, 5)}, 3: {3: Q(3, 5)},
                   4: {4: Q(2, 5)}, 5: {5: Q(1, 5)}},
        },
        symplectic="yes", maximal=False,
        conditions=(_cond("a_{3,4} != 0", (1, [(3, 4)])),),
    )


def _build_n6_1() -> CatalogEntry:
    return _table_entry(
        "n6_1", 6,
        nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 2}, 6: {6: 1}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 1}},
            "e9": {5: {5: 1}, 6: {6: 1}},
        },
        symplectic="odd", maximal=True,
    )


def _build_n6_2() -> CatalogEntry:
    return _table_entry(
        "n6_2", 6,
        nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (1, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 2}, 5: {5: 3}, 6: {6: 4}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 1}},
        },
        symplectic="never", maximal=True,
    )


def _build_n6_3() -> CatalogEntry:
    return _table_entry(
        "n6_3", 6,
        nil={(1, 2): {6: 1}, (1, 3): {4: 1}, (2, 3): {5: 1}},
        torus={
            "e7": {1: {1: 1}, 4: {4: 1}, 6: {6: 1}},
            "e8": {2: {2: 1}, 5: {5: 1}, 6: {6: 1}},
            "e9": {3: {3: 1}, 4: {4: 1}, 5: {5: 1}},
        },
        symplectic="odd", maximal=True,
    )


def _build_n6_4() -> CatalogEntry:
    return _table_entry(
        "n6_4", 6,
        nil={(1, 2): {5: 1}, (1, 3): {6: 1}, (2, 4): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 1}},
            "e8": {2: {2: 1}, 4: {4: -1}, 5: {5: 1}},
            "e9": {3: {3: 1}, 4: {4: 1}, 6: {6: 1}},
        },
        symplectic="odd", maximal=False,
    )


def _build_n6_6() -> CatalogEntry:
    return _table_entry(
        "n6_6", 6,
        nil={(1, 2): {6: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {5: 1}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 2}, 4: {4: 1}, 5: {5: 2}, 6: {6: 3}},
            "e8": {3: {3: 1}, 4: {4: 1}, 5: {5: 1}},
        },
        symplectic="yes", maximal=False,
        conditions=(
            _cond("a_{6,7} != 0", (1, [(6, 7)])),
            _cond("a_{5,8} != 0", (1, [(5, 8)])),
        ),
    )


def _build_n6_7() -> CatalogEntry:
    return _table_entry(
        "n6_7", 6,
        nil={(1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 4: {4: 1}, 5: {5: 2}},
            "e8": {2: {2: 1}, 6: {6: 1}},
            "e9": {3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 1}},
        },
        symplectic="odd", maximal=True,
    )


def _build_n6_8() -> CatalogEntry:
    return _table_entry(
        "n6_8", 6,
        nil={(1, 2): {3: 1, 5: 1}, (1, 3): {4: 1}, (2, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 2}, 5: {5: 1}, 6: {6: 1}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 2}},
        },
        symplectic="yes", maximal=False,
        conditions=(
            _cond("a_{6,8} != 0", (1, [(6, 8)])),
            _cond("a_{4,8} != 0", (1, [(4, 8)])),
        ),
    )


def _build_n6_9() -> CatalogEntry:
    return _table_entry(
        "n6_9", 6,
        nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 5): {6: 1}, (2, 3): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 2}, 6: {6: 1}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 1}, 5: {5: 2}, 6: {6: 2}},
        },
        symplectic="yes", maximal=False,
        conditions=(
            _cond("a_{6,8} != 0", (1, [(6, 8)])),
            _cond("a_{4,8} != 0", (1, [(4, 8)])),
        ),
    )


def _build_n6_11() -> CatalogEntry:
    return _table_entry(
        "n6_11", 6,
        nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 2}, 5: {5: 3}, 6: {6: 1}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 2}},
        },
        symplectic="yes", maximal=True,
        conditions=(
            _cond("a_{5,8} != 0", (1, [(5, 8)])),
            _cond("a_{6,8} != 0", (1, [(6, 8)])),
        ),
    )


def _build_n6_12() -> CatalogEntry:
    return _table_entry(
        "n6_12", 6,
        nil={(1, 3): {4: 1}, (1, 4): {6: 1}, (2, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 4: {4: 1}, 5: {5: 2}, 6: {6: 2}},
            "e8": {2: {2: 1}, 5: {5: -1}},
            "e9": {3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 1}},
        },
        symplectic="odd", maximal=False,
    )


def _build_n6_13() -> CatalogEntry:
    return _table_entry(
        "n6_13", 6,
        nil={(1, 2): {5: 1}, (1, 3): {4: 1}, (1, 4): {6: 1}, (2, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: -1}, 5: {5: 1}, 6: {6: 1}},
            "e8": {2: {2: 1}, 3: {3: 2}, 4: {4: 2}, 5: {5: 1}, 6: {6: 2}},
        },
        symplectic="yes", maximal=False,
        conditions=(
            _cond("a_{6,8} != 0", (1, [(6, 8)])),
            _cond("a_{3,8} a_{6,8} != a_{4,8}^2  [as printed]",
                  (1, [(3, 8), (6, 8)]), (-1, [(4, 8), (4, 8)])),
            _cond("2 a_{3,8} a_{6,8} != a_{4,8}^2  [corrected]",
                  (2, [(3, 8), (6, 8)]), (-1, [(4, 8), (4, 8)])),
        ),
        corrections=("n6_13-condition",),
        known_condition_failures={
            "a_{3,8} a_{6,8} != a_{4,8}^2  [as printed]": "n6_13-condition",
        },
    )


def _build_n6_15() -> CatalogEntry:
    return _table_entry(
        "n6_15", 6,
        nil={(1, 2): {3: 1, 5: 1}, (1, 3): {4: 1}, (1, 4): {6: 1}, (2, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 2}, 3: {3: 3}, 4: {4: 4}, 5: {5: 3}, 6: {6: 5}},
        },
        symplectic="odd", maximal=False,
    )


def _build_n6_16() -> CatalogEntry:
    return _table_entry(
        "n6_16", 6,
        nil={(1, 3): {4: 1}, (1, 4): {5: 1}, (1, 5): {6: 1},
             (2, 3): {5: 1}, (2, 4): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 2}, 4: {4: 1}, 5: {5: 2}, 6: {6: 3}},
            "e8": {3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 1}},
        },
        symplectic="yes", maximal=False,
        conditions=(
            _cond("a_{6,8} != 0", (1, [(6, 8)])),
            _cond("3 a_{3,8} a_{6,8}^2 != 3 a_{4,8} a_{5,8} a_{6,8} + a_{5,8}^3  [as printed]",
                  (3, [(3, 8), (6, 8), (6, 8)]),
                  (-3, [(4, 8), (5, 8), (6, 8)]),
                  (-1, [(5, 8), (5, 8), (5, 8)])),
            _cond("3 a_{3,8} a_{6,8}^2 + a_{5,8}^3 != 3 a_{4,8} a_{5,8} a_{6,8}  [corrected]",
                  (3, [(3, 8), (6, 8), (6, 8)]),
                  (-3, [(4, 8), (5, 8), (6, 8)]),
                  (1, [(5, 8), (5, 8), (5, 8)])),
        ),
        corrections=("n6_16-condition",),
        known_condition_failures={
            "3 a_{3,8} a_{6,8}^2 != 3 a_{4,8} a_{5,8} a_{6,8} + a_{5,8}^3  [as printed]": "n6_16-condition",
        },
    )


def _build_n6_17() -> CatalogEntry:
    return _table_entry(
        "n6_17", 6,
        nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {6: 1}, (2, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 2}, 5: {5: 3}, 6: {6: 3}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 1}, 6: {6: 1}},
        },
        symplectic="yes", maximal=False,
        conditions=(
            _cond("a_{6,8} != 0", (1, [(6, 8)])),
            _cond("2 a_{3,8} a_{6,8} != a_{4,8}  [as printed]",
                  (2, [(3, 8), (6, 8)]), (-1, [(4, 8)])),
            _cond("2 a_{3,8} a_{6,8} != a_{4,8}^2  [corrected]",
                  (2, [(3, 8), (6, 8)]), (-1, [(4, 8), (4, 8)])),
        ),
        corrections=("n6_17-condition",),
        known_condition_failures={
            "2 a_{3,8} a_{6,8} != a_{4,8}  [as printed]": "n6_17-condition",
        },
    )


def _build_n6_19() -> CatalogEntry:
    return _table_entry(
        "n6_19", 6,
        nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (1, 5): {6: 1},
             (2, 3): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 3}, 3: {3: 4}, 4: {4: 5}, 5: {5: 6}, 6: {6: 7}},
        },
        symplectic="odd", maximal=False,
    )


def _build_n6_20() -> CatalogEntry:
    return _table_entry(
        "n6_20", 6,
        nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (1, 5): {6: 1},
             (2, 3): {5: 1}, (2, 4): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 2}, 3: {3: 3}, 4: {4: 4}, 5: {5: 5}, 6: {6: 6}},
        },
        symplectic="odd", maximal=False,
    )


def _build_n6_21() -> CatalogEntry:
    return _table_entry(
        "n6_21", 6,
        nil={(1, 2): {3: 1}, (1, 5): {6: 1}, (2, 3): {4: 1}, (2, 4): {5: 1},
             (3, 4): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 2}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 2}, 5: {5: 3}, 6: {6: 3}},
        },
        symplectic="yes", maximal=False,  # printed No; computed Yes, see TYPOS
        conditions=(
            _cond("a_{2,8} a_{6,8} != 8 a_{3,8} a_{5,8} + 3 a_{4,8}^2  [as printed]",
                  (1, [(2, 8), (6, 8)]),
                  (-8, [(3, 8), (5, 8)]),
                  (-3, [(4, 8), (4, 8)])),
            _cond("8 a_{2,8} a_{6,8} + 3 a_{4,8}^2 != 8 a_{3,8} a_{5,8}  [corrected]",
                  (8, [(2, 8), (6, 8)]),
                  (-8, [(3, 8), (5, 8)]),
                  (3, [(4, 8), (4, 8)])),
            _cond("a_{6,8} != 0", (1, [(6, 8)])),
        ),
        corrections=("n6_21-maximal-rank", "n6_21-condition"),
        known_mismatches={"maximal_rank": "n6_21-maximal-rank"},
        known_condition_failures={
            "a_{2,8} a_{6,8} != 8 a_{3,8} a_{5,8} + 3 a_{4,8}^2  [as printed]": "n6_21-condition",
        },
    )


def _build_n6_22() -> CatalogEntry:
    return _table_entry(
        "n6_22", 6,
        nil={(1, 2): {3: 1}, (1, 3): {5: 1}, (1, 5): {6: 1}, (2, 3): {4: 1},
             (2, 4): {5: 1}, (3, 4): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 2: {2: Q(1, 2)}, 3: {3: Q(3, 2)}, 4: {4: 2},
                   5: {5: Q(5, 2)}, 6: {6: Q(7, 2)}},
        },
        symplectic="odd", maximal=False,
    )


# -- parametric table rows -----------------------------------------------------


def _require_nonzero_a(a) -> Fraction:
    a = as_fraction(a)
    if a == 0:
        raise ValueError("parameter a must be nonzero (printed condition: a != 0)")
    return a


def _build_n6_5(a=Q(2)) -> CatalogEntry:
    a = _require_nonzero_a(a)
    return _table_entry(
        "n6_5", 6,
        nil={(1, 3): {5: 1}, (1, 4): {6: 1}, (2, 3): {6: a}, (2, 4): {5: 1}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 1}, 5: {5: 1}, 6: {6: 1}},
            "e8": {1: {2: 1 / a}, 2: {1: 1}, 5: {6: 1}, 6: {5: 1 / a}},
            "e9": {3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 1}},
            "e10": {3: {4: a}, 4: {3: 1}, 5: {6: a}, 6: {5: 1}},
        },
        symplectic="yes", maximal=True,
        conditions=(
            _cond("a_{6,8}^2 != a_{6,9}^2  [as printed]",
                  (1, [(6, 8), (6, 8)]), (-1, [(6, 9), (6, 9)])),
            _cond("a a_{6,8}^2 != a_{6,9}^2  [corrected]",
                  (a, [(6, 8), (6, 8)]), (-1, [(6, 9), (6, 9)])),
            _cond("a (a_{7,8} + a_{8,9}) != a_{7,10} + a_{9,10}  [as printed]",
                  (a, [(7, 8)]), (a, [(8, 9)]), (-1, [(7, 10)]), (-1, [(9, 10)])),
            _cond("a (a_{7,8} + a_{8,9}) + a_{9,10} != a_{7,10}  [corrected]",
                  (a, [(7, 8)]), (a, [(8, 9)]), (-1, [(7, 10)]), (1, [(9, 10)])),
        ),
        corrections=("n6_5-condition-1", "n6_5-condition-2"),
        known_condition_failures={
            "a_{6,8}^2 != a_{6,9}^2  [as printed]": "n6_5-condition-1",
            "a (a_{7,8} + a_{8,9}) != a_{7,10} + a_{9,10}  [as printed]": "n6_5-condition-2",
        },
        params={"a": a},
    )


def _build_n6_10(a=Q(2)) -> CatalogEntry:
    a = _require_nonzero_a(a)
    return _table_entry(
        "n6_10", 6,
        nil={(1, 2): {3: 1}, (1, 3): {5: 1}, (1, 4): {6: 1}, (2, 3): {6: a}, (2, 4): {5: 1}},
        torus={
            # [e7,e3] = 2 e3 (printed 2 e2), see TYPOS
            "e7": {1: {1: 1}, 2: {2: 1}, 3: {3: 2}, 4: {4: 2}, 5: {5: 3}, 6: {6: 3}},
            "e8": {1: {2: 1 / a}, 2: {1: 1}, 5: {6: 1}, 6: {5: 1 / a}},
        },
        symplectic="yes", maximal=False,
        conditions=(
            _cond("a a_{6,8}^2 != a_{5,8}^2",
                  (a, [(6, 8), (6, 8)]), (-1, [(5, 8), (5, 8)])),
        ),
        corrections=("n6_10-torus-action",),
        params={"a": a},
    )


def _build_n6_14(a=Q(1)) -> CatalogEntry:
    a = _require_nonzero_a(a)
    return _table_entry(
        "n6_14", 6,
        nil={(1, 3): {4: 1}, (1, 4): {6: 1}, (2, 3): {5: 1}, (2, 5): {6: a}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 2}},
            "e8": {1: {2: -1 / a}, 2: {1: 1}, 4: {5: -1 / a}, 5: {4: 1}},
            "e9": {3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 1}},
        },
        symplectic="odd", maximal=True,
        params={"a": a},
    )


def _build_n6_18(a=Q(1)) -> CatalogEntry:
    a = _require_nonzero_a(a)
    return _table_entry(
        "n6_18", 6,
        nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {6: 1}, (2, 3): {5: 1}, (2, 5): {6: a}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 1}, 3: {3: 2}, 4: {4: 3}, 5: {5: 3}, 6: {6: 4}},
            "e8": {1: {2: -1 / a}, 2: {1: 1}, 4: {5: -1 / a}, 5: {4: 1}},
        },
        symplectic="never", maximal=True,
        params={"a": a},
    )


# -- families ------------------------------------------------------------------


def _build_abelian(n=2) -> CatalogEntry:
    n = int(n)
    if n < 1:
        raise ValueError("abelian family requires n >= 1")
    check_dim(2 * n)
    nil = LieAlgebra(n)
    gens = tuple({i: {i: 1}} for i in range(n))
    labels = tuple(f"e{n + i + 1}" for i in range(n))
    conditions = tuple(
        _cond(f"a_{{{i},{n + i}}} != 0", (1, [(i, n + i)])) for i in range(1, n + 1)
    )
    return CatalogEntry(
        name="abelian", params={"n": n}, nilradical=nil,
        torus=TorusAction(nil, gens, labels),
        expected=Expected("yes", True, conditions, exact=True),
    )


def _build_L(n=4) -> CatalogEntry:
    n = int(n)
    if n < 3:
        raise ValueError("L family requires n >= 3")
    check_dim(n + 2)
    nil = _nil(n, {(1, i): {i + 1: 1} for i in range(2, n)})
    h1 = diagonal([1] + [i - 2 for i in range(2, n + 1)])
    h2 = diagonal([0] + [1] * (n - 1))
    torus = TorusAction(nil, (h1, h2), (f"e{n + 1}", f"e{n + 2}"))
    if (n + 2) % 2 != 0:
        symplectic = "odd"
    elif n == 4:
        symplectic = "yes"
    else:
        symplectic = "never"
    return CatalogEntry(
        name="L", params={"n": n}, nilradical=nil, torus=torus,
        expected=Expected(symplectic, True,
                          exact=None if n == 4 else (False if n % 2 == 0 else None)),
        corrections=("L4-determinant-sign",) if n == 4 else (),
    )


def _build_Q(n=5) -> CatalogEntry:
    n = int(n)
    if n < 5 or n % 2 == 0:
        raise ValueError("Q family requires odd n >= 5")
    check_dim(n + 3)
    k = (n - 1) // 2
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(1, n - 1):  # chain stops at n-2, see TYPOS (Q-chain-range)
        brackets[(0, i)] = {i + 1: Q(1)}
    for i in range(1, k + 1):
        brackets.setdefault((i, n - i), {})[n] = Q(-1) ** i
    labels = tuple(f"e{i}" for i in range(n + 1))
    nil = LieAlgebra(n + 1, brackets, labels)
    h1 = diagonal([1] + [i - 1 for i in range(1, n)] + [n - 2])
    h2 = diagonal([0] + [1] * (n - 1) + [2])
    torus = TorusAction(nil, (h1, h2), (f"e{n + 1}", f"e{n + 2}"))
    return CatalogEntry(
        name="Q", params={"n": n}, nilradical=nil, torus=torus,
        expected=Expected("yes", True, exact=True),
        corrections=("Q-chain-range", "Q-top-power-constant"),
    )


_BUILDERS = {
    "n3_1": _build_n3_1,
    "n4_1": _build_n4_1,
    "n5_1": _build_n5_1,
    "n5_2": _build_n5_2,
    "n5_3": _build_n5_3,
    "n5_4": _build_n5_4,
    "n5_5": _build_n5_5,
    "n5_6": _build_n5_6,
    "n6_1": _build_n6_1,
    "n6_2": _build_n6_2,
    "n6_3": _build_n6_3,
    "n6_4": _build_n6_4,
    "n6_5": _build_n6_5,
    "n6_6": _build_n6_6,
    "n6_7": _build_n6_7,
    "n6_8": _build_n6_8,
    "n6_9": _build_n6_9,
    "n6_10": _build_n6_10,
    "n6_11": _build_n6_11,
    "n6_12": _build_n6_12,
    "n6_13": _build_n6_13,
    "n6_14": _build_n6_14,
    "n6_15": _build_n6_15,
    "n6_16": _build_n6_16,
    "n6_17": _build_n6_17,
    "n6_18": _build_n6_18,
    "n6_19": _build_n6_19,
    "n6_20": _build_n6_20,
    "n6_21": _build_n6_21,
    "n6_22": _build_n6_22,
    "abelian": _build_abelian,
    "L": _build_L,
    "Q": _build_Q,
}

TABLE_NAMES = tuple(name for name in _BUILDERS if name.startswith("n"))
FAMILY_NAMES = ("abelian", "L", "Q")


def entry_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def entry_parameters(name: str) -> tuple[str, ...]:
    """The parameter names that ``build_entry(name, ...)`` accepts."""
    return tuple(inspect.signature(_BUILDERS[name]).parameters)


def build_entry(name: str, **params) -> CatalogEntry:
    """Construct a catalog entry; raises ValueError on bad names or parameters."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ValueError(f"unknown catalog entry {name!r}; see entry_names()")
    try:
        return builder(**params)
    except TypeError as exc:
        raise ValueError(f"invalid parameters for {name!r}: {exc}") from None


DEFAULT_SELECTION: tuple[tuple[str, dict], ...] = tuple(
    [(name, {}) for name in TABLE_NAMES]
    + [("abelian", {"n": n}) for n in (1, 2, 3, 4)]
    + [("L", {"n": n}) for n in (3, 4, 5, 6, 7, 8)]
    + [("Q", {"n": n}) for n in (5, 7, 9)]
)
