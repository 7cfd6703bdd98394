"""Built-in reference collection of solvable complete Lie algebras.

Each entry packages a nilpotent algebra (dimension at most six, or one of
three parametric families), a verified torus action on it, and the reference
verdicts the regression suite compares against: symplectic existence
("yes" / "never" / "odd" for odd total dimension), maximal rank of the torus,
and the printed non-degeneracy conditions as polynomials in the entries of
the general closed 2-form.

The reference data is transcribed from published classification tables.  A
fixed row of a table is one entry of ``_TABLE``, from its name to the fields
of ``_table_entry``; a row with the parameter a is a function of a that
returns those fields, so every table row is built by one path.  The three
families keep a builder each.

A few printed values contradict the algebra axioms (a torus rule that is not
a derivation, for example) or the recomputed results.  Each such erratum is
described in the top-level TYPOS.md under an id from :data:`TYPOS`, and the
id sits on what it excuses: a fix to an entry's stored data is listed in the
entry's ``corrections``, a printed condition carries ``Condition.typo``, and a
printed verdict carries ``Expected.typos[<comparison name>]``.  Expected
verdicts are never computed, only transcribed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

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
    ``typo`` is the erratum id of a condition kept as printed although it
    fails, None for a condition expected to hold.
    """

    label: str
    terms: tuple[tuple[Fraction, tuple[tuple[int, int], ...]], ...]
    typo: str | None = None

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
    is silent about exact (Frobenius) forms.  ``typos`` maps a comparison
    name, as the regression prints it, to the erratum id of a verdict kept
    as printed although the computation contradicts it."""

    symplectic: str  # "yes" | "never" | "odd"
    maximal_rank: bool
    conditions: tuple[Condition, ...] = ()
    exact: bool | None = None
    typos: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: dict
    nilradical: LieAlgebra
    torus: TorusAction
    expected: Expected
    corrections: tuple[str, ...] = ()

    @property
    def total_dim(self) -> int:
        return self.nilradical.dim + self.torus.rank


# the ids of the errata that TYPOS.md describes
TYPOS: tuple[str, ...] = (
    "n3_1-torus-action",
    "n5_2-torus-action",
    "n6_10-torus-action",
    "n6_21-maximal-rank",
    "n6_17-condition",
    "n6_5-condition-1",
    "n6_5-condition-2",
    "n6_13-condition",
    "n6_16-condition",
    "n6_21-condition",
    "Q-chain-range",
    "Q-top-power-constant",
    "L4-determinant-sign",
)


# -- construction helpers ------------------------------------------------------


def _nil(dim: int, brackets: Mapping[tuple[int, int], Mapping[int, object]]) -> LieAlgebra:
    """Nilradical from 1-based bracket data {(i, j): {k: c}}; ``LieAlgebra``
    coerces each c."""
    table = {
        (i - 1, j - 1): {k - 1: c for k, c in comps.items()}
        for (i, j), comps in brackets.items()
    }
    return LieAlgebra(dim, table)


def _action(rules: Mapping[int, Mapping[int, object]]) -> dict[int, dict[int, object]]:
    """Generator columns from 1-based action data {j: {k: c}} (e_j -> sum c e_k);
    ``TorusAction`` coerces each c."""
    return {j - 1: {k - 1: c for k, c in comps.items()} for j, comps in rules.items()}


def _cond(label: str, *terms, typo: str | None = None) -> Condition:
    packed = tuple(
        (as_fraction(coeff), tuple((int(i), int(j)) for (i, j) in pairs))
        for coeff, pairs in terms
    )
    return Condition(label, packed, typo)


def _table_entry(
    name: str,
    dim: int,
    nil: Mapping[tuple[int, int], Mapping[int, object]],
    torus: Mapping[str, Mapping[int, Mapping[int, object]]],
    symplectic: str,
    maximal: bool,
    conditions: Sequence[Condition] = (),
    corrections: Sequence[str] = (),
    typos: Mapping[str, str] | None = None,
    params: dict | None = None,
) -> CatalogEntry:
    """A table row; ``corrections`` names the fixes to its stored data, and
    the entry lists them before the ids on its verdicts and conditions."""
    nilradical = _nil(dim, nil)
    labels = tuple(torus.keys())
    gens = tuple(_action(rules) for rules in torus.values())
    typos = dict(typos or {})
    return CatalogEntry(
        name=name,
        params=params or {},
        nilradical=nilradical,
        torus=TorusAction(nilradical, gens, labels),
        expected=Expected(symplectic, maximal, tuple(conditions), typos=typos),
        corrections=(
            tuple(corrections)
            + tuple(typos.values())
            + tuple(c.typo for c in conditions if c.typo is not None)
        ),
    )


# -- table rows ----------------------------------------------------------------
# Each row maps its name to the fields that ``_table_entry`` takes after the
# name.  A row with the parameter a is a function of a that returns them.


def _require_nonzero_a(a) -> Fraction:
    a = as_fraction(a)
    if a == 0:
        raise ValueError("parameter a must be nonzero (printed condition: a != 0)")
    return a


def _n6_5(a=Q(2)) -> dict:
    a = _require_nonzero_a(a)
    return dict(
        dim=6, nil={(1, 3): {5: 1}, (1, 4): {6: 1}, (2, 3): {6: a}, (2, 4): {5: 1}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 1}, 5: {5: 1}, 6: {6: 1}},
            "e8": {1: {2: 1 / a}, 2: {1: 1}, 5: {6: 1}, 6: {5: 1 / a}},
            "e9": {3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 1}},
            "e10": {3: {4: a}, 4: {3: 1}, 5: {6: a}, 6: {5: 1}},
        },
        symplectic="yes", maximal=True,
        conditions=(
            _cond("a_{6,8}^2 != a_{6,9}^2  [as printed]",
                  (1, [(6, 8), (6, 8)]), (-1, [(6, 9), (6, 9)]),
                  typo="n6_5-condition-1"),
            _cond("a a_{6,8}^2 != a_{6,9}^2  [corrected]",
                  (a, [(6, 8), (6, 8)]), (-1, [(6, 9), (6, 9)])),
            _cond("a (a_{7,8} + a_{8,9}) != a_{7,10} + a_{9,10}  [as printed]",
                  (a, [(7, 8)]), (a, [(8, 9)]), (-1, [(7, 10)]), (-1, [(9, 10)]),
                  typo="n6_5-condition-2"),
            _cond("a (a_{7,8} + a_{8,9}) + a_{9,10} != a_{7,10}  [corrected]",
                  (a, [(7, 8)]), (a, [(8, 9)]), (-1, [(7, 10)]), (1, [(9, 10)])),
        ),
        params={"a": a},
    )


def _n6_10(a=Q(2)) -> dict:
    a = _require_nonzero_a(a)
    return dict(
        dim=6,
        nil={(1, 2): {3: 1}, (1, 3): {5: 1}, (1, 4): {6: 1}, (2, 3): {6: a}, (2, 4): {5: 1}},
        torus={
            # [e7,e3] = 2 e3 (printed 2 e2), see TYPOS.md
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


def _n6_14(a=Q(1)) -> dict:
    a = _require_nonzero_a(a)
    return dict(
        dim=6, nil={(1, 3): {4: 1}, (1, 4): {6: 1}, (2, 3): {5: 1}, (2, 5): {6: a}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 2}},
            "e8": {1: {2: -1 / a}, 2: {1: 1}, 4: {5: -1 / a}, 5: {4: 1}},
            "e9": {3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 1}},
        },
        symplectic="odd", maximal=True,
        params={"a": a},
    )


def _n6_18(a=Q(1)) -> dict:
    a = _require_nonzero_a(a)
    return dict(
        dim=6,
        nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {6: 1}, (2, 3): {5: 1}, (2, 5): {6: a}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 1}, 3: {3: 2}, 4: {4: 3}, 5: {5: 3}, 6: {6: 4}},
            "e8": {1: {2: -1 / a}, 2: {1: 1}, 4: {5: -1 / a}, 5: {4: 1}},
        },
        symplectic="never", maximal=True,
        params={"a": a},
    )


_TABLE: dict[str, Mapping | Callable[..., Mapping]] = {
    "n3_1": dict(
        dim=3, nil={(1, 2): {3: 1}},
        torus={
            "e4": {1: {1: 1}, 2: {2: 1}, 3: {3: 2}},  # [e4,e3]=2e3 forced, see TYPOS.md
            "e5": {2: {2: 1}, 3: {3: 1}},
        },
        symplectic="odd", maximal=True,
        corrections=("n3_1-torus-action",),
    ),
    "n4_1": dict(
        dim=4, nil={(2, 4): {1: 1}, (3, 4): {2: 1}},
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
    ),
    "n5_1": dict(
        dim=5, nil={(3, 5): {1: 1}, (4, 5): {2: 1}},
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
    ),
    "n5_2": dict(
        dim=5, nil={(2, 5): {1: 1}, (3, 5): {2: 1}, (4, 5): {3: 1}},
        torus={
            "e6": {1: {1: 1}, 3: {3: -1}, 4: {4: -2}, 5: {5: 1}},  # -1, see TYPOS.md
            "e7": {2: {2: 1}, 3: {3: 2}, 4: {4: 3}, 5: {5: -1}},
        },
        symplectic="odd", maximal=True,
        corrections=("n5_2-torus-action",),
    ),
    "n5_3": dict(
        dim=5, nil={(3, 4): {2: 1}, (3, 5): {1: 1}, (4, 5): {3: 1}},
        torus={
            "e6": {1: {1: 1}, 3: {3: Q(1, 3)}, 4: {4: Q(-1, 3)}, 5: {5: Q(2, 3)}},
            "e7": {2: {2: 1}, 3: {3: Q(1, 3)}, 4: {4: Q(2, 3)}, 5: {5: Q(-1, 3)}},
        },
        symplectic="odd", maximal=True,
    ),
    "n5_4": dict(
        dim=5, nil={(2, 4): {1: 1}, (3, 5): {1: 1}},
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
    ),
    "n5_5": dict(
        dim=5, nil={(2, 5): {1: 1}, (3, 4): {1: 1}, (3, 5): {2: 1}},
        torus={
            "e6": {1: {1: 1}, 3: {3: -1}, 4: {4: 2}, 5: {5: 1}},
            "e7": {2: {2: 1}, 3: {3: 2}, 4: {4: -2}, 5: {5: -1}},
        },
        symplectic="odd", maximal=False,
    ),
    "n5_6": dict(
        dim=5, nil={(2, 5): {1: 1}, (3, 4): {1: 1}, (3, 5): {2: 1}, (4, 5): {3: 1}},
        torus={
            "e6": {1: {1: 1}, 2: {2: Q(4, 5)}, 3: {3: Q(3, 5)},
                   4: {4: Q(2, 5)}, 5: {5: Q(1, 5)}},
        },
        symplectic="yes", maximal=False,
        conditions=(_cond("a_{3,4} != 0", (1, [(3, 4)])),),
    ),
    "n6_1": dict(
        dim=6, nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 2}, 6: {6: 1}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 1}},
            "e9": {5: {5: 1}, 6: {6: 1}},
        },
        symplectic="odd", maximal=True,
    ),
    "n6_2": dict(
        dim=6, nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (1, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 2}, 5: {5: 3}, 6: {6: 4}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 1}},
        },
        symplectic="never", maximal=True,
    ),
    "n6_3": dict(
        dim=6, nil={(1, 2): {6: 1}, (1, 3): {4: 1}, (2, 3): {5: 1}},
        torus={
            "e7": {1: {1: 1}, 4: {4: 1}, 6: {6: 1}},
            "e8": {2: {2: 1}, 5: {5: 1}, 6: {6: 1}},
            "e9": {3: {3: 1}, 4: {4: 1}, 5: {5: 1}},
        },
        symplectic="odd", maximal=True,
    ),
    "n6_4": dict(
        dim=6, nil={(1, 2): {5: 1}, (1, 3): {6: 1}, (2, 4): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 1}},
            "e8": {2: {2: 1}, 4: {4: -1}, 5: {5: 1}},
            "e9": {3: {3: 1}, 4: {4: 1}, 6: {6: 1}},
        },
        symplectic="odd", maximal=False,
    ),
    "n6_5": _n6_5,
    "n6_6": dict(
        dim=6, nil={(1, 2): {6: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {5: 1}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 2}, 4: {4: 1}, 5: {5: 2}, 6: {6: 3}},
            "e8": {3: {3: 1}, 4: {4: 1}, 5: {5: 1}},
        },
        symplectic="yes", maximal=False,
        conditions=(
            _cond("a_{6,7} != 0", (1, [(6, 7)])),
            _cond("a_{5,8} != 0", (1, [(5, 8)])),
        ),
    ),
    "n6_7": dict(
        dim=6, nil={(1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 4: {4: 1}, 5: {5: 2}},
            "e8": {2: {2: 1}, 6: {6: 1}},
            "e9": {3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 1}},
        },
        symplectic="odd", maximal=True,
    ),
    "n6_8": dict(
        dim=6, nil={(1, 2): {3: 1, 5: 1}, (1, 3): {4: 1}, (2, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 2}, 5: {5: 1}, 6: {6: 1}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 2}},
        },
        symplectic="yes", maximal=False,
        conditions=(
            _cond("a_{6,8} != 0", (1, [(6, 8)])),
            _cond("a_{4,8} != 0", (1, [(4, 8)])),
        ),
    ),
    "n6_9": dict(
        dim=6, nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 5): {6: 1}, (2, 3): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 2}, 6: {6: 1}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 1}, 5: {5: 2}, 6: {6: 2}},
        },
        symplectic="yes", maximal=False,
        conditions=(
            _cond("a_{6,8} != 0", (1, [(6, 8)])),
            _cond("a_{4,8} != 0", (1, [(4, 8)])),
        ),
    ),
    "n6_10": _n6_10,
    "n6_11": dict(
        dim=6, nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 2}, 5: {5: 3}, 6: {6: 1}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 2}},
        },
        symplectic="yes", maximal=True,
        conditions=(
            _cond("a_{5,8} != 0", (1, [(5, 8)])),
            _cond("a_{6,8} != 0", (1, [(6, 8)])),
        ),
    ),
    "n6_12": dict(
        dim=6, nil={(1, 3): {4: 1}, (1, 4): {6: 1}, (2, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 4: {4: 1}, 5: {5: 2}, 6: {6: 2}},
            "e8": {2: {2: 1}, 5: {5: -1}},
            "e9": {3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 1}},
        },
        symplectic="odd", maximal=False,
    ),
    "n6_13": dict(
        dim=6, nil={(1, 2): {5: 1}, (1, 3): {4: 1}, (1, 4): {6: 1}, (2, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: -1}, 5: {5: 1}, 6: {6: 1}},
            "e8": {2: {2: 1}, 3: {3: 2}, 4: {4: 2}, 5: {5: 1}, 6: {6: 2}},
        },
        symplectic="yes", maximal=False,
        conditions=(
            _cond("a_{6,8} != 0", (1, [(6, 8)])),
            _cond("a_{3,8} a_{6,8} != a_{4,8}^2  [as printed]",
                  (1, [(3, 8), (6, 8)]), (-1, [(4, 8), (4, 8)]),
                  typo="n6_13-condition"),
            _cond("2 a_{3,8} a_{6,8} != a_{4,8}^2  [corrected]",
                  (2, [(3, 8), (6, 8)]), (-1, [(4, 8), (4, 8)])),
        ),
    ),
    "n6_14": _n6_14,
    "n6_15": dict(
        dim=6, nil={(1, 2): {3: 1, 5: 1}, (1, 3): {4: 1}, (1, 4): {6: 1}, (2, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 2}, 3: {3: 3}, 4: {4: 4}, 5: {5: 3}, 6: {6: 5}},
        },
        symplectic="odd", maximal=False,
    ),
    "n6_16": dict(
        dim=6, nil={(1, 3): {4: 1}, (1, 4): {5: 1}, (1, 5): {6: 1},
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
                  (-1, [(5, 8), (5, 8), (5, 8)]),
                  typo="n6_16-condition"),
            _cond("3 a_{3,8} a_{6,8}^2 + a_{5,8}^3 != 3 a_{4,8} a_{5,8} a_{6,8}  [corrected]",
                  (3, [(3, 8), (6, 8), (6, 8)]),
                  (-3, [(4, 8), (5, 8), (6, 8)]),
                  (1, [(5, 8), (5, 8), (5, 8)])),
        ),
    ),
    "n6_17": dict(
        dim=6, nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {6: 1}, (2, 5): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 2}, 5: {5: 3}, 6: {6: 3}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 1}, 6: {6: 1}},
        },
        symplectic="yes", maximal=False,
        conditions=(
            _cond("a_{6,8} != 0", (1, [(6, 8)])),
            _cond("2 a_{3,8} a_{6,8} != a_{4,8}  [as printed]",
                  (2, [(3, 8), (6, 8)]), (-1, [(4, 8)]),
                  typo="n6_17-condition"),
            _cond("2 a_{3,8} a_{6,8} != a_{4,8}^2  [corrected]",
                  (2, [(3, 8), (6, 8)]), (-1, [(4, 8), (4, 8)])),
        ),
    ),
    "n6_18": _n6_18,
    "n6_19": dict(
        dim=6, nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (1, 5): {6: 1},
             (2, 3): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 3}, 3: {3: 4}, 4: {4: 5}, 5: {5: 6}, 6: {6: 7}},
        },
        symplectic="odd", maximal=False,
    ),
    "n6_20": dict(
        dim=6, nil={(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (1, 5): {6: 1},
             (2, 3): {5: 1}, (2, 4): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 2: {2: 2}, 3: {3: 3}, 4: {4: 4}, 5: {5: 5}, 6: {6: 6}},
        },
        symplectic="odd", maximal=False,
    ),
    "n6_21": dict(
        dim=6, nil={(1, 2): {3: 1}, (1, 5): {6: 1}, (2, 3): {4: 1}, (2, 4): {5: 1},
             (3, 4): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 3: {3: 1}, 4: {4: 1}, 5: {5: 1}, 6: {6: 2}},
            "e8": {2: {2: 1}, 3: {3: 1}, 4: {4: 2}, 5: {5: 3}, 6: {6: 3}},
        },
        symplectic="yes", maximal=False,  # printed No; computed Yes, see TYPOS.md
        conditions=(
            _cond("a_{2,8} a_{6,8} != 8 a_{3,8} a_{5,8} + 3 a_{4,8}^2  [as printed]",
                  (1, [(2, 8), (6, 8)]),
                  (-8, [(3, 8), (5, 8)]),
                  (-3, [(4, 8), (4, 8)]),
                  typo="n6_21-condition"),
            _cond("8 a_{2,8} a_{6,8} + 3 a_{4,8}^2 != 8 a_{3,8} a_{5,8}  [corrected]",
                  (8, [(2, 8), (6, 8)]),
                  (-8, [(3, 8), (5, 8)]),
                  (3, [(4, 8), (4, 8)])),
            _cond("a_{6,8} != 0", (1, [(6, 8)])),
        ),
        typos={"maximal-rank": "n6_21-maximal-rank"},
    ),
    "n6_22": dict(
        dim=6, nil={(1, 2): {3: 1}, (1, 3): {5: 1}, (1, 5): {6: 1}, (2, 3): {4: 1},
             (2, 4): {5: 1}, (3, 4): {6: 1}},
        torus={
            "e7": {1: {1: 1}, 2: {2: Q(1, 2)}, 3: {3: Q(3, 2)}, 4: {4: 2},
                   5: {5: Q(5, 2)}, 6: {6: Q(7, 2)}},
        },
        symplectic="odd", maximal=False,
    ),
}


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
    for i in range(1, n - 1):  # chain stops at n-2, see TYPOS.md (Q-chain-range)
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


_FAMILIES = {"abelian": _build_abelian, "L": _build_L, "Q": _build_Q}

TABLE_NAMES = tuple(_TABLE)
FAMILY_NAMES = tuple(_FAMILIES)


def entry_names() -> tuple[str, ...]:
    return TABLE_NAMES + FAMILY_NAMES


def _builder(name: str):
    """The table row or family builder of ``name``; raises ValueError on a
    name that is not an entry."""
    if name in _TABLE:
        return _TABLE[name]
    if name in _FAMILIES:
        return _FAMILIES[name]
    raise ValueError(f"unknown catalog entry {name!r}; see entry_names()")


def entry_parameters(name: str) -> tuple[str, ...]:
    """The parameter names that ``build_entry(name, ...)`` accepts; raises
    ValueError on a name that is not an entry."""
    builder = _builder(name)
    return tuple(inspect.signature(builder).parameters) if callable(builder) else ()


def build_entry(name: str, **params) -> CatalogEntry:
    """Construct a catalog entry; raises ValueError on bad names or parameters."""
    builder = _builder(name)
    unexpected = [key for key in params if key not in entry_parameters(name)]
    if unexpected:
        raise ValueError(f"invalid parameters for {name!r}: unexpected parameter {unexpected[0]!r}")
    try:
        if name in _FAMILIES:
            return builder(**params)
        return _table_entry(name, **(builder(**params) if callable(builder) else builder))
    except TypeError as exc:  # a parameter value of the wrong type
        raise ValueError(f"invalid parameters for {name!r}: {exc}") from None


DEFAULT_SELECTION: tuple[tuple[str, dict], ...] = tuple(
    [(name, {}) for name in TABLE_NAMES]
    + [("abelian", {"n": n}) for n in (1, 2, 3, 4)]
    + [("L", {"n": n}) for n in (3, 4, 5, 6, 7, 8)]
    + [("Q", {"n": n}) for n in (5, 7, 9)]
)
