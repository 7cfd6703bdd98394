"""liesymp: exact-arithmetic symplectic decisions for solvable Lie algebras.

Everything computes over the rationals, each value an ``int`` where
integral and a ``fractions.Fraction`` otherwise: structure constants,
cocycle spaces, Pfaffians, derivation algebras.  The central
question answered is whether a finite-dimensional Lie algebra carries a
closed non-degenerate 2-form, decided exactly through the Pfaffian of the
generic closed form, with integer witnesses when one exists.
"""

from .analysis import Analysis
from .catalog import CatalogEntry, TYPOS, build_entry, entry_names
from .fileformat import AlgebraFile, ParseError, build, parse, print_file
from .liealg import LieAlgebra, Subspace
from .linalg import RationalMatrix
from .poly import MultiPoly, PolyMatrix, poly_divides, poly_divmod
from .regression import reproduce_propositions, run_regression
from .structure import (
    CompletenessReport,
    DerivationBasis,
    NotRationallyDiagonalizable,
    RootDecomposition,
    TorusAction,
    derivation_algebra,
    is_complete,
    is_derivation,
    is_maximal_rank,
    rank_bound,
    root_decomposition,
    semidirect,
    verify_torus,
)
from .symplectic import (
    CocycleSpace,
    SymplecticVerdict,
    TwoForm,
    cocycle_space,
    d_one_form,
    d_two_form,
    decide_symplectic,
    find_nonvanishing_point,
    generic_cocycle,
    is_closed,
    is_lagrangian_ideal,
    pullback,
    top_power,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraFile",
    "Analysis",
    "CatalogEntry",
    "CocycleSpace",
    "CompletenessReport",
    "DerivationBasis",
    "LieAlgebra",
    "MultiPoly",
    "NotRationallyDiagonalizable",
    "ParseError",
    "PolyMatrix",
    "RationalMatrix",
    "RootDecomposition",
    "Subspace",
    "SymplecticVerdict",
    "TorusAction",
    "TwoForm",
    "TYPOS",
    "build",
    "build_entry",
    "cocycle_space",
    "d_one_form",
    "d_two_form",
    "decide_symplectic",
    "derivation_algebra",
    "entry_names",
    "find_nonvanishing_point",
    "generic_cocycle",
    "is_closed",
    "is_complete",
    "is_derivation",
    "is_lagrangian_ideal",
    "is_maximal_rank",
    "parse",
    "poly_divides",
    "poly_divmod",
    "print_file",
    "pullback",
    "rank_bound",
    "reproduce_propositions",
    "root_decomposition",
    "run_regression",
    "semidirect",
    "top_power",
    "verify_torus",
]
