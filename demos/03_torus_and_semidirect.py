"""Derivation algebras, torus actions, semidirect products, root spaces.

A torus on a nilpotent algebra is a commuting family of semisimple
derivations.  Adjoining it gives a solvable algebra; when the torus attains
the rank bound dim(n/[n,n]) the result is complete (trivial center, every
derivation inner) -- and the package verifies both facts directly.
"""

from liesymp import (
    LieAlgebra,
    RationalMatrix,
    TorusAction,
    derivation_algebra,
    is_complete,
    is_maximal_rank,
    rank_bound,
    root_decomposition,
    semidirect,
    verify_torus,
)

n4_1 = LieAlgebra(4, {(1, 3): {0: 1}, (2, 3): {1: 1}})
der = derivation_algebra(n4_1)
print(f"dim Der = {der.dim} for the 4-dimensional example (seven derivations)")

torus = TorusAction(
    n4_1,
    (RationalMatrix.diagonal([1, 0, -1, 1]), RationalMatrix.diagonal([0, 1, 2, -1])),
    ("e5", "e6"),
)
print(f"torus axioms verified: {verify_torus(torus).ok}")
print(f"rank bound dim(n/[n,n]) = {rank_bound(n4_1)}, torus rank = {torus.rank}, "
      f"maximal: {is_maximal_rank(torus)}")

g = semidirect(torus)
print(f"semidirect product: {g} with labels {g.labels}")
bracket = g.bracket(g.basis_vector(4), g.basis_vector(0))
print(f"[e5, e1] = ({' '.join(map(str, bracket))})")

report = is_complete(g)
print(f"completeness: center dim {report.center_dim}, dim Der {report.derivation_dim} "
      f"= dim g {g.dim} -> complete: {report.complete}")

print()
print("root-space decomposition under the torus:")
decomp = root_decomposition(torus)
for beta, space in zip(decomp.roots, decomp.spaces):
    print(f"  root {tuple(map(str, beta))}: dimension {space.dim}")

print()
print("a nilpotent generator is rejected (not semisimple):")
jordan = RationalMatrix([[0, 1], [0, 0]])
check = verify_torus(TorusAction(LieAlgebra(2), (jordan,)))
print(f"  {check.violation}")
