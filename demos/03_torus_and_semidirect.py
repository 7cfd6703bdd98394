"""Derivation algebras, torus actions, semidirect products, root spaces.

A torus on a nilpotent algebra is a commuting family of semisimple
derivations, each given by its sparse columns {j: {k: c}}: the generator
sends e_j to sum_k c e_k (0-based indices).  Adjoining it gives a solvable algebra; when the torus attains
the rank bound dim(n/[n,n]) the result is complete (trivial center, every
derivation inner) -- and the package verifies both facts directly.
"""

import signal

from liesymp import (
    LieAlgebra,
    TorusAction,
    derivation_algebra,
    is_complete,
    is_maximal_rank,
    rank_bound,
    root_decomposition,
    semidirect,
    verify_torus,
)
from liesymp.linalg import diagonal

# a reader that closes stdout early (| head) ends the demo quietly
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

n4_1 = LieAlgebra(4, {(1, 3): {0: 1}, (2, 3): {1: 1}})
der = derivation_algebra(n4_1)
print(f"dim Der = {der.dim} for the 4-dimensional example (seven derivations)")

torus = TorusAction(
    n4_1,
    (diagonal([1, 0, -1, 1]), diagonal([0, 1, 2, -1])),
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
jordan = {1: {0: 1}}  # e_2 -> e_1, e_1 -> 0
check = verify_torus(TorusAction(LieAlgebra(2), (jordan,)))
print(f"  {check.violation}")
