"""Defining Lie algebras from structure constants and inspecting them.

The running example is the 4-dimensional nilpotent algebra with
[e2, e4] = e1 and [e3, e4] = e2 (indices are 0-based in code).
"""

from liesymp import LieAlgebra

n4_1 = LieAlgebra(4, {(1, 3): {0: 1}, (2, 3): {1: 1}})
print(f"algebra: {n4_1}")
print(f"jacobi identity holds: {n4_1.jacobi_holds()}")
bracket = n4_1.bracket(n4_1.basis_vector(1), n4_1.basis_vector(3))
print(f"[e2, e4] = ({' '.join(map(str, bracket))})")

center = n4_1.center()
print(f"center dimension: {center.dim} (spanned by e1: {center.contains(n4_1.basis_vector(0))})")

print("lower central series dims:", [s.dim for s in n4_1.lower_central_series()])
print("derived series dims:", [s.dim for s in n4_1.derived_series()])
print(f"nilpotent: {n4_1.is_nilpotent()}, solvable: {n4_1.is_solvable()}")

print()
print("a broken bracket table is caught with the first bad triple:")
bad = LieAlgebra(4, {(1, 3): {0: 1}, (2, 3): {1: 1}, (0, 1): {3: 1}})
print(f"adding [e1, e2] = e4 -> jacobi failure at {bad.jacobi_failure()}")

print()
print("ideals are tested exactly:")
print(f"the center is an ideal: {n4_1.is_ideal(n4_1.center())}")
print(f"the derived subalgebra is an ideal: {n4_1.is_ideal(n4_1.derived_subalgebra())}")
