"""Exact substrate: rational matrices, sparse polynomials, Pfaffians.

Everything in this package is computed over the rationals, so every identity
shown below is an exact equality, not a numerical coincidence.
"""

import signal
from fractions import Fraction as Q

from liesymp import MultiPoly, PolyMatrix, RationalMatrix, poly_divides

# a reader that closes stdout early (| head) ends the demo quietly
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

print("== exact linear algebra ==")
m = RationalMatrix([[1, 2, 1], [2, 4, 0], [0, 0, 3]])
red, pivots = m.rref()
print(f"rref pivots: {pivots}")
kernel = RationalMatrix([[1, -1, 0]]).kernel_basis()
print("kernel of (1 -1 0):", ", ".join("(" + " ".join(map(str, v)) + ")" for v in kernel))
for v in kernel:
    assert all(x == 0 for x in RationalMatrix([[1, -1, 0]]).apply(v))

print()
print("== sparse multivariate polynomials ==")
x, y = MultiPoly.variables(["x", "y"])
p = (x + y) * (x - y)
print(f"(x+y)(x-y) = {p}")
print(f"x + y divides x^2 - y^2: {poly_divides(x + y, p)}")
print(f"value at x=3/2, y=1/2: {p.evaluate({'x': Q(3, 2), 'y': Q(1, 2)})}")

print()
print("== Pfaffians ==")
a, b, c, d, e, f = MultiPoly.variables(list("abcdef"))
m4 = PolyMatrix([[0, a, b, c], [-a, 0, d, e], [-b, -d, 0, f], [-c, -e, -f, 0]])
pf = m4.pfaffian()
print(f"Pf of the generic 4x4 antisymmetric matrix: {pf}")
print(f"Pf^2 == det: {m4.determinant() == pf * pf}")

concrete = RationalMatrix(
    [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
)
print(f"a concrete Pfaffian: {concrete.pfaffian()} "
      f"(squared: {concrete.pfaffian() ** 2}, determinant: {concrete.determinant()})")
