"""Exact substrate: sparse rows, sparse polynomials, Pfaffians.

Everything in this package is computed over the rationals, so every identity
shown below is an exact equality, not a numerical coincidence.
"""

import signal
from fractions import Fraction as Q
from itertools import combinations, permutations

from liesymp import MultiPoly, poly_divides
from liesymp.linalg import dense_row, sparse_kernel_rows, sparse_rref, sparsest_row_pfaffian
from liesymp.poly import polynomial_pfaffian

# a reader that closes stdout early (| head) ends the demo quietly
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

print("== exact linear algebra ==")
# a matrix is held as sparse rows {column: value}; the rows (1 2 1), (2 4 0), (0 0 3)
pivots = sparse_rref([{0: 1, 1: 2, 2: 1}, {0: 2, 1: 4}, {2: 3}])
print(f"rref pivots: {tuple(sorted(pivots))}")
kernel = [dense_row(v, 0, 3) for v in sparse_kernel_rows(sparse_rref([{0: 1, 1: -1}]), 3)]
print("kernel of (1 -1 0):", ", ".join("(" + " ".join(map(str, v)) + ")" for v in kernel))
for v in kernel:
    assert v[0] - v[1] == 0

print()
print("== sparse multivariate polynomials ==")
x, y = MultiPoly.variables(["x", "y"])
p = (x + y) * (x - y)
print(f"(x+y)(x-y) = {p}")
print(f"x + y divides x^2 - y^2: {poly_divides(x + y, p)}")
print(f"value at x=3/2, y=1/2: {p.evaluate({'x': Q(3, 2), 'y': Q(1, 2)})}")

print()
print("== Pfaffians ==")


def pfaffian(upper, recursion=sparsest_row_pfaffian):
    """The Pfaffian of the antisymmetric 4 x 4 matrix with these entries above
    the diagonal, row by row: the package's recursion on (i, j) -> entry, run
    on rationals directly and on polynomials through ``polynomial_pfaffian``,
    which packs them as integer polynomials for the same recursion."""
    pairs = dict(zip(combinations(range(4), 2), upper))
    return recursion(4, {ij: x for ij, x in pairs.items() if x})


def determinant(upper):
    """The determinant of the same matrix by the Leibniz formula, a sum over
    the 24 permutations that shares no code with the Pfaffian."""
    grid = [[0] * 4 for _ in range(4)]
    for (i, j), x in zip(combinations(range(4), 2), upper):
        grid[i][j], grid[j][i] = x, -x
    total = 0
    for perm in permutations(range(4)):
        term = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(4), 2))
        for i, j in enumerate(perm):
            term = term * grid[i][j]
        total = total + term
    return total


generic = MultiPoly.variables(list("abcdef"))
pf = pfaffian(generic, polynomial_pfaffian)
print(f"Pf of the generic 4x4 antisymmetric matrix: {pf}")
print(f"Pf^2 == det: {determinant(generic) == pf * pf}")

concrete = (1, 2, 3, 4, 5, 6)
print(f"a concrete Pfaffian: {pfaffian(concrete)} "
      f"(squared: {pfaffian(concrete) ** 2}, determinant: {determinant(concrete)})")
