"""The symplectic decision: cocycle spaces, generic Pfaffians, witnesses.

A symplectic form on a Lie algebra is a closed non-degenerate 2-form.  The
package computes the space of closed forms exactly, forms the generic member
with parameters t1..tm, and decides existence by testing whether its
Pfaffian is the zero polynomial.  When it is not, an integer parameter point
with nonzero Pfaffian is produced as a checkable witness.
"""

import signal

from liesymp import (
    build_entry,
    cocycle_space,
    d_one_form,
    d_two_form,
    decide_symplectic,
    generic_cocycle,
    semidirect,
    top_power,
)

# a reader that closes stdout early (| head) ends the demo quietly
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

g = semidirect(build_entry("n4_1").torus)
cs = cocycle_space(g)
print(f"dim Z^2 = {cs.dims[0]}, dim B^2 = {cs.dims[1]}, dim H^2 = {cs.dims[2]}")

generic = generic_cocycle(cs)
pf = generic.pfaffian()
print(f"Pfaffian of the generic closed form: {pf}")

verdict = decide_symplectic(g)
print(f"symplectic: {verdict.exists}")
print("witness (closed, with nonzero Pfaffian):")
for row in verdict.witness.entries:
    print("  [" + ", ".join(str(x) for x in row) + "]")
print(f"witness re-check: closed={not d_two_form(g, verdict.witness)}, "
      f"Pf={verdict.witness.pfaffian()}")

print()
print("exact (Frobenius) forms: restrict the same procedure to d of covectors")
one_form = ", ".join(str(c) for c in verdict.exact_one_form)
print(f"exact exists: {verdict.exact_exists}; one-form witness coefficients: ({one_form})")

print()
print("a family that never admits a symplectic form (dim 8):")
never = decide_symplectic(semidirect(build_entry("L", n=6).torus))
print(f"  verdict: {never.exists}; generic Pfaffian: {never.pfaffian}")

print()
print("the pairing filiform family carries the explicit exact form d(e^0)+d(e^n):")
gq = semidirect(build_entry("Q", n=5).torus)
w = d_one_form(gq, gq.basis_vector(0)).add(d_one_form(gq, gq.basis_vector(5)))
print(f"  closed: {not d_two_form(gq, w)}, Pf = {w.pfaffian()}, "
      f"literal top wedge coefficient = {top_power(w)}")
