"""Z^2 solved by weight against the ungraded solve, and the Cartan step.

``cocycle_space`` solves dw = 0 only on the weight-0 pairs and reads every
other block of Z^2 off B^2.  The oracle here is the ungraded solve: dw = 0
on every pair, whose kernel basis (one vector per free column, with 1 there)
is the Z^2 basis the graded solve must give, form by form and in order.

The Cartan step (a closed form of weight mu != 0 is exact) is checked by a
route that shares no code with the elimination: for a grading vector e_h
with mu(h) != 0, d(i_h w) = theta(h) w = -mu(h) w, where the eigenvalues of
ad h come from ``bracket`` on basis vectors.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings

from liesymp.catalog import DEFAULT_SELECTION, build_entry
from liesymp.liealg import LieAlgebra
from liesymp.linalg import as_exact, sparse_kernel_rows, sparse_rref
from liesymp.structure import semidirect, verify_torus
from liesymp.symplectic import TwoForm, cocycle_space, d_one_form
from test_analysis import MIXED_TORI, _sub_tori, torus_candidates
from test_liealg import unchecked_product


def ungraded_z2_basis(g: LieAlgebra) -> list[TwoForm]:
    """The kernel basis of dw = 0 assembled on every pair {m, t}, one form
    per free column in increasing order, with 1 at its free column."""
    n = g.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    column = [[0] * n for _ in range(n)]
    for idx, (i, j) in enumerate(pairs):
        column[i][j] = column[j][i] = idx
    partners = [[(t, column[m][t], 1 if m < t else -1) for t in range(n) if t != m] for m in range(n)]
    system = g.compositions(partners).values()
    return [
        TwoForm._of(n, {pairs[j]: as_exact(c) for j, c in v.items()})
        for v in sparse_kernel_rows(sparse_rref(system), len(pairs))
    ]


def _check_graded(g: LieAlgebra) -> None:
    z2 = cocycle_space(g).z2_basis
    expected = ungraded_z2_basis(g)
    assert len(z2) == len(expected)
    for got, want in zip(z2, expected):
        # repr tells an int from an equal Fraction
        assert repr(sorted(got.coords.items())) == repr(sorted(want.coords.items()))


def _ids(cases):
    return [f"{name} {params}" for name, params in cases]


@pytest.mark.parametrize("name, params", DEFAULT_SELECTION, ids=_ids(DEFAULT_SELECTION))
def test_graded_z2_on_every_sub_torus(name, params):
    """Every valid sub-torus, the full torus and rank 0 included."""
    for t in _sub_tori(build_entry(name, **params)):
        if verify_torus(t).ok:
            _check_graded(semidirect(t))


@pytest.mark.parametrize("name", MIXED_TORI)
@pytest.mark.parametrize("a", [1, -2, Q(1, 3), Q(7, 2)])
def test_graded_z2_on_mixed_tori(name, a):
    _check_graded(semidirect(build_entry(name, a=a).torus))


LARGE = [
    ("L", {"n": 10}), ("L", {"n": 12}), ("Q", {"n": 11}), ("Q", {"n": 13}),
    ("abelian", {"n": 6}), ("abelian", {"n": 7}),
    ("Q", {"n": 45}), ("Q", {"n": 61}), ("L", {"n": 60}), ("abelian", {"n": 32}),
]


@pytest.mark.parametrize("name, params", LARGE, ids=_ids(LARGE))
def test_graded_z2_on_large_family_members(name, params):
    _check_graded(semidirect(build_entry(name, **params).torus))


@settings(max_examples=100, deadline=None)
@given(t=torus_candidates())
def test_graded_z2_on_torus_candidates(t):
    _check_graded(t.nilradical)
    if verify_torus(t).ok:
        _check_graded(unchecked_product(t))


@pytest.mark.parametrize("name, params", DEFAULT_SELECTION, ids=_ids(DEFAULT_SELECTION))
def test_graded_z2_on_bare_tables(name, params):
    """The product rebuilt as a bare table grades itself from the table."""
    product = semidirect(build_entry(name, **params).torus)
    _check_graded(LieAlgebra(product.dim, product.table))


AFFINE = LieAlgebra(2, {(0, 1): {1: Q(1)}}, ("x", "y"))
SL2 = LieAlgebra(3, {(0, 1): {0: Q(1)}, (0, 2): {1: Q(1)}, (1, 2): {2: Q(1)}}, ("x", "y", "z"))


def test_graded_z2_on_algebras_given_without_a_torus():
    for g in (AFFINE, SL2):
        assert any(map(any, g.weights()))
        _check_graded(g)


# -- the Cartan step -------------------------------------------------------------


def _ad_eigenvalues(g: LieAlgebra) -> dict[int, list]:
    """For each h whose ad h is diagonal and nonzero, its eigenvalue on each
    basis vector, from ``bracket`` on basis vectors."""
    out = {}
    for h in range(g.dim):
        eigen = []
        for i in range(g.dim):
            image = g.bracket(g.basis_vector(h), g.basis_vector(i))
            if any(x for k, x in enumerate(image) if k != i):
                break
            eigen.append(image[i])
        else:
            if any(eigen):
                out[h] = eigen
    return out


def _cartan_forms(g: LieAlgebra) -> int:
    """Check d(i_h w) = -mu(h) w for every Z^2 basis form w of weight
    mu != 0 and every grading vector e_h with mu(h) != 0; the count of
    such forms."""
    eigen = _ad_eigenvalues(g)
    count = 0
    for w in cocycle_space(g).z2_basis:
        mus = {tuple(lam[a] + lam[b] for lam in eigen.values()) for a, b in w.coords}
        assert len(mus) == 1  # each basis form has one weight
        mu = dict(zip(eigen, mus.pop()))
        if not any(mu.values()):
            continue
        count += 1
        for h, m in mu.items():
            if m:
                alpha = [w.entry(h, k) for k in range(g.dim)]
                assert d_one_form(g, alpha) == w.scale(-m)
    return count


def test_cartan_step_on_the_catalog_and_two_family_members():
    selection = list(DEFAULT_SELECTION) + [("Q", {"n": 13}), ("L", {"n": 12})]
    algebras = [semidirect(build_entry(name, **params).torus) for name, params in selection]
    assert sum(map(_cartan_forms, algebras)) == 262


def test_cartan_step_on_algebras_given_without_a_torus():
    assert _cartan_forms(AFFINE) + _cartan_forms(SL2) > 0
