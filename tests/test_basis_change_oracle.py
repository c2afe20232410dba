"""Basis changes and alpha-product actions against a dense brute oracle.

A structure tensor in the basis f_i = sum_j P[i][j] e_j is the triple sum
f_i f_j = sum P[i][a] P[j][b] (e_a e_b), read in f-coordinates through P^-1;
an action transports the same way with the algebra's and the module's basis
changes on their sides.  The oracle in ``_oracle`` writes these sums out
densely, with P^-1 from a textbook rref of [P | I]; the package's results
must equal them and keep the slice form of ``Algebra.mult``.
"""

import random
from fractions import Fraction

import pytest

from semih1.algebra import Algebra, BimoduleAction, ModuleAlgebra
from semih1.catalog import (
    change_basis_algebra,
    change_basis_module,
    elementary_matrices,
    null_algebra,
)
from semih1.families import random_algebra_sample, random_matrix, random_module_sample
from semih1.linalg import Matrix
from semih1.products import alpha_product

from _oracle import brute_change_basis, brute_rank, brute_transport, dense

DRAWS = 240


def _basis_change(rng, n):
    """An invertible n x n matrix: dense random when one is, else elementary."""
    if n == 0:
        return Matrix.identity(0)
    m = random_matrix(rng, n, n)
    return m if brute_rank(m.data) == n else elementary_matrices(rng, n, steps=rng.randint(1, 4))


def _well_formed(grid):
    return all(all(isinstance(c, Fraction) and c for _, c in sl)
               and [k for k, _ in sl] == sorted({k for k, _ in sl})
               for slab in grid for sl in slab)


def _module(rng, sample, i):
    """A sampled module over the sample's algebra; every tenth one has dimension 0."""
    if i % 10 == 0:
        return ModuleAlgebra(null_algebra(0, "U0"), BimoduleAction.trivial(sample.dim, 0))
    return random_module_sample(rng, sample, 3)


@pytest.mark.parametrize("chunk", range(4))
def test_basis_changes_match_the_dense_triple_sum(chunk):
    for i in range(chunk * DRAWS // 4, (chunk + 1) * DRAWS // 4):
        rng = random.Random(f"basis-{i}")
        sample = random_algebra_sample(rng, 4)
        a, n = sample.algebra, sample.dim
        p = _basis_change(rng, n)
        b = change_basis_algebra(a, p)
        assert _well_formed(b.mult)
        assert dense(b.mult, n) == brute_change_basis(dense(a.mult, n), p.data, p.data, p.data)
        u = _module(rng, sample, i)
        m = u.dim
        pa, pu = _basis_change(rng, n), _basis_change(rng, m)
        v = change_basis_module(u, pa, pu)
        act = u.action
        assert _well_formed(v.algebra.mult) and _well_formed(v.action.left)
        assert _well_formed(v.action.right)
        assert dense(v.algebra.mult, m) == brute_change_basis(dense(u.algebra.mult, m),
                                                              pu.data, pu.data, pu.data)
        assert dense(v.action.left, m) == brute_change_basis(dense(act.left, m),
                                                             pa.data, pu.data, pu.data)
        assert dense(v.action.right, m) == brute_change_basis(dense(act.right, m),
                                                              pu.data, pa.data, pu.data)


@pytest.mark.parametrize("chunk", range(2))
def test_alpha_product_actions_match_the_dense_triple_sum(chunk):
    for i in range(chunk * DRAWS // 2, (chunk + 1) * DRAWS // 2):
        rng = random.Random(f"alpha-{i}")
        sample = random_algebra_sample(rng, 4)
        a, n = sample.algebra, sample.dim
        u = Algebra(a.name + "'", n, dense(a.mult, n))
        one, zero = Matrix.identity(n), Matrix.zeros(n, n)
        for alpha in (zero, one):
            act = alpha_product(a, u, alpha).part_u.action
            assert _well_formed(act.left) and _well_formed(act.right)
            mult = dense(a.mult, n)
            assert dense(act.left, n) == brute_transport(mult, alpha.data, one.data, one.data)
            assert dense(act.right, n) == brute_transport(mult, one.data, alpha.data, one.data)


def test_zero_dimensional_basis_changes():
    empty = Matrix.identity(0)
    assert change_basis_algebra(null_algebra(0), empty).mult == []
    for a in (null_algebra(0), null_algebra(2)):
        u = ModuleAlgebra(null_algebra(0), BimoduleAction.trivial(a.dim, 0))
        v = change_basis_module(u, Matrix.identity(a.dim), empty)
        assert (v.dim, v.action.left, v.action.right) == (0, [[]] * a.dim, [])
