"""Rule 5.1's condition space against Proposition 5.1 written out as dense rows.

For a direct product A x U (trivial actions) a map D on A x U is a
derivation exactly when its four blocks satisfy Proposition 5.1: delta1 is a
derivation of A, delta2 has every row in ann_U(U) and kills A-products,
tau1 has every row in ann_A(A) and kills U-products, and tau2 is a
derivation of U.  This module writes one dense Fraction row per scalar
equation of those four statements, on the t*t coordinates of D (entry
D[r][c] at r * t + c, A's coordinates first), from the ``dense`` structure
tensors alone, and takes ``brute_kernel`` of them.  The condition space
that rule 5.1 hands to ``_kernels_agree`` must be exactly that kernel.
"""

import random
from fractions import Fraction

import semih1.verify as verify
from semih1.catalog import dual_numbers, null_algebra
from semih1.families import random_product
from semih1.products import direct_product

from _oracle import brute_kernel, dense

ZERO = Fraction(0)


def proposition_5_1_rows(p):
    """Dense rows on the t*t coordinates of D, one per scalar equation of Proposition 5.1."""
    n, m, t = p.n, p.m, p.dim
    ma, mu = dense(p.part_a.mult, n), dense(p.part_u.algebra.mult, m)
    rows = []

    def row(terms):
        """One row from ``(coefficient, block row, block column)`` terms."""
        r = [ZERO] * (t * t)
        for c, i, j in terms:
            r[i * t + j] += c
        if any(r):
            rows.append(r)

    def derivation(mult, d, off):
        # d(e_i e_j) - e_i d(e_j) - d(e_i) e_j = 0, coordinate k, d on coordinates off..off+d
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    row([(mult[i][j][l], off + l, off + k) for l in range(d)]
                        + [(-mult[i][l][k], off + j, off + l) for l in range(d)]
                        + [(-mult[l][j][k], off + i, off + l) for l in range(d)])

    def rows_in_ann(mult, src, src_off, d, off):
        # for every row x of the block and basis vector y: x y = 0 and y x = 0, coordinate k
        for x in range(src):
            for y in range(d):
                for k in range(d):
                    row([(mult[l][y][k], src_off + x, off + l) for l in range(d)])
                    row([(mult[y][l][k], src_off + x, off + l) for l in range(d)])

    def kills(mult, src, src_off, d, off):
        # the block vanishes on every product e_i e_j of its source, coordinate k
        for i in range(src):
            for j in range(src):
                for k in range(d):
                    row([(mult[i][j][l], src_off + l, off + k) for l in range(src)])

    derivation(ma, n, 0)                  # delta1
    rows_in_ann(mu, n, 0, m, n)           # delta2: rows in ann_U(U)
    kills(ma, n, 0, m, n)                 # delta2: kills A-products
    rows_in_ann(ma, m, n, n, 0)           # tau1: rows in ann_A(A)
    kills(mu, m, n, n, 0)                 # tau1: kills U-products
    derivation(mu, m, n)                  # tau2
    return rows


def _products():
    for i in range(120):
        yield random_product(random.Random(f"d51:{i}"), 3, allow_kinds=("direct",))[0]
    for a, u in ((null_algebra(0), dual_numbers()), (dual_numbers(), null_algebra(0)),
                 (null_algebra(0), null_algebra(0))):
        yield direct_product(a, u)


def test_the_5_1_condition_space_is_the_kernel_of_proposition_5_1(monkeypatch):
    handed, agree = [], verify._kernels_agree

    def recorded(p, cond):
        handed.append(cond)
        return agree(p, cond)

    monkeypatch.setattr(verify, "_kernels_agree", recorded)
    checked = nonzero = 0
    for p in _products():
        handed.clear()
        rep = verify.verify_any("5.1", p)
        assert rep.verdict == "verified", p.name
        assert len(handed) == 1 and handed[0].ambient == p.dim * p.dim
        expected = brute_kernel(proposition_5_1_rows(p), p.dim * p.dim)
        assert handed[0].basis.data == expected, p.name
        checked += 1
        # a derivation with a nonzero off-diagonal block: delta2 (A -> U) or tau1 (U -> A)
        t = p.dim
        nonzero += any(x and (i // t < p.n) != (i % t < p.n)
                       for vec in expected for i, x in enumerate(vec))
    assert checked >= 100 and nonzero
