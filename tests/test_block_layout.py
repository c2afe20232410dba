"""The block layout of maps on A x| U, checked against the total algebra.

``verify._layout(p, blocks)`` maps each flat coordinate of a map on A x| U
to its coordinate in the named blocks side by side, each row-major; its keys,
in order, place those blocks back into a map on A x| U (the embedding iota).
Every block-aware site reads it, so these tests hold it to what the paper
says about the placed maps:

* the numerator and denominator of rules 4.1-4.4 live in the layout of the
  kept blocks: placed by iota, the denominator lies in N1(A x| U), and on a
  verified verdict the numerator lies in Z1(A x| U), both computed from the
  total algebra;
* rule 4.4's denominator, the inverse image of N1 on the tau2 block, is C + I
  built from the factors by ``spaces``;
* Phi(e_k), built from the factors and placed by the layout, is the inner
  map of e_k computed from the total algebra;
* every image of a kernel the package computes (the meet of two spaces,
  C_A(U), I(U), the centre, the commutant, the annihilator and E, F, K)
  matches ``brute_image_of_kernel`` of ``tests/_oracle.py`` on dense maps
  written out in the test from the structure tensors;
* ``embed_blocks`` and ``corollary_3_2_check`` reject a wrong-shaped block
  with one message;
* ``direct_sum_algebra(A, B)``, the base of a triangular algebra and the
  target of rule 5.4, has the tensor of ``direct_product(A, B).total`` for
  the A and U of each of the 300 draws.

"300 draws" are ``random_product(random.Random(12345), 3)`` drawn 300 times.
"""

import random
from functools import cache

import pytest

from semih1 import verify
from semih1.algebra import (
    annihilator_in_algebra,
    center,
    commutant_in_module,
    regular_action,
    unit_vector,
)
from semih1.catalog import direct_sum_algebra, dual_numbers, field_q
from semih1.errors import ShapeMismatch
from semih1.families import random_product
from semih1.linalg import Matrix, _vector, intersect, product_subspace, subspace_sum
from semih1.products import direct_product
from semih1.spaces import (
    c_space,
    derivation_space,
    i_space,
    inner_map,
    inner_space,
)

from _oracle import brute_image_of_kernel, dense


@cache
def _draws():
    rng = random.Random(12345)
    return tuple(random_product(rng, 3)[0] for _ in range(300))


def _quotients(p):
    """rule -> (kept blocks, numerator, denominator), each space in the kept blocks' layout."""
    space = verify.space
    hom_z1 = space(p, "hom_cap_z1u")
    return {
        "4.1": (("delta1", "tau2"), product_subspace(space(p, "z1_a"), hom_z1),
                verify._image_over_kernel(p, ("delta1", "tau2"))),
        "4.2": (("delta2", "tau2"), product_subspace(space(p, "z1_au"), hom_z1),
                verify._image_over_kernel(p, ("delta2", "tau2"))),
        "4.3": (("delta1", "delta2"), product_subspace(space(p, "z1_a"), space(p, "z1_au")),
                verify._image_over_kernel(p, ("delta1", "delta2"))),
        "4.4": (("tau2",), hom_z1, subspace_sum(space(p, "c"), space(p, "i"))),
    }


def _outside(target, p, blocks, sub):
    """The rows of ``sub``, placed into maps on A x| U by the layout, that ``target`` misses."""
    place = list(verify._layout(p, blocks))
    assert len(place) == sub.ambient
    return [row for row in sub.rows if target.reduce([(place[i], x) for i, x in row])]


def test_the_layout_places_quotient_spaces_as_derivations_of_the_total_algebra():
    verified = dict.fromkeys(("4.1", "4.2", "4.3", "4.4"), 0)
    for p in _draws():
        reg = regular_action(p.total)
        z1, n1 = derivation_space(p.total, reg), inner_space(p.total, reg)
        for rule, (keep, numerator, denominator) in _quotients(p).items():
            assert not _outside(n1, p, keep, denominator), (rule, p.name)
            verdict = verify.verify_theorem(rule, p).verdict
            assert verdict != "MISMATCH", (rule, p.name)
            if verdict == "verified":
                verified[rule] += 1
                assert not _outside(z1, p, keep, numerator), (rule, p.name)
    assert all(verified.values()), verified


def test_the_4_4_denominator_is_c_plus_i_from_the_factors(monkeypatch):
    # the denominator that rule 4.4's check hands to the quotient, gates aside
    handed = []
    monkeypatch.setattr(verify, "_quotient", lambda p, num, den, *rest: handed.append(den))
    nonzero = 0
    for p in _draws():
        handed.clear()
        verify.RULES["4.4"][2](p)
        a, u = p.part_a, p.part_u
        assert handed == [subspace_sum(c_space(a, u), i_space(a, u))], p.name
        nonzero += handed[0].dim > 0
    assert nonzero


def test_phi_from_the_factors_is_the_inner_map_of_the_total_algebra():
    kinds = set()
    for p in _draws():
        kinds.add(p.kind)
        t, reg = p.dim, regular_action(p.total)
        for k, phi_k in enumerate(verify.space(p, "phi")):
            expected = inner_map(unit_vector(t, k), p.total, reg).flatten()
            assert _vector(phi_k, t * t) == expected, (p.name, k)
    assert len(kinds) == 7, kinds


def _ad(mult, n):
    """Row i: the flat map e_j -> e_i e_j - e_j e_i of a dense product tensor, at j * n + k."""
    return [[mult[i][j][k] - mult[j][i][k] for j in range(n) for k in range(n)] for i in range(n)]


def _units(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _coordinates(p, keep):
    """The flat coordinates of the ``keep`` blocks of a map on A x| U, each block row-major."""
    parts = {"A": range(p.n), "U": range(p.n, p.dim)}
    shapes = {"delta1": "AA", "delta2": "AU", "tau1": "UA", "tau2": "UU"}
    return [r * p.dim + c for block in keep
            for r in parts[shapes[block][0]] for c in parts[shapes[block][1]]]


def test_images_of_kernels_match_a_brute_oracle():
    for p in _draws():
        a, u, n, m = p.part_a, p.part_u, p.n, p.m
        act = u.action
        mult, umult = dense(a.mult, n), dense(u.algebra.mult, m)
        left, right = dense(act.left, m), dense(act.right, m)
        # row p: a -> a.u_p - u_p.a; row i: r_(e_i), u_p -> u_p.e_i - e_i.u_p
        comm = [[left[i][q][k] - right[q][i][k] for i in range(n) for k in range(m)]
                for q in range(m)]
        r = [[right[q][i][k] - left[i][q][k] for q in range(m) for k in range(m)]
             for i in range(n)]
        ann = [[left[i][q][k] for q in range(m) for k in range(m)]
               + [right[q][i][k] for q in range(m) for k in range(m)] for i in range(n)]
        cases = {
            "center": (center(a), _ad(mult, n), _units(n)),
            "commutant": (commutant_in_module(a, u), comm, _units(m)),
            "annihilator": (annihilator_in_algebra(a, u), ann, _units(n)),
            "c": (c_space(a, u), _ad(mult, n), r),
            "i": (i_space(a, u), comm, _ad(umult, m)),
        }
        for x, y in (("hom_u", "z1_u"), ("r", "n1_u")):
            sx, sy = verify.space(p, x), verify.space(p, y)
            cases[f"{x} cap {y}"] = (intersect(sx, sy), sx.basis.data + sy.basis.data,
                                     sx.basis.data + [[0] * sx.ambient] * sy.dim)
        phi = [_vector(row, p.dim * p.dim) for row in verify.space(p, "phi")]
        for name, keep in (("E", ("delta1", "tau2")), ("F", ("delta2", "tau2")),
                           ("K", ("delta1", "delta2"))):
            kept = _coordinates(p, keep)
            off = sorted(set(range(p.dim * p.dim)) - set(kept))
            cases[name] = (verify._image_over_kernel(p, keep),
                           [[row[j] for j in off] for row in phi],
                           [[row[j] for j in kept] for row in phi])
        for name, (computed, constraints, values) in cases.items():
            assert computed.basis.data == brute_image_of_kernel(constraints, values), (name, p.name)


# block -> (its shape in a map on D x Q, the message for a wrong shape)
_SHAPES = {
    "delta1": ((2, 2), "delta1 block must be dim(A) square"),
    "delta2": ((2, 1), "delta2 block must be dim(A) x dim(U)"),
    "tau1": ((1, 2), "tau1 block must be dim(U) x dim(A)"),
    "tau2": ((1, 1), "tau2 block must be dim(U) square"),
}


def test_the_direct_sum_is_the_direct_product_total():
    for p in _draws():
        a, u = p.part_a, p.part_u.algebra
        assert direct_sum_algebra(a, u).mult == direct_product(a, u).total.mult, p.name


@pytest.mark.parametrize("block", sorted(_SHAPES))
def test_embed_blocks_and_the_single_block_criteria_reject_one_wrong_shape(block):
    p = direct_product(dual_numbers(), field_q())   # dim(A) = 2 != dim(U) = 1
    (rows, cols), message = _SHAPES[block]
    for shape in sorted({(cols, rows), (rows + 1, cols), (rows, cols + 1), (rows + 1, cols + 1)}):
        if shape == (rows, cols):
            continue
        wrong = Matrix.zeros(*shape)
        with pytest.raises(ShapeMismatch) as embedded:
            verify.embed_blocks(p, **{block: wrong})
        with pytest.raises(ShapeMismatch) as checked:
            verify.corollary_3_2_check(f"{block}-only", wrong, p)
        assert str(embedded.value) == str(checked.value) == message
    right = Matrix.zeros(rows, cols)
    assert verify.embed_blocks(p, **{block: right}) == Matrix.zeros(3, 3)
    assert verify.corollary_3_2_check(f"{block}-only", right, p)
