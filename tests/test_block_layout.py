"""The block layout of maps on A x| U, checked against the total algebra.

``verify._layout(p, blocks)`` maps each flat coordinate of a map on A x| U
to its coordinate in the named blocks side by side, each row-major; its keys,
in order, place those blocks back into a map on A x| U (the embedding iota).
Every block-aware site reads it, so these tests hold it to what the paper
says about the placed maps:

* the numerator and denominator of rules 4.1-4.4 live in the layout of the
  kept blocks: placed by iota, the denominator lies in N1(A x| U), and on a
  verified verdict the numerator lies in Z1(A x| U), both computed from the
  total algebra, and with N1 it spans Z1;
* the 4.1-4.4 verdicts catch three mutants, on the 300 draws and on 72
  one-sided products: a column-major layout, a numerator with a foreign
  row, and a Hom_A(U) cap Z1(U) with a foreign row; each catch by the
  numerator check names a placed numerator map outside Z1;
* rule 4.4's denominator, the inverse image of N1 on the tau2 block, is C + I
  built from the factors by ``spaces``;
* Phi(e_k), built from the factors and placed by the layout, is the inner
  map of e_k computed from the total algebra;
* every image of a kernel the package computes (the meet of two spaces,
  C_A(U), I(U), the centre, the commutant, the annihilator and E, F, K)
  matches ``brute_image_of_kernel`` of ``tests/_oracle.py`` on dense maps
  written out in the test from the structure tensors;
* ``corollary_3_2_check`` rejects a wrong-shaped block with the message
  that names its shape;
* ``direct_sum_algebra(A, B)``, the base of a triangular algebra and the
  target of rule 5.4, has the tensor of ``direct_product(A, B).total`` for
  the A and U of each of the 300 draws.

"300 draws" are ``random_product(random.Random(12345), 3)`` drawn 300 times.
The one-sided products act on a null U of dimension 1 or 2 by a.x = t(a)x,
x.a = 0, or its mirror, for a character t of D, T2, Q, Q[C2], L_1, R_1 or
Q + 0 (``_one_sided``).
"""

import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from semih1 import verify
from semih1.algebra import (
    Algebra,
    Character,
    ModuleAlgebra,
    annihilator_in_algebra,
    center,
    commutant_in_module,
    regular_action,
    scaled_action,
    unit_vector,
)
from semih1.catalog import (
    cyclic_group_algebra,
    direct_sum_algebra,
    dual_numbers,
    field_q,
    null_algebra,
    upper_triangular_2,
)
from semih1.errors import ShapeMismatch
from semih1.families import random_product
from semih1.linalg import (
    Matrix,
    _pairs,
    _span_of_rows,
    _vector,
    intersect,
    product_subspace,
    subspace_sum,
)
from semih1.products import direct_product, module_extension, semidirect
from semih1.spaces import (
    c_space,
    derivation_space,
    i_space,
    inner_map,
    inner_space,
)

from _oracle import brute_image_of_kernel, dense


def _fresh_draws():
    rng = random.Random(12345)
    return tuple(random_product(rng, 3)[0] for _ in range(300))


_draws = cache(_fresh_draws)


def _one_sided():
    """72 products: semidirect and module_extension of a one-sided scalar action on a null U.

    Each base comes with its characters: the catalog's, or e -> 1, n -> 0 on
    L_1 (e e = e, e n = n), R_1 (e e = e, n e = n) and Q + 0.
    """
    left_unit = Algebra("L1", 2, [[[1, 0], [0, 1]], [[0, 0], [0, 0]]])
    right_unit = Algebra("R1", 2, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
    bases = [(dual_numbers(), [[1, 0]]), (upper_triangular_2(), [[1, 0, 0], [0, 0, 1]]),
             (field_q(), [[1]]), (cyclic_group_algebra(2), [[1, 1], [1, -1]]),
             (left_unit, [[1, 0]]), (right_unit, [[1, 0]]),
             (direct_sum_algebra(field_q(), null_algebra(1)), [[1, 0]])]
    out = []
    for a, characters in bases:
        zero = Character(a, [0] * a.dim)
        for t in (Character(a, values) for values in characters):
            for m in (1, 2):
                for sides in ((t, zero), (zero, t)):
                    out.append(semidirect(a, ModuleAlgebra(null_algebra(m),
                                                           scaled_action(a, *sides, m))))
                    out.append(module_extension(a, scaled_action(a, *sides, m)))
    return tuple(out)


_PRODUCTS = {"300 draws": _fresh_draws, "one-sided": _one_sided}
_RULES_4 = ("4.1", "4.2", "4.3", "4.4")


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


def _placed_span(p, keep, sub):
    """iota(sub): the rows of ``sub`` placed on the coordinates of the ``keep`` blocks."""
    place = _coordinates(p, keep)
    assert len(place) == sub.ambient
    return _span_of_rows([[(place[i], x) for i, x in row] for row in sub.rows], p.dim * p.dim)


@pytest.mark.parametrize("products", sorted(_PRODUCTS))
def test_the_placed_numerator_and_n1_span_z1_on_every_verified_verdict(products):
    # fact (b): iota(numerator) + N1 = Z1 whenever a 4.x verdict reads verified
    made = _draws() if products == "300 draws" else _one_sided()
    verified = Counter()
    for p in made:
        z1, n1 = verify.space(p, "z1_total"), verify.space(p, "n1_total")
        for rule, (keep, numerator, _) in _quotients(p).items():
            verdict = verify.verify_any(rule, p).verdict
            assert verdict != "MISMATCH", (rule, p.name)
            if verdict == "verified":
                verified[rule] += 1
                assert subspace_sum(_placed_span(p, keep, numerator), n1) == z1, (rule, p.name)
    expected = {"300 draws": (170, 140, 68, 146), "one-sided": (64, 48, 32, 48)}[products]
    assert tuple(verified[rule] for rule in _RULES_4) == expected


def _column_major(p, blocks):
    """The layout mutant: each block read column-major instead of row-major."""
    return {j: i for i, j in enumerate(r * p.dim + c for s, t in (verify._BLOCKS[b] for b in blocks)
                                       for c in verify._part(p, t) for r in verify._part(p, s))}


def _foreign_last_row(sub):
    """``sub`` with its last row swapped for the first unit vector outside it; None if none is."""
    j = next((j for j in range(sub.ambient) if sub.reduce([(j, 1)])), None)
    if not sub.rows or j is None:
        return None
    return _span_of_rows([*sub.rows[:-1], [(j, 1)]], sub.ambient)


def _mismatches(products):
    """(rule, reason) -> how many 4.x verdicts on ``products`` read MISMATCH for it.

    A catch by the numerator check must carry its witness: a dense map outside Z1.
    """
    out = Counter()
    for p in products:
        for rule in _RULES_4:
            rep = verify.verify_any(rule, p)
            if rep.verdict == "MISMATCH":
                out[rule, rep.details["reason"]] += 1
            if rep.details.get("reason") == "numerator not inside Z1":
                witness = [Fraction(x) for x in rep.details["witness"]]
                assert verify.space(p, "z1_total").reduce(_pairs(witness)), (rule, p.name)
    return out


_IN_Z1 = "numerator not inside Z1"
_DEN = "denominator not inside numerator"


@pytest.mark.parametrize("products", sorted(_PRODUCTS))
def test_the_4x_verdicts_catch_a_column_major_layout(products, monkeypatch):
    # the dimension count alone leaves every verdict verified under this mutant
    caught = {"300 draws": (33, 28, 3, 11), "one-sided": (24, 20, 12, 0)}[products]
    monkeypatch.setattr(verify, "_layout", _column_major)
    found = _mismatches(_PRODUCTS[products]())
    assert found == {(rule, _IN_Z1): n for rule, n in zip(_RULES_4, caught) if n}


@pytest.mark.parametrize("products", sorted(_PRODUCTS))
def test_the_4x_verdicts_catch_a_numerator_with_a_foreign_row(products, monkeypatch):
    # every verdict whose numerator has a row to swap and a unit vector outside it
    by_den, by_z1 = {"300 draws": (82, 178), "one-sided": (128, 8)}[products]
    real, reasons = verify._quotient, Counter()

    def mutated(p, numerator, *rest):
        swapped = _foreign_last_row(numerator)
        out = real(p, swapped or numerator, *rest)
        if swapped is not None:
            reasons[out[2], out[3].get("reason")] += 1
        return out

    monkeypatch.setattr(verify, "_quotient", mutated)
    _mismatches(_PRODUCTS[products]())
    assert reasons == {("MISMATCH", _DEN): by_den, ("MISMATCH", _IN_Z1): by_z1}


def test_the_4x_verdicts_catch_a_foreign_row_in_hom_cap_z1u(monkeypatch):
    real = verify._FACTOR_SPACES["hom_cap_z1u"]
    monkeypatch.setitem(verify._FACTOR_SPACES, "hom_cap_z1u",
                        lambda a, u: _foreign_last_row(real(a, u)) or real(a, u))
    found = _mismatches(_fresh_draws())
    # 4.3 keeps no tau2 block; the denominator check alone caught the other 10
    assert {key: n for key, n in found.items() if key[1] == _IN_Z1} == {
        ("4.1", _IN_Z1): 25, ("4.2", _IN_Z1): 25, ("4.4", _IN_Z1): 25}
    assert sum(found.values()) == 85
    # on a null U with a scalar action, Hom_A(U) cap Z1(U) is every map U -> U: no room
    assert not _mismatches(_one_sided())


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
def test_the_single_block_criteria_reject_one_wrong_shape(block):
    p = direct_product(dual_numbers(), field_q())   # dim(A) = 2 != dim(U) = 1
    (rows, cols), message = _SHAPES[block]
    for shape in sorted({(cols, rows), (rows + 1, cols), (rows, cols + 1), (rows + 1, cols + 1)}):
        if shape == (rows, cols):
            continue
        with pytest.raises(ShapeMismatch) as checked:
            verify.corollary_3_2_check(f"{block}-only", Matrix.zeros(*shape), p)
        assert str(checked.value) == message
    assert verify.corollary_3_2_check(f"{block}-only", Matrix.zeros(rows, cols), p)
