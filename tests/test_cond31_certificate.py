"""The 3.1 kernel: certified by its rows, solved only when they differ.

``space(p, "cond31")`` is Z1(A x| U) itself when the distinct rows of the
eight 3.1 groups, each scaled to the Leibniz group's denominator, are the
distinct rows of the Leibniz group of the total algebra: equal row sets
have one kernel.  These tests hold that certificate to three things:

* on the 300 draws of ``tests/test_block_layout.py`` the certificate holds,
  and the kernel it gives is the kernel of freshly built 3.1 groups;
* a product whose 3.1 groups carry smaller denominators than the total
  (a module extension moved by basis changes with large denominators) is
  certified through the scale factor;
* with one sign of the 3.1 groups flipped (``flipped``), the rows differ,
  ``cond31`` is solved from them, and every 3.1 report is the pinned one in
  ``tests/golden/rules/flipped_3_1.json``.  That file was recorded before
  the certificate existed, when ``cond31`` was always solved; regenerate it
  with ``PYTHONPATH=src python tests/test_cond31_certificate.py``.
"""

import json
import random
from functools import cache
from pathlib import Path

from semih1 import verify
from semih1.algebra import ModuleAlgebra, regular_action
from semih1.catalog import (
    change_basis_algebra,
    change_basis_module,
    cyclic_group_algebra,
    dual_numbers,
    matrix_algebra,
)
from semih1.families import random_product
from semih1.linalg import Matrix, frac
from semih1.products import module_extension
from semih1.spaces import RIGHT, RowGroup, solve

GOLDEN = Path(__file__).parent / "golden" / "rules" / "flipped_3_1.json"


@cache
def _draws():
    rng = random.Random(12345)
    return tuple(random_product(rng, 3)[0] for _ in range(300))


def test_the_certified_kernel_is_the_solved_one_on_300_draws():
    for p in _draws():
        cond = verify.space(p, "cond31")
        assert cond is verify.space(p, "z1_total"), p.name
        assert cond == solve(p.dim * p.dim, *verify._condition_groups(p)), p.name


def _moved_extension():
    """T(A~, U~): C3 and its regular module moved by basis changes with large denominators.

    The algebra and the module get different changes, so the action's
    denominators are not the multiplication's.
    """
    big = 10 ** 12 + 39
    pa = Matrix([[1, frac(1) / big, 0], [0, 1, frac(2) / (big + 2)], [0, 0, 1]])
    pu = Matrix([[1, 0, 0], [frac(3) / (big + 4), 1, 0], [0, frac(5) / (big + 6), 1]])
    a = cyclic_group_algebra(3)
    moved = change_basis_module(ModuleAlgebra(a, regular_action(a)), pa, pu)
    return module_extension(change_basis_algebra(a, pa), moved.action)


def test_groups_with_smaller_denominators_are_certified_through_the_scale():
    p = _moved_extension()
    z1, cond = verify.space(p, "z1_total"), verify.space(p, "cond31")
    leib = verify._leibniz_total(p)
    scaled = [g for g in verify.space(p, "groups31")
              if g.kept() and leib.scale // g.scale > 1]
    assert scaled
    assert cond is z1
    assert cond == solve(p.dim * p.dim, *verify._condition_groups(p))


def test_a_group_scale_that_does_not_divide_the_leibniz_scale_is_solved(monkeypatch):
    """One 3.1 group's scale times 7, past the Leibniz scale 1: no row matches, so cond31 is solved.

    A real group's scale divides the Leibniz scale; this one's rows are scaled by 1 // 7 = 0.
    """
    def rescaled(*args, **kwargs):
        group = RowGroup(*args, **kwargs)
        if group.name == "tau2-product-twist":
            group.scale *= 7
        return group

    p = module_extension(matrix_algebra(2), regular_action(matrix_algebra(2)))
    monkeypatch.setattr(verify, "RowGroup", rescaled)
    assert verify._leibniz_total(p).scale == 1
    cond, z1 = verify.space(p, "cond31"), verify.space(p, "z1_total")
    assert cond is not z1 and cond == z1
    assert verify.verify_any("3.1", p).verdict == "verified"


def flipped(name, dims, terms, y_major=False, xs=None):
    """A RowGroup, but delta1-derivation's x(Dy) term through A has the wrong sign."""
    if name == "delta1-derivation":
        terms = [(-sign if shape == RIGHT and place[:2] == (0, 0) else sign, shape, t, place)
                 for sign, shape, t, place in terms]
    return RowGroup(name, dims, terms, y_major, xs)


def products():
    """(label, product) of every product the flipped 3.1 reports are pinned on."""
    out = [(f"flip:{i}", random_product(random.Random(f"flip:{i}"), 3)[0]) for i in range(24)]
    out.append(("T(M2)", module_extension(matrix_algebra(2), regular_action(matrix_algebra(2)))))
    out.append(("T(D)", module_extension(dual_numbers(), regular_action(dual_numbers()))))
    return out


def snapshot():
    """label -> the 3.1 report, with three samples, of each product under ``flipped``."""
    original = verify.RowGroup
    verify.RowGroup = flipped
    try:
        return {label: verify.theorem_3_1_equivalence(p, 3, random.Random(label)).as_dict()
                for label, p in products()}
    finally:
        verify.RowGroup = original


def render():
    return json.dumps(snapshot(), indent=1) + "\n"


def test_a_flipped_sign_is_solved_and_reported_as_before(monkeypatch):
    assert render() == GOLDEN.read_text(encoding="utf-8")
    monkeypatch.setattr(verify, "RowGroup", flipped)
    for label, p in products():
        cond, z1 = verify.space(p, "cond31"), verify.space(p, "z1_total")
        # the flipped term has entries, and so changes rows, exactly when A has a nonzero product
        assert (cond is not z1) == any(sl for slab in p.part_a.mult for sl in slab), label
        assert cond == solve(p.dim * p.dim, *verify._condition_groups(p)), label


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
