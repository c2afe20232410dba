"""Pin of the inner-derivation images and parameter spaces on fixed products.

``tests/golden/images/image_pins.json`` holds, for each product, the
canonical bases of ``center`` (of A, U and the total), ``commutant_in_module``,
``inner_space`` (of A, (A, U), U and the total), ``r_space``, ``c_space``,
``i_space`` and the 4.1-4.3 denominators E, F and K
(``verify._image_over_kernel``), the matrices of ``inner_map`` (its
``u_inner_map`` entry is the inner map of U's own regular action) and
``r_map`` on fixed vectors, and the witnesses that ``inner_witness`` returns
for a fixed inner map and for every basis derivation of the total.  Witnesses are not unique, so the pin fixes the one
solution the solver picks.  The products are the 26 of
``tests/test_rule_reports.py``, the semidirect product of every module a
packaged fixture defines, and every product the fixtures build.
Regenerate it with ``PYTHONPATH=src python tests/test_image_pins.py``.
"""

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

from semih1.algebra import center, commutant_in_module, regular_action
from semih1.errors import Semih1Error
from semih1.instancefile import _Registry, parse_instance_text, run_job
from semih1.linalg import unflatten
from semih1.products import semidirect
from semih1.spaces import (
    c_space,
    derivation_space,
    i_space,
    inner_map,
    inner_space,
    inner_witness,
    r_map,
    r_space,
)
from semih1.verify import _image_over_kernel

from test_rule_reports import products as rule_products

GOLDEN = Path(__file__).parent / "golden" / "images" / "image_pins.json"


def _vector(d):
    """A fixed vector of Q^d with distinct nonzero entries."""
    return [Fraction((-1) ** i * (i + 1), i % 3 + 1) for i in range(d)]


def _row(row):
    return " ".join(str(x) for x in row)


def _basis(space):
    return [_row(row) for row in space.basis.data]


def _matrix(m):
    return [_row(row) for row in m.data]


def _witness(w):
    return None if w is None else _row(w)


def fixture_products():
    """(label, product) for every module and every built product of the packaged fixtures."""
    out = []
    root = resources.files("semih1") / "fixtures"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        inst = parse_instance_text(entry.read_text(encoding="utf-8"), where=entry.name)
        out += [(f"{entry.name}:sd({over},{name})", semidirect(inst.algebras[over], u))
                for name, (u, (over,)) in inst.modules.items()]
        reg = _Registry(inst)
        for job in inst.jobs:
            try:
                run_job(reg, job)
            except Semih1Error:
                pass
        out += [(f"{entry.name}:{name}", p) for name, (p, _) in reg.tables["product"].items()]
    return out


def images(p):
    a, u, t = p.part_a, p.part_u, p.total
    ualg = u.algebra
    xa, xu, xt = _vector(p.n), _vector(p.m), _vector(p.dim)
    reg_t = regular_action(t)
    return {
        "center_A": _basis(center(a)),
        "center_U": _basis(center(ualg)),
        "center_T": _basis(center(t)),
        "commutant": _basis(commutant_in_module(a, u)),
        "n1_A": _basis(inner_space(a, regular_action(a))),
        "n1_AU": _basis(inner_space(a, u)),
        "n1_U": _basis(inner_space(ualg, regular_action(ualg))),
        "n1_T": _basis(inner_space(t, reg_t)),
        "r": _basis(r_space(a, u)),
        "c": _basis(c_space(a, u)),
        "i": _basis(i_space(a, u)),
        "E": _basis(_image_over_kernel(p, ("delta1", "tau2"))),
        "F": _basis(_image_over_kernel(p, ("delta2", "tau2"))),
        "K": _basis(_image_over_kernel(p, ("delta1", "delta2"))),
        "inner_map_A": _matrix(inner_map(xa, a, regular_action(a))),
        "inner_map_AU": _matrix(inner_map(xu, a, u.action)),
        "u_inner_map": _matrix(inner_map(xu, ualg, regular_action(ualg))),
        "inner_map_T": _matrix(inner_map(xt, t, reg_t)),
        "r_map": _matrix(r_map(xa, u)),
        "inner_witness_AU": _witness(inner_witness(inner_map(xu, a, u), a, u)),
        "inner_witness_T": _witness(inner_witness(inner_map(xt, t, reg_t), t, reg_t)),
        "inner_witness_Z1": [_witness(inner_witness(unflatten(row, p.dim, p.dim), t, reg_t))
                             for row in derivation_space(t, reg_t).basis.data],
    }


def snapshot():
    labelled = [(label, p) for label, p, _ in rule_products()] + fixture_products()
    return [dict(product=label, **images(p)) for label, p in labelled]


def render():
    return json.dumps(snapshot(), indent=1) + "\n"


def test_images_match_the_pin():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
