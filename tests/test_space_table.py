"""The space and gate tables of ``verify``: consistent, and each entry built once.

A row of the total is built once per product, a row of the factors once per
(algebra, module) pair, and Z1, N1 and Hom_A of a part once per algebra and
action, however many products read them.
"""

import random
from collections import Counter

import semih1.verify as verify
from semih1.catalog import dual_numbers, field_q
from semih1.families import random_product
from semih1.linalg import Subspace
from semih1.products import direct_product
from semih1.selftest import run_case


def test_every_gate_named_is_a_row_of_gates_and_every_row_is_named(monkeypatch):
    ruled = {name for _, gates, _ in verify.RULES.values() for name in gates}
    # 5.1 is ungated, so every gate it evaluates is read by its check
    read = []
    original = verify.hypothesis_check

    def recorded(name, p):
        read.append(name)
        return original(name, p)

    monkeypatch.setattr(verify, "hypothesis_check", recorded)
    verify.verify_any("5.1", direct_product(dual_numbers(), field_q()))
    assert read
    assert ruled | set(read) <= set(verify.GATES)
    assert set(verify.GATES) <= ruled | set(read)


def test_each_space_and_gate_is_computed_once_per_product(monkeypatch):
    builds = Counter()
    held = []   # what each entry is of, held so that no id is reused

    def counting(table, kind):
        for name, build in list(table.items()):
            def counted(*of, name=name, build=build):
                held.append(of)
                builds[kind, name, tuple(map(id, of))] += 1
                return build(*of)
            monkeypatch.setitem(table, name, counted)

    counting(verify._SPACES, "space")
    counting(verify._FACTOR_SPACES, "factor")
    counting(verify._OF_ACTION, "action")
    counting(verify.GATES, "gate")
    for i in range(50):
        rng = random.Random(f"battery:1:{i}")
        p, a_sample = random_product(rng, 3)
        run_case(p, a_sample, rng)
    assert {kind for kind, _, _ in builds} == {"space", "factor", "action", "gate"}
    assert [key for key, count in builds.items() if count > 1] == []


def test_every_space_is_a_subspace_of_its_flattened_maps():
    # row -> its ambient: source dim times target dim for a space of maps,
    # the dimension of the part for an annihilator
    def ambients(p):
        t, n, m = p.dim, p.n, p.m
        return {"z1_total": t * t, "n1_total": t * t, "z1_a": n * n, "n1_a": n * n,
                "z1_au": n * m, "n1_au": n * m, "z1_u": m * m, "n1_u": m * m,
                "hom_u": m * m, "hom_cap_z1u": m * m, "r": m * m, "c": m * m, "i": m * m,
                "r_plus_n1u": m * m, "c_plus_i": m * m,
                "pairing": m * n, "cond31": t * t, "ann_a_u": n, "ann_u_u": m, "ann_a_a": n,
                "rows_in_ann_a_u": n * n, "rows_in_ann_u_u": n * m, "rows_in_ann_a_a": m * n,
                "kills_u2": m * n, "kills_a2": n * m}

    shapes = set()
    for i in range(20):
        p, _ = random_product(random.Random(f"table:{i}"), 3)
        shapes.add((p.n, p.m))
        expected = ambients(p)
        rows = set(verify._SPACES) | set(verify._FACTOR_SPACES)
        assert set(expected) == rows - {"groups31", "groups31_full", "couplings", "phi"}
        for name, ambient in expected.items():
            got = verify.space(p, name)
            assert isinstance(got, Subspace), name
            assert got.ambient == ambient, name
    assert any(n != m and n * m for n, m in shapes)
