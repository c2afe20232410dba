"""The kept rows of every row group, and the groups a per-map check builds.

A group's kept rows are pinned entry by entry: each group that
``selftest.run_case`` reads on 50 seeded draws is hashed as the sequence of
its ``(name, pair, row)`` triples, so a change to which rows are kept, to
their pair, or to the order of the entries inside a row changes the pin.

The per-map checks on a product read the spaces the product keeps: once
``run_case`` has run and every space a check reads exists,
``corollary_3_2_check`` builds no row group, nor does rule 5.1 on a direct
product.  ``inner_characterization`` on a non-derivation builds one group,
the full Leibniz group of A x| U, whose scan names the failing pair.
``split_blocks`` builds the eight full 3.1 groups on its first call on a
product and none on a later one.  The ``spaces`` jobs of one run on one
(algebra, module) pair build each group once, and the ``z1``, ``n1``, ``h1``
and rule jobs of one run build each Leibniz group once.
"""

import hashlib
import json
import random

import pytest

from semih1 import spaces
from semih1.algebra import regular_action
from semih1.catalog import matrix_algebra
from semih1.errors import NotADerivation
from semih1.families import random_product
from semih1.instancefile import parse_instance_text, render_text, run_jobs
from semih1.linalg import Matrix
from semih1.products import module_extension
from semih1.selftest import run_case
from semih1.verify import (
    _CONDITIONS_3_1,
    _SINGLE_BLOCK,
    _shape,
    applies,
    corollary_3_2_check,
    inner_characterization,
    space,
    split_blocks,
    verify_any,
)

# sha256 of the sorted per-group digests, recorded when the Leibniz, hom and 3.1 groups
# began keeping only the rows whose algebra index lies in a generating set
KEPT_ROWS_SHA256 = "2adb0cf55cf08e1ce1d1e619f79928a0690e842018118a62d2270f888da988c3"


def _draws(count=50):
    """``count`` products with the rng each ``run_case`` goes on with."""
    rng = random.Random(2026)
    for _ in range(count):
        p, a_sample = random_product(rng, 3)
        yield p, a_sample, rng


def test_kept_rows_of_every_group_run_case_reads(monkeypatch):
    digests, seen, kept = [], {}, spaces.RowGroup.kept

    def recorded(group):
        rows = kept(group)
        if id(group) not in seen:
            seen[id(group)] = group  # held, so no id is reused while it is recorded
            digests.append(hashlib.sha256(repr(
                [(group.name, pair, row) for pair, row in rows]).encode()).hexdigest())
        return rows

    monkeypatch.setattr(spaces.RowGroup, "kept", recorded)
    for p, a_sample, rng in _draws():
        run_case(p, a_sample, rng)
    assert len(digests) == 822
    assert hashlib.sha256("".join(sorted(digests)).encode()).hexdigest() == KEPT_ROWS_SHA256


def test_per_map_checks_read_the_kept_spaces(monkeypatch):
    rng, init, checked, direct = random.Random(3), spaces.RowGroup.__init__, 0, 0

    def recording(group, *args, **kwargs):
        init(group, *args, **kwargs)
        built.append(group)

    for p, a_sample, case_rng in _draws(20):
        run_case(p, a_sample, case_rng)
        for name in {name for names in _SINGLE_BLOCK.values() for name in names}:
            space(p, name)
        d = Matrix([[rng.randint(-2, 2) for _ in range(p.dim)] for _ in range(p.dim)])
        outside = not space(p, "z1_total").contains(d.flatten())
        with monkeypatch.context() as patch:
            patch.setattr(spaces.RowGroup, "__init__", recording)
            for kind in _SINGLE_BLOCK:
                rows, cols = _shape(p, kind.removesuffix("-only"))
                block = Matrix([[rng.randint(-1, 1) for _ in range(cols)] for _ in range(rows)])
                for candidate in (block, Matrix.zeros(rows, cols)):
                    built = []
                    corollary_3_2_check(kind, candidate, p)
                    assert built == [], (p.name, kind)
            built = []
            if applies("5.1", p):
                verify_any("5.1", p)
                assert built == [], p.name
                direct += 1
            if outside:
                with pytest.raises(NotADerivation) as raised:
                    inner_characterization(d, p)
                assert [(g.name, g.xs) for g in built] == [("leibniz", range(p.dim))], p.name
        if outside:
            with pytest.raises(NotADerivation) as expected:
                spaces.inner_witness(d, p.total, regular_action(p.total))
            assert str(raised.value) == str(expected.value)
            checked += 1
    assert checked > 10 and direct > 3


def test_a_second_split_blocks_on_one_product_builds_no_row_group(monkeypatch):
    init, built = spaces.RowGroup.__init__, []

    def recording(group, *args, **kwargs):
        init(group, *args, **kwargs)
        built.append(group.name)

    monkeypatch.setattr(spaces.RowGroup, "__init__", recording)
    m2 = matrix_algebra(2)
    p = module_extension(m2, regular_action(m2))
    first = split_blocks(Matrix.identity(p.dim), p)
    assert built == [name for name, _, _ in _CONDITIONS_3_1]
    assert not first.ok
    built.clear()
    second = split_blocks(Matrix.zeros(p.dim, p.dim), p)
    assert built == [] and second.ok
    assert split_blocks(Matrix.identity(p.dim), p).conditions == first.conditions
    assert built == []


def _dual_numbers(jobs):
    """The dual numbers D and U, a copy of D under its regular action, with ``jobs``."""
    mult = [{"i": i, "j": j, "k": k, "c": "1"} for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 0, 1))]
    doc = {"algebras": [{"name": "D", "dim": 2, "mult": mult}],
           "modules": [{"name": "U", "over": "D", "dim": 2, "mult": mult,
                        "left": [{"i": i, "p": p, "q": q, "c": "1"} for i, p, q in
                                 ((0, 0, 0), (0, 1, 1), (1, 0, 1))],
                        "right": [{"p": p, "i": i, "q": q, "c": "1"} for p, i, q in
                                  ((0, 0, 0), (0, 1, 1), (1, 0, 1))]}],
           "jobs": jobs}
    return parse_instance_text(json.dumps(doc))


def test_spaces_jobs_on_one_pair_build_each_group_once(monkeypatch):
    init, built = spaces.RowGroup.__init__, []

    def recording(group, *args, **kwargs):
        init(group, *args, **kwargs)
        built.append(group.name)

    inst = _dual_numbers([{"cmd": "spaces", "args": ["D", "U"]}] * 3)
    monkeypatch.setattr(spaces.RowGroup, "__init__", recording)
    report, code = run_jobs(inst)
    assert code == 0
    assert built == ["hom-left", "hom-right", "leibniz"]
    first = report["jobs"][0]["result"]
    assert [job["result"] for job in report["jobs"]] == [first] * 3
    # a second run builds its own product and the same report
    built.clear()
    again, _ = run_jobs(inst)
    assert built == ["hom-left", "hom-right", "leibniz"]
    assert render_text(again) == render_text(report)


def test_z1_n1_h1_and_rule_jobs_of_one_run_build_each_leibniz_group_once(monkeypatch):
    init, built = spaces.RowGroup.__init__, []

    def recording(group, *args, **kwargs):
        init(group, *args, **kwargs)
        if group.name == "leibniz":
            built.append(group.dims)

    inst = _dual_numbers([
        {"cmd": "z1", "args": ["D"]}, {"cmd": "n1", "args": ["D"]},
        {"cmd": "h1", "args": ["D"]}, {"cmd": "h1", "args": ["D"]},
        {"cmd": "z1", "args": ["D", "U"]}, {"cmd": "h1", "args": ["D", "U"]},
        {"cmd": "spaces", "args": ["D", "U"]},
        {"cmd": "build", "kind": "semidirect", "name": "P", "args": ["D", "U"]},
        {"cmd": "h1", "args": ["P"]}, {"cmd": "verify", "id": "3.1", "args": ["P"]}])
    monkeypatch.setattr(spaces.RowGroup, "__init__", recording)
    report, code = run_jobs(inst)
    assert code == 0
    # D, (D, U) and U itself, for Hom_D(U) cap Z1(U); then the total of P
    assert built == [(2, 2, 2)] * 3 + [(4, 4, 4)]
    results = [job["result"] for job in report["jobs"]]
    assert results[2] == results[3] == {"h1_dim": 1, "z1_dim": 1, "n1_dim": 0}
    assert results[9]["verdict"] == "verified"
    built.clear()
    again, _ = run_jobs(inst)
    assert built == [(2, 2, 2)] * 3 + [(4, 4, 4)]
    assert render_text(again) == render_text(report)
