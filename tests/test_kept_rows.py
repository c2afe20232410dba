"""The kept rows of every row group, and the groups a per-map check builds.

A group's kept rows are pinned entry by entry: each group that
``selftest.run_case`` reads on 50 seeded draws is hashed as the sequence of
its ``(name, pair, row)`` triples, so a change to which rows are kept, to
their pair, or to the order of the entries inside a row changes the pin.
A separable factor takes N1 for its Z1 and builds no Leibniz group; with
that route off, the groups are those of the older pin, and the groups left
with it on are some of them.  Each factor's Z1 is kept in its algebra under
the action, so a product that reads one factor space as two parts on one
action (A and (A, U) when U is A's regular module) builds its group once:
the pins recorded when each product kept its own copies are the pins of
these groups with the groups read again added back.

The per-map checks on a product read the spaces the product keeps: once
``run_case`` has run and every space a check reads exists,
``corollary_3_2_check`` builds no row group, nor does rule 5.1 on a direct
product.  ``inner_characterization`` on a non-derivation builds one group,
the full Leibniz group of A x| U, whose scan names the failing pair.
``split_blocks`` builds the eight full 3.1 groups on its first call on a
product and none on a later one.  The ``spaces`` and ``hom`` jobs of one run
on one (algebra, module) pair build each group once, and the ``z1``, ``n1``, ``h1``
and rule jobs of one run build each Leibniz group once, a built product's
factor spaces included.  The factor spaces stay with the parsed algebras, so
a second run of one parsed file builds only its built products' groups.  On
a separable factor, Z1 is the N1 entry, so T(M2) solves each N1 once.
The public ``spaces`` functions keep nothing: ``h1_dim`` twice on one
algebra builds its Leibniz group twice.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from semih1 import spaces, verify
from semih1.algebra import regular_action
from semih1.catalog import dual_numbers, matrix_algebra
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
# began keeping only the rows whose algebra index lies in a generating set, with every
# Z1 on the Leibniz route; again when a separable factor's Z1 became its N1; and again
# when each factor's spaces came to be kept in its algebra instead of in each product
LEIBNIZ_ROUTE_SHA256 = "5df184bf592bb841e5625b5db6b8a36cb25dc64bfcf7e3fe2926fba4db291cbe"
KEPT_ROWS_SHA256 = "916bf383be67ac6b3cc1d65f7497898cbca9934befb11a2238dc82f54433e288"
# the two pins while each product kept its own factor spaces, and the groups such a
# product built again: a factor's Leibniz group, read as a second part on one action
PER_PRODUCT_ROUTE_SHA256 = "2adb0cf55cf08e1ce1d1e619f79928a0690e842018118a62d2270f888da988c3"
PER_PRODUCT_KEPT_SHA256 = "711fb664c7ae236f6085973329fd7a1f075595d09087d4ee51957c41946dd950"
READ_AGAIN = Counter({("leibniz", digest): 1 for digest in (
    "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "ac31d5308802caa57efa0c228e6ab52c9f701a14dfbbd58130abe539bfdf84a5",
    "fd03683abfdc2b7e92a510d25a7323b2c25ab0fdfccc5064312d5366c3338de9")})


def _draws(count=50):
    """``count`` products with the rng each ``run_case`` goes on with."""
    rng = random.Random(2026)
    for _ in range(count):
        p, a_sample = random_product(rng, 3)
        yield p, a_sample, rng


def _kept_digests(monkeypatch):
    """(group name, digest of its kept rows) of every group ``run_case`` reads on the draws."""
    digests, seen, kept = [], {}, spaces.RowGroup.kept

    def recorded(group):
        rows = kept(group)
        if id(group) not in seen:
            seen[id(group)] = group  # held, so no id is reused while it is recorded
            digests.append((group.name, hashlib.sha256(repr(
                [(group.name, pair, row) for pair, row in rows]).encode()).hexdigest()))
        return rows

    with monkeypatch.context() as patch:
        patch.setattr(spaces.RowGroup, "kept", recorded)
        for p, a_sample, rng in _draws():
            run_case(p, a_sample, rng)
    return Counter(digests)


def _pin(digests):
    return hashlib.sha256("".join(sorted(d for _, d in digests.elements())).encode()).hexdigest()


def test_kept_rows_of_every_group_run_case_reads(monkeypatch):
    kept = _kept_digests(monkeypatch)
    assert kept.total() == 756
    assert _pin(kept) == KEPT_ROWS_SHA256
    # a separable factor takes N1 for its Z1: every group left is one that the Leibniz
    # route for every factor builds, and the groups no longer built are Leibniz groups
    for module in (spaces, verify):
        monkeypatch.setattr(module, "separable", lambda a: False)
    every = _kept_digests(monkeypatch)
    assert every.total() == 819
    assert _pin(every) == LEIBNIZ_ROUTE_SHA256
    assert kept <= every
    assert {name for name, _ in (every - kept)} == {"leibniz"}
    # with the groups read again added back, both are the multisets the per-product
    # copies built: no group is new, and every one dropped is a Leibniz group whose
    # rows some group still kept has
    assert {name for name, _ in READ_AGAIN} == {"leibniz"}
    for groups, pin in ((kept, PER_PRODUCT_KEPT_SHA256),
                        (every, PER_PRODUCT_ROUTE_SHA256)):
        assert _pin(groups + READ_AGAIN) == pin
        assert set(groups + READ_AGAIN) == set(groups)


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

    inst = _dual_numbers([{"cmd": "spaces", "args": ["D", "U"]}] * 3
                         + [{"cmd": "hom", "args": ["D", "U"]}] * 2)
    monkeypatch.setattr(spaces.RowGroup, "__init__", recording)
    report, code = run_jobs(inst)
    assert code == 0
    assert built == ["hom-left", "hom-right", "leibniz"]
    first, hom = report["jobs"][0]["result"], report["jobs"][3]["result"]
    assert [job["result"] for job in report["jobs"]] == [first] * 3 + [hom] * 2
    # the kept Hom_D(U) is the space a fresh solve gives
    d = inst.algebras["D"]
    fresh = spaces.hom_space(d, *[regular_action(d)] * 2)
    assert hom["dim"] == first["hom_dim"] == fresh.dim
    assert hom["basis"] == [[str(x) for x in row] for row in fresh.basis.data]
    # a second run reads the spaces the parsed algebras keep, and gives the same report
    built.clear()
    again, _ = run_jobs(inst)
    assert built == []
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
    # a second run builds P afresh, and with it the Leibniz group of its total alone
    built.clear()
    again, _ = run_jobs(inst)
    assert built == [(4, 4, 4)]
    assert render_text(again) == render_text(report)


def test_a_built_product_reads_the_factor_spaces_of_the_run(monkeypatch):
    init, built = spaces.RowGroup.__init__, []

    def recording(group, *args, **kwargs):
        init(group, *args, **kwargs)
        if group.name == "leibniz":
            built.append(group.dims)

    inst = _dual_numbers([
        {"cmd": "h1", "args": ["D"]}, {"cmd": "h1", "args": ["D", "U"]},
        {"cmd": "build", "kind": "semidirect", "name": "P", "args": ["D", "U"]},
        {"cmd": "verify", "id": "4.1", "args": ["P"]}])
    monkeypatch.setattr(spaces.RowGroup, "__init__", recording)
    report, code = run_jobs(inst)
    assert code == 0
    # Z1(D) and Z1(D, U), which rule 4.1's gates on P read too; then the total of P
    assert built == [(2, 2, 2), (2, 2, 2), (4, 4, 4)]
    assert report["jobs"][3]["result"]["verdict"] == "hypotheses-not-met"


def test_a_separable_factor_solves_each_n1_once(monkeypatch):
    span, ambients = spaces._span_of_rows, []

    def counted(rows, ambient):
        ambients.append(ambient)
        return span(rows, ambient)

    monkeypatch.setattr(spaces, "_span_of_rows", counted)
    m2 = matrix_algebra(2)
    p = module_extension(m2, regular_action(m2))
    for name in ("z1_a", "n1_a", "z1_au", "n1_au", "z1_u", "n1_u"):
        space(p, name)
    # N1(M2), which is Z1 and N1 of both M2 and (M2, U), and N1(U) for the null U
    assert ambients == [16, 16]
    assert space(p, "z1_a") is space(p, "n1_au")


def test_the_public_spaces_functions_keep_nothing(monkeypatch):
    init, built = spaces.RowGroup.__init__, []

    def recording(group, *args, **kwargs):
        init(group, *args, **kwargs)
        built.append(group.name)

    monkeypatch.setattr(spaces.RowGroup, "__init__", recording)
    d = dual_numbers()
    assert spaces.h1_dim(d) == spaces.h1_dim(d) == 1
    # each call solves its own system: only ``verify`` keeps spaces in an algebra
    assert built == ["leibniz", "leibniz"]
    assert d._memo is None
