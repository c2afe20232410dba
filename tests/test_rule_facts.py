"""The application rules as rows of the two general checks, and the facts each adds.

3.1, ttd and lau-der are ``_blocks_rule`` (Z1 against the 3.1 kernel), and
5.3, a1 and prop10 are ``_h1_sum`` (h1 of A x| U against h1s of its parts).
Each fact a rule names is reported under its key and must hold: forced
false, the rule reads MISMATCH with that key False and every other fact as
before.  Rule 5.1's forced-vanishing branch is reached the same way, through
its gate.
"""

import random

import pytest

import semih1.verify as verify
from semih1 import spaces
from semih1.algebra import Character
from semih1.catalog import dual_numbers, field_q, null_algebra, upper_triangular_2
from semih1.families import random_product
from semih1.products import direct_product, fixture_nonzero_tau1, theta_lau
from semih1.selftest import run_case

# rule -> (its check shape, the facts it names, in report order)
ROWS = {
    "3.1": ("_blocks_rule", ()),
    "ttd": ("_blocks_rule", ("decomposition_ok", "inner_tau1_zero")),
    "lau-der": ("_blocks_rule", ("coupling_left_ok", "coupling_right_ok", "inner_shape_ok")),
    "5.3": ("_h1_sum", ("z1_split", "n1_split")),
    "a1": ("_h1_sum", ()),
    "prop10": ("_h1_sum", ()),
}


def _products():
    """rule -> a product it applies to, on which it reads verified."""
    t2 = upper_triangular_2()
    return {"ttd": fixture_nonzero_tau1(field_q())[0],
            "lau-der": theta_lau(t2, dual_numbers(), Character(t2, [1, 0, 0])),
            "5.3": direct_product(field_q(), field_q())}


def test_each_row_is_built_by_its_check_shape():
    for rid, (shape, _) in ROWS.items():
        assert verify.RULES[rid][2].__qualname__ == f"{shape}.<locals>.check", rid


@pytest.mark.parametrize("rid", ["ttd", "lau-der", "5.3"])
def test_each_fact_forced_false_reads_mismatch(rid, monkeypatch):
    facts = ROWS[rid][1]
    rep = verify.verify_any(rid, _products()[rid])
    assert rep.verdict == "verified"
    assert [k for k in rep.details if k in verify._FACTS] == list(facts)
    assert all(rep.details[k] is True for k in facts)
    for key in facts:
        with monkeypatch.context() as patch:
            patch.setitem(verify._FACTS, key, lambda p: False)
            forced = verify.verify_any(rid, _products()[rid])
        assert forced.verdict == "MISMATCH", key
        assert forced.details == dict(rep.details, **{key: False}), key
        assert (forced.lhs_dim, forced.rhs_dim) == (rep.lhs_dim, rep.rhs_dim)


def test_no_rule_check_builds_a_row_group(monkeypatch):
    init, built, checked = spaces.RowGroup.__init__, [], set()

    def recording(group, *args, **kwargs):
        init(group, *args, **kwargs)
        built.append(group.name)

    for i in range(30):
        rng = random.Random(f"facts:{i}")
        p, a_sample = random_product(rng, 3)
        run_case(p, a_sample, rng)
        with monkeypatch.context() as patch:
            patch.setattr(spaces.RowGroup, "__init__", recording)
            for rid in verify.RULES:
                if verify.applies(rid, p):
                    verify.verify_any(rid, p)
                    checked.add(rid)
        assert built == [], p.name
    assert {"ttd", "lau-der", "5.3", "a1", "prop10"} <= checked


def test_rule_5_1_reports_a_block_that_should_vanish(monkeypatch):
    # on a product of two null algebras every map is a derivation; with the gate
    # forced to hold, delta2 should vanish and does not
    p = direct_product(null_algebra(1), null_algebra(1))
    assert verify.verify_any("5.1", p).verdict == "verified"
    monkeypatch.setitem(verify.GATES, "ann_U(U)=0 or span(A^2)=A", lambda p: (True, None))
    rep = verify.verify_any("5.1", direct_product(null_algebra(1), null_algebra(1)))
    assert rep.verdict == "MISMATCH"
    assert rep.details["forces_delta2_zero"] is True
    assert rep.details["reason"] == "delta2 should vanish but does not"
