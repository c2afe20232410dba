"""Acceptance suite: one test and one printed pass/fail line per criterion.

All arithmetic is exact, so every comparison is equality with zero
tolerance.  The battery criteria reuse three 200-case seeded self-test runs
computed once per session.
"""

import random
import time
from contextlib import contextmanager

import pytest

from semih1.algebra import Character, regular_action
from semih1.catalog import (
    dual_numbers,
    field_q,
    matrix_algebra,
    null_algebra,
    upper_triangular_2,
)
from semih1.families import random_algebra_sample, random_product
from semih1.linalg import Matrix
from semih1.products import (
    alpha_iso,
    alpha_product,
    direct_product,
    fixture_nonzero_tau1,
    module_extension,
    theta_lau,
)
from semih1.selftest import selftest
from semih1.spaces import h1_dim
from semih1.verify import (
    inner_characterization,
    space,
    split_blocks,
    theorem_3_1_equivalence,
    verify_special_case,
    verify_theorem,
)
from semih1.verify import c_space as _c_space

from _oracle import (
    brute_h1_dim,
    brute_product,
    brute_vector_times,
    dense,
    dual_numbers_mult,
    matrix2_mult,
    scalars_mult,
    upper_triangular_mult,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


@pytest.fixture(scope="session")
def battery_summaries():
    return {seed: selftest(seed=seed, max_dim=3, cases=200) for seed in (1, 2, 3)}


def test_criterion_1_block_equivalence_on_seeded_instances():
    with criterion(1, "block-condition equivalence, 200+ instances"):
        rng = random.Random(101)
        started = time.monotonic()
        checked = 0
        while checked < 200:
            p, _ = random_product(rng, 3)
            report = theorem_3_1_equivalence(p)
            assert report.verdict == "verified", report.as_dict()
            checked += 1
        elapsed = time.monotonic() - started
        assert elapsed < 20.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_2_frozen_h1_oracles():
    with criterion(2, "frozen first-cohomology values"):
        # frozen after computing them with the independent brute-force
        # reference in tests/_oracle.py
        assert brute_h1_dim(matrix2_mult()) == 0
        assert brute_h1_dim(dual_numbers_mult()) == 1
        assert brute_h1_dim(scalars_mult()) == 0
        assert brute_h1_dim(upper_triangular_mult()) == 0
        assert h1_dim(matrix_algebra(2)) == 0
        assert h1_dim(dual_numbers()) == 1
        assert h1_dim(field_q()) == 0
        assert h1_dim(upper_triangular_2()) == 0


def test_criterion_3_direct_product_quotient_and_additivity():
    with criterion(3, "direct products: 4.1 quotient and H1 additivity"):
        rng = random.Random(202)
        passed_41 = passed_53 = 0
        for _ in range(60):
            p = direct_product(random_algebra_sample(rng, 3).algebra,
                               random_algebra_sample(rng, 3, name="U").algebra)
            rep = verify_theorem("4.1", p)
            assert rep.verdict != "MISMATCH", rep.as_dict()
            if rep.verdict == "verified":
                passed_41 += 1
                assert rep.lhs_dim == rep.rhs_dim
            rep = verify_special_case("5.3", p)
            assert rep.verdict != "MISMATCH", rep.as_dict()
            if rep.verdict == "verified":
                passed_53 += 1
                assert rep.lhs_dim == rep.rhs_dim
        assert passed_41 >= 10, "too few instances passed the 4.1 gates"
        assert passed_53 >= 10, "too few instances passed the 5.3 gates"


def test_criterion_4_quotient_rule_on_scaled_dual_fixture():
    with criterion(4, "4.4 on the scaled dual-number fixture"):
        q = field_q()
        p = theta_lau(q, null_algebra(1), Character(q, [1]))
        rep = verify_theorem("4.4", p)
        assert rep.verdict == "verified"
        assert rep.lhs_dim == 1 and rep.rhs_dim == 1


def test_criterion_5_extension_h1_formula_fixture():
    with criterion(5, "module-extension H1 formula on T(Q,Q)"):
        q = field_q()
        te = module_extension(q, regular_action(q))
        rep = verify_special_case("cte", te)
        assert rep.verdict == "verified"
        assert rep.lhs_dim == 1
        homz1 = space(te, "hom_cap_z1u")
        c = _c_space(te.part_a, te.part_u)
        assert h1_dim(q, te.part_u.action) == 0
        assert homz1.contains_subspace(c) and homz1.dim - c.dim == 1
        assert rep.rhs_dim == 0 + 1


def test_criterion_6_twist_isomorphism_transport():
    with criterion(6, "direct product transports onto the alpha-product"):
        cases = [
            (field_q(), field_q("Q'"), Matrix.zeros(1, 1)),
            (field_q(), field_q("Q'"), Matrix.identity(1)),
            (matrix_algebra(2), matrix_algebra(2, "M2'"), Matrix.identity(4)),
        ]
        for a, u, alpha in cases:
            p = alpha_product(a, u, alpha)
            dp = direct_product(a, u)
            iso = alpha_iso(a, u, alpha)
            dp_mult, p_mult = dense(dp.total.mult, dp.dim), dense(p.total.mult, p.dim)
            for i in range(p.dim):
                for j in range(p.dim):
                    assert brute_vector_times(dp_mult[i][j], iso.data) == \
                        brute_product(p_mult, iso.data[i], iso.data[j])
            assert verify_special_case("5.4", p).verdict == "verified"


def test_criterion_7_nonzero_tau1_regression():
    with criterion(7, "non-inner derivation with nonzero tau1"):
        p, d = fixture_nonzero_tau1(field_q())
        bd = split_blocks(d, p)
        assert bd.ok, bd.conditions
        assert bd.tau1 != Matrix.zeros(bd.tau1.rows, bd.tau1.cols)
        assert inner_characterization(d, p) is None


def test_criterion_8_invariant_battery(battery_summaries):
    with criterion(8, "seeded invariant battery, seeds 1-3"):
        for seed, summary in battery_summaries.items():
            assert summary["cases"] == 200
            assert summary["fixture_failures"] == 0
            assert summary["failures"] == [], (seed, summary["failures"][:3])


def test_criterion_9_no_mismatch_verdicts(battery_summaries):
    with criterion(9, "no MISMATCH verdict anywhere in the battery"):
        for seed, summary in battery_summaries.items():
            assert "MISMATCH" not in summary["rule_verdicts"], seed
            rule_failures = [f for f in summary["failures"]
                             if str(f.get("check", "")).startswith("rule-")]
            assert rule_failures == [], (seed, rule_failures)
