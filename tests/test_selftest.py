import doctest

import pytest

import random

import semih1.linalg
from semih1 import verify
from semih1.families import random_product
from semih1.linalg import Subspace
from semih1.selftest import (
    CaseFailure,
    _check_twisting_identities,
    run_case,
    run_fixture_files,
    selftest,
)


def test_same_seed_gives_identical_summaries():
    a = selftest(seed=5, max_dim=2, cases=12)
    b = selftest(seed=5, max_dim=2, cases=12)
    assert a == b


def test_different_seeds_draw_different_instances():
    a = selftest(seed=5, max_dim=2, cases=12)
    b = selftest(seed=6, max_dim=2, cases=12)
    assert a["ok"] and b["ok"]
    assert a["construction_counts"] != b["construction_counts"] or \
        a["rule_verdicts"] != b["rule_verdicts"]


def test_preconditions_rejected():
    with pytest.raises(ValueError):
        selftest(cases=0)
    with pytest.raises(ValueError):
        selftest(max_dim=0)


def test_packaged_fixtures_all_pass():
    count, failures = run_fixture_files()
    assert count == 12
    assert failures == []


def test_linalg_doctests():
    results = doctest.testmod(semih1.linalg)
    assert results.failed == 0
    assert results.attempted >= 5


def test_failure_accounting_and_shrink(monkeypatch):
    import semih1.selftest as st

    def always_fails(p, a_sample, rng):
        raise st.CaseFailure("synthetic-check", p.dim)

    monkeypatch.setattr(st, "run_case", always_fails)
    summary = st.selftest(seed=4, max_dim=2, cases=3)
    assert not summary["ok"]
    failing = [f for f in summary["failures"] if f.get("check") == "synthetic-check"]
    assert len(failing) == 3
    # the shrinker reruns smaller instances and reports the smallest failure
    assert all(f["smallest_found"]["total_dim"] >= 1 for f in failing)
    assert min(f["smallest_found"]["total_dim"] for f in failing) <= 3


def test_a_library_error_in_a_case_is_a_recorded_failure(monkeypatch, capsys):
    import semih1.cli as cli
    import semih1.selftest as st
    import semih1.verify as verify
    from semih1.errors import InternalInvariantViolation

    def broken(z, inner, what=None):
        raise InternalInvariantViolation(f"synthetic h1 failure on {what}")

    monkeypatch.setattr(verify, "_h1_of", broken)
    summary = st.selftest(seed=1, max_dim=2, cases=2)
    failing = [f for f in summary["failures"] if f.get("case") in (0, 1)]
    assert [f["check"] for f in failing] == ["InternalInvariantViolation"] * 2
    assert all(f["detail"].startswith("synthetic h1 failure on") for f in failing)
    assert all(f["smallest_found"]["check"] == "InternalInvariantViolation" for f in failing)
    assert cli.main(["selftest", "--cases", "2", "--quiet"]) == 3
    out = capsys.readouterr().out
    assert "FAILURES" in out and "'check': 'InternalInvariantViolation'" in out


def test_cli_selftest_failure_exit_code(monkeypatch, capsys):
    import semih1.cli as cli

    def fake_selftest(seed, max_dim, cases, log=None):
        return {
            "seed": seed, "max_dim": max_dim, "cases": cases,
            "fixtures_checked": 12, "fixture_failures": 0,
            "construction_counts": {}, "rule_verdicts": {},
            "failures": [{"case": 0, "check": "synthetic", "detail": ""}],
            "ok": False,
        }

    monkeypatch.setattr(cli, "selftest", fake_selftest)
    assert cli.main(["selftest", "--cases", "1", "--quiet"]) == 3
    assert "FAILURES" in capsys.readouterr().out


def _u_square_nonzero_case():
    """The key of the first battery draw with dim A > 0 and U^2 != 0."""
    for draw in range(200):
        key = f"battery:1:{draw}"
        p, _ = random_product(random.Random(key), 3)
        if p.n and not p.u_square_is_zero():
            return key
    raise AssertionError("no draw with U^2 != 0")


def test_an_inner_map_that_is_no_derivation_fails_its_3_1_group(monkeypatch):
    """Phi(e_0) plus the identity on U: only tau2-product-twist fails on it when U^2 != 0."""
    phi = verify._SPACES["phi"]

    def broken(p):
        rows = phi(p)
        row = dict(rows[0])
        for q in range(p.n, p.dim):
            row[q * p.dim + q] = row.get(q * p.dim + q, 0) + 1
        rows[0] = [(j, x) for j, x in sorted(row.items()) if x]
        return rows

    key = _u_square_nonzero_case()
    rng = random.Random(key)
    run_case(*random_product(rng, 3), rng)
    monkeypatch.setitem(verify._SPACES, "phi", broken)
    rng = random.Random(key)
    with pytest.raises(CaseFailure) as failure:
        run_case(*random_product(rng, 3), rng)
    assert failure.value.check == "inner-basis-tau2-product-twist"
    assert failure.value.detail[0] == 0


def test_an_inner_map_outside_cond31_that_no_group_fails_is_named():
    rng = random.Random(_u_square_nonzero_case())
    p, sample = random_product(rng, 3)
    run_case(p, sample, rng)
    assert any(verify.space(p, "phi"))
    p._memo["cond31"] = Subspace.from_vectors(p.dim * p.dim, [])
    with pytest.raises(CaseFailure) as failure:
        _check_twisting_identities(p)
    assert failure.value.check == "inner-basis-cond31"
