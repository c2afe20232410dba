"""The seeded invariant battery behind ``semih1 selftest``.

Each case draws one random semidirect-product instance and runs every
invariant the toolkit promises: structural block laws, the block-condition
equivalence for derivations, containments among the map spaces, the
twisting-map identities, the conditional square-zero law for ideal-split
bases, the hypothesis-gated H1 quotient rules, and the construction-matched
special cases.  A failure is a result, not an exception: the battery
records it, attempts a bounded shrink to a smaller failing instance, and
reports pass/fail counts deterministically for a given seed.
"""

import random
from importlib import resources

from .algebra import _span, regular_action, validate_algebra
from .errors import Semih1Error
from .families import random_matrix, random_product
from .linalg import (
    Subspace,
    _combine,
    _kernel_of_images,
    _vector,
    image,
    intersect,
    kernel,
    rref,
    subspace_sum,
)
from .spaces import first_failure, inner_map
from .verify import (
    RULES,
    _restrict,
    applies,
    h1,
    inner_characterization,
    is_derivation_via_3_1,
    space,
    theorem_3_1_equivalence,
    verify_any,
)


class CaseFailure(Exception):
    def __init__(self, check, detail):
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail


def _fail(check, detail=""):
    raise CaseFailure(check, detail)


def _check_structure(p):
    if not validate_algebra(p.total).ok:
        _fail("total-associative", p.name)
    n, t = p.n, p.dim
    mult = p.total.mult
    for i in range(n):
        for j in range(n):
            if any(k >= n for k, _ in mult[i][j]):
                _fail("a-block-closed", (i, j))
            if tuple(e for e in mult[i][j] if e[0] < n) != p.part_a.mult[i][j]:
                _fail("quotient-reproduces-a", (i, j))
    for r in range(t):
        for s in range(t):
            if r >= n or s >= n:
                if any(k < n for k, _ in mult[r][s]):
                    _fail("u-block-ideal", (r, s))
    comm_expected = (p.part_a.is_commutative() and p.part_u.algebra.is_commutative()
                     and p.part_u.action.is_symmetric())
    if p.total.is_commutative() != comm_expected:
        _fail("commutativity-criterion", p.name)


def _check_space_containments(p):
    for label, part in (("total", "total"), ("A", "a"), ("A,U", "au"), ("U", "u")):
        if not space(p, f"z1_{part}").contains_subspace(space(p, f"n1_{part}")):
            _fail("n1-in-z1", label)
    a, u = p.part_a, p.part_u
    homz1, hom, r, c, ii, n1u, z1u, rn, ci = (space(p, name) for name in (
        "hom_cap_z1u", "hom_u", "r", "c", "i", "n1_u", "z1_u", "r_plus_n1u", "c_plus_i"))
    if not z1u.contains_subspace(r):
        _fail("r-in-z1u")
    if not intersect(hom, r).contains_subspace(c):
        _fail("c-in-hom-cap-r")
    if not intersect(hom, n1u).contains_subspace(ii):
        _fail("i-in-hom-cap-n1")
    chain_mid = intersect(hom, rn)
    if not chain_mid.contains_subspace(ci):
        _fail("chain-c+i-in-hom-cap-r+n1")
    if not homz1.contains_subspace(chain_mid):
        _fail("chain-hom-cap-r+n1-in-hom-cap-z1")
    if a.is_commutative() and r != c:
        _fail("commutative-r-equals-c")
    if u.action.is_symmetric() and n1u != ii:
        _fail("symmetric-action-n1-equals-i")
    if p.u_square_is_zero():
        if z1u.dim != p.m * p.m:
            _fail("usquare-z1-full", z1u.dim)
        if n1u.dim != 0 or ii.dim != 0:
            _fail("usquare-n1-i-zero")


def _check_twisting_identities(p):
    """Each basis inner map, built from the factors as the ``phi`` row, meets the 3.1 conditions.

    Parameter e_k of A gives (ad e_k, 0, 0, r_(e_k)) and u_q of U gives
    (0, ad u_q, 0, ad_U u_q).  Their tau2 conditions are the twisting laws
    r_a(bx) = b r_a(x) + (ad a)(b) x, its mirror, the same for ad_U x with
    ad x, and the Leibniz law of r_a and ad_U x on U.  The 3.1 groups keep
    their generator rows only, so the tau2 groups alone do not carry those
    laws; all eight do, and ``cond31`` is the kernel of their rows.  Each
    Φ(e_k) is reduced by it, and one outside is named by the first group
    that fails on it.
    """
    cond, groups = space(p, "cond31"), space(p, "groups31")
    for k, phi_k in enumerate(space(p, "phi")):
        if not cond.reduce(phi_k):
            continue
        flat = _vector(phi_k, p.dim * p.dim)
        for g in groups:
            pair = first_failure(g, flat)
            if pair is not None:
                _fail(f"inner-basis-{g.name}", (k, pair))
        _fail("inner-basis-cond31", k)


def _check_converse_laws(p):
    """Hom membership forces the commutator to vanish, given faithfulness.

    Read from the ``phi`` row: r_a in Hom_A(U) forces ad a = 0 when
    ann_A(U) = 0, and ad_U x in Hom_A(U) forces ad x = 0 on (A, U) when
    ann_U(U) = 0.
    """
    n, m = p.n, p.m
    hom, phi = space(p, "hom_u"), space(p, "phi")
    for params, block, check, faithful in (
            (range(n), "delta1", "r_a-hom-forces-central",
             space(p, "ann_a_u").dim == 0 and m > 0 and n > 0),
            (range(n, n + m), "delta2", "id_Ux-hom-forces-quiet",
             space(p, "ann_u_u").dim == 0 and m > 0)):
        if not faithful:
            continue
        residuals = [hom.reduce(_restrict(p, phi[k], ("tau2",))) for k in params]
        rows = [_restrict(p, phi[k], (block,)) for k in params]
        for w in _kernel_of_images(residuals, len(params), m * m).rows:
            if _combine(rows, w):
                _fail(check, [str(x) for x in _vector(w, len(params))])


def _check_ideal_split_law(p, a_sample):
    """A = I1 (+) I2, I2.U = U.I1 = 0 and a full action span force U^2 = 0."""
    if a_sample.split is None or p.m == 0:
        return
    d1, _ = a_sample.split
    act = p.part_u.action
    n, m = p.n, p.m
    i2_kills = not any(act.left[i][pp] for i in range(d1, n) for pp in range(m))
    u_kills_i1 = not any(act.right[pp][i] for pp in range(m) for i in range(d1))
    if not (i2_kills and u_kills_i1):
        return
    full_span = (_span(act.left, m).dim == m) or (_span(act.right, m).dim == m)
    if full_span and not p.u_square_is_zero():
        _fail("ideal-split-forces-usquare-zero", p.name)


def _check_inner_round_trip(p, rng):
    t = p.dim
    witness = [rng.randint(-2, 2) for _ in range(t)]
    d = inner_map(witness, p.total, regular_action(p.total))
    if not is_derivation_via_3_1(d, p):
        _fail("inner-map-passes-block-conditions")
    if inner_characterization(d, p) is None:
        _fail("inner-round-trip-missing-witness")


def _check_rules(p):
    reports = {}
    for rid in [rid for rid in RULES if rid != "3.1" and applies(rid, p)]:
        rep = verify_any(rid, p)
        reports[rid] = rep
        if rep.verdict == "MISMATCH":
            _fail(f"rule-{rid}", rep.as_dict())
    # consequences of a trivial H1 under a verified quotient rule
    if h1(p, "total") == 0:
        homz1 = space(p, "hom_cap_z1u")
        ci = space(p, "c_plus_i")
        h1_a, h1_au = h1(p, "a"), h1(p, "au")
        if reports["4.1"].verdict == "verified":
            if h1_a or homz1 != ci:
                _fail("corollary-4.1", p.name)
        if reports["4.2"].verdict == "verified":
            if h1_au or homz1 != ci:
                _fail("corollary-4.2", p.name)
        if reports["4.3"].verdict == "verified":
            if h1_a or h1_au:
                _fail("corollary-4.3", p.name)
        if reports["4.4"].verdict == "verified" and homz1 != ci:
            _fail("corollary-4.4", p.name)
    return reports


def run_case(p, a_sample, rng):
    """Run the whole battery on one instance; raises CaseFailure, a library error as one too."""
    try:
        _check_structure(p)
        rep = theorem_3_1_equivalence(p, samples=2, rng=rng)
        if rep.verdict != "verified":
            _fail("rule-3.1", rep.as_dict())
        _check_space_containments(p)
        _check_twisting_identities(p)
        _check_converse_laws(p)
        _check_ideal_split_law(p, a_sample)
        _check_inner_round_trip(p, rng)
        return _check_rules(p)
    except Semih1Error as exc:  # named by its class, so the battery and _shrink record it
        raise CaseFailure(type(exc).__name__, str(exc)) from exc


def _linalg_fuzz(rng, rounds):
    failures = []
    for k in range(rounds):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        r = rref(m)
        if rref(r) != r:
            failures.append(("rref-idempotent", k))
        if kernel(m).dim + image(m).dim != cols:
            failures.append(("rank-nullity", k))
        amb = rng.randint(1, 6)
        sa = Subspace.from_vectors(
            amb, [random_matrix(rng, 1, amb).data[0] for _ in range(rng.randint(0, amb))])
        sb = Subspace.from_vectors(
            amb, [random_matrix(rng, 1, amb).data[0] for _ in range(rng.randint(0, amb))])
        total = subspace_sum(sa, sb)
        meet = intersect(sa, sb)
        if total.dim + meet.dim != sa.dim + sb.dim:
            failures.append(("modular-law", k))
        if total != subspace_sum(sb, sa) or meet != intersect(sb, sa):
            failures.append(("sum-intersect-commute", k))
        if not (total.contains_subspace(sa) and sa.contains_subspace(meet)):
            failures.append(("lattice-order", k))
    return failures


def _shrink(seed, max_dim, check, budget=60):
    """Look for a smaller instance failing the same check."""
    best = None
    rng = random.Random(f"{seed}:shrink:{check}")
    for dim in range(1, max_dim + 1):
        for attempt in range(budget // max_dim):
            try:
                p, a_sample = random_product(rng, dim)
            except Exception:
                continue
            try:
                run_case(p, a_sample, rng)
            except CaseFailure as f:
                if f.check == check and (best is None or p.dim < best["total_dim"]):
                    best = {"total_dim": p.dim, "instance": p.name, "check": f.check,
                            "detail": str(f.detail)}
    return best


def run_fixture_files():
    """Parse and run every packaged fixture; returns (count, failures)."""
    from .instancefile import parse_instance_text, run_jobs
    failures = []
    count = 0
    root = resources.files("semih1") / "fixtures"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        count += 1
        try:
            inst = parse_instance_text(entry.read_text(encoding="utf-8"),
                                       where=entry.name)
            doc, code = run_jobs(inst)
        except Exception as exc:  # a fixture must never fail to parse
            failures.append({"fixture": entry.name, "error": str(exc)})
            continue
        if code != 0:
            bad = [e for e in doc["jobs"] if e["status"] == "error"
                   or (e["job"]["cmd"] == "verify"
                       and e["result"]["verdict"] == "MISMATCH")]
            failures.append({"fixture": entry.name, "exit_code": code,
                             "jobs": [b["index"] for b in bad]})
    return count, failures


def selftest(seed=1, max_dim=3, cases=200, log=None):
    """Run the full battery; deterministic for a fixed (seed, max_dim, cases)."""
    if cases < 1:
        raise ValueError("cases must be >= 1")
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")
    rng = random.Random(seed)
    failures = []
    fixture_count, fixture_failures = run_fixture_files()
    for fail in fixture_failures:
        failures.append({"case": "fixture", "check": "fixture-run", "detail": fail})
    if log is not None:
        log(f"  fixtures: {fixture_count} run, {len(fixture_failures)} failing")
    verdicts = {"verified": 0, "hypotheses-not-met": 0}
    kinds = {}
    for fail in _linalg_fuzz(rng, max(10, cases // 4)):
        failures.append({"case": "linalg-fuzz", "check": fail[0], "detail": fail[1]})
    for case in range(cases):
        p, a_sample = random_product(rng, max_dim)
        kinds[p.kind] = kinds.get(p.kind, 0) + 1
        try:
            reports = run_case(p, a_sample, rng)
        except CaseFailure as f:
            entry = {"case": case, "instance": p.name, "check": f.check,
                     "detail": str(f.detail)}
            shrunk = _shrink(seed, max_dim, f.check)
            if shrunk is not None:
                entry["smallest_found"] = shrunk
            failures.append(entry)
            continue
        for rep in reports.values():
            verdicts[rep.verdict] = verdicts.get(rep.verdict, 0) + 1
        if log is not None and (case + 1) % 50 == 0:
            log(f"  {case + 1}/{cases} cases done")
    summary = {
        "seed": seed,
        "max_dim": max_dim,
        "cases": cases,
        "fixtures_checked": fixture_count,
        "fixture_failures": len(fixture_failures),
        "construction_counts": dict(sorted(kinds.items())),
        "rule_verdicts": dict(sorted(verdicts.items())),
        "failures": failures,
        "ok": not failures,
    }
    return summary
