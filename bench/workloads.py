"""The benchmark's three workloads: their seeded inputs, ops and oracle.

An op is one unit of user-visible work.  ``op.run()`` calls semih1 through
its public functions and returns a plain answer; ``op.check(answer)`` compares
it with values frozen here or in ``instances`` and returns ``None`` when it
agrees, else a one-line reason.  semih1 only ever receives generated inputs.
"""

import json
import random

from instances import (
    algebra_spec,
    cyclic,
    dense,
    direct_sum,
    instance_text,
    kronecker,
    matrix_algebra,
    perturbed,
    regular_module_spec,
    sheared,
    truncated,
    upper_triangular,
)

FAMILIES = {"M": matrix_algebra, "C": cyclic, "P": truncated, "K": kronecker,
            "T": upper_triangular}

# Exit code of `semih1 run` on every packaged fixture.
FIXTURE_EXIT_CODES = {
    "alpha_products.json": 0, "direct_products.json": 0, "dual_numbers.json": 0,
    "extension_qq.json": 0, "lau_dual.json": 0, "lau_projection.json": 0,
    "matrix2.json": 0, "paired_tau.json": 0, "scalars.json": 0,
    "tau1_witness.json": 0, "triangular.json": 0, "upper_triangular.json": 0,
}

# Rules whose left side is h1 of the whole product when they are verified.
H1_LHS_RULES = ("4.1", "4.2", "4.3", "4.4", "cte")
T_RULES = ("3.1", "4.1", "4.2", "4.3", "4.4", "ttd", "cte", "embed")


class Op:
    __slots__ = ("name", "run", "check", "info")

    def __init__(self, name, run, check, info):
        self.name = name
        self.run = run
        self.check = check
        self.info = info


def _expect(answer, expected):
    return None if answer == expected else f"got {answer!r}, expected {expected!r}"


def check_rules(rules, h1_total, h1_factor):
    """Oracle for the rule verdicts on T(A) = A ⋉ A with A^2 = 0 on the ideal.

    ``rules`` holds (rule, verdict, lhs, rhs).  3.1 is ungated and must
    verify; no rule may give MISMATCH; a verified H1 rule must reproduce
    the closed-form h1, and embed compares h1(A, A) with it.
    """
    for rule, verdict, lhs, rhs in rules:
        if verdict not in ("verified", "hypotheses-not-met"):
            return f"rule {rule}: {verdict}"
        if rule == "3.1" and verdict != "verified":
            return "rule 3.1 not verified"
        if verdict == "verified" and rule in H1_LHS_RULES and lhs != h1_total:
            return f"rule {rule}: lhs {lhs} != h1 {h1_total}"
        if rule == "embed" and (lhs, rhs) != (h1_factor, h1_total):
            return f"rule embed: ({lhs}, {rhs}) != ({h1_factor}, {h1_total})"
    return None


# ---------------------------------------------------------------------------
# front door: the `semih1 run` path

def render_report(instancefile, doc):
    """What `semih1 run` prints, in both of its formats."""
    return json.dumps(doc, indent=2) + "\n", instancefile.render_text(doc)


def run_file(prog, text, where):
    """parse -> run_jobs -> render, mapping failures to the CLI's exit codes.

    Returns (exit code, error type or None, per-job summary).
    """
    errors = prog.errors
    try:
        inst = prog.instancefile.parse_instance_text(text, where=where)
    except (errors.ParseError, errors.UnresolvedReference) as exc:
        return 1, type(exc).__name__, ()
    except errors.ValidationFailed:
        return 2, "ValidationFailed", ()
    doc, code = prog.instancefile.run_jobs(inst)
    render_report(prog.instancefile, doc)
    return code, None, tuple(_job_summary(entry) for entry in doc["jobs"])


def _job_summary(entry):
    if entry["status"] == "error":
        return ("error", entry["error"]["type"])
    cmd, res = entry["job"]["cmd"], entry["result"]
    if cmd == "h1":
        return ("h1", res["h1_dim"], res["z1_dim"], res["n1_dim"])
    if cmd == "verify":
        return ("verify", res["rule"], res["verdict"], res["lhs_dim"], res["rhs_dim"])
    if cmd in ("validate", "build", "z1", "n1", "hom"):
        return (cmd, res["dim"])
    return (cmd,)


def fixture_ops(prog):
    """Each packaged fixture through the `semih1 run` path."""
    ops = []
    for name, code in sorted(FIXTURE_EXIT_CODES.items()):
        text = (prog.fixture_dir / name).read_text(encoding="utf-8")
        ops.append(Op(name, lambda text=text, name=name: run_file(prog, text, name)[:2],
                      lambda ans, code=code: _expect(ans, (code, None)),
                      {"dim": 0, "kind": "fixture"}))
    return ops


# ---------------------------------------------------------------------------
# ladder

# (family, size, basis change): the seed draws the basis change for the
# marked half, the rungs below the ladder's median and T(M2).  The rungs
# around the median and at the top keep their structured basis, so the seed
# moves sparsity without moving op_ms_p50 or the top rungs.  A basis change
# is one elementary operation: with four, one seed made a rung 25 times
# slower than another (Q[C8] took 60 ms to 1.5 s).
LADDER_H1 = (
    ("M", 2, True), ("M", 3, False), ("M", 4, False),
    ("C", 4, True), ("C", 6, True), ("C", 8, False), ("C", 10, False), ("C", 12, False),
    ("P", 3, True), ("P", 5, True), ("P", 7, False), ("P", 9, False),
    ("K", 2, True), ("K", 3, True), ("K", 4, True), ("K", 5, True),
)
LADDER_T = (("M", 2, True), ("M", 3, False), ("C", 4, False), ("C", 6, False))
BASIS_STEPS = 1


def _t_rules(prog, a):
    p = prog.products.module_extension(a, prog.algebra.regular_action(a), u_name="U")
    verify = prog.verify
    reports = [verify.theorem_3_1_equivalence(p)]
    reports += [verify.verify_theorem(rid, p) for rid in ("4.1", "4.2", "4.3", "4.4")]
    reports += [verify.verify_special_case(rid, p) for rid in ("ttd", "cte", "embed")]
    rules = tuple((r.rule_id, r.verdict, r.lhs_dim, r.rhs_dim) for r in reports)
    return verify.h1_total(p), rules


def _t_check(fam):
    # HH^1(S ⊗ Q[e]/(e^2)) = Z(S) ⊗ HH^1(Q[e]/(e^2)) for separable S
    h1 = fam.center

    def check(answer):
        if answer[0] != h1:
            return f"h1(T({fam.name})) = {answer[0]}, expected {h1}"
        return check_rules(answer[1], h1, fam.h1)
    return check


def _file_rung_text(fam):
    jobs = [{"cmd": "build", "kind": "module-extension", "args": ["A", "U"], "name": "T"},
            {"cmd": "h1", "args": ["T"]}]
    jobs += [{"cmd": "verify", "id": rid, "args": ["T"]} for rid in T_RULES]
    return instance_text([algebra_spec("A", fam)], [regular_module_spec("U", "A", fam)], jobs)


def _file_rung_check(fam):
    h1 = fam.center

    def check(answer):
        code, err, jobs = answer
        if (code, err) != (0, None):
            return f"exit {code} {err}"
        if jobs[1][:2] != ("h1", h1):
            return f"h1 job gave {jobs[1]}"
        return check_rules([j[1:] for j in jobs[2:]], h1, fam.h1)
    return check


def _case_rung(prog, a, seed):
    p = prog.products.module_extension(a, prog.algebra.regular_action(a), u_name="U")
    sample = prog.families.AlgebraSample(
        a, [], prog.catalog.standard_idempotents(a, "matrix"), "matrix")
    try:
        reports = prog.selftest.run_case(p, sample, random.Random(f"ladder-case:{seed}"))
    except prog.selftest.CaseFailure as failure:
        return ("CaseFailure", failure.check)
    return prog.verify.h1_total(p), tuple(sorted((k, r.verdict) for k, r in reports.items()))


def _case_rung_check(fam):
    def check(answer):
        if answer[0] != fam.center:
            return f"got {answer!r}, expected h1 {fam.center}"
        if any(v == "MISMATCH" for _, v in answer[1]):
            return "MISMATCH"
        return None
    return check


def ladder(prog, seed):
    rng = random.Random(f"ladder:{seed}")
    ops = []

    def algebra_of(letter, size, change):
        fam = FAMILIES[letter](size)
        a = prog.algebra.Algebra(fam.name, fam.dim, dense(fam))
        if change:
            basis = prog.catalog.elementary_matrices(rng, fam.dim, steps=BASIS_STEPS)
            a = prog.catalog.change_basis_algebra(a, basis, name=fam.name + "~")
        return fam, a

    for letter, size, change in LADDER_H1:
        fam, a = algebra_of(letter, size, change)
        ops.append(Op(a.name, lambda a=a: prog.spaces.h1_dim(a),
                      lambda ans, h1=fam.h1: _expect(ans, h1),
                      {"dim": fam.dim, "kind": "h1_dim"}))
    for letter, size, change in LADDER_T:
        fam, a = algebra_of(letter, size, change)
        ops.append(Op(f"T({a.name})", lambda a=a: _t_rules(prog, a), _t_check(fam),
                      {"dim": 2 * fam.dim, "kind": "rules"}))
    # the smallest T rung once more through the front door and through the
    # selftest invariants, so every layer runs on this workload
    fam, a = algebra_of("M", 2, False)
    text = _file_rung_text(fam)
    ops.append(Op("run:T(M2)", lambda: run_file(prog, text, "T(M2).json"),
                  _file_rung_check(fam), {"dim": 8, "kind": "semih1 run"}))
    ops.append(Op("case:T(M2)", lambda: _case_rung(prog, a, seed), _case_rung_check(fam),
                  {"dim": 8, "kind": "run_case"}))
    return ops


# ---------------------------------------------------------------------------
# battery

# Cases per total dimension, in the proportions random_product(rng, 3) draws
# them; filling fixed quotas keeps the case mix, and so the pass time, from
# swinging with the seed.
BATTERY_QUOTA = {2: 47, 3: 56, 4: 136, 5: 73, 6: 88}
BATTERY_MAX_DRAWS = 20000


def _battery_case(prog, key):
    rng = random.Random(key)
    p, sample = prog.families.random_product(rng, 3)
    try:
        reports = prog.selftest.run_case(p, sample, rng)
    except prog.selftest.CaseFailure as failure:
        return p.name, ("CaseFailure", failure.check)
    return p.name, tuple(sorted((k, r.verdict) for k, r in reports.items()))


def _case_check(name):
    def check(answer):
        if answer[0] != name:
            return f"case rebuilt as {answer[0]!r}, drawn as {name!r}"
        if answer[1] and answer[1][0] == "CaseFailure":
            return f"CaseFailure {answer[1][1]}"
        if any(v == "MISMATCH" for _, v in answer[1]):
            return "MISMATCH"
        return None
    return check


def battery(prog, seed):
    quota = dict(BATTERY_QUOTA)
    # the packaged fixtures first, as `semih1 selftest` runs them
    ops = fixture_ops(prog)
    for draw in range(BATTERY_MAX_DRAWS):
        if not any(quota.values()):
            break
        key = f"battery:{seed}:{draw}"
        p, _ = prog.families.random_product(random.Random(key), 3)
        if quota.get(p.dim, 0) == 0:
            continue
        quota[p.dim] -= 1
        ops.append(Op(p.name, lambda key=key: _battery_case(prog, key), _case_check(p.name),
                      {"dim": p.dim, "kind": p.kind}))
    else:
        raise RuntimeError("battery quotas not filled")
    return ops


# ---------------------------------------------------------------------------
# batch

# Mid-size algebras, dims 6-16, each a summand list of (family, size).
BATCH_ALGEBRAS = (
    (("T", 3),), (("K", 4),), (("P", 6),), (("C", 6),), (("M", 2), ("P", 3)),
    (("C", 7),), (("K", 6),), (("P", 8),), (("M", 3),), (("T", 4),),
    (("K", 8),), (("C", 10),), (("M", 2), ("T", 3)), (("P", 12),), (("K", 10),),
    (("T", 5),), (("C", 14),), (("M", 3), ("K", 3)), (("P", 16),), (("M", 4),),
    (("K", 12),),
)
BATCH_FILES = 225
BATCH_DEFECTS = ("assoc", "rational", "index", "cmd", "json")
DEFECT_OUTCOME = {"assoc": (2, "ValidationFailed"), "rational": (1, "ParseError"),
                  "index": (1, "ParseError"), "cmd": (1, "ParseError"),
                  "json": (1, "ParseError")}
H1_MAX_DIM = 6     # h1 and hom jobs only on the smaller algebras
SHEAR_COEFFS = (1, -1, 2, -2)
# Shears per file; one or two drawn by the seed moved the batch pass 7%
# from seed to seed, two every time 3%.
BATCH_SHEARS = 2
# T(D) for D = Q[e]/(e^2) is Q[x, y]/(x^2, y^2): commutative, so h1 = dim Der
# = 4 (x -> span(x, xy), y -> span(y, xy)).  cte is gated because
# HH^1(D) = 1 != 0; embed compares h1(D, D) = 1 with 4.
T_DUAL = [("build", 4), ("verify", "cte", "hypotheses-not-met", None, None),
          ("verify", "embed", "verified", 1, 4)]


def _fixture_sweep(prog):
    count, failures = prog.selftest.run_fixture_files()
    return count, tuple(sorted(str(f) for f in failures))


def _sweep_check(answer):
    return _expect(answer, (len(FIXTURE_EXIT_CODES), ()))


def _batch_family(summands):
    fam = None
    for letter, size in summands:
        part = FAMILIES[letter](size)
        fam = part if fam is None else direct_sum(fam, part)
    return fam


def _batch_file(rng, index, summands, defect):
    fam = _batch_family(summands)
    if defect == "assoc":
        fam = perturbed(fam)
    shears = []
    for _ in range(BATCH_SHEARS):
        i, j = rng.sample(range(fam.dim), 2)
        shears.append((i, j, rng.choice(SHEAR_COEFFS)))
    fam = sheared(fam, shears)
    dual = truncated(2)
    algebras = [algebra_spec("A", fam), algebra_spec("D", dual)]
    modules = []
    jobs = [{"cmd": "validate", "args": ["A"]}, {"cmd": "n1", "args": ["A"]},
            {"cmd": "build", "kind": "direct", "args": ["A", "D"], "name": "AxD"},
            {"cmd": "validate", "args": ["AxD"]}]
    if fam.dim <= H1_MAX_DIM:
        modules += [regular_module_spec("R", "A", fam), regular_module_spec("DR", "D", dual)]
        jobs += [{"cmd": "h1", "args": ["A"]}, {"cmd": "hom", "args": ["A", "R"]},
                 {"cmd": "build", "kind": "module-extension", "args": ["D", "DR"],
                  "name": "TD"},
                 {"cmd": "verify", "id": "cte", "args": ["TD"]},
                 {"cmd": "verify", "id": "embed", "args": ["TD"]}]
    if defect == "rational":
        algebras[0]["mult"][-1]["c"] = "1/0"
    elif defect == "index":
        algebras[0]["mult"][-1]["k"] = fam.dim
    elif defect == "cmd":
        jobs.append({"cmd": "h2", "args": ["A"]})
    text = instance_text(algebras, modules, jobs)
    if defect == "json":
        text = text[: len(text) // 2]
    name = f"g{index:03d}-{fam.name}.json"
    if defect is None:
        n1 = fam.dim - fam.center
        expected = [("validate", fam.dim), ("n1", n1), ("build", fam.dim + 2),
                    ("validate", fam.dim + 2)]
        if fam.dim <= H1_MAX_DIM:
            expected += [("h1", fam.h1, fam.h1 + n1, n1), ("hom", fam.center)] + T_DUAL
        outcome = (0, None, tuple(expected))
    else:
        outcome = DEFECT_OUTCOME[defect] + ((),)
    return name, text, outcome, fam.dim


def batch(prog, seed):
    rng = random.Random(f"batch:{seed}")
    ops = fixture_ops(prog)
    ops.append(Op("selftest-fixtures", lambda: _fixture_sweep(prog), _sweep_check,
                  {"dim": 0, "kind": "run_fixture_files"}))
    files = []
    for index in range(BATCH_FILES):
        summands = BATCH_ALGEBRAS[index % len(BATCH_ALGEBRAS)]
        defect = BATCH_DEFECTS[(index // 5) % 5] if index % 5 == 4 else None
        files.append(_batch_file(rng, index, summands, defect))
    rng.shuffle(files)
    for name, text, outcome, dim in files:
        ops.append(Op(name, lambda text=text, name=name: run_file(prog, text, name),
                      lambda ans, outcome=outcome: _expect(ans, outcome),
                      {"dim": dim, "kind": "reject" if outcome[0] else "accept"}))
    return ops


WORKLOADS = {"ladder": ladder, "battery": battery, "batch": batch}
