"""A x| U is an algebra exactly when its factors pass validation.

The total tensor of (a, x)(b, y) = (ab, a.y + x.b + xy) is assembled here
from the factor tensors, without the package's product constructions, and
checked for associativity by the brute-force oracle.  Each basis triple of
the total lies in one block of parts, so its failing triples must be exactly
the failures of ``validate_algebra`` on both factors and of
``validate_module`` (or ``validate_corner`` for a triangular algebra),
moved into total coordinates.  Each reported failure's two sides must be
the oracle's Fractions for that triple, also when the factors' tensors
have different denominators.

The algebra and module laws are checked with the middle index on a
generating set first (Light's test), and over the other middles only when
that fails; on sheared tables with one constant perturbed, and on a table
with failures at non-generator middles, the reports must still be the
oracle's and the full scan's, and the tests count the scans each path takes.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from semih1 import algebra
from semih1.algebra import (
    Algebra,
    BimoduleAction,
    CornerModule,
    ModuleAlgebra,
    generators,
    regular_action,
    semidirect_blocks,
    validate_algebra,
    validate_corner,
    validate_module,
)
from semih1.catalog import (
    change_basis_algebra,
    change_basis_module,
    cyclic_group_algebra,
    direct_sum_algebra,
    dual_numbers,
    elementary_matrices,
    matrix_algebra,
    null_algebra,
    upper_triangular_2,
)
from semih1.families import random_product

from _oracle import brute_assoc_failures, brute_assoc_sides, dense

# the parts (x, y, z) of the witness (i, j, k) each law reports
MODULE_LAWS = {"(ab)x=a(bx)": "AAU", "x(ab)=(xa)b": "UAA", "(ax)b=a(xb)": "AUA",
               "(a.x)y=a.(xy)": "AUU", "(xy).a=x(y.a)": "UUA", "(x.a)y=x(a.y)": "UAU"}
CORNER_LAWS = {"(aa')m=a(a'm)": "AAM", "m(bb')=(mb)b'": "MBB", "(am)b=a(mb)": "AMB"}


def sparse(rng, d0, d1, d2, q=1):
    return [[[Fraction(rng.choice((0, 0, 0, 0, 0, 1, -1)), q) for _ in range(d2)]
             for _ in range(d1)] for _ in range(d0)]


def assemble(dims, blocks):
    """The total tensor on the concatenated parts; blocks[xyz][i][j] lies in part z."""
    offset, t = {}, 0
    for part, d in dims.items():
        offset[part] = t
        t += d
    mult = [[[0] * t for _ in range(t)] for _ in range(t)]
    for (x, y, z), block in blocks.items():
        for i, row in enumerate(dense(block, dims[z])):
            for j, vec in enumerate(row):
                for k, c in enumerate(vec):
                    mult[offset[x] + i][offset[y] + j][offset[z] + k] = c
    return mult, offset


ASSOC = "(ab)c=a(bc)"


def triples(report, offset, laws):
    """The report's failing triples in total coordinates."""
    return [tuple(offset[part] + w for part, w in zip(laws[f["axiom"]], f["witness"]))
            for f in report.failures]


def moved(report, offset, laws, mult, out):
    """The report's failing triples in total coordinates.

    Each failure's lhs and rhs, dense in part ``out``, must be the oracle's
    two sides of its triple on the total tensor, as Fractions.
    """
    found = triples(report, offset, laws)
    for f, triple in zip(report.failures, found):
        before, after = offset[out], len(mult) - offset[out] - len(f["lhs"])
        for side, total in zip((f["lhs"], f["rhs"]), brute_assoc_sides(mult, *triple)):
            assert all(type(x) is Fraction for x in side)
            assert [0] * before + side + [0] * after == total
    return found


def semidirect_total(a, u):
    """The total tensor of A x| U and the offset of each part."""
    return assemble({"A": a.dim, "U": u.dim},
                    {"AAA": a.mult, "AUU": u.action.left, "UAU": u.action.right,
                     "UUU": u.algebra.mult})


def check_semidirect(a, u):
    """Compare the oracle on A x| U with the validators; return the failing laws."""
    mult, offset = semidirect_total(a, u)
    module = validate_module(u, a)
    expected = (moved(validate_algebra(a), offset, {ASSOC: "AAA"}, mult, "A")
                + moved(module, offset, MODULE_LAWS, mult, "U")
                + moved(validate_algebra(u.algebra), offset, {ASSOC: "UUU"}, mult, "U"))
    assert len(set(expected)) == len(expected)
    assert sorted(expected) == brute_assoc_failures(mult)
    return {f["axiom"] for f in module.failures}


def check_triangular(a, b, m):
    """Compare the oracle on the triangular algebra with the validators."""
    mult, offset = assemble({"A": a.dim, "B": b.dim, "M": m.dim},
                            {"AAA": a.mult, "BBB": b.mult, "AMM": m.left, "MBM": m.right})
    corner = validate_corner(m, a, b)
    expected = (moved(validate_algebra(a), offset, {ASSOC: "AAA"}, mult, "A")
                + moved(validate_algebra(b), offset, {ASSOC: "BBB"}, mult, "B")
                + moved(corner, offset, CORNER_LAWS, mult, "M"))
    assert len(set(expected)) == len(expected)
    assert sorted(expected) == brute_assoc_failures(mult)
    return {f["axiom"] for f in corner.failures}


@pytest.mark.parametrize("seed", range(12))
def test_valid_factors_give_an_associative_total(seed):
    p, _ = random_product(random.Random(seed), 3)
    assert check_semidirect(p.part_a, p.part_u) == set()


def test_invalid_factors_fail_exactly_where_the_total_does():
    failing = set()
    for seed in range(12):
        rng = random.Random(seed)
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = Algebra("A", n, sparse(rng, n, n, n))
        u = ModuleAlgebra(Algebra("U", m, sparse(rng, m, m, m)),
                          BimoduleAction(n, m, sparse(rng, n, m, m), sparse(rng, m, n, m)))
        failing |= check_semidirect(a, u)
    assert failing == set(MODULE_LAWS)


@pytest.mark.parametrize("a", [dual_numbers(), upper_triangular_2(), matrix_algebra(2)],
                         ids=lambda a: a.name)
def test_regular_corner_gives_an_associative_triangular_algebra(a):
    corner = CornerModule(a.dim, a.dim, a.dim, dense(a.mult, a.dim), dense(a.mult, a.dim))
    assert check_triangular(a, a, corner) == set()


def test_invalid_corner_fails_exactly_where_the_triangular_algebra_does():
    failing = set()
    for seed in range(8):
        rng = random.Random(seed)
        n, nb, d = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        a = Algebra("A", n, sparse(rng, n, n, n))
        b = Algebra("B", nb, sparse(rng, nb, nb, nb))
        corner = CornerModule(n, nb, d, sparse(rng, n, d, d), sparse(rng, d, nb, d))
        failing |= check_triangular(a, b, corner)
    assert failing == set(CORNER_LAWS)


def halved_projection(rows):
    """The action x -> x P / 2 of b on Q^2, P = rows: slice p is row p of P / 2."""
    return [[x / 2 for x in row] for row in rows]


P = ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 3), Fraction(2, 3)))
PT = tuple(zip(*P))


def line_over_half(right):
    """A = Q b with b b = b/2 acting on U = Q^2 (null) by x P / 2 and x right / 2.

    P and its transpose PT are idempotent, so each action is one of A; the
    two commute, and A x| U is associative, exactly when right is P.
    """
    left = halved_projection(P)
    a = Algebra("A", 1, [[[Fraction(1, 2)]]])
    u = ModuleAlgebra(Algebra("U", 2, [[[0, 0]] * 2] * 2),
                      BimoduleAction(1, 2, [left], [[row] for row in halved_projection(right)]))
    return a, u


def test_rational_blocks_are_compared_at_their_own_scales():
    # A's table is over 1/2, the action over 1/6.  On (b b) u_p = b (b u_p)
    # the validator sums the left side at scale 2 * 6 and the right side at
    # 6 * 6, so the integer sums, (1, 2) and (3, 6) for p = 0, differ though
    # both sides are (1/12, 1/6): the law holds only once they are rescaled.
    a, u = line_over_half(P)
    assert validate_module(u, a).ok
    assert check_semidirect(a, u) == set()


def test_rational_blocks_report_the_oracle_sides():
    # P PT != PT P: (ax)b = a(xb) fails, the other laws hold
    a, u = line_over_half(PT)
    assert check_semidirect(a, u) == {"(ax)b=a(xb)"}
    failures = validate_module(u, a).failures
    assert any(x.denominator > 1 for f in failures for x in f["lhs"] + f["rhs"])


def test_rational_factors_fail_exactly_where_the_total_does():
    # A over 1/2, the action over 1/3 and U over 1/5: each block has its
    # own scale
    failing = set()
    for seed in range(12):
        rng = random.Random(seed)
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = Algebra("A", n, sparse(rng, n, n, n, 2))
        u = ModuleAlgebra(Algebra("U", m, sparse(rng, m, m, m, 5)),
                          BimoduleAction(n, m, sparse(rng, n, m, m, 3), sparse(rng, m, n, m, 3)))
        failing |= check_semidirect(a, u)
    assert failing == set(MODULE_LAWS)


def test_rational_corner_fails_exactly_where_the_triangular_algebra_does():
    failing = set()
    for seed in range(8):
        rng = random.Random(seed)
        n, nb, d = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        a = Algebra("A", n, sparse(rng, n, n, n, 2))
        b = Algebra("B", nb, sparse(rng, nb, nb, nb, 3))
        corner = CornerModule(n, nb, d, sparse(rng, n, d, d, 5), sparse(rng, d, nb, d, 7))
        failing |= check_triangular(a, b, corner)
    assert failing == set(CORNER_LAWS)


@pytest.mark.parametrize("seed", range(6))
def test_failures_come_in_scan_order_at_larger_dimensions(seed):
    # the algebra law scans (i, j, k) lexicographically, the oracle's order;
    # one entry off by 1/2 in a sheared basis of dimension 4-6 breaks several
    # triples, and several k on one basis pair
    rng = random.Random(seed)
    base = (matrix_algebra(2), cyclic_group_algebra(5),
            direct_sum_algebra(matrix_algebra(2), dual_numbers()))[seed % 3]
    a = change_basis_algebra(base, elementary_matrices(rng, base.dim, steps=2))
    mult = dense(a.mult, a.dim)
    mult[rng.randrange(a.dim)][rng.randrange(a.dim)][rng.randrange(a.dim)] += Fraction(1, 2)
    failures = validate_algebra(Algebra("bad", a.dim, mult)).failures
    witnesses = [f["witness"] for f in failures]
    assert witnesses == brute_assoc_failures(mult)
    assert max(Counter(w[:2] for w in witnesses).values()) > 1
    for f in failures:
        assert (f["lhs"], f["rhs"]) == brute_assoc_sides(mult, *f["witness"])


def scattered(rng, d0, d1, d2, nonzeros, q=1):
    """A dense d0 x d1 x d2 table with about ``nonzeros`` entries, the rest zero."""
    t = [[[Fraction(0)] * d2 for _ in range(d1)] for _ in range(d0)]
    for _ in range(nonzeros):
        t[rng.randrange(d0)][rng.randrange(d1)][rng.randrange(d2)] = Fraction(
            rng.choice((1, -1, 2)), q)
    return t


def with_a_null_column(rng, mult):
    """Make e_j e_k = 0 for every k but e_i e_j = e_l with e_l e_k' != 0, for some i, l, k'.

    Then (e_i e_j) e_k' != 0 = e_i (e_j e_k'): a failure on a column j whose
    products e_j e_k all vanish.  Returns j.
    """
    n = len(mult)
    j, i, l, k = rng.sample(range(n), 4)
    for row in mult[j]:
        row[:] = [Fraction(0)] * n
    mult[i][j] = [Fraction(int(c == l)) for c in range(n)]
    mult[l][k][rng.randrange(n)] = Fraction(1)
    return j


@pytest.mark.parametrize("seed", range(8))
def test_sparse_tables_fail_where_the_oracle_does(seed):
    # dimension 6-10, about one nonzero per row of slices: most slices empty
    rng = random.Random(seed)
    n = rng.randint(6, 10)
    mult = scattered(rng, n, n, n, n, q=rng.choice((1, 2)))
    j = with_a_null_column(rng, mult)
    failures = validate_algebra(Algebra("S", n, mult)).failures
    witnesses = [f["witness"] for f in failures]
    assert witnesses == brute_assoc_failures(mult)
    assert any(w[1] == j for w in witnesses)
    for f in failures:
        assert (f["lhs"], f["rhs"]) == brute_assoc_sides(mult, *f["witness"])


@pytest.mark.parametrize("seed", range(4))
def test_sparse_modules_and_corners_fail_where_the_oracle_does(seed):
    # A of dimension 6-8 with few nonzeros and a null column; its module and
    # corner blocks just as sparse, over other denominators
    rng = random.Random(seed)
    n, m = rng.randint(6, 8), rng.randint(2, 4)
    mult = scattered(rng, n, n, n, n, q=2)
    with_a_null_column(rng, mult)
    a = Algebra("A", n, mult)
    u = ModuleAlgebra(Algebra("U", m, scattered(rng, m, m, m, m, q=5)),
                      BimoduleAction(n, m, scattered(rng, n, m, m, n, q=3),
                                     scattered(rng, m, n, m, n, q=3)))
    assert check_semidirect(a, u)
    nb = rng.randint(2, 3)
    b = Algebra("B", nb, scattered(rng, nb, nb, nb, nb))
    corner = CornerModule(n, nb, m, scattered(rng, n, m, m, n, q=5),
                          scattered(rng, m, nb, m, m, q=7))
    assert check_triangular(a, b, corner)


# Light's test: draw s shears LIGHT_BASES[s % 4] for the algebra law and MODULE_BASES[s % 4]
# for the regular module, whose factors pass validation before its laws are checked
LIGHT_BASES = (matrix_algebra(2), cyclic_group_algebra(5), cyclic_group_algebra(6),
               direct_sum_algebra(matrix_algebra(2), dual_numbers()))
MODULE_BASES = (dual_numbers(), upper_triangular_2(), matrix_algebra(2), cyclic_group_algebra(3))
LIGHT_DRAWS = 48


def perturb(rng, t):
    """Add a small rational to one entry of the dense table t in three draws of four."""
    if rng.random() < 0.75:
        t[rng.randrange(len(t))][rng.randrange(len(t[0]))][rng.randrange(len(t[0][0]))] += \
            Fraction(rng.choice((1, -1, 2)), rng.choice((1, 2, 3)))
    return t


def light_draw(seed):
    """A sheared table ``mult``, and a module U over A whose factors pass validation.

    U is the regular module of a base algebra with A and U sheared apart and
    one action constant perturbed in most draws.
    """
    rng = random.Random(seed)
    base = LIGHT_BASES[seed % 4]
    sheared = change_basis_algebra(base, elementary_matrices(rng, base.dim, steps=2))
    mult = perturb(rng, dense(sheared.mult, base.dim))
    base = MODULE_BASES[seed % 4]
    n = base.dim
    pa = elementary_matrices(rng, n, steps=2)
    regular = ModuleAlgebra(base, regular_action(base))
    reg = change_basis_module(regular, pa, elementary_matrices(rng, n, steps=2))
    actions = [dense(reg.action.left, n), dense(reg.action.right, n)]
    perturb(rng, rng.choice(actions))
    a = change_basis_algebra(base, pa)
    assert validate_algebra(a).ok and validate_algebra(reg.algebra).ok
    return mult, a, ModuleAlgebra(reg.algebra, BimoduleAction(n, n, *actions))


def light_disagreements(draws):
    """Yield each draw below ``draws`` where a validator's failing triples are not the oracle's."""
    for seed in range(draws):
        mult, a, u = light_draw(seed)
        found = [f["witness"] for f in validate_algebra(Algebra("T", len(mult), mult)).failures]
        total, offset = semidirect_total(a, u)
        module = triples(validate_module(u, a), offset, MODULE_LAWS)
        if found != brute_assoc_failures(mult) or sorted(module) != brute_assoc_failures(total):
            yield seed


def test_light_validation_reports_the_oracle_failures():
    assert list(light_disagreements(LIGHT_DRAWS)) == []


def test_validators_report_the_full_scan_dict_for_dict():
    """Each failure once, with the full scan's sides, in its order: a second pass included."""
    full, late = algebra._associativity, Counter()
    for mult, a, u in [(t_to_the_eighth_is_one(), None, None),
                       *(light_draw(seed) for seed in range(LIGHT_DRAWS))]:
        t = Algebra("T", len(mult), mult)
        report = validate_algebra(t)
        assert report.failures == full(report.subject, {"AAA": t.mult}, {"A": t.dim},
                                       algebra._ALGEBRA_LAWS).failures
        late["algebra"] += sum(f["witness"][1] not in generators(t) for f in report.failures)
        if a is not None:
            report = validate_module(u, a)
            assert report.failures == full(report.subject, semidirect_blocks(a, u),
                                           {"A": a.dim, "U": u.dim}, algebra._MODULE_LAWS).failures
            gens = {"A": generators(a), "U": generators(u.algebra)}
            late["module"] += sum(f["witness"][1] not in gens[MODULE_LAWS[f["axiom"]][1]]
                                  for f in report.failures)
    # failures at a non-generator middle, which only the second pass finds
    assert late["algebra"] and late["module"]


def scans(monkeypatch):
    """Record the ``mids`` of every associativity scan from here on (None: a full scan)."""
    calls, scan = [], algebra._associativity

    def counted(subject, blocks, dims, laws, mids=None):
        calls.append(mids)
        return scan(subject, blocks, dims, laws, mids)

    monkeypatch.setattr(algebra, "_associativity", counted)
    return calls


def t_to_the_eighth_is_one():
    """Q[t]/(t^5) with t^4 t^4 = 1: of its 12 failing triples, 10 have the middle t^2, t^3 or t^4."""
    mult = [[[int(i + j == k) for k in range(5)] for j in range(5)] for i in range(5)]
    mult[4][4][0] = 1
    return mult


def test_each_table_takes_the_scans_its_generators_allow(monkeypatch):
    calls = scans(monkeypatch)
    pa, rng = elementary_matrices(random.Random(6), 6), random.Random(7)
    a = change_basis_algebra(cyclic_group_algebra(6), pa)
    c6 = cyclic_group_algebra(6)
    u = change_basis_module(ModuleAlgebra(c6, regular_action(c6)), pa, elementary_matrices(rng, 6))
    gens = generators(a)
    assert validate_algebra(a).ok and calls == [{"A": gens}] and len(gens) < 6
    assert validate_algebra(u.algebra).ok
    calls.clear()
    assert validate_module(u, a).ok
    assert calls == [{"A": gens, "U": generators(u.algebra)}]
    # a table failing on its generator middles takes the same one call, which scans
    # the other middles too and reports the full list
    calls.clear()
    mult = t_to_the_eighth_is_one()
    bad = Algebra("P", 5, mult)
    witnesses = [f["witness"] for f in validate_algebra(bad).failures]
    assert calls == [{"A": (0, 1)}] and bad._valid is False
    assert witnesses == brute_assoc_failures(mult)
    assert sum(w[1] in (0, 1) for w in witnesses) == 2 and len(witnesses) == 12
    # every index a generator: the one scan is the full one
    calls.clear()
    assert validate_algebra(null_algebra(3)).ok and calls == [{"A": (0, 1, 2)}]


@pytest.mark.parametrize("seed", range(12))
def test_unvalidated_or_invalid_factors_take_one_full_module_scan(monkeypatch, seed):
    rng = random.Random(seed)
    n, m = rng.randint(1, 3), rng.randint(1, 3)
    a = Algebra("A", n, sparse(rng, n, n, n))
    u = ModuleAlgebra(Algebra("U", m, sparse(rng, m, m, m)),
                      BimoduleAction(n, m, sparse(rng, n, m, m), sparse(rng, m, n, m)))
    if seed % 2:  # validated, and one factor fails
        assert not (validate_algebra(a).ok and validate_algebra(u.algebra).ok)
    today = algebra._associativity("module U over A", semidirect_blocks(a, u),
                                   {"A": n, "U": m}, algebra._MODULE_LAWS).failures
    calls = scans(monkeypatch)
    assert validate_module(u, a).failures == today
    assert calls == [None]
