import random

import pytest

import semih1.algebra
import semih1.products

from semih1.algebra import (
    Algebra,
    BimoduleAction,
    Character,
    CornerModule,
    ModuleAlgebra,
    annihilator_in_algebra,
    regular_action,
    scaled_action,
    validate_algebra,
    validate_module,
)
from semih1.catalog import (
    direct_sum_algebra,
    dual_numbers,
    field_q,
    matrix_algebra,
    null_algebra,
    upper_triangular_2,
)
from semih1.errors import NotHomomorphism, ValidationFailed
from semih1.families import random_product
from semih1.linalg import Matrix
from semih1.products import (
    alpha_iso,
    alpha_product,
    direct_product,
    fixture_nonzero_tau1,
    module_extension,
    semidirect,
    theta_lau,
    triangular,
    unitization,
)

from _oracle import brute_product, brute_vector_times, dense


def algebras_equal(a, b):
    return a.dim == b.dim and dense(a.mult, a.dim) == dense(b.mult, b.dim)


def test_semidirect_trivial_everything():
    q = field_q()
    u = ModuleAlgebra(null_algebra(1), BimoduleAction.trivial(1, 1))
    p = semidirect(q, u)
    # (a,x)(b,y) = (ab, 0)
    mult = dense(p.total.mult, p.dim)
    assert mult[0][0] == [1, 0]
    assert mult[0][1] == [0, 0]
    assert mult[1][0] == [0, 0]
    assert mult[1][1] == [0, 0]


def test_unitization_of_null_line_is_dual_numbers():
    p = unitization(null_algebra(1))
    assert algebras_equal(p.total, dual_numbers())


def test_semidirect_regular_action_equals_alpha_identity():
    q = field_q()
    ap = alpha_product(q, field_q("Q'"), Matrix([[1]]))
    # (a,x)(b,y) = (ab, ay + xb + xy)
    mult = dense(ap.total.mult, ap.dim)
    assert mult[0][0] == [1, 0]
    assert mult[0][1] == [0, 1]
    assert mult[1][0] == [0, 1]
    assert mult[1][1] == [0, 1]


def test_semidirect_rejects_invalid_module():
    d = dual_numbers()
    left = dense(d.mult, 2)
    right = [[[0, 0] for _ in range(2)] for _ in range(2)]
    bad = ModuleAlgebra(Algebra("D'", 2, dense(d.mult, 2)), BimoduleAction(2, 2, left, right))
    with pytest.raises(ValidationFailed):
        semidirect(d, bad)


def test_module_extension_rejects_a_broken_bimodule_law():
    # e.u = 2u over Q: (ee).u = 2u but e.(e.u) = 4u
    action = BimoduleAction(1, 1, [[[2]]], [[[0]]])
    with pytest.raises(ValidationFailed) as err:
        module_extension(field_q(), action)
    assert "(ab)x=a(bx)" in str(err.value)


def test_triangular_rejects_a_bad_corner():
    # the left action e.m = 2m breaks (aa')m = a(a'm)
    corner = CornerModule(1, 1, 1, [[[2]]], [[[1]]])
    with pytest.raises(ValidationFailed) as err:
        triangular(field_q("A"), field_q("B"), corner)
    assert "(aa')m=a(a'm)" in str(err.value)
    assert str(err.value) == err.value.report.describe()


def test_alpha_product_rejects_a_non_associative_target():
    # U = span(x, y) with xx = x, yy = x and xy = yx = 0: (xy)y = 0 but
    # x(yy) = x, so alpha(e) = x is multiplicative but (a.x)y = a.(xy) fails
    u = Algebra("U", 2, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
    assert not validate_algebra(u).ok
    with pytest.raises(ValidationFailed) as err:
        alpha_product(field_q(), u, Matrix([[1, 0]]))
    assert "(a.x)y=a.(xy)" in str(err.value)


def test_direct_product_componentwise():
    p = direct_product(field_q(), field_q("Q'"))
    mult = dense(p.total.mult, p.dim)
    assert mult[0][0] == [1, 0]
    assert mult[1][1] == [0, 1]
    assert mult[0][1] == [0, 0]
    assert mult[1][0] == [0, 0]
    assert p.action_is_trivial()


def test_direct_product_with_matrix_block():
    p = direct_product(matrix_algebra(2), field_q())
    assert p.dim == 5
    assert validate_algebra(p.total).ok


def test_direct_product_with_zero_dim_factor():
    p = direct_product(dual_numbers(), null_algebra(0))
    assert p.dim == 2
    assert algebras_equal(p.total, dual_numbers())


def test_module_extension_kills_u_products():
    p = module_extension(field_q(), regular_action(field_q()))
    assert p.u_square_is_zero()
    assert algebras_equal(p.total, dual_numbers())


def test_module_extension_of_zero_module():
    a = dual_numbers()
    p = module_extension(a, BimoduleAction.trivial(2, 0))
    assert algebras_equal(p.total, a)


def test_triangular_scalar_corner_is_upper_triangular():
    corner = CornerModule(1, 1, 1, [[[1]]], [[[1]]])
    p = triangular(field_q("A"), field_q("B"), corner)
    # basis order: (A, B, M); the upper-triangular algebra lists (E11, E12, E22)
    t2 = upper_triangular_2()
    perm = [0, 2, 1]  # E11 -> A, E12 -> M, E22 -> B
    t2_mult, mult = dense(t2.mult, 3), dense(p.total.mult, 3)
    for i in range(3):
        for j in range(3):
            expected = t2_mult[i][j]
            got = mult[perm[i]][perm[j]]
            assert [got[perm[k]] for k in range(3)] == expected


def test_triangular_zero_corner_is_direct_product():
    corner = CornerModule(1, 1, 0, [[] for _ in range(1)], [])
    p = triangular(field_q("A"), field_q("B"), corner)
    dp = direct_product(field_q("A"), field_q("B"))
    assert algebras_equal(p.total, dp.total)


def test_triangular_matrix_column_corner():
    m2 = matrix_algebra(2)
    # M = Q^2 as column vectors: E_ij . e_p = [j == p] e_i, right action scalar
    left = []
    for i in range(2):
        for j in range(2):
            left.append([[1 if (j == p and q == i) else 0 for q in range(2)]
                         for p in range(2)])
    right = [[[1 if q == p else 0 for q in range(2)]] for p in range(2)]
    corner = CornerModule(4, 1, 2, left, right)
    p = triangular(m2, field_q("B"), corner)
    assert p.dim == 7
    assert validate_algebra(p.total).ok
    assert p.u_square_is_zero()


def test_theta_lau_multiplication_shape():
    qq = direct_sum_algebra(field_q("Q1"), field_q("Q2"))
    p = theta_lau(qq, null_algebra(1), Character(qq, [1, 0]))
    assert p.dim == 3
    # (a,x)(b,y) = (ab, t(a)y + t(b)x)
    mult = dense(p.total.mult, p.dim)
    assert mult[0][2] == [0, 0, 1]
    assert mult[2][0] == [0, 0, 1]
    assert mult[1][2] == [0, 0, 0]
    ann = annihilator_in_algebra(qq, p.part_u)
    assert ann.dim == 1 and ann.contains([0, 1])


def test_theta_lau_rejects_zero_character():
    with pytest.raises(ValidationFailed, match="^character must be nonzero and multiplicative$"):
        theta_lau(field_q(), null_algebra(1), Character(field_q(), [0]))


def test_unitization_via_scaled_action():
    p = unitization(matrix_algebra(2))
    assert p.dim == 5
    assert p.character is not None
    assert validate_algebra(p.total).ok


def test_alpha_product_zero_map_is_direct_product():
    m2 = matrix_algebra(2)
    ap = alpha_product(m2, matrix_algebra(2, "M2'"), Matrix.zeros(4, 4))
    dp = direct_product(m2, matrix_algebra(2, "M2'"))
    assert algebras_equal(ap.total, dp.total)


def test_alpha_product_rejects_non_homomorphism():
    q = field_q()
    with pytest.raises(NotHomomorphism):
        alpha_product(q, field_q("Q'"), Matrix([[2]]))  # 2 is not idempotent


def test_alpha_iso_transports_multiplication():
    for a, u in ((field_q(), field_q("Q'")),
                 (matrix_algebra(2), matrix_algebra(2, "M2'"))):
        alpha = Matrix.identity(a.dim)
        ap = alpha_product(a, u, alpha)
        dp = direct_product(a, u)
        iso = alpha_iso(a, u, alpha)
        t = ap.dim
        assert iso.rank() == t
        dp_mult, ap_mult = dense(dp.total.mult, t), dense(ap.total.mult, t)
        for i in range(t):
            for j in range(t):
                lhs = brute_vector_times(dp_mult[i][j], iso.data)
                rhs = brute_product(ap_mult, iso.data[i], iso.data[j])
                assert lhs == rhs


def test_block_laws_on_all_constructions():
    # on every construction: A-block closed, U-block an ideal, quotient
    # reproduces the A structure constants
    qq = direct_sum_algebra(field_q("Q1"), field_q("Q2"))
    samples = [
        direct_product(dual_numbers(), matrix_algebra(2)),
        module_extension(dual_numbers(), regular_action(dual_numbers())),
        theta_lau(qq, dual_numbers(), Character(qq, [1, 0])),
        unitization(upper_triangular_2()),
        alpha_product(field_q(), field_q("Q'"), Matrix([[1]])),
    ]
    for p in samples:
        assert validate_algebra(p.total).ok
        n, t = p.n, p.dim
        mult, a_mult = dense(p.total.mult, t), dense(p.part_a.mult, n)
        for i in range(t):
            for j in range(t):
                row = mult[i][j]
                if i < n and j < n:
                    assert row[:n] == a_mult[i][j]
                    assert not any(row[n:])
                else:
                    assert not any(row[:n])


def test_commutativity_criterion():
    q = field_q()
    sym = theta_lau(q, null_algebra(2), Character(q, [1]))
    assert sym.total.is_commutative()
    noncomm = direct_product(matrix_algebra(2), field_q())
    assert not noncomm.total.is_commutative()


def test_fixture_nonzero_tau1_scalar_base():
    p, d = fixture_nonzero_tau1(field_q())
    assert p.dim == 3
    from semih1.verify import is_derivation_via_3_1, split_blocks
    bd = split_blocks(d, p)
    assert bd.ok
    assert bd.tau1 != Matrix.zeros(bd.tau1.rows, bd.tau1.cols)


def test_fixture_nonzero_tau1_degenerate_base():
    p, d = fixture_nonzero_tau1(null_algebra(0))
    assert p.dim == 0
    assert d == Matrix.zeros(d.rows, d.cols)


def test_fixture_nonzero_tau1_matrix_base():
    p, d = fixture_nonzero_tau1(matrix_algebra(2))
    assert p.dim == 12
    from semih1.verify import is_derivation_via_3_1
    assert is_derivation_via_3_1(d, p)


def test_sampled_triangular_draws_validate_each_corner_once(monkeypatch):
    # the sampler's corners act through two characters: each is checked once, and passes
    checked = []
    check = semih1.products.validate_corner
    monkeypatch.setattr(semih1.products, "validate_corner",
                        lambda m, *over: checked.append((m, check(m, *over))) or checked[-1][1])
    kinds = [random_product(random.Random(seed), 3)[0].kind for seed in range(200)]
    assert kinds.count("triangular") > 10
    assert len(checked) == kinds.count("triangular")
    assert len({id(m) for m, _ in checked}) == len(checked)
    assert all(report.ok for _, report in checked)


def _scans(monkeypatch):
    """The subjects of every law scan from here on: each validation is one scan."""
    subjects, scan = [], semih1.algebra._associativity
    monkeypatch.setattr(semih1.algebra, "_associativity",
                        lambda subject, *rest: subjects.append(subject) or scan(subject, *rest))
    return subjects


def _regular_module(a):
    return ModuleAlgebra(Algebra(a.name + "'", a.dim, dense(a.mult, a.dim)), regular_action(a))


def test_semidirect_validates_a_module_once(monkeypatch):
    scans, d = _scans(monkeypatch), dual_numbers()
    u = _regular_module(d)
    first, second = semidirect(d, u), semidirect(d, u)
    assert scans == ["module D' over D"]
    assert algebras_equal(first.total, second.total)
    # a pass over one algebra says nothing about another with the same table
    semidirect(dual_numbers(), u)
    assert len(scans) == 2


def test_a_failing_module_raises_on_every_call(monkeypatch):
    scans, d = _scans(monkeypatch), dual_numbers()
    # D acting on the left alone: (x.a)y = 0 but x(a.y) = xay
    right = [[[0, 0] for _ in range(2)] for _ in range(2)]
    bad = ModuleAlgebra(Algebra("D'", 2, dense(d.mult, 2)),
                        BimoduleAction(2, 2, dense(d.mult, 2), right))
    reports = []
    for _ in range(3):
        with pytest.raises(ValidationFailed) as err:
            semidirect(d, bad)
        reports.append(err.value.report.failures)
    assert len(scans) == 3 and reports[0] and reports.count(reports[0]) == 3
    assert bad._valid_over is None and bad.action._valid_over is None


@pytest.mark.parametrize("make", [
    _regular_module,
    # a scaled action on a U with a product of its own: t(1) = 1, t(e) = 0 on D
    lambda a: ModuleAlgebra(dual_numbers(), scaled_action(a, *[Character(a, [1, 0])] * 2, 2)),
], ids=["regular", "scaled"])
def test_module_extension_reads_the_pass_of_any_module_on_its_action(make, monkeypatch):
    d = dual_numbers()
    u = make(d)
    expected = module_extension(dual_numbers(), u.action).total  # over a copy of D: checked
    assert validate_module(u, d).ok
    scans = _scans(monkeypatch)
    p = module_extension(d, u.action)
    assert scans == [] and algebras_equal(p.total, expected)
    module_extension(dual_numbers(), u.action)
    assert len(scans) == 1


def test_a_corner_pass_holds_only_for_its_pair(monkeypatch):
    scans = _scans(monkeypatch)
    a, b = field_q("A"), field_q("B")
    corner = CornerModule(1, 1, 1, [[[1]]], [[[1]]])
    triangular(a, b, corner)
    triangular(a, b, corner)
    assert len(scans) == 1
    for pair in ((a, field_q("B")), (field_q("A"), b), (b, a)):
        triangular(*pair, corner)
    assert len(scans) == 4


def test_sampled_twin_algebras_keep_the_base_regular_action():
    # a regular-kind module's U and an alpha product's U are twins of A over
    # A's table; each keeps A's regular action, so U's commutator rows are A's
    twins = set()
    for seed in range(200):
        p, _ = random_product(random.Random(seed), 3)
        a, u = p.part_a, p.part_u.algebra
        if u is not a and u.mult is a.mult:
            twins.add(p.kind)
            assert regular_action(u) is regular_action(a)
    assert twins == {"semidirect", "alpha"}
