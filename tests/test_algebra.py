import pytest

from semih1.algebra import (
    Algebra,
    BimoduleAction,
    Character,
    ModuleAlgebra,
    annihilator_in_algebra,
    annihilator_in_module,
    center,
    regular_module,
    relative_annihilator,
    span_of_products,
    validate_algebra,
    validate_character,
    validate_module,
)
from semih1.catalog import (
    cyclic_group_algebra,
    direct_sum_algebra,
    dual_numbers,
    field_q,
    matrix_algebra,
    null_algebra,
    upper_triangular_2,
)
from semih1.errors import NotSubmodule, ValidationFailed
from semih1.linalg import Subspace
from semih1.products import theta_lau

from _oracle import dense


def test_one_dim_idempotent_is_valid():
    assert validate_algebra(field_q()).ok


def test_one_dim_scaled_square_is_valid():
    # e*e = 2e: both associations of e(ee) and (ee)e equal 4e
    a = Algebra("S", 1, [[[2]]])
    assert validate_algebra(a).ok


def test_nonassociative_tensor_witnessed():
    # e0 e0 = e1, e0 e1 = e0: then (e0 e0) e0 = 0 while e0 (e0 e0) = e0
    a = Algebra("bad", 2, [
        [[0, 1], [1, 0]],
        [[0, 0], [0, 0]],
    ])
    report = validate_algebra(a)
    assert not report.ok
    assert report.failures[0]["witness"] == (0, 0, 0)
    with pytest.raises(ValidationFailed):
        report.raise_if_failed()


def test_catalog_algebras_are_associative():
    for a in (field_q(), dual_numbers(), matrix_algebra(2), null_algebra(3),
              cyclic_group_algebra(4), upper_triangular_2(),
              direct_sum_algebra(dual_numbers(), field_q())):
        assert validate_algebra(a).ok


def test_trivial_actions_always_validate():
    a = dual_numbers()
    u = ModuleAlgebra(matrix_algebra(2), BimoduleAction.trivial(2, 4))
    assert validate_module(u, a).ok


def test_scaled_action_validates():
    q = field_q()
    p = theta_lau(q, null_algebra(2), Character(q, [1]))
    assert validate_module(p.part_u, q).ok


def test_one_sided_regular_action_fails_compatibility():
    # left action = multiplication of the dual numbers on themselves,
    # right action zero: (x.a)y = 0 but x(a.y) = x(ay) can be nonzero
    d = dual_numbers()
    left = dense(d.mult, 2)
    zero = [[0, 0], [0, 0]]
    right = [[zero[0][:] for _ in range(2)] for _ in range(2)]
    right = [[[0, 0] for _ in range(2)] for _ in range(2)]
    u = ModuleAlgebra(Algebra("D'", 2, dense(d.mult, 2)), BimoduleAction(2, 2, left, right))
    report = validate_module(u, d)
    assert not report.ok
    assert any(f["axiom"] == "(x.a)y=x(a.y)" for f in report.failures)


def test_annihilator_trivial_action_is_everything():
    a = dual_numbers()
    u = ModuleAlgebra(field_q("U"), BimoduleAction.trivial(2, 1))
    assert annihilator_in_algebra(a, u) == Subspace.full(2)


def test_annihilator_scaled_action_is_character_kernel():
    qq = direct_sum_algebra(field_q("Q1"), field_q("Q2"))
    p = theta_lau(qq, null_algebra(1), Character(qq, [1, 0]))
    ann = annihilator_in_algebra(qq, p.part_u)
    assert ann.dim == 1
    assert ann.contains([0, 1])
    assert not ann.contains([1, 0])


def test_annihilator_matrix_regular_is_zero():
    m2 = matrix_algebra(2)
    assert annihilator_in_algebra(m2, regular_module(m2)).dim == 0
    assert annihilator_in_module(regular_module(m2)).dim == 0


def test_annihilator_in_null_module_is_everything():
    u = ModuleAlgebra(null_algebra(3), BimoduleAction.trivial(1, 3))
    assert annihilator_in_module(u) == Subspace.full(3)


def test_relative_annihilator_at_zero_matches_annihilator():
    m2 = matrix_algebra(2)
    u = regular_module(m2)
    rel = relative_annihilator(Subspace.zero(4), m2, u)
    assert rel == annihilator_in_algebra(m2, u)


def test_relative_annihilator_antitone():
    t2 = upper_triangular_2()
    u = regular_module(t2)
    small = Subspace.from_vectors(3, [[0, 1, 0]])       # the strict corner
    big = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    rel_small = relative_annihilator(small, t2, u)
    rel_big = relative_annihilator(big, t2, u)
    assert rel_big.contains_subspace(rel_small)


def test_relative_annihilator_rejects_non_submodule():
    m2 = matrix_algebra(2)
    u = regular_module(m2)
    not_module = Subspace.from_vectors(4, [[0, 1, 0, 0]])   # span{E12}
    with pytest.raises(NotSubmodule):
        relative_annihilator(not_module, m2, u)


def test_center_of_commutative_algebra_is_everything():
    assert center(dual_numbers()) == Subspace.full(2)


def test_center_of_matrix_algebra_is_scalars():
    c = center(matrix_algebra(2))
    assert c.dim == 1
    assert c.contains([1, 0, 0, 1])


def test_center_of_upper_triangular_is_scalars():
    c = center(upper_triangular_2())
    assert c.dim == 1
    assert c.contains([1, 0, 1])


def test_character_validation():
    q = field_q()
    assert validate_character(Character(q, [1]))
    qq = direct_sum_algebra(field_q("A"), field_q("B"))
    assert validate_character(Character(qq, [1, 0]))
    assert validate_character(Character(qq, [0, 1]))
    # (1,1) fails on the cross terms: t(e0 e1) = 0 but t(e0) t(e1) = 1
    assert not validate_character(Character(qq, [1, 1]))
    assert not validate_character(Character(qq, [0, 0]))
    assert not validate_character(Character(qq, [1, 2]))
    c2 = cyclic_group_algebra(2)
    assert validate_character(Character(c2, [1, 1]))
    assert validate_character(Character(c2, [1, -1]))


def test_span_of_products():
    assert span_of_products(matrix_algebra(2)).dim == 4
    assert span_of_products(null_algebra(2)).dim == 0
    assert span_of_products(dual_numbers()).dim == 2


def test_annihilator_is_an_ideal():
    # ann_A(U) is closed under multiplication by A on both sides
    qq = direct_sum_algebra(field_q("Q1"), dual_numbers())
    p = theta_lau(qq, null_algebra(2), Character(qq, [1, 0, 0]))
    ann = annihilator_in_algebra(qq, p.part_u)
    n = qq.dim
    for row in ann.basis.data:
        for i in range(n):
            ei = [1 if k == i else 0 for k in range(n)]
            assert ann.contains(qq.product(ei, row))
            assert ann.contains(qq.product(row, ei))


def test_split_base_with_full_span_forces_square_zero_module():
    # A = Q x Q acting through the two coordinate projections: the second
    # ideal kills U on the left, the first on the right, and the left span
    # is all of U.  Such an action coexists only with U^2 = 0: on any
    # algebra with a nonzero product the compatibility law (x.a)y = x(a.y)
    # breaks, so validation must reject it.
    from semih1.families import scaled_action

    qq = direct_sum_algebra(field_q("Q1"), field_q("Q2"))
    t1 = Character(qq, [1, 0])
    t2 = Character(qq, [0, 1])
    null_mod = ModuleAlgebra(null_algebra(2), scaled_action(qq, t1, t2, 2))
    assert validate_module(null_mod, qq).ok
    live = dual_numbers("U")
    bad = ModuleAlgebra(live, scaled_action(qq, t1, t2, 2))
    report = validate_module(bad, qq)
    assert not report.ok
    assert any(f["axiom"] == "(x.a)y=x(a.y)" for f in report.failures)
