import re

import pytest

from semih1.algebra import (
    Algebra,
    BimoduleAction,
    Character,
    CornerModule,
    ModuleAlgebra,
    annihilator_in_algebra,
    annihilator_in_module,
    center,
    hom_failure,
    regular_action,
    span_of_products,
    validate_algebra,
    validate_character,
    validate_corner,
    validate_module,
)
from semih1.catalog import (
    change_basis_algebra,
    change_basis_module,
    cyclic_group_algebra,
    direct_sum_algebra,
    dual_numbers,
    field_q,
    invert,
    matrix_algebra,
    null_algebra,
    upper_triangular_2,
)
from semih1.errors import NotHomomorphism, ShapeMismatch, ValidationFailed
from semih1.linalg import Matrix, Subspace, unflatten
from semih1.products import (
    alpha_iso,
    alpha_product,
    direct_product,
    module_extension,
    theta_lau,
)
from semih1.spaces import inner_map, leibniz_defect, r_map

from _oracle import brute_product, dense


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
    assert annihilator_in_algebra(a, u) == Subspace.from_vectors(2, Matrix.identity(2).data)


def test_annihilator_scaled_action_is_character_kernel():
    qq = direct_sum_algebra(field_q("Q1"), field_q("Q2"))
    p = theta_lau(qq, null_algebra(1), Character(qq, [1, 0]))
    ann = annihilator_in_algebra(qq, p.part_u)
    assert ann.dim == 1
    assert ann.contains([0, 1])
    assert not ann.contains([1, 0])


def test_annihilator_matrix_regular_is_zero():
    m2 = matrix_algebra(2)
    u = ModuleAlgebra(m2, regular_action(m2))
    assert annihilator_in_algebra(m2, u).dim == 0
    assert annihilator_in_module(u).dim == 0


def test_annihilator_in_null_module_is_everything():
    u = ModuleAlgebra(null_algebra(3), BimoduleAction.trivial(1, 3))
    assert annihilator_in_module(u) == Subspace.from_vectors(3, Matrix.identity(3).data)


def test_annihilators_reject_a_module_over_another_algebra():
    with pytest.raises(ShapeMismatch, match="module is not over the given algebra"):
        annihilator_in_algebra(field_q(), regular_action(matrix_algebra(2)))


def test_center_of_commutative_algebra_is_everything():
    assert center(dual_numbers()) == Subspace.from_vectors(2, Matrix.identity(2).data)


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


def test_vectors_of_the_wrong_length_are_rejected():
    d = dual_numbers()
    assert Character(d, [1, 0])([1, 2]) == 1
    with pytest.raises(ShapeMismatch):
        Character(d, [1, 0])([1, 2, 3])
    with pytest.raises(ShapeMismatch):
        Character(d, [1, 0])([1])


# one wrong size per ShapeMismatch raise site of the public API: (site, call, message)
_D, _Q = dual_numbers(), field_q()
WRONG_SIZES = [
    ("Algebra: slices", lambda: Algebra("X", 2, [[[1, 0], [0, 1]]]),
     "mult tensor of X: expected 2 slices, got 1"),
    ("BimoduleAction: rows", lambda: BimoduleAction(1, 2, [[[1, 0]]], [[[1, 0]], [[0, 1]]]),
     "left action[0]: expected 2 rows, got 1"),
    ("CornerModule: entries", lambda: CornerModule(1, 1, 1, [[[1]]], [[[1, 0]]]),
     "corner right action[0][0]: expected 1 entries"),
    ("ModuleAlgebra", lambda: ModuleAlgebra(_D, regular_action(_Q)),
     "action module dimension differs from algebra dimension"),
    ("Character", lambda: Character(_D, [1]), "character length differs from algebra dimension"),
    ("validate_corner", lambda: validate_corner(CornerModule(1, 1, 1, [[[1]]], [[[1]]]), _D, _Q),
     "corner module dimensions do not match the algebras"),
    ("validate_module", lambda: validate_module(ModuleAlgebra(_Q, regular_action(_Q)), _D),
     "action algebra dimension differs from base algebra"),
    ("invert", lambda: invert(Matrix([[1, 0]])), "only square matrices can be inverted"),
    ("change_basis_algebra", lambda: change_basis_algebra(_D, Matrix.identity(3)),
     "basis change must be square of the algebra dimension"),
    ("change_basis_module: U", lambda: change_basis_module(
        ModuleAlgebra(_D, regular_action(_D)), Matrix.identity(2), Matrix.identity(3)),
     "basis change must be square of the algebra dimension"),
    ("change_basis_module: A", lambda: change_basis_module(
        ModuleAlgebra(_D, regular_action(_D)), Matrix.identity(3), Matrix.identity(2)),
     "algebra basis change has the wrong shape"),
    ("Matrix: ragged", lambda: Matrix([[1, 2], [3]]), "expected 2x2 grid"),
    ("Matrix.from_rows: empty", lambda: Matrix.from_rows([]),
     "cannot infer width of an empty matrix"),
    ("Matrix @", lambda: Matrix.identity(2) @ Matrix.identity(3), "inner dimensions differ"),
    ("unflatten", lambda: unflatten([1, 2, 3], 2, 2), "expected 4 coordinates, got 3"),
    ("Subspace.contains", lambda: Subspace.from_vectors(2, [[1, 0]]).contains([1, 0, 0]),
     "vector length differs from ambient dimension"),
    ("Subspace.contains_subspace", lambda: Subspace.from_vectors(2, []).contains_subspace(
        Subspace.from_vectors(3, [])), "ambient dimensions differ"),
    ("module_extension", lambda: module_extension(_Q, regular_action(_D)),
     "action is not over the given algebra"),
    ("theta_lau", lambda: theta_lau(_Q, null_algebra(1), Character(_D, [1, 0])),
     "character is defined over a different algebra"),
    ("leibniz_defect", lambda: leibniz_defect(Matrix.identity(1), _D, regular_action(_D)),
     "candidate map has the wrong shape"),
    ("inner_map", lambda: inner_map([1], _D, regular_action(_D)),
     "module element has the wrong length"),
    ("r_map", lambda: r_map([1], ModuleAlgebra(_D, regular_action(_D))),
     "algebra element has the wrong length"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in WRONG_SIZES],
                         ids=[case[0] for case in WRONG_SIZES])
def test_every_size_check_raises_shape_mismatch(call, message):
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        call()


def _brute_hom_failures(f, a, b):
    """Every basis pair (i, j), i-major, where f(e_i e_j) != f(e_i) f(e_j), from dense lists."""
    am, bm = dense(a.mult, a.dim), dense(b.mult, b.dim)
    fails = []
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = [sum(am[i][j][k] * f[k][q] for k in range(a.dim)) for q in range(b.dim)]
            rhs = [sum(f[i][s] * f[j][t] * bm[s][t][q] for s in range(b.dim) for t in range(b.dim))
                   for q in range(b.dim)]
            if lhs != rhs:
                fails.append((i, j))
    return fails


def test_hom_failure_reports_the_first_pair_in_i_major_order():
    t2 = upper_triangular_2()
    u = Algebra("T2'", 3, dense(t2.mult, 3))
    # E11 -> E11, E12 -> 0, E22 -> E11 breaks E11 E22 = 0 and E22 E11 = 0 only
    f = [[1, 0, 0], [0, 0, 0], [1, 0, 0]]
    assert _brute_hom_failures(Matrix(f).data, t2, u) == [(0, 2), (2, 0)]
    assert hom_failure(Matrix(f), t2, u) == (0, 2)
    with pytest.raises(NotHomomorphism) as exc:
        alpha_product(t2, u, Matrix(f))
    assert str(exc.value) == "alpha(e0*e2) != alpha(e0)alpha(e2)"
    # 2 id sends e_i e_j to 2 e_i e_j, but f(e_i) f(e_j) = 4 e_i e_j
    m2 = matrix_algebra(2)
    twice = Matrix([[2 if p == q else 0 for q in range(4)] for p in range(4)])
    fails = _brute_hom_failures(twice.data, m2, m2)
    assert len(fails) == 8 and hom_failure(twice, m2, m2) == fails[0] == (0, 0)
    shear = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
    # j-major, (2, 1) would come first
    assert _brute_hom_failures(shear.data, m2, m2) == [(0, 2), (2, 1), (2, 2), (3, 2)]
    assert hom_failure(shear, m2, m2) == (0, 2)


def test_hom_failure_is_none_on_homomorphisms():
    t2 = upper_triangular_2()
    u = Algebra("T2'", 3, dense(t2.mult, 3))
    assert hom_failure(Matrix.identity(3), t2, u) is None
    assert hom_failure(Matrix.zeros(3, 3), t2, u) is None
    # the character E11 -> 1 into the scalars
    assert hom_failure(Matrix([[1], [0], [0]]), t2, field_q()) is None
    for alpha in (Matrix.zeros(3, 3), Matrix.identity(3)):
        iso = alpha_iso(t2, u, alpha)
        assert hom_failure(iso, direct_product(t2, u).total, alpha_product(t2, u, alpha).total) is None
    assert hom_failure(Matrix.zeros(0, 0), null_algebra(0), null_algebra(0)) is None


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
    mult = dense(qq.mult, n)
    for row in ann.basis.data:
        for i in range(n):
            ei = [1 if k == i else 0 for k in range(n)]
            assert ann.contains(brute_product(mult, ei, row))
            assert ann.contains(brute_product(mult, row, ei))


def test_split_base_with_full_span_forces_square_zero_module():
    # A = Q x Q acting through the two coordinate projections: the second
    # ideal kills U on the left, the first on the right, and the left span
    # is all of U.  Such an action coexists only with U^2 = 0: on any
    # algebra with a nonzero product the compatibility law (x.a)y = x(a.y)
    # breaks, so validation must reject it.
    from semih1.algebra import scaled_action

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
