import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semih1.algebra import (
    Algebra,
    BimoduleAction,
    Character,
    ModuleAlgebra,
    annihilator_in_algebra,
    annihilator_in_module,
    center,
    hom_failure,
    is_sub_bimodule,
    regular_action,
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
from semih1.errors import NotHomomorphism, NotSubmodule, ShapeMismatch, ValidationFailed
from semih1.linalg import Matrix, Subspace
from semih1.products import alpha_iso, alpha_product, direct_product, theta_lau

from _oracle import brute_kernel, brute_rank, dense


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


def test_annihilators_reject_a_module_over_another_algebra():
    with pytest.raises(ShapeMismatch, match="module is not over the given algebra"):
        annihilator_in_algebra(field_q(), regular_action(matrix_algebra(2)))
    with pytest.raises(ShapeMismatch, match="module is not over the given algebra"):
        relative_annihilator(Subspace.zero(2), field_q(), regular_action(dual_numbers()))


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


def brute_actions(mult, v):
    """e_i v and v e_i for every basis element e_i, expanded from ``mult[i][j][k]``."""
    n = len(mult)
    return ([[sum(v[p] * mult[i][p][q] for p in range(n)) for q in range(n)] for i in range(n)]
            + [[sum(v[p] * mult[p][i][q] for p in range(n)) for q in range(n)] for i in range(n)])


def brute_closed(mult, vectors):
    """True when no action of a basis element raises the rank of ``vectors``."""
    rank = brute_rank(vectors)
    return all(brute_rank(vectors + [w]) == rank for v in vectors for w in brute_actions(mult, v))


def brute_generated(mult, vectors):
    """Vectors spanning the sub-bimodule that ``vectors`` generate."""
    gens = list(vectors)
    for v in gens:  # each generator appended here is acted on in turn
        for w in brute_actions(mult, v):
            if brute_rank(gens + [w]) > brute_rank(gens):
                gens.append(w)
    return gens


def brute_relative_annihilator(mult, vectors):
    """The rref basis of {a : a e_p and e_p a lie in span(vectors) for every p}.

    A vector lies in the span iff it pairs to zero with every vector k of
    ``brute_kernel(vectors)``, and the pairing of k with a e_p (e_p a) is
    linear in a.
    """
    n = len(mult)
    normals = brute_kernel(vectors, n)
    rows = [[sum(k[q] * mult[i][p][q] for q in range(n)) for i in range(n)]
            for p in range(n) for k in normals]
    rows += [[sum(k[q] * mult[p][i][q] for q in range(n)) for i in range(n)]
             for p in range(n) for k in normals]
    return brute_kernel(rows, n)


# over a unital algebra (N : A)_A = N whichever side is checked, so the two
# non-unital rings of first-row and first-column 2x2 matrices join in
FIRST_ROW = Algebra("row", 2, [[[1, 0], [0, 1]], [[0, 0], [0, 0]]])
FIRST_COLUMN = Algebra("column", 2, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])


@pytest.mark.parametrize(
    "a", [matrix_algebra(2), upper_triangular_2(), dual_numbers(), FIRST_ROW, FIRST_COLUMN],
    ids=lambda a: a.name)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sub_bimodules_and_relative_annihilators_match_a_brute_oracle(a, data):
    u, mult = regular_module(a), dense(a.mult, a.dim)
    # coordinates mostly zero, so that proper sub-bimodules of T2 and D come up
    coords = st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=a.dim, max_size=a.dim)
    vectors = data.draw(st.lists(coords, min_size=1, max_size=2))
    # the span of the drawn vectors, which need not be a sub-bimodule
    drawn, closed = Subspace.from_vectors(a.dim, vectors), brute_closed(mult, vectors)
    assert is_sub_bimodule(drawn, u.action) == closed
    if not closed:
        with pytest.raises(NotSubmodule):
            relative_annihilator(drawn, a, u)
    # the sub-bimodule N they generate
    gens = brute_generated(mult, vectors)
    n_space = Subspace.from_vectors(a.dim, gens)
    assert is_sub_bimodule(n_space, u.action)
    assert relative_annihilator(n_space, a, u).basis.data == brute_relative_annihilator(mult, gens)


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


def test_vectors_of_the_wrong_length_are_rejected():
    d = dual_numbers()
    assert d.product([0, 1], [1, 0]) == [0, 1]
    assert Character(d, [1, 0])([1, 2]) == 1
    for bad in ([1], [1, 0, 0]):
        with pytest.raises(ShapeMismatch):
            d.product(bad, bad)
        with pytest.raises(ShapeMismatch):
            d.product([1, 0], bad)
        with pytest.raises(ShapeMismatch):
            d.product(bad, [1, 0])
    with pytest.raises(ShapeMismatch):
        Character(d, [1, 0])([1, 2, 3])
    with pytest.raises(ShapeMismatch):
        Character(d, [1, 0])([1])


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
