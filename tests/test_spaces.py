import random
from fractions import Fraction

import pytest

from semih1.algebra import (
    BimoduleAction,
    Character,
    ModuleAlgebra,
    regular_action,
)
from semih1.catalog import (
    cyclic_group_algebra,
    dual_numbers,
    field_q,
    matrix_algebra,
    null_algebra,
    upper_triangular_2,
)
from semih1.errors import NotADerivation, ShapeMismatch
from semih1.families import random_algebra_sample, random_module_sample
from semih1.linalg import Matrix, Subspace, frac, unflatten
from semih1.products import theta_lau
from semih1.spaces import (
    LEFT,
    OUT,
    RIGHT,
    RowGroup,
    c_space,
    derivation_space,
    first_failure,
    h1_dim,
    hom_space,
    i_space,
    inner_map,
    inner_space,
    inner_witness,
    kills,
    r_map,
    r_space,
    solve,
)

from _oracle import brute_h1_dim, brute_n1_dim, brute_z1_dim, dense


def test_unital_line_has_no_derivations():
    assert derivation_space(field_q(), regular_action(field_q())).dim == 0


def test_dual_numbers_derivations():
    d = dual_numbers()
    z = derivation_space(d, regular_action(d))
    assert z.dim == 1
    # the basis derivation sends 1 -> 0 and t -> t
    basis = unflatten(z.basis.data[0], 2, 2)
    assert basis.data[0] == [0, 0]
    assert basis.data[1][1] != 0 and basis.data[1][0] == 0


def test_matrix_algebra_derivations_all_inner():
    m2 = matrix_algebra(2)
    z = derivation_space(m2, regular_action(m2))
    nn = inner_space(m2, regular_action(m2))
    assert z.dim == 3  # frozen from the brute-force reference
    assert nn.dim == 3
    assert z == nn


def test_oracle_agreement_on_catalog():
    for a in (field_q(), dual_numbers(), matrix_algebra(2),
              upper_triangular_2(), cyclic_group_algebra(3), null_algebra(2)):
        reg, mult = regular_action(a), dense(a.mult, a.dim)
        assert derivation_space(a, reg).dim == brute_z1_dim(mult)
        assert inner_space(a, reg).dim == brute_n1_dim(mult)
        assert h1_dim(a) == brute_h1_dim(mult)


def test_oracle_agreement_on_random_modules():
    rng = random.Random(31)
    for _ in range(25):
        sample = random_algebra_sample(rng, 3)
        mod = random_module_sample(rng, sample, 3)
        a = sample.algebra
        act = mod.action
        z = derivation_space(a, act).dim
        nn = inner_space(a, act).dim
        tensors = (dense(a.mult, a.dim), dense(act.left, mod.dim), dense(act.right, mod.dim))
        assert z == brute_z1_dim(*tensors, mod.dim)
        assert nn == brute_n1_dim(*tensors, mod.dim)
        assert h1_dim(a, act) == z - nn


def test_known_h1_values():
    assert h1_dim(matrix_algebra(2)) == 0
    assert h1_dim(dual_numbers()) == 1
    assert h1_dim(field_q()) == 0
    assert h1_dim(upper_triangular_2()) == 0


def test_commutative_symmetric_action_has_no_inner_maps():
    q = field_q()
    p = theta_lau(q, null_algebra(2), Character(q, [1]))
    assert inner_space(q, p.part_u.action).dim == 0


def test_inner_space_matrix_algebra_dimension():
    # dim N1 = dim A - dim Z(A) = 4 - 1
    m2 = matrix_algebra(2)
    assert inner_space(m2, regular_action(m2)).dim == 3


@pytest.mark.parametrize("a, b", [(field_q(), matrix_algebra(2)), (matrix_algebra(2), field_q())],
                         ids=["module-over-bigger-algebra", "module-over-smaller-algebra"])
def test_inner_maps_need_a_module_over_the_algebra(a, b):
    # as derivation_space does: no IndexError, no space of the wrong shape
    m = regular_action(b)
    u = ModuleAlgebra(b, m)
    with pytest.raises(ShapeMismatch, match="not over the given algebra"):
        inner_space(a, m)
    with pytest.raises(ShapeMismatch, match="not over the given algebra"):
        inner_map([frac(1)] * m.module_dim, a, m)
    with pytest.raises(ShapeMismatch, match="not over the given algebra"):
        derivation_space(a, m)
    with pytest.raises(ShapeMismatch, match="not over the given algebra"):
        c_space(a, u)
    with pytest.raises(ShapeMismatch, match="not over the given algebra"):
        r_space(a, u)


def test_inner_map_of_zero_is_zero():
    m2 = matrix_algebra(2)
    assert inner_map([0, 0, 0, 0], m2, regular_action(m2)).is_zero()


def test_hom_space_trivial_actions_everything():
    a = dual_numbers()
    u = BimoduleAction.trivial(2, 2)
    v = BimoduleAction.trivial(2, 3)
    assert hom_space(a, u, v).dim == 6


def test_hom_space_regular_line_is_scalars():
    q = field_q()
    assert hom_space(q, regular_action(q), regular_action(q)).dim == 1


def test_hom_space_matrix_bimodule_endomorphisms_are_scalars():
    m2 = matrix_algebra(2)
    space = hom_space(m2, regular_action(m2), regular_action(m2))
    assert space.dim == 1
    assert space.contains(Matrix.identity(4).flatten())


def test_r_space_commutative_base_equals_c_space():
    d = dual_numbers()
    u = ModuleAlgebra(d, regular_action(d))
    assert r_space(d, u) == c_space(d, u)


def test_scaled_action_r_space_vanishes():
    q = field_q()
    p = theta_lau(q, dual_numbers(), Character(q, [1]))
    assert r_space(q, p.part_u).dim == 0
    assert c_space(q, p.part_u).dim == 0


def test_null_module_i_space_vanishes():
    t2 = upper_triangular_2()
    u = ModuleAlgebra(null_algebra(2), BimoduleAction.trivial(3, 2))
    assert i_space(t2, u).dim == 0
    assert inner_space(null_algebra(2), regular_action(null_algebra(2))).dim == 0


def test_r_map_values():
    m2 = matrix_algebra(2)
    u = ModuleAlgebra(m2, regular_action(m2))
    e12 = [0, 1, 0, 0]
    r = r_map(e12, u)
    # r(E11) = E11 E12 - E12 E11 = E12
    assert r.data[0] == [0, 1, 0, 0]
    # r(E22) = E22 E12 - E12 E22 = -E12
    assert r.data[3] == [0, -1, 0, 0]


def test_inner_witness_roundtrip_matrix_algebra():
    m2 = matrix_algebra(2)
    reg = regular_action(m2)
    e12 = [0, 1, 0, 0]
    d = inner_map(e12, m2, reg)
    x = inner_witness(d, m2, reg)
    assert x is not None
    assert inner_map(x, m2, reg) == d
    # the witness differs from E12 by a central element
    diff = [a - b for a, b in zip(x, e12)]
    from semih1.algebra import center
    assert center(m2).contains(diff)


def test_inner_witness_none_for_outer_derivation():
    d_alg = dual_numbers()
    z = derivation_space(d_alg, regular_action(d_alg))
    outer = unflatten(z.basis.data[0], 2, 2)
    assert inner_witness(outer, d_alg, regular_action(d_alg)) is None


def test_inner_witness_zero_map():
    q = field_q()
    x = inner_witness(Matrix.zeros(1, 1), q, regular_action(q))
    assert x == [0]


def test_inner_witness_rejects_non_derivation():
    d_alg = dual_numbers()
    with pytest.raises(NotADerivation):
        inner_witness(Matrix.identity(2), d_alg, regular_action(d_alg))


def test_degenerate_zero_dimensional_module():
    a = dual_numbers()
    act = BimoduleAction.trivial(2, 0)
    assert derivation_space(a, act).dim == 0
    assert inner_space(a, act).dim == 0
    assert h1_dim(a, act) == 0


def test_n1_contained_in_z1_fuzz():
    rng = random.Random(47)
    for _ in range(25):
        sample = random_algebra_sample(rng, 3)
        mod = random_module_sample(rng, sample, 3)
        z = derivation_space(sample.algebra, mod.action)
        nn = inner_space(sample.algebra, mod.action)
        assert z.contains_subspace(nn)


def test_row_group_terms_are_the_products_they_name():
    # a block D: T2 -> T2 placed at an offset inside a wider flattened map
    rng = random.Random(4)
    a = upper_triangular_2()
    n, width = a.dim, a.dim + 2
    grid = [[rng.randint(-2, 2) for _ in range(width)] for _ in range(n + 1)]
    d = Matrix([row[2:2 + n] for row in grid[1:]])
    flat = [frac(x) for row in grid for x in row]
    e = Matrix.identity(n).data
    direct = {OUT: lambda x, y: d.apply(dense(a.mult, n)[x][y]),
              LEFT: lambda x, y: a.product(d.data[x], e[y]),
              RIGHT: lambda x, y: a.product(e[x], d.data[y])}
    for shape, product in direct.items():
        group = RowGroup(shape, (n, n, n), [(1, shape, a.mult, (1, 2, width))])
        grid = group._grid()
        for x, y in group.pairs():
            rows = [Fraction(sum(c * flat[i] for i, c in grid[x][y].get(k, {}).items()),
                             group.scale) for k in range(n)]
            assert rows == product(x, y)


def test_kills_and_first_failure():
    a = upper_triangular_2()
    place = (0, 0, 3)
    # a unital algebra spans itself by products, so only D = 0 kills them all
    assert solve(9, kills("kills", a.mult, place, 3)).dim == 0
    d = Matrix([[1, 0, 0], [0, 0, 0], [0, 1, 1]])
    assert first_failure(kills("kills", a.mult, place, 3), d.flatten()) == (0, 0)
    assert first_failure(kills("kills", a.mult, place, 3), Matrix.zeros(3, 3).flatten()) is None
