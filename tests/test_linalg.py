import random
from fractions import Fraction

import pytest

from semih1.errors import DimensionMismatch
from semih1.families import random_matrix
from semih1.linalg import (
    Matrix,
    Subspace,
    _pairs,
    _solve_rows,
    frac,
    image,
    intersect,
    kernel,
    product_subspace,
    rref,
    subspace_sum,
    unflatten,
)

from _oracle import brute_rank


def M(rows):
    return Matrix(rows)


def test_frac_parses_exactly():
    assert frac("1/3") + frac("1/3") + frac("1/3") == 1
    assert frac("-7/2") == Fraction(-7, 2)
    assert frac(4) == 4


def test_rref_proportional_rows_collapse():
    assert rref(M([[2, 4], [1, 2]])).data == [[1, 2]]


def test_rref_identity_fixed_point():
    assert rref(Matrix.identity(3)) == Matrix.identity(3)


def test_rref_generic_2x2():
    # by hand: [[1,2],[3,4]] row-reduces to the identity
    assert rref(M([[1, 2], [3, 4]])) == Matrix.identity(2)


def test_rref_idempotent_and_pivots_increase():
    rng = random.Random(5)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        r = rref(m)
        assert rref(r) == r
        pivots = []
        for row in r.data:
            lead = next(j for j, x in enumerate(row) if x)
            assert row[lead] == 1
            pivots.append(lead)
        assert pivots == sorted(pivots)
        assert len(set(pivots)) == len(pivots)


def test_kernel_zero_map_is_everything():
    assert kernel(Matrix.zeros(2, 3)).dim == 3


def test_kernel_injective_map_is_trivial():
    assert kernel(Matrix.identity(4)).dim == 0


def test_kernel_single_constraint():
    s = kernel(M([[1, 1]]))
    assert s.basis.data == [[1, -1]]


def test_rank_nullity_fuzz():
    rng = random.Random(11)
    for _ in range(150):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        assert kernel(m).dim + image(m).dim == cols
        assert image(m).dim == brute_rank(m.data)


def test_sum_of_axes_spans_plane():
    e1 = Subspace.from_vectors(2, [[1, 0]])
    e2 = Subspace.from_vectors(2, [[0, 1]])
    assert subspace_sum(e1, e2) == Subspace.full(2)


def test_intersect_coordinate_planes():
    e = Matrix.identity(3).data
    a = Subspace.from_vectors(3, e[:2])
    b = Subspace.from_vectors(3, e[1:])
    meet = intersect(a, b)
    assert meet.basis.data == [[0, 1, 0]]


def test_dimension_mismatch_raised():
    with pytest.raises(DimensionMismatch):
        subspace_sum(Subspace.full(2), Subspace.full(3))
    with pytest.raises(DimensionMismatch):
        intersect(Subspace.full(2), Subspace.full(3))


def test_from_vectors_rejects_a_vector_of_another_length():
    for vectors in ([[1, 2, 3, 4]], [[1]], [[1, 0, 0], [0, 1]]):
        with pytest.raises(DimensionMismatch, match="vector length differs from ambient dimension"):
            Subspace.from_vectors(3, vectors)


def test_modular_law_fuzz():
    rng = random.Random(23)
    for _ in range(150):
        amb = rng.randint(1, 6)
        a = Subspace.from_vectors(
            amb, [random_matrix(rng, 1, amb).data[0] for _ in range(rng.randint(0, amb))])
        b = Subspace.from_vectors(
            amb, [random_matrix(rng, 1, amb).data[0] for _ in range(rng.randint(0, amb))])
        total = subspace_sum(a, b)
        meet = intersect(a, b)
        assert total.dim + meet.dim == a.dim + b.dim
        assert total == subspace_sum(b, a)
        assert meet == intersect(b, a)
        assert total.contains_subspace(a)
        assert a.contains_subspace(meet)


def test_subspace_equality_is_representation_free():
    a = Subspace.from_vectors(3, [[1, 1, 0], [0, 2, 2]])
    b = Subspace.from_vectors(3, [[2, 2, 0], [1, 3, 2]])
    assert a == b
    assert a.basis == b.basis


def test_contains_and_reduce():
    s = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 1]])
    assert s.contains([1, 1, 2])
    assert not s.contains([0, 0, 1])
    # the residual of (0, 0, 1) is (0, 0, 1): sparse, off the pivots 0 and 1
    assert s.reduce(_pairs([0, 0, Fraction(1)])) == ((2, Fraction(1)),)
    assert s.reduce([(2, Fraction(3)), (0, Fraction(1))]) == ((2, Fraction(2)),)
    for v in ([1, 1, 2], [0, 0, 1], [2, -1, 0]):
        assert s.contains(v) == (not s.reduce(_pairs(map(Fraction, v))))


def test_product_subspace_blocks():
    a = Subspace.from_vectors(2, [[1, 0]])
    b = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    prod = product_subspace(a, b)
    assert prod.ambient == 5
    assert prod.dim == 3
    assert prod.contains([1, 0, 0, 0, 0])
    assert prod.contains([0, 0, 0, 1, 1])
    assert not prod.contains([0, 1, 0, 0, 0])
    # any number of parts, each placed after the ones before it
    assert product_subspace() == Subspace.zero(0)
    assert product_subspace(b) == b
    assert product_subspace(a, product_subspace(), b) == prod
    assert product_subspace(a, b, a) == Subspace.from_vectors(
        7, [[1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 1, 0]])


def test_solve_rows_consistency():
    # column 2 holds the right-hand side
    rows = [[1, 2, 5], [3, 4, 11], [4, 6, 16]]
    x = _solve_rows([_pairs(row) for row in rows], 2)
    assert x is not None
    assert [sum(r * v for r, v in zip(row, x)) for row in rows] == [5, 11, 16]
    assert _solve_rows([_pairs([1, 1, 0]), _pairs([1, 1, 1])], 2) is None


def test_matrix_apply_and_flatten_roundtrip():
    m = M([[1, 2, 3], [4, 5, 6]])
    assert m.apply([1, 1]) == [5, 7, 9]
    assert unflatten(m.flatten(), 2, 3) == m


def test_sum_and_intersect_associative_fuzz():
    rng = random.Random(67)
    for _ in range(40):
        amb = rng.randint(1, 5)
        spans = []
        for _ in range(3):
            vecs = [random_matrix(rng, 1, amb).data[0]
                    for _ in range(rng.randint(0, amb))]
            spans.append(Subspace.from_vectors(amb, vecs))
        a, b, c = spans
        assert subspace_sum(subspace_sum(a, b), c) == subspace_sum(a, subspace_sum(b, c))
        assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


def test_rref_preserves_rank_and_row_space():
    rng = random.Random(71)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        r = rref(m)
        assert r.rows == image(m).dim
        assert Subspace.from_vectors(m.cols, m.data) == \
            Subspace.from_vectors(m.cols, r.data)
