"""The sparse elimination engine against a textbook Gauss-Jordan oracle.

``_rref_rows`` is the one elimination routine of the package; ``rref``,
``kernel``, ``kernel_of_rows``, ``solve_right``, ``Subspace.reduce``,
``catalog.invert`` and ``spaces.solve`` sit on it.  Each is checked here,
bit for bit, against ``brute_rref`` / ``brute_kernel`` / ``brute_rank`` of
``tests/_oracle.py`` on small integer and rational systems with duplicate
rows, zero rows and rows that cancel, plus two metamorphic invariants:
permuting the rows or scaling them by nonzero factors leaves the rref, and
the ``(rows, pivots)`` ``_rref_rows`` returns for int or Fraction rows, as
they are.  Entries of height up to 10**40 and rows with a huge common
content stress the integer rows the engine eliminates on.  Basis changes
with such entries must leave H1 of an algebra at its closed form.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semih1.algebra import Algebra
from semih1.catalog import change_basis_algebra, invert, matrix_algebra
from semih1.errors import ShapeMismatch
from semih1.linalg import (
    Matrix,
    Subspace,
    _rref_rows,
    kernel,
    kernel_of_rows,
    rref,
    solve_right,
)
from semih1.spaces import OUT, RowGroup, h1_dim, solve

from _oracle import brute_kernel, brute_rank, brute_rref

ENGINE = settings(max_examples=150, deadline=None, derandomize=True, database=None)

INTEGERS = st.integers(-3, 3).map(Fraction)
RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
HUGE = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))


def sparse(rows):
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


@st.composite
def systems(draw, max_rows=6, max_cols=6):
    """(cols, rows): small dense rows plus duplicates, zero rows, combinations and multiples.

    A multiple is a row times an integer up to 10**40, so its entries share
    that content.
    """
    entries = draw(st.sampled_from((INTEGERS, RATIONALS, HUGE)))
    cols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=max_rows))
    for kind in draw(st.lists(st.sampled_from(("duplicate", "zero", "combination",
                                               "multiple")), max_size=3)):
        if kind == "zero" or not rows:
            rows.append([Fraction(0)] * cols)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "multiple":
            f = draw(st.integers(2, 10**40))
            rows.append([f * x for x in draw(st.sampled_from(rows))])
        else:
            # a combination of earlier rows reduces to zero entry by entry
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f = draw(entries)
            rows.append([x + f * y for x, y in zip(a, b)])
    return cols, draw(st.permutations(rows))


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@ENGINE
@given(systems())
def test_rref_rows_is_gauss_jordan(system):
    cols, rows = system
    reduced, pivots = _rref_rows(sparse(rows), cols)
    assert (reduced, pivots) == brute_rref(rows, cols)
    assert len(pivots) == brute_rank(rows)
    assert all_fractions(reduced)


@ENGINE
@given(systems())
def test_rref_kernel_and_rank_match_the_oracle(system):
    cols, rows = system
    m = Matrix.from_rows(rows, cols=cols)
    assert rref(m).data == brute_rref(rows, cols)[0]
    assert m.rank() == brute_rank(rows)
    k = kernel(m)
    assert k.basis.data == brute_kernel(rows, cols)
    assert all_fractions(k.basis.data)
    assert kernel_of_rows(sparse(rows), cols) == k


@ENGINE
@given(systems(), st.data())
def test_rref_ignores_row_order_and_row_scale(system, data):
    cols, rows = system
    factors = data.draw(st.lists(RATIONALS.filter(bool), min_size=len(rows),
                                 max_size=len(rows)))
    scaled = [[f * x for x in row] for f, row in zip(factors, rows)]
    shuffled = data.draw(st.permutations(scaled))
    assert rref(Matrix.from_rows(shuffled, cols=cols)) == rref(Matrix.from_rows(rows, cols=cols))


@ENGINE
@given(systems(), st.data())
def test_rref_rows_output_ignores_row_order_and_row_scale(system, data):
    # the echelon form depends on the row order, the back-substituted rref must not;
    # integral rows go in as ints, as spaces.solve hands them over
    cols, rows = system
    factors = data.draw(st.lists(st.one_of(RATIONALS, HUGE).filter(bool), min_size=len(rows),
                                 max_size=len(rows)))
    scaled = [[int(y) if y.denominator == 1 else y for y in (f * x for x in row)]
              for f, row in zip(factors, rows)]
    shuffled = data.draw(st.permutations(scaled))
    reduced, pivots = _rref_rows(sparse(shuffled), cols)
    assert (reduced, pivots) == _rref_rows(sparse(rows), cols)
    assert all_fractions(reduced)


def test_empty_pair_lists_and_zero_columns():
    assert _rref_rows([], 3) == ([], [])
    assert _rref_rows([[], []], 3) == ([], [])
    assert _rref_rows([[], []], 0) == ([], [])
    assert kernel_of_rows([[], []], 2) == Subspace.full(2)
    assert kernel_of_rows([[]], 0).dim == 0
    assert kernel(Matrix.from_rows([[], []], cols=0)).dim == 0
    assert rref(Matrix.from_rows([[0, 0], [0, 0]])).rows == 0


def test_full_rank_reads_no_further_rows():
    dense = [[2, 1, 0], [0, 0, 0], [0, 3, 0], [1, 0, 0], [0, 0, 5], [1, 1, 1]]
    read = []

    def rows():
        for i, entries in enumerate(sparse([[Fraction(x) for x in row] for row in dense])):
            read.append(i)
            yield entries

    assert _rref_rows(rows(), 3) == brute_rref(dense, 3)
    assert read == [0, 1, 2, 3, 4]


def test_entries_that_cancel_during_elimination():
    # the third row is the sum of the first two, the fourth their difference
    # doubled: both reduce to nothing, entry by entry
    rows = [[1, 2, 0, 3], [0, -2, 1, 1], [1, 0, 1, 4], [2, 8, -2, 4]]
    assert _rref_rows(sparse([[Fraction(x) for x in r] for r in rows]), 4) == \
        brute_rref(rows, 4)
    assert _rref_rows(sparse([[Fraction(x) for x in r] for r in rows]), 4)[1] == [0, 1]


@ENGINE
@given(st.data())
def test_solve_merges_terms_that_share_a_coordinate(data):
    # two D(xy) terms on one block: wherever the tensors agree the terms
    # cancel, so rows come out shorter or empty
    d = data.draw(st.integers(1, 3))
    cell = st.lists(INTEGERS, min_size=d, max_size=d)
    first = data.draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=d, max_size=d))
    second = [[[x if data.draw(st.booleans()) else data.draw(INTEGERS) for x in vec]
               for vec in row] for row in first]
    place = (0, 0, d)
    terms = [(sign, OUT, Algebra(name, d, tensor).mult, place)
             for sign, name, tensor in ((1, "first", first), (-1, "second", second))]
    group = RowGroup("twice", (d, d, d), terms)
    dense = []
    for x in range(d):
        for y in range(d):
            for k in range(d):
                row = [Fraction(0)] * (d * d)
                for l in range(d):
                    row[l * d + k] += first[x][y][l] - second[x][y][l]
                dense.append(row)
    assert solve(d * d, group).basis.data == brute_kernel(dense, d * d)


@ENGINE
@given(systems(), st.data())
def test_reduce_leaves_a_residual_off_the_pivots(system, data):
    cols, rows = system
    space = Subspace.from_vectors(cols, rows)
    pivots = brute_rref(rows, cols)[1]
    assert space.pivot_columns() == pivots
    vec = data.draw(st.lists(RATIONALS, min_size=cols, max_size=cols))
    residual = space.reduce(vec)
    assert all(residual[p] == 0 for p in pivots)
    # vec - residual lies in the span, and vec does iff the residual is zero
    basis = space.basis.data
    assert brute_rank(basis + [[v - r for v, r in zip(vec, residual)]]) == space.dim
    assert (brute_rank(basis + [vec]) == space.dim) == (not any(residual))
    assert space.reduce(vec) == residual


@ENGINE
@given(systems(), st.data())
def test_solve_right_solves_or_detects_inconsistency(system, data):
    cols, rows = system
    rhs = data.draw(st.lists(INTEGERS, min_size=len(rows), max_size=len(rows)))
    m = Matrix.from_rows(rows, cols=cols)
    x = solve_right(m, rhs)
    augmented = [row + [b] for row, b in zip(rows, rhs)]
    if x is None:
        assert brute_rank(augmented) > brute_rank(rows)
    else:
        assert [sum(a * v for a, v in zip(row, x)) for row in rows] == rhs


@ENGINE
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(INTEGERS, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_invert_matches_rank(rows):
    n = len(rows)
    p = Matrix.from_rows(rows)
    if brute_rank(rows) < n:
        with pytest.raises(ShapeMismatch):
            invert(p)
    else:
        inv = invert(p)
        assert p @ inv == Matrix.identity(n) and inv @ p == Matrix.identity(n)


def truncated_polynomials(k):
    """Q[t]/(t^k) on the basis 1, t, ..., t^(k-1)."""
    return Algebra(f"Q[t]/t^{k}", k, [[[int(i + j == l) for l in range(k)] for j in range(k)]
                                       for i in range(k)])


def huge_basis_change(n):
    """A unitriangular basis change whose entries have height about 10**40."""
    return Matrix.from_rows([[Fraction(0)] * i + [Fraction(1)]
                             + [Fraction((-1) ** (i + j) * (10**40 + 7 * j), 10**39 + 3 * i + 1)
                                for j in range(i + 1, n)] for i in range(n)])


@pytest.mark.parametrize("algebra, h1", [(matrix_algebra(2), 0), (truncated_polynomials(4), 3)],
                         ids=["M2", "truncated4"])
def test_h1_survives_a_basis_change_with_huge_entries(algebra, h1):
    # H1(M_k) = 0 and H1(Q[t]/(t^k)) = k - 1 in every basis
    changed = change_basis_algebra(algebra, huge_basis_change(algebra.dim))
    assert max(c.denominator for row in changed.mult for sl in row for _, c in sl) > 10**30
    assert h1_dim(algebra) == h1_dim(changed) == h1
