"""The sparse elimination engine against a textbook Gauss-Jordan oracle.

``_rref_rows`` is the one elimination routine of the package; ``rref``,
``kernel``, ``kernel_of_rows``, ``_solve_rows``, ``Subspace.reduce``,
``catalog.invert`` and ``spaces.solve`` sit on it.  Each is checked here,
bit for bit, against ``brute_rref`` / ``brute_kernel`` / ``brute_rank`` of
``tests/_oracle.py`` on small integer and rational systems with duplicate
rows, zero rows and rows that cancel, plus two metamorphic invariants:
permuting the rows or scaling them by nonzero factors leaves the rref, and
the rref that ``_rref_rows`` returns for int or Fraction rows as they are,
its integer pivot rows divided out by ``_fractions`` into sparse rows, as
they are.  Every constructor of a ``Subspace`` must leave its ``rows`` in
that canonical sparse form, since equality compares them.  Entries of height up
to 10**40 and rows with a huge common content stress the integer rows the
engine eliminates on.  A kernel is one elimination, read off its mirrored
pivot rows; it is checked on wide sparse int rows as ``spaces.solve`` builds
them.  An all-int system enters the engine as owned int dicts and any other
as pairs: the int rows, the same rows as Fractions and rescaled give one
kernel, and a row mixing ints with a Fraction sends its system by pairs.
Basis changes with such entries must leave H1 of an algebra at its
closed form.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semih1 import linalg, verify
from semih1.algebra import (
    Algebra,
    ModuleAlgebra,
    annihilator_in_algebra,
    center,
    commutant_in_module,
    regular_action,
)
from semih1.catalog import change_basis_algebra, invert, matrix_algebra
from semih1.errors import ShapeMismatch
from semih1.linalg import (
    Matrix,
    Subspace,
    _fractions,
    _pairs,
    _rref_rows,
    _solve_rows,
    intersect,
    kernel,
    kernel_of_rows,
    product_subspace,
    rref,
    subspace_sum,
)
from semih1.products import semidirect
from semih1.spaces import OUT, RowGroup, c_space, h1_dim, i_space, solve

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


def sparse_rref(rows, cols):
    """``_rref_rows`` with its reduced integer rows divided out to sparse Fraction rows."""
    reduced, pivots = _rref_rows(rows, cols)
    return _fractions(reduced, pivots), pivots


def oracle_rref(rows, cols):
    """``brute_rref`` in the sparse form of ``_fractions``: a tuple of tuples of pairs."""
    dense, pivots = brute_rref(rows, cols)
    return tuple(tuple(row) for row in sparse(dense)), pivots


def sparse_fractions(rows):
    return all(type(x) is Fraction for row in rows for _, x in row)


@ENGINE
@given(systems())
def test_rref_rows_is_gauss_jordan(system):
    cols, rows = system
    reduced, pivots = sparse_rref(sparse(rows), cols)
    assert (reduced, pivots) == oracle_rref(rows, cols)
    assert len(pivots) == brute_rank(rows)
    assert sparse_fractions(reduced)


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
    reduced, pivots = sparse_rref(sparse(shuffled), cols)
    assert (reduced, pivots) == sparse_rref(sparse(rows), cols)
    assert sparse_fractions(reduced)


@ENGINE
@given(systems())
def test_rref_rows_returns_integer_pivot_rows(system):
    cols, rows = system
    reduced, pivots = _rref_rows(sparse(rows), cols)
    assert pivots == sorted(pivots)
    for row, p in zip(reduced, pivots):
        assert all(type(x) is int and x for x in row.values())
        assert row[p] > 0 and not any(c in row for c in pivots if c != p)


@st.composite
def int_constraints(draw, max_rows=10, max_cols=12):
    """(cols, rows): wide int rows of a few entries each, as ``spaces.solve`` hands them over."""
    cols = draw(st.integers(0, max_cols))
    if not cols:
        return cols, draw(st.lists(st.just([]), max_size=2))
    entry = st.one_of(st.integers(-9, 9), st.integers(-10**30, 10**30)).filter(bool)
    rows = draw(st.lists(st.dictionaries(st.integers(0, cols - 1), entry, max_size=3),
                         max_size=max_rows))
    return cols, [list(row.items()) for row in rows]


@ENGINE
@given(int_constraints())
def test_kernel_of_sparse_int_rows_matches_the_oracle(system):
    cols, rows = system
    dense = [[dict(row).get(j, 0) for j in range(cols)] for row in rows]
    basis = kernel_of_rows(rows, cols).basis.data
    assert basis == brute_kernel(dense, cols)
    assert all_fractions(basis)


def routes(rows, cols):
    """``kernel_of_rows(rows, cols)`` and the types of the rows its one elimination received."""
    seen, rref_rows = [], linalg._rref_rows

    def recorded(rows, cols):
        rows = list(rows)
        seen.extend(type(row) for row in rows)
        return rref_rows(rows, cols)

    linalg._rref_rows = recorded
    try:
        return kernel_of_rows(rows, cols), set(seen)
    finally:
        linalg._rref_rows = rref_rows


@ENGINE
@given(int_constraints(), st.data())
def test_int_fraction_and_scaled_rows_give_one_kernel(system, data):
    # an all-int system enters the engine as owned dicts, one with a Fraction as pairs;
    # the rref is unique, so the kernel is the same Subspace either way
    cols, rows = system
    factors = data.draw(st.lists(RATIONALS.filter(bool), min_size=len(rows),
                                 max_size=len(rows)))
    as_ints, int_route = routes(rows, cols)
    as_fractions, fraction_route = routes([[(j, Fraction(x)) for j, x in row]
                                           for row in rows], cols)
    scaled, scaled_route = routes([[(j, f * x) for j, x in row]
                                   for f, row in zip(factors, rows)], cols)
    assert as_ints == as_fractions == scaled
    assert int_route <= {dict}
    if any(rows):  # a system of empty rows holds no Fraction
        assert dict not in fraction_route | scaled_route
    dense = [[dict(row).get(j, 0) for j in range(cols)] for row in rows]
    assert as_ints.basis.data == brute_kernel(dense, cols)


@ENGINE
@given(int_constraints().filter(lambda system: system[0]), st.data())
def test_a_mixed_system_takes_the_fraction_route(system, data):
    cols, rows = system
    at = data.draw(st.integers(0, len(rows)))
    # one row of ints and one non-integral Fraction, in any position
    row = data.draw(st.dictionaries(st.integers(0, cols - 1), st.integers(-9, 9).filter(bool),
                                    min_size=1, max_size=4))
    odd = data.draw(st.sampled_from(sorted(row)))
    row[odd] = Fraction(data.draw(st.sampled_from((1, -3, 5))), 2)
    mixed = rows[:at] + [list(row.items())] + rows[at:]
    kernel_, route = routes(mixed, cols)
    assert dict not in route
    dense = [[dict(r).get(j, 0) for j in range(cols)] for r in mixed]
    assert kernel_.basis.data == brute_kernel(dense, cols)


def test_a_kernel_is_one_elimination(monkeypatch):
    seen = []

    def counted(rows, cols):
        seen.append(len(rows))
        return _rref_rows(rows, cols)

    monkeypatch.setattr(linalg, "_rref_rows", counted)
    cases = [([[1, 2, 0, 3], [0, -2, 1, 1], [1, 0, 1, 4]], 4), ([[0, 3, 0], [0, 0, 0]], 3),
             ([], 2), ([[1, 0], [0, 1]], 2)]
    for rows, cols in cases:
        seen.clear()
        assert kernel_of_rows(sparse(rows), cols).basis.data == brute_kernel(rows, cols)
        assert seen == [len(rows)]
    # H1 of an algebra: one kernel for Z1 and one span for N1
    seen.clear()
    assert h1_dim(truncated_polynomials(4)) == 3
    assert len(seen) == 2
    # every image of a kernel, an intersection included, is one system
    m2 = matrix_algebra(2)
    p = semidirect(m2, ModuleAlgebra(m2, regular_action(m2)))
    u, hom, z1 = p.part_u, verify.space(p, "hom_u"), verify.space(p, "z1_u")
    for name, compute in {"intersect": lambda: intersect(hom, z1),
                          "c_space": lambda: c_space(m2, u), "i_space": lambda: i_space(m2, u),
                          "center": lambda: center(m2),
                          "commutant_in_module": lambda: commutant_in_module(m2, u),
                          "annihilator_in_algebra": lambda: annihilator_in_algebra(m2, u),
                          "E": lambda: verify._image_over_kernel(p, ("delta1", "tau2"))}.items():
        seen.clear()
        compute()
        assert len(seen) == 1, name


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

    assert sparse_rref(rows(), 3) == oracle_rref(dense, 3)
    assert read == [0, 1, 2, 3, 4]


def test_entries_that_cancel_during_elimination():
    # the third row is the sum of the first two, the fourth their difference
    # doubled: both reduce to nothing, entry by entry
    rows = [[1, 2, 0, 3], [0, -2, 1, 1], [1, 0, 1, 4], [2, 8, -2, 4]]
    assert sparse_rref(sparse([[Fraction(x) for x in r] for r in rows]), 4) == \
        oracle_rref(rows, 4)
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


def assert_canonical(space, expected):
    """``space.rows`` is a canonical sparse rref, and ``space.basis`` the oracle's ``expected``."""
    rows = space.rows
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    pivots = {row[0][0] for row in rows}
    for row in rows:
        columns = [j for j, _ in row]
        assert row[0][1] == 1
        assert all(type(x) is Fraction and x for _, x in row)
        assert all(j < k for j, k in zip(columns, columns[1:]))
        assert not pivots.intersection(columns[1:])
    assert space.basis.data == expected


@ENGINE
@given(systems(), st.data())
def test_every_constructor_leaves_canonical_rows(system, data):
    cols, va = system
    vb = data.draw(st.lists(st.lists(RATIONALS, min_size=cols, max_size=cols), max_size=4))
    a, b = Subspace.from_vectors(cols, va), Subspace.from_vectors(cols, vb)
    assert_canonical(a, brute_rref(va, cols)[0])
    assert_canonical(b, brute_rref(vb, cols)[0])
    assert_canonical(kernel_of_rows(sparse(va), cols), brute_kernel(va, cols))
    assert_canonical(subspace_sum(a, b), brute_rref(va + vb, cols)[0])
    # over Q the meet of two spans is the annihilator of the sum of their annihilators
    meet = brute_kernel(brute_kernel(va, cols) + brute_kernel(vb, cols), cols)
    assert_canonical(intersect(a, b), meet)
    pad = [Fraction(0)] * cols
    stacked = [list(v) + pad for v in va] + [pad + list(v) for v in vb]
    assert_canonical(product_subspace(a, b), brute_rref(stacked, 2 * cols)[0])
    assert_canonical(Subspace.zero(cols), [])
    identity = [[Fraction(int(i == j)) for j in range(cols)] for i in range(cols)]
    assert_canonical(Subspace.full(cols), brute_rref(identity, cols)[0])


@ENGINE
@given(systems(), st.data())
def test_reduce_leaves_a_residual_off_the_pivots(system, data):
    cols, rows = system
    space = Subspace.from_vectors(cols, rows)
    pivots = brute_rref(rows, cols)[1]
    assert [row[0][0] for row in space.rows] == pivots
    vec = data.draw(st.lists(RATIONALS, min_size=cols, max_size=cols))
    residual = space.reduce(_pairs(vec))
    # sparse: nonzero pairs in strictly increasing column order, none at a pivot
    columns = [j for j, _ in residual]
    assert columns == sorted(set(columns)) and all(x for _, x in residual)
    assert not set(columns) & set(pivots)
    # vec - residual lies in the span, and vec does iff the residual is empty
    basis, rest = space.basis.data, dict(residual)
    assert brute_rank(basis + [[v - rest.get(j, 0) for j, v in enumerate(vec)]]) == space.dim
    assert (brute_rank(basis + [vec]) == space.dim) == (not residual)
    assert space.contains(vec) == (not space.reduce(_pairs(vec)))
    assert space.reduce(_pairs(vec)) == residual


@ENGINE
@given(systems(), st.data())
def test_solve_rows_solves_or_detects_inconsistency(system, data):
    cols, rows = system
    rhs = data.draw(st.lists(INTEGERS, min_size=len(rows), max_size=len(rows)))
    augmented = [row + [b] for row, b in zip(rows, rhs)]
    x = _solve_rows([_pairs(row) for row in augmented], cols)
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
