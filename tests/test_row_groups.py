"""Row groups against dense Fraction rows written out here from their definition.

A :class:`~semih1.spaces.RowGroup` holds its rows as ints, scaled by the lcm
of its term denominators.  Groups whose tensors have rational entries of
height up to 10**40, next to a ``lands_in`` residual group, are checked
against rows this module builds term by term from the ``RowGroup``
docstring: ``solve`` must give ``brute_kernel`` of them, ``row`` must give
them exactly, and ``first_failure`` must give the first pair, in scan
order, at which direct Fraction evaluation finds a nonzero row.  Over
battery draws, each 3.1 group builds its rows at most once per product, and
solving ``cond31`` keeps none.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from semih1.families import random_product
from semih1.linalg import Subspace, unflatten
from semih1.spaces import LEFT, OUT, RIGHT, RowGroup, first_failure, lands_in, solve
from semih1.verify import space, split_blocks

from _oracle import brute_kernel, brute_rref

GROUPS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

ZERO = Fraction(0)
RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
HUGE = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))
ENTRIES = st.one_of(st.just(ZERO), RATIONALS, HUGE)


def cube(draw, outer, inner, depth):
    return draw(st.lists(st.lists(st.lists(ENTRIES, min_size=depth, max_size=depth),
                                  min_size=inner, max_size=inner),
                         min_size=outer, max_size=outer))


def slices(t):
    return [[tuple((k, c) for k, c in enumerate(vec) if c) for vec in slab] for slab in t]


@st.composite
def systems(draw):
    """(amb, [(group, dense rows by (x, y, k))]): a drawn group and a lands_in group.

    Both act on one side x side block D at ``place = (r0, c0, width)`` of a
    flat map with ``(r0 + side) * width`` coordinates.
    """
    side = draw(st.integers(1, 3))
    r0, c0 = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    width = c0 + side + draw(st.integers(0, 1))
    amb, place = (r0 + side) * width, (r0, c0, width)

    def at(r, s):
        return (r0 + r) * width + c0 + s

    dx, dy, dk = (draw(st.integers(1, side)) for _ in range(3))
    terms, dense = [], {}
    for _ in range(draw(st.integers(1, 3))):
        sign, shape = draw(st.sampled_from((1, -1))), draw(st.sampled_from((OUT, LEFT, RIGHT)))
        t = cube(draw, *{OUT: (dx, dy, side), LEFT: (side, dy, dk), RIGHT: (dx, side, dk)}[shape])
        terms.append((sign, shape, slices(t), place))
        for x in range(dx):
            for y in range(dy):
                for k in range(dk):
                    row = dense.setdefault((x, y, k), [ZERO] * amb)
                    for l in range(side):
                        if shape == OUT:      # sum_l t[x][y][l] D[l], coordinate k
                            row[at(l, k)] += sign * t[x][y][l]
                        elif shape == LEFT:   # sum_l D[x][l] t[l][y]
                            row[at(x, l)] += sign * t[l][y][k]
                        else:                 # sum_l t[x][l] D[y][l]
                            row[at(y, l)] += sign * t[x][l][k]
    group = RowGroup("drawn", (dx, dy, dk), terms, draw(st.booleans()))

    # lands_in: row (x, 0, k) is coordinate k of the residual of D[x] mod target
    vectors = draw(st.lists(st.lists(ENTRIES, min_size=side, max_size=side), max_size=2))
    basis, pivots = brute_rref(vectors, side)
    residual = [[Fraction(int(j == l)) for j in range(side)] for l in range(side)]
    for b, p in zip(basis, pivots):
        residual[p] = [e - v for e, v in zip(residual[p], b)]
    lx = draw(st.integers(1, side))
    lands = {}
    for x in range(lx):
        for k in range(side):
            row = lands[x, 0, k] = [ZERO] * amb
            for l in range(side):
                row[at(x, l)] += residual[l][k]
    target = Subspace.from_vectors(side, vectors)
    return amb, [(group, dense), (lands_in("in", target, place, lx), lands)]


def scan_order(group):
    dx, dy, _ = group.dims
    if group.y_major:
        return [(x, y) for y in range(dy) for x in range(dx)]
    return [(x, y) for x in range(dx) for y in range(dy)]


def first_nonzero_pair(group, dense, flat):
    """The first pair in scan order with a row (x, y, k) that is nonzero on ``flat``."""
    for x, y in scan_order(group):
        if any(sum(c * v for c, v in zip(dense[x, y, k], flat)) for k in range(group.dims[2])):
            return x, y
    return None


@GROUPS
@given(systems())
def test_solve_and_row_match_dense_fraction_rows(system):
    amb, pairs = system
    rows = [row for _, dense in pairs for row in dense.values()]
    assert solve(amb, *(g for g, _ in pairs)).basis.data == brute_kernel(rows, amb)
    for group, dense in pairs:
        for (x, y, k), row in dense.items():
            assert sorted(group.row(x, y, k)) == [(i, c) for i, c in enumerate(row) if c]


def kernel_element(data, rows, amb):
    """A drawn rational combination of the brute-force kernel basis of ``rows``."""
    kernel = brute_kernel(rows, amb)
    coeffs = data.draw(st.lists(RATIONALS, min_size=len(kernel), max_size=len(kernel)))
    return [sum((c * v[i] for c, v in zip(coeffs, kernel)), ZERO) for i in range(amb)]


@GROUPS
@given(systems(), st.data())
def test_first_failure_is_the_first_pair_fraction_evaluation_finds(system, data):
    amb, pairs = system
    inside = kernel_element(data, [row for _, dense in pairs for row in dense.values()], amb)
    nudged = list(inside)
    nudged[data.draw(st.integers(0, amb - 1))] += data.draw(st.one_of(RATIONALS, HUGE))
    drawn = data.draw(st.lists(ENTRIES, min_size=amb, max_size=amb))
    # a map on which the rows of the pairs before a drawn one vanish, so that
    # a pair past the first, in x-major or y-major order, fails first
    group, dense = pairs[0]
    order = scan_order(group)
    passing = order[:data.draw(st.integers(0, len(order) - 1))]
    partial = kernel_element(data, [row for key, row in dense.items() if key[:2] in passing], amb)
    for flat in (inside, nudged, drawn, partial):
        for group, dense in pairs:
            assert first_failure(group, flat) == first_nonzero_pair(group, dense, flat)
    assert all(first_failure(group, inside) is None for group, _ in pairs)


def test_each_3_1_group_builds_its_rows_once_per_product(monkeypatch):
    built = {}
    build = RowGroup._rows

    def counted(group):
        built[id(group)] = built.get(id(group), 0) + 1
        return build(group)

    monkeypatch.setattr(RowGroup, "_rows", counted)
    for draw in range(50):
        p, _ = random_product(random.Random(f"battery:1:{draw}"), 3)
        groups = space(p, "groups31")
        space(p, "cond31")
        assert all(g._kept is None for g in groups), "solve kept rows"
        built.clear()
        z1 = space(p, "z1_total")
        for row in z1.basis.data:
            assert split_blocks(unflatten(row, p.dim, p.dim), p).ok
        assert all(built.get(id(g), 0) == (1 if z1.dim else 0) for g in groups), p.name
