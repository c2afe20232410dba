"""Each distinct constraint row once, checked against every row the group builds.

A group's kept rows and the rows :func:`~semih1.spaces.solve` eliminates
skip repeats.  The oracles here read every row ``(x, y, k)`` from the
group's one pass over its terms (``RowGroup._grid``), before the skipping
scan, and check over 300 draws, on the 3.1 groups, the Leibniz group of
the total algebra, the bimodule-hom groups of U and the pairing groups, that

* ``solve`` gives the kernel of all of them;
* ``first_failure`` gives the first pair, in scan order, with a row that is
  nonzero on a map: small random int maps and every basis map of the kernel,
  on which no group fails.

The engine reduces only rows it owns: solving the same groups twice gives
one kernel and leaves every kept row as it was, and rows a caller keeps
come back from ``_rref_rows`` and ``kernel_of_rows`` unchanged.

The count pins say how much the skip saves: no group and no ``solve`` call
hands on a row twice, and the Leibniz systems of T(M3) and T(M4), on every
pair, shrink from 3,105 and 14,432 rows to 1,155 and 4,176.  Cut to the
generator rows (6 generators of 18 and 8 of 32), they hand on 671 and 2,178.

"300 draws" are ``random_product(random.Random(12345), 3)`` drawn 300 times.
"""

import copy
import random
from fractions import Fraction
from functools import cache

import pytest

from semih1 import spaces
from semih1.algebra import regular_action
from semih1.catalog import matrix_algebra
from semih1.families import random_product
from semih1.linalg import _rref_rows, _vector, kernel_of_rows
from semih1.products import module_extension
from semih1.spaces import RowGroup, bimodule_hom, first_failure, leibniz, pairing_groups, solve
from semih1.verify import space


@cache
def _draws():
    rng = random.Random(12345)
    return tuple(random_product(rng, 3)[0] for _ in range(300))


@cache
def _systems(p):
    """(ambient, groups) of the four systems of a product."""
    t, act = p.dim, p.part_u.action
    return [
        (t * t, space(p, "groups31")),
        (t * t, (leibniz("leibniz", p.total, regular_action(p.total), (0, 0, t)),)),
        (p.m * p.m, bimodule_hom(p.n, act, act, (0, 0, p.m))),
        (p.m * p.n, pairing_groups(p.part_a, act)),
    ]


def _every_row(group):
    """(x, y) -> [row (x, y, k) for each k reached], its int entries as built by the pass."""
    grid = group._grid()
    return {(x, y): [[(i, c) for i, c in row.items() if c] for row in grid[x][y].values()]
            for x, y in group.pairs()}


def _naive_failure(rows, flat):
    return next((pair for pair, ks in rows.items()
                 if any(sum(c * flat[i] for i, c in row) for row in ks)), None)


def test_solve_and_first_failure_match_rows_built_one_by_one():
    rng = random.Random(7)
    for p in _draws():
        for amb, groups in _systems(p):
            every = [_every_row(g) for g in groups]
            kernel = solve(amb, *groups)
            assert kernel == kernel_of_rows(
                [row for rows in every for ks in rows.values() for row in ks if row], amb), p.name
            flats = [[rng.randint(-2, 2) for _ in range(amb)] for _ in range(2)]
            basis = [_vector(row, amb) for row in kernel.rows]
            for g, rows in zip(groups, every):
                for flat in flats:
                    assert first_failure(g, flat) == _naive_failure(rows, flat), (p.name, g.name)
                assert all(first_failure(g, flat) is None for flat in basis), (p.name, g.name)


def test_no_group_and_no_solve_hands_on_a_row_twice(monkeypatch):
    handed, build = [], RowGroup._rows

    def recorded(group):
        rows = list(build(group))
        assert len({row for _, row in rows}) == len(rows), group.name
        return rows

    monkeypatch.setattr(RowGroup, "_rows", recorded)
    monkeypatch.setattr(spaces, "kernel_of_rows", lambda rows, cols: handed.append(rows))
    for p in _draws():
        for amb, groups in _systems(p):
            handed.clear()
            solve(amb, *groups)
            assert len(set(handed[0])) == len(handed[0]), p.name


def test_the_engine_mutates_no_row_it_does_not_own():
    # kernel_of_rows hands the engine fresh rows; the engine may reduce only those
    for p in _draws():
        for amb, groups in _systems(p):
            before = [copy.deepcopy(g.kept()) for g in groups]
            assert solve(amb, *groups) == solve(amb, *groups), p.name
            assert [g.kept() for g in groups] == before, p.name
    # kernel_of_rows takes int rows only; _rref_rows takes Fraction pairs too
    ints = [[(0, 2), (1, 4), (3, -6)], [(0, 1), (2, 3)], [(1, 5), (3, 5)]]
    fractions = [[(0, Fraction(1, 2)), (2, 3)], [(0, 3), (1, Fraction(-4, 3))], [(2, 7)]]
    for rows, routes in ((ints, (_rref_rows, kernel_of_rows)), (fractions, (_rref_rows,))):
        kept = copy.deepcopy(rows)
        for route in routes:
            route(rows, 4)
        assert rows == kept


@pytest.mark.parametrize("k, rows, dim", [(3, 671, 17), (4, 2178, 31)])
def test_leibniz_rows_of_t_mk(monkeypatch, k, rows, dim):
    handed = []

    def captured(rows, cols):
        handed.append(len(rows))
        return kernel_of_rows(rows, cols)

    monkeypatch.setattr(spaces, "kernel_of_rows", captured)
    a = matrix_algebra(k)
    p = module_extension(a, regular_action(a))
    assert spaces.derivation_space(p.total, regular_action(p.total)).dim == dim
    assert handed == [rows]
