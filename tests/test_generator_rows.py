"""Leibniz, hom and 3.1 rows from a generating set.

``algebra.generators(a)`` picks basis indices whose words span A, from the
slices alone.  The Leibniz and module-hom groups of ``derivation_space``,
``hom_space`` and ``z1_total``, and the 3.1 groups, keep only the rows whose
algebra index lies in it: a law that holds for x = g1 and x = g2 and every y
holds for x = g1 g2, by associativity and the bimodule laws.  These tests
hold the cut to three things:

* the words in ``generators(a)`` span A, by the brute closure of
  ``tests/_oracle.py``, on the 300 draws, the ladder families and sheared
  bases of them, with the counts the greedy scan gives pinned;
* on the 300 draws, the spaces the cut reaches and every applicable rule
  report are those of the full rows: one SHA-256, recorded when every row
  was built, that the cut and the full rows both give;
* a mutant that drops one generator changes that digest, and makes the
  validators' reports differ from the brute associativity oracle on some
  draw of ``tests/test_assoc_oracle.py``'s Light's-test draws.

"300 draws" are ``random_product(random.Random(12345), 3)`` drawn 300 times.
"""

import hashlib
import random

import pytest

from semih1 import algebra, spaces, verify
from semih1.algebra import Algebra, generators, regular_action
from semih1.catalog import (
    change_basis_algebra,
    cyclic_group_algebra,
    dual_numbers,
    elementary_matrices,
    matrix_algebra,
)
from semih1.families import random_product
from semih1.products import module_extension
from semih1.spaces import RowGroup, leibniz

from _oracle import brute_word_span_dim, dense
from test_assoc_oracle import LIGHT_DRAWS, light_disagreements

# sha256 of the spaces below and every applicable rule report on the 300 draws, each
# space as the repr of its canonical rows, recorded with every Leibniz, hom and 3.1 row
FULL_ROWS_SHA256 = "1f94081bd1c0c2fbdc7f68b02a83deb8f3bae292479ac24f4951193ff1a4a595"
SPACES = ("z1_total", "z1_a", "z1_au", "z1_u", "hom_u", "cond31")


def _table(name, dim, products):
    """An Algebra from ``{(i, j): {k: c}}``, every other product zero."""
    mult = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in products.items():
        for k, c in vec.items():
            mult[i][j][k] = c
    return Algebra(name, dim, mult)


def truncated(k):
    """Q[t]/(t^k), t^i at index i."""
    return _table(f"P{k}", k, {(i, j): {i + j: 1} for i in range(k) for j in range(k)
                               if i + j < k})


def kronecker(r):
    """Two vertices e0, e1 and r arrows a (indices 2..r+1) with e0 a = a = a e1."""
    products = {(0, 0): {0: 1}, (1, 1): {1: 1}}
    for a in range(2, r + 2):
        products[(0, a)] = {a: 1}
        products[(a, 1)] = {a: 1}
    return _table(f"K{r}", r + 2, products)


def _extension(a):
    return module_extension(a, regular_action(a)).total


def _ladder():
    """The ladder families, with T(A) = A x| A for U^2 = 0."""
    return [*(matrix_algebra(k) for k in (1, 2, 3, 4)),
            *(cyclic_group_algebra(k) for k in (2, 5)),
            *(truncated(k) for k in (1, 2, 5)), *(kronecker(r) for r in (1, 2, 5)),
            *(_extension(a) for a in (matrix_algebra(2), matrix_algebra(3),
                                      cyclic_group_algebra(6), truncated(3)))]


def _draws():
    rng = random.Random(12345)
    return [random_product(rng, 3)[0] for _ in range(300)]


def _spans(a, gens):
    return brute_word_span_dim(dense(a.mult, a.dim), gens) == a.dim


def test_the_words_in_the_generators_span_the_algebra():
    algebras = _ladder()
    rng = random.Random(29)
    algebras += [change_basis_algebra(a, elementary_matrices(rng, a.dim)) for a in list(algebras)]
    for p in _draws():
        algebras += [p.total, p.part_a, p.part_u.algebra]
    for a in algebras:
        gens = generators(a)
        assert list(gens) == sorted(set(gens)) and all(0 <= g < a.dim for g in gens), a.name
        assert _spans(a, gens), a.name
        assert generators(a) is gens  # chosen once and kept


@pytest.mark.parametrize("a, count", [
    (matrix_algebra(3), 5), (matrix_algebra(4), 7), (cyclic_group_algebra(5), 2),
    (cyclic_group_algebra(6), 2), (truncated(5), 2), (kronecker(5), 7),
    (_extension(matrix_algebra(3)), 6), (_extension(cyclic_group_algebra(6)), 3),
    (_extension(matrix_algebra(4)), 8),
])
def test_generator_counts(a, count):
    assert len(generators(a)) == count


def test_a_cut_group_builds_only_the_generator_pairs():
    a = matrix_algebra(3)
    act, gens = regular_action(a), generators(a)
    cut = leibniz("leibniz", a, act, (0, 0, 9), gens)
    full = leibniz("leibniz", a, act, (0, 0, 9))
    assert cut.pairs() == [(x, y) for x in gens for y in range(9)]
    assert {pair for pair, _ in cut.kept()} <= set(cut.pairs())
    grid = cut._grid()
    assert not any(grid[x][y] for x in range(9) if x not in gens for y in range(9))
    assert {row for _, row in cut.kept()} <= {row for _, row in full.kept()}
    assert spaces.solve(81, cut) == spaces.solve(81, full)
    hom = RowGroup("hom-right", (9, 9, 9), [(1, "D(xy)", a.mult, (0, 0, 9))], ys=gens)
    assert hom.pairs() == [(x, y) for x in range(9) for y in gens]


def _digest():
    """sha256 over the 300 draws, each drawn afresh, of the SPACES rows and the rule reports."""
    h = hashlib.sha256()
    for p in _draws():
        for name in SPACES:
            h.update(repr((name, verify.space(p, name).rows)).encode())
        for rid in verify.RULES:
            if verify.applies(rid, p):
                h.update(repr(verify.verify_any(rid, p).as_dict()).encode())
    return h.hexdigest()


def _generators_as(monkeypatch, gens):
    for module in (spaces, verify):
        monkeypatch.setattr(module, "generators", gens)


def test_generator_rows_give_the_spaces_and_reports_of_every_row(monkeypatch):
    assert _digest() == FULL_ROWS_SHA256
    _generators_as(monkeypatch, lambda a: tuple(range(a.dim)))
    assert _digest() == FULL_ROWS_SHA256


def test_a_dropped_generator_is_caught(monkeypatch):
    _generators_as(monkeypatch, lambda a: generators(a)[:-1])
    assert _digest() != FULL_ROWS_SHA256
    # on its own: the dual numbers less their generator e_1 keep the rows of the unit
    # alone (a separable algebra such as Q[C5] takes N1 and builds no Leibniz rows)
    a = dual_numbers()
    z1 = spaces.derivation_space(a, regular_action(a))
    _generators_as(monkeypatch, generators)
    assert (z1.dim, spaces.derivation_space(a, regular_action(a)).dim) == (2, 1)
    assert not _spans(a, generators(a)[:-1])


def test_a_dropped_generator_fails_the_validation_oracle(monkeypatch):
    # validation checks the middle index on generators(a) first: one too few and a
    # failing table can pass
    monkeypatch.setattr(algebra, "generators", lambda a: generators(a)[:-1])
    assert next(light_disagreements(LIGHT_DRAWS), None) is not None
