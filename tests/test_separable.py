"""Separable algebras: Z1 read off N1 by the trace form.

``algebra.separable(a)`` holds when the trace form T(x, y) = tr L_xy of A
has full rank; ``derivation_space`` then returns N1(A, M) and builds no
Leibniz system (Hochschild 1945).  These tests hold the route to three
things:

* on 600 draws of ``random_algebra_sample(Random(12345), 4)``, ``separable``
  is ``dim rad A == 0`` for the radical of ``tests/_oracle.py`` (Dickson's
  trace criterion on the unitization), with the separable count pinned;
* on each separable draw, for the regular module and one sampled module,
  ``derivation_space`` is the kernel of the Leibniz rows this test builds;
* the dual numbers and T2 read as not separable, and a mutant that calls
  every algebra separable gives Z1(D) the dimension of N1(D).
"""

import random

from semih1 import spaces
from semih1.algebra import generators, regular_action, separable
from semih1.catalog import dual_numbers, matrix_algebra, upper_triangular_2
from semih1.families import random_algebra_sample, random_module_sample

from _oracle import brute_n1_dim, brute_radical_dim, brute_z1_dim, dense, dual_numbers_mult


def _draws():
    """600 algebra samples, each separable one followed by one module sampled over it."""
    rng, out = random.Random(12345), []
    for _ in range(600):
        sample = random_algebra_sample(rng, 4)
        out.append((sample, random_module_sample(rng, sample, 4) if separable(sample.algebra)
                    else None))
    return out


def _leibniz_route(a, act):
    """Z1(A, M) from the Leibniz rows on the generators of A, built here."""
    m = act.module_dim
    return spaces.solve(a.dim * m, spaces.leibniz("leibniz", a, act, (0, 0, m), generators(a)))


def test_separable_is_a_zero_radical():
    draws = _draws()
    for sample, _ in draws:
        a = sample.algebra
        assert separable(a) == (brute_radical_dim(dense(a.mult, a.dim)) == 0), a.name
        assert a._separable is separable(a)  # decided once and kept
    assert sum(u is not None for _, u in draws) == 283


def test_separable_draws_take_the_leibniz_kernel():
    checked = 0
    for sample, u in _draws():
        a = sample.algebra
        for act in (regular_action(a), u.action) if u else ():
            assert spaces.derivation_space(a, act) == _leibniz_route(a, act), a.name
            checked += 1
    assert checked == 566


def test_dual_numbers_and_t2_are_not_separable():
    d, t2 = dual_numbers(), upper_triangular_2()
    assert not separable(d) and not separable(t2)
    assert separable(matrix_algebra(2))
    act = regular_action(d)
    z1, n1 = spaces.derivation_space(d, act), spaces.inner_space(d, act)
    assert (z1.dim, n1.dim) == (brute_z1_dim(dual_numbers_mult()),
                                brute_n1_dim(dual_numbers_mult())) == (1, 0)
    assert z1 == _leibniz_route(d, act)
    assert spaces.h1_dim(d) == 1 and spaces.h1_dim(t2) == 0


def test_separable_h1_builds_no_row_group(monkeypatch):
    init, built = spaces.RowGroup.__init__, []

    def recording(group, *args, **kwargs):
        init(group, *args, **kwargs)
        built.append(group.name)

    monkeypatch.setattr(spaces.RowGroup, "__init__", recording)
    m3 = matrix_algebra(3)
    assert spaces.h1_dim(m3) == 0
    assert spaces.derivation_space(m3, regular_action(m3)).dim == 8
    assert built == []


def test_a_mutant_that_calls_every_algebra_separable_is_caught(monkeypatch):
    d = dual_numbers()
    assert spaces.derivation_space(d, regular_action(d)).dim == 1
    monkeypatch.setattr(spaces, "separable", lambda a: True)
    # the mutant reads N1(D), of dimension 0, for Z1(D)
    assert spaces.derivation_space(d, regular_action(d)).dim == 0
    assert spaces.h1_dim(d) == 0
