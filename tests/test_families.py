"""The catalog's family table and the draws the samplers make from it.

Each row of ``catalog.FAMILIES`` is checked against a dense product written
here from the structure tensor: its characters are nonzero and
multiplicative, and its idempotents are a complete orthogonal set.  The
draw stream of ``random_product`` is pinned at every ``max_dim`` up to 4,
the first at which the sampler can draw the ``matrix`` row.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from semih1.catalog import FAMILIES, standard_idempotents
from semih1.families import random_product

from _oracle import dense

# (family, dimension) for every size the sampler draws at max_dim <= 6, with
# cyclic at odd and even k, and M3 beside the sampled M2
SIZES = [("field", 1), ("dual", 2), ("triangular", 3), ("matrix", 4), ("matrix", 9),
         *[("null", d) for d in range(1, 7)], *[("cyclic", d) for d in range(1, 7)]]

# sha256 of 300 draws per max_dim of (name, kind, total tensor, sample character values),
# recorded before the family constructors, characters and idempotents became one table
DRAWS_SHA256 = {
    1: "8715b3e8b4c76f5f4038d7d09c825fa3abf0afdd969c442813cfc3cf9a0565e9",
    2: "73a7d07f93622e4f13363687d6dae192f7815b0568dfbf0f4c713d3832d755f0",
    3: "d386eb58c5bc70b604d3377fdecc284e0ed40da2b5722fcd329a3086a2ef721b",
    4: "4843185d93cdf246dd2b986c19bc0da21ae456d5d6c1a4d2e9d45c4479543265",
}


def _product(t, x, y):
    """x*y in the basis, summed over the dense tensor t[i][j][k]."""
    n = len(t)
    return [sum((x[i] * y[j] * t[i][j][k] for i in range(n) for j in range(n)), Fraction(0))
            for k in range(n)]


def _row(family, d):
    build, characters, idempotents = FAMILIES[family]
    a = build(d, "A")
    return a, dense(a.mult, a.dim), characters(a.dim), idempotents(a.dim)


def test_the_table_has_one_row_per_sampled_family():
    assert sorted(FAMILIES) == ["cyclic", "dual", "field", "matrix", "null", "triangular"]
    assert {family for family, _ in SIZES} == set(FAMILIES)


@pytest.mark.parametrize("family, d", SIZES)
def test_every_character_is_nonzero_and_multiplicative(family, d):
    a, t, characters, _ = _row(family, d)
    assert a.dim == d
    for values in characters:
        assert len(values) == d and any(values)
        for i in range(d):
            for j in range(d):
                product = sum((values[k] * t[i][j][k] for k in range(d)), Fraction(0))
                assert product == values[i] * values[j], (family, d, values, i, j)
    # Q[Z/k] has the sign character exactly when k is even
    expected = {"field": 1, "dual": 1, "triangular": 2, "cyclic": 2 - d % 2}.get(family, 0)
    assert len(characters) == expected


@pytest.mark.parametrize("family, d", SIZES)
def test_the_idempotents_are_a_complete_orthogonal_set(family, d):
    a, t, _, idempotents = _row(family, d)
    assert [list(e) for e in standard_idempotents(a, family)] == idempotents
    for p, e in enumerate(idempotents):
        assert len(e) == d
        for q, f in enumerate(idempotents):
            assert _product(t, e, f) == (e if p == q else [0] * d), (family, d, p, q)
    if family == "null":
        assert idempotents == []
        return
    unit = [sum(column, Fraction(0)) for column in zip(*idempotents)]
    for i in range(d):
        basis = [Fraction(int(k == i)) for k in range(d)]
        assert _product(t, unit, basis) == basis == _product(t, basis, unit), (family, d, i)
    expected = {"triangular": 2, "matrix": round(d ** 0.5)}.get(family, 1)
    assert len(idempotents) == expected


@pytest.mark.parametrize("max_dim", sorted(DRAWS_SHA256))
def test_the_draw_stream_is_pinned(max_dim):
    digest, drawn = hashlib.sha256(), set()
    for i in range(300):
        p, sample = random_product(random.Random(f"fam:{i}"), max_dim)
        digest.update(repr((p.name, p.kind, p.total.mult,
                            [t.values for t in sample.characters])).encode())
        drawn.add(sample.family.removesuffix("~"))
    assert digest.hexdigest() == DRAWS_SHA256[max_dim]
    if max_dim == 4:
        assert drawn >= set(FAMILIES)
