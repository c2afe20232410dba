"""Pins of the witness tuples reported by the per-matrix block conditions.

Every value below was recorded from the implementation the pins were
introduced against.  A witness is the first failing basis pair in a fixed
scan order, so these tests fix the scan order of each condition as well as
its verdict, and the key order of the ``conditions`` dict (which reaches the
JSON report of a ``decompose`` job).
"""

import random

import pytest

from semih1.algebra import Character, regular_action
from semih1.catalog import dual_numbers, upper_triangular_2
from semih1.linalg import Matrix
from semih1.products import module_extension, theta_lau, unitization
from semih1.spaces import leibniz_defect
from semih1.verify import corollary_3_2_check, is_derivation_via_3_1, split_blocks

from test_verify import embed

NAMES = ("delta1-derivation", "delta2-derivation", "tau1-hom-left", "tau1-hom-right",
         "tau1-kills-products", "tau2-left-twist", "tau2-right-twist", "tau2-product-twist")


def products():
    t2 = upper_triangular_2()
    return {
        "unitization": unitization(upper_triangular_2()),
        "extension": module_extension(dual_numbers(), regular_action(dual_numbers())),
        "theta_lau": theta_lau(t2, dual_numbers(), Character(t2, [1, 0, 0])),
    }


# For each product and each condition that can fail on it, a map failing that
# condition, with the witnesses of all eight conditions in NAMES order.
FAILING_MAPS = {
    "unitization": [
        ([[1, 0, -1, 0], [0, 1, 0, -1], [0, 1, 0, 1], [-1, -1, 0, 0]],
         ((0, 0), (0, 0), None, None, (2, 2), (0, 0), (0, 0), (0, 0))),
        # tau1-hom-left cannot fail on this product
        # tau1-hom-right cannot fail on this product
        ([[0, 0, -1, 0], [-1, 1, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
         (None, (0, 0), None, None, (0, 0), (0, 2), (0, 0), (0, 0))),
        ([[1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
         ((0, 0), (0, 0), None, None, None, (0, 2), (1, 0), (0, 2))),
        ([[-1, 1, 1, 0], [0, 0, 0, 0], [0, -1, 0, -1], [0, 1, 0, 0]],
         ((0, 0), (0, 0), None, None, None, (0, 2), (0, 0), (0, 1))),
    ],
    "extension": [
        ([[0, 0, -1, 0], [-1, 1, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
         ((1, 1), (0, 0), (1, 0), (0, 1), None, (1, 0), (0, 1), (0, 0))),
        ([[0, 1, 0, 0], [0, 0, 1, 1], [0, -1, 0, 1], [0, 0, 0, 0]],
         ((0, 0), (1, 1), None, None, None, (0, 0), (0, 0), (0, 0))),
        ([[1, 0, -1, 0], [0, 1, 0, -1], [0, 1, 0, 1], [-1, -1, 0, 0]],
         ((0, 0), (0, 0), (1, 0), (0, 1), None, (0, 0), (0, 0), (0, 0))),
        # tau1-kills-products cannot fail on this product
        ([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [1, -1, 0, 1]],
         ((1, 1), None, (1, 0), (0, 1), None, (1, 0), (0, 1), (0, 1))),
    ],
    "theta_lau": [
        ([[0, 0, 0, 0, 0], [-1, 0, -1, 0, 1], [0, 0, 1, 0, -1], [0, 0, 0, 0, -1], [-1, 1, 0, 0, 0]],
         ((0, 1), (0, 2), None, (1, 0), (0, 1), (1, 0), (0, 1), (0, 0))),
        ([[1, 0, -1, 0, 0], [1, 0, -1, 0, 1], [0, 1, -1, -1, 0], [0, -1, 0, -1, 0], [0, 1, 0, -1, 0]],
         ((0, 0), (0, 2), None, (0, 0), (0, 0), (0, 0), (0, 0), (0, 0))),
        ([[-1, 0, 0, -1, 0], [0, -1, 0, 1, -1], [0, 0, 0, 0, 0], [0, -1, 0, 1, -1], [1, 0, 1, 0, 0]],
         ((0, 0), (0, 0), (0, 1), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0))),
        ([[1, 1, -1, 0, 0], [0, 0, 0, 0, 1], [0, -1, 0, 0, 1], [0, 0, 0, 0, 0], [-1, -1, 0, 0, -1]],
         ((0, 0), (0, 2), None, (1, 0), (0, 1), (0, 0), (0, 0), (0, 1))),
        # tau1-hom-right fails at (1, 0), (0, 1) and (1, 2); the scan is a-major
        ([[0, 0, 0, -1, 1], [0, 0, -1, 0, 0], [0, 0, -1, 0, -1], [-1, 0, 0, 0, -1], [0, 0, 1, 1, 0]],
         ((0, 1), (0, 0), (0, 1), (1, 0), (0, 0), (0, 0), (0, 0), (0, 0))),
    ],
}

# leibniz_defect of seeded sparse blocks (see test_leibniz_defect_pairs)
DEFECTS = {
    "unitization": {
        "A": [None, None, None, None, None, None, None, None, None, None],
        "AU": [None, None, (0, 0), (0, 0), None, (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)],
        "U": [(0, 1), (0, 0), (0, 0), (0, 0), (0, 2), None, (0, 0), (0, 2), (0, 2), (1, 0)],
        "total": [(1, 1), (0, 0), (0, 0), (1, 1), (1, 1), (0, 0), (0, 0), (1, 1), (1, 1), (0, 0)],
    },
    "extension": {
        "A": [None, (0, 0), None, (0, 0), (1, 1), (0, 0), None, None, (0, 0), None],
        "AU": [(0, 0), (0, 0), (0, 0), (0, 0), None, None, (0, 0), None, None, (0, 0)],
        "U": [None, None, None, None, None, None, None, None, None, None],
        "total": [(1, 1), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, 2), (1, 1), (0, 0), (1, 1)],
    },
    "theta_lau": {
        "A": [(0, 1), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), None, (0, 0), (0, 2), (0, 2)],
        "AU": [(0, 0), None, (0, 0), (0, 0), (0, 0), (1, 0), (0, 2), (0, 2), (1, 0), (0, 0)],
        "U": [None, (0, 0), (1, 1), (0, 0), (1, 1), (0, 0), (1, 1), (0, 0), (0, 0), None],
        "total": [(0, 2), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 2), (0, 1)],
    },
}

# corollary_3_2_check of seeded sparse blocks, one digit per block
COROLLARY = {
    "unitization": {
        "delta1-only": "0000011001101110110110111111010101101101",
        "delta2-only": "0101111011111000111111011100110011010101",
        "tau1-only": "1011000010110101011100001010001111010100",
        "tau2-only": "1000000000000000010001100101011000000000",
    },
    "extension": {
        "delta1-only": "0000001000001110111100111101110110101000",
        "delta2-only": "1010011010100110011010111010101101000010",
        "tau1-only": "1000110000100000100000000001110000001111",
        "tau2-only": "0110101101011001110110111010110010000011",
    },
    "theta_lau": {
        "delta1-only": "0000000100101000000000000000100100000000",
        "delta2-only": "0000100000011000001101001000000101010101",
        "tau1-only": "0000001100000000100000000100001000010000",
        "tau2-only": "0111001011010001000100110010010010000011",
    },
}


def sparse_block(rng, rows, cols):
    return Matrix([[rng.choice((0, 0, 0, 0, 0, 0, 0, 1, -1)) for _ in range(cols)]
                   for _ in range(rows)])


@pytest.mark.parametrize("key", sorted(FAILING_MAPS))
def test_condition_witnesses(key):
    p = products()[key]
    failed = set()
    for rows, expected in FAILING_MAPS[key]:
        bd = split_blocks(Matrix(rows), p)
        assert list(bd.conditions.items()) == list(zip(NAMES, expected))
        assert bd.ok is False and is_derivation_via_3_1(Matrix(rows), p) is False
        failed |= set(bd.failed())
    # every condition that can fail on this product fails on some pinned map
    assert len(failed) == {"unitization": 6, "extension": 7, "theta_lau": 8}[key]


@pytest.mark.parametrize("key", sorted(DEFECTS))
def test_leibniz_defect_pairs(key):
    p = products()[key]
    a, u = p.part_a, p.part_u
    n, m = p.n, p.m
    rng = random.Random(7)
    got = {"A": [], "AU": [], "U": [], "total": []}
    for _ in range(10):
        got["A"].append(leibniz_defect(sparse_block(rng, n, n), a, regular_action(a)))
        got["AU"].append(leibniz_defect(sparse_block(rng, n, m), a, u.action))
        got["U"].append(leibniz_defect(sparse_block(rng, m, m), u.algebra,
                                       regular_action(u.algebra)))
        got["total"].append(leibniz_defect(sparse_block(rng, n + m, n + m), p.total,
                                           regular_action(p.total)))
    assert got == DEFECTS[key]


@pytest.mark.parametrize("key", sorted(COROLLARY))
def test_corollary_3_2_on_random_blocks(key):
    p = products()[key]
    n, m = p.n, p.m
    shapes = {"delta1-only": (n, n), "delta2-only": (n, m),
              "tau1-only": (m, n), "tau2-only": (m, m)}
    rng = random.Random(11)
    for kind, (r, c) in shapes.items():
        blocks = [sparse_block(rng, r, c) for _ in range(40)]
        got = "".join("1" if corollary_3_2_check(kind, b, p) else "0" for b in blocks)
        assert got == COROLLARY[key][kind], kind
        # the single-block criterion agrees with the full block conditions
        for b, bit in zip(blocks, got):
            embedded = embed(p, **{kind.split("-")[0]: b})
            assert is_derivation_via_3_1(embedded, p) == (bit == "1")
