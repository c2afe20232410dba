"""Pins of the failure lists reported by the axiom validators.

Every value below was recorded from the implementation the pins were
introduced against.  A validator reports every failing basis triple, law by
law in a fixed scan order, and laws checked in the same loop are
interleaved triple by triple.  These tests fix that order, each witness,
the ``lhs``/``rhs`` values of the algebra axiom, the text of ``describe()``
(which reaches the CLI) and the stderr of ``semih1 validate``; and the first
non-multiplicative pair reported by ``alpha_product`` and by rule 5.4.
"""

import json
import random

import pytest

from semih1.algebra import (
    Algebra,
    BimoduleAction,
    CornerModule,
    ModuleAlgebra,
    validate_algebra,
    validate_corner,
    validate_module,
)
from semih1.catalog import dual_numbers, field_q, upper_triangular_2
from semih1.cli import main
from semih1.errors import NotHomomorphism
from semih1.linalg import Matrix
from semih1.products import alpha_product
from semih1.verify import verify_special_case

from _oracle import dense


def sparse(rng, d0, d1, d2):
    return [[[rng.choice((0, 0, 0, 0, 0, 0, 1, -1)) for _ in range(d2)] for _ in range(d1)]
            for _ in range(d0)]


def random_algebra(seed):
    return Algebra(f"R{seed}", 3, sparse(random.Random(seed), 3, 3, 3))


def random_module(seed):
    """A random U of dim 2 over the 3-dim upper triangular algebra."""
    rng = random.Random(seed)
    mult, left, right = sparse(rng, 2, 2, 2), sparse(rng, 3, 2, 2), sparse(rng, 2, 3, 2)
    return ModuleAlgebra(Algebra(f"U{seed}", 2, mult), BimoduleAction(3, 2, left, right))


def random_corner(seed):
    """A random (D, Q)-module of dim 2."""
    rng = random.Random(seed)
    return CornerModule(2, 1, 2, sparse(rng, 2, 2, 2), sparse(rng, 2, 1, 2))


def one_sided_module():
    """The dual numbers acting on themselves on the left and by zero on the right."""
    d = dual_numbers()
    left = dense(d.mult, 2)
    right = [[[0, 0] for _ in range(2)] for _ in range(2)]
    return ModuleAlgebra(Algebra("D'", 2, dense(d.mult, 2)), BimoduleAction(2, 2, left, right))


def nonassociative():
    # e0 e0 = e1, e0 e1 = e0: then (e0 e0) e0 = 0 while e0 (e0 e0) = e0
    return Algebra("bad", 2, [[[0, 1], [1, 0]], [[0, 0], [0, 0]]])


# (axiom, witness, lhs, rhs) of every failure, in report order
ALGEBRA_FAILURES = {
    "bad": [
        ("(ab)c=a(bc)", (0, 0, 0), [0, 0], [1, 0]),
        ("(ab)c=a(bc)", (0, 0, 1), [0, 0], [0, 1]),
        ("(ab)c=a(bc)", (0, 1, 0), [0, 1], [0, 0]),
        ("(ab)c=a(bc)", (0, 1, 1), [1, 0], [0, 0]),
    ],
    "R4": [
        ("(ab)c=a(bc)", (0, 0, 1), [0, 0, 0], [-1, 1, 0]),
        ("(ab)c=a(bc)", (0, 1, 0), [-1, 0, 0], [0, 0, 0]),
        ("(ab)c=a(bc)", (0, 1, 1), [1, -1, 0], [0, 0, 0]),
        ("(ab)c=a(bc)", (1, 0, 1), [1, -1, 0], [1, 0, 0]),
        ("(ab)c=a(bc)", (1, 1, 0), [0, 0, 0], [1, 0, 0]),
    ],
    "R8": [
        ("(ab)c=a(bc)", (0, 0, 0), [1, 0, -1], [0, 0, 0]),
        ("(ab)c=a(bc)", (0, 0, 2), [1, -1, 1], [0, 0, 0]),
        ("(ab)c=a(bc)", (0, 1, 1), [0, 0, 0], [0, 0, -1]),
        ("(ab)c=a(bc)", (0, 1, 2), [0, 0, 0], [0, 0, 1]),
        ("(ab)c=a(bc)", (0, 2, 0), [0, 0, 0], [0, 0, 1]),
        ("(ab)c=a(bc)", (0, 2, 2), [0, 0, 0], [0, 0, 1]),
        ("(ab)c=a(bc)", (1, 0, 0), [0, 1, 0], [1, -1, 0]),
        ("(ab)c=a(bc)", (1, 0, 1), [-1, -1, -1], [0, 0, 0]),
        ("(ab)c=a(bc)", (1, 0, 2), [1, -1, 0], [0, 0, 0]),
        ("(ab)c=a(bc)", (1, 1, 0), [-1, -1, 0], [-1, -1, -1]),
        ("(ab)c=a(bc)", (1, 1, 1), [1, 1, 1], [0, 1, 1]),
        ("(ab)c=a(bc)", (1, 1, 2), [-2, 2, -1], [1, 2, 1]),
        ("(ab)c=a(bc)", (1, 2, 0), [0, -1, 1], [-1, 2, 0]),
        ("(ab)c=a(bc)", (1, 2, 1), [1, 1, 1], [0, 0, 0]),
        ("(ab)c=a(bc)", (1, 2, 2), [-1, 1, 0], [2, 1, 1]),
        ("(ab)c=a(bc)", (2, 0, 0), [-1, 0, 2], [1, -1, 1]),
        ("(ab)c=a(bc)", (2, 0, 2), [-1, 1, -1], [0, 0, 0]),
        ("(ab)c=a(bc)", (2, 1, 1), [0, 0, 0], [-2, 1, 0]),
        ("(ab)c=a(bc)", (2, 1, 2), [0, 0, 0], [1, 0, -1]),
        ("(ab)c=a(bc)", (2, 2, 0), [1, -1, 0], [0, 1, -2]),
        ("(ab)c=a(bc)", (2, 2, 1), [1, 1, 1], [0, 0, 0]),
        ("(ab)c=a(bc)", (2, 2, 2), [0, 0, 1], [2, -1, 0]),
    ],
}

# (axiom, witness) of every failure, in report order
MODULE_FAILURES = {
    "one-sided": [
        ("(x.a)y=x(a.y)", (0, 0, 0)), ("(x.a)y=x(a.y)", (0, 0, 1)),
        ("(x.a)y=x(a.y)", (1, 0, 0)), ("(x.a)y=x(a.y)", (0, 1, 0)),
    ],
    # U5 breaks all six laws, and the laws checked in one loop alternate
    "U5": [
        ("x(ab)=(xa)b", (0, 0, 1)), ("(ab)x=a(bx)", (0, 2, 0)),
        ("(ab)x=a(bx)", (0, 2, 1)), ("x(ab)=(xa)b", (0, 1, 2)),
        ("(ab)x=a(bx)", (2, 0, 0)), ("(ab)x=a(bx)", (2, 0, 1)),
        ("(ax)b=a(xb)", (0, 0, 1)), ("(x.a)y=x(a.y)", (0, 0, 0)),
        ("(a.x)y=a.(xy)", (0, 0, 1)), ("(x.a)y=x(a.y)", (0, 0, 1)),
        ("(xy).a=x(y.a)", (0, 0, 1)), ("(x.a)y=x(a.y)", (0, 2, 1)),
    ],
    "U3": [
        ("(ab)x=a(bx)", (0, 0, 1)), ("(ab)x=a(bx)", (0, 1, 0)),
        ("x(ab)=(xa)b", (1, 0, 2)), ("(ab)x=a(bx)", (1, 0, 1)),
        ("(ab)x=a(bx)", (1, 1, 0)), ("x(ab)=(xa)b", (1, 1, 2)),
        ("x(ab)=(xa)b", (0, 2, 0)), ("(ab)x=a(bx)", (2, 0, 1)),
        ("(ab)x=a(bx)", (2, 1, 0)), ("x(ab)=(xa)b", (0, 2, 1)),
        ("x(ab)=(xa)b", (0, 2, 2)), ("(ax)b=a(xb)", (0, 0, 2)),
        ("(ax)b=a(xb)", (0, 1, 1)), ("(ax)b=a(xb)", (0, 1, 2)),
        ("(ax)b=a(xb)", (1, 0, 2)), ("(ax)b=a(xb)", (1, 1, 0)),
        ("(ax)b=a(xb)", (1, 1, 1)), ("(ax)b=a(xb)", (2, 0, 2)),
        ("(ax)b=a(xb)", (2, 1, 0)), ("(ax)b=a(xb)", (2, 1, 1)),
        ("(a.x)y=a.(xy)", (0, 0, 1)), ("(xy).a=x(y.a)", (0, 1, 0)),
        ("(x.a)y=x(a.y)", (0, 0, 1)), ("(a.x)y=a.(xy)", (0, 1, 1)),
        ("(xy).a=x(y.a)", (1, 1, 0)), ("(x.a)y=x(a.y)", (1, 0, 1)),
        ("(a.x)y=a.(xy)", (1, 0, 1)), ("(xy).a=x(y.a)", (0, 1, 1)),
        ("(a.x)y=a.(xy)", (1, 1, 1)), ("(x.a)y=x(a.y)", (1, 1, 1)),
        ("(xy).a=x(y.a)", (0, 0, 2)), ("(a.x)y=a.(xy)", (2, 0, 1)),
        ("(x.a)y=x(a.y)", (0, 2, 1)), ("(xy).a=x(y.a)", (1, 0, 2)),
        ("(a.x)y=a.(xy)", (2, 1, 1)), ("(xy).a=x(y.a)", (1, 1, 2)),
    ],
}

CORNER_FAILURES = {
    1: [
        ("(aa')m=a(a'm)", (0, 1, 0)), ("(aa')m=a(a'm)", (0, 1, 1)),
        ("(aa')m=a(a'm)", (1, 0, 0)), ("(aa')m=a(a'm)", (1, 0, 1)),
        ("(aa')m=a(a'm)", (1, 1, 0)), ("(aa')m=a(a'm)", (1, 1, 1)),
        ("m(bb')=(mb)b'", (1, 0, 0)), ("(am)b=a(mb)", (1, 0, 0)),
        ("(am)b=a(mb)", (1, 1, 0)),
    ],
    10: [
        ("(aa')m=a(a'm)", (0, 0, 0)), ("(aa')m=a(a'm)", (0, 0, 1)),
        ("(aa')m=a(a'm)", (0, 1, 0)), ("(aa')m=a(a'm)", (0, 1, 1)),
        ("(aa')m=a(a'm)", (1, 0, 0)), ("(aa')m=a(a'm)", (1, 0, 1)),
        ("(aa')m=a(a'm)", (1, 1, 0)), ("(aa')m=a(a'm)", (1, 1, 1)),
        ("m(bb')=(mb)b'", (1, 0, 0)), ("(am)b=a(mb)", (0, 0, 0)),
        ("(am)b=a(mb)", (0, 1, 0)), ("(am)b=a(mb)", (1, 0, 0)),
        ("(am)b=a(mb)", (1, 1, 0)),
    ],
}

SUBJECTS = {
    "bad": "algebra bad",
    "R4": "algebra R4",
    "R8": "algebra R8",
    "one-sided": "module D' over D",
    "U5": "module U5 over T2",
    "U3": "module U3 over T2",
    1: "corner module over (D, Q)",
    10: "corner module over (D, Q)",
}

VALIDATE_STDERR = (
    "validation failed: module 'M': module M over T2: 7 axiom violation(s)\n"
    "  x(ab)=(xa)b fails at (0, 0, 1)\n"
    "  (ab)x=a(bx) fails at (0, 2, 0)\n"
    "  (ab)x=a(bx) fails at (0, 2, 1)\n"
    "  x(ab)=(xa)b fails at (0, 1, 2)\n"
    "  (ab)x=a(bx) fails at (2, 0, 0)\n"
    "  (ab)x=a(bx) fails at (2, 0, 1)\n"
    "  (ax)b=a(xb) fails at (0, 0, 1)\n"
)


def expected_description(key, failures):
    if not failures:
        return f"{SUBJECTS[key]}: valid"
    lines = [f"{SUBJECTS[key]}: {len(failures)} axiom violation(s)"]
    lines += [f"  {f[0]} fails at {f[1]}" for f in failures[:20]]
    return "\n".join(lines)


def reports():
    algebras = {"bad": nonassociative(), "R4": random_algebra(4), "R8": random_algebra(8)}
    modules = {"one-sided": (one_sided_module(), dual_numbers()),
               "U5": (random_module(5), upper_triangular_2()),
               "U3": (random_module(3), upper_triangular_2())}
    out = {key: validate_algebra(a) for key, a in algebras.items()}
    out.update((key, validate_module(u, a)) for key, (u, a) in modules.items())
    out.update((seed, validate_corner(random_corner(seed), dual_numbers(), field_q()))
               for seed in CORNER_FAILURES)
    return out


@pytest.mark.parametrize("key", sorted(ALGEBRA_FAILURES))
def test_algebra_failures(key):
    report = reports()[key]
    got = [(f["axiom"], f["witness"], f["lhs"], f["rhs"]) for f in report.failures]
    assert got == ALGEBRA_FAILURES[key]
    assert report.subject == SUBJECTS[key]
    assert report.describe() == expected_description(key, ALGEBRA_FAILURES[key])


@pytest.mark.parametrize("key", sorted(MODULE_FAILURES))
def test_module_failures(key):
    report = reports()[key]
    assert [(f["axiom"], f["witness"]) for f in report.failures] == MODULE_FAILURES[key]
    assert report.subject == SUBJECTS[key]
    assert report.describe() == expected_description(key, MODULE_FAILURES[key])


@pytest.mark.parametrize("seed", sorted(CORNER_FAILURES))
def test_corner_failures(seed):
    report = reports()[seed]
    assert [(f["axiom"], f["witness"]) for f in report.failures] == CORNER_FAILURES[seed]
    assert {f["axiom"] for f in report.failures} == {"(aa')m=a(a'm)", "m(bb')=(mb)b'",
                                                     "(am)b=a(mb)"}
    assert report.describe() == expected_description(seed, CORNER_FAILURES[seed])


def _entries(tensor, width, names):
    return [dict(zip(names, (i, j, k)), c=str(c))
            for i, slab in enumerate(dense(tensor, width)) for j, row in enumerate(slab)
            for k, c in enumerate(row) if c]


def test_validate_stderr_on_bad_module(tmp_path, capsys):
    u = random_module(5)
    t2 = upper_triangular_2()
    doc = {
        "algebras": [{"name": "T2", "dim": 3, "mult": _entries(t2.mult, 3, "ijk")}],
        "modules": [{"name": "M", "over": "T2", "dim": 2,
                     "left": _entries(u.action.left, 2, "ipq"),
                     "right": _entries(u.action.right, 2, "piq")}],
    }
    path = tmp_path / "bad_module.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == VALIDATE_STDERR


# rule 5.4's failing_pair on an alpha product built with the identity whose
# recorded alpha is then swapped for zero, and the other way round; and a
# map that is no homomorphism, with the NotHomomorphism message it raises
ALPHA_PINS = {
    "D": ((0, 2), (0, 0), [[1, 1], [0, 0]], "alpha(e0*e0) != alpha(e0)alpha(e0)"),
    "T2": ((0, 3), (0, 0), [[1, 1, 0], [0, 0, 0], [0, 0, 1]],
           "alpha(e0*e2) != alpha(e0)alpha(e2)"),
}


@pytest.mark.parametrize("key", sorted(ALPHA_PINS))
def test_first_non_multiplicative_pair(key):
    a = {"D": dual_numbers(), "T2": upper_triangular_2()}[key]
    u = Algebra(a.name + "'", a.dim, dense(a.mult, a.dim))
    one, zero = Matrix.identity(a.dim), Matrix.zeros(a.dim, a.dim)
    one_pair, zero_pair, bad, message = ALPHA_PINS[key]
    for built, swapped, pair in ((one, zero, one_pair), (zero, one, zero_pair)):
        p = alpha_product(a, u, built)
        p.alpha = swapped
        report = verify_special_case("5.4", p)
        assert report.verdict == "MISMATCH"
        assert report.details == {"pairs_checked": p.dim ** 2, "iso_invertible": True,
                                  "failing_pair": pair}
    with pytest.raises(NotHomomorphism) as exc:
        alpha_product(a, u, Matrix(bad))
    assert str(exc.value) == message
