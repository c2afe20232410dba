"""Ready-made small algebras, their characters, and basis-change transport.

These are the concrete inputs every test and every random family starts
from: the scalars, full matrix algebras, dual numbers, null algebras,
cyclic-group algebras, the 2x2 upper-triangular algebra, direct sums, and
the change-of-basis maps that make all of them look non-obvious in
coordinates while staying exactly isomorphic.  ``FAMILIES`` holds one row
per family the samplers draw: its constructor, characters and idempotents.
"""

from math import isqrt

from .algebra import (
    Algebra,
    BimoduleAction,
    Character,
    ModuleAlgebra,
    _from_slices,
    _transport,
    block_tensor,
    unit_vector,
)
from .errors import ShapeMismatch
from .linalg import F0, F1, Matrix, _sparse_rows, frac, rref


def field_q(name="Q") -> Algebra:
    """The scalars: Q with e_0 e_0 = e_0."""
    return _from_slices(Algebra, name, 1, [[((0, F1),)]])


def matrix_algebra(k, name=None) -> Algebra:
    """M_k over the rationals; basis E_ij at index i*k + j."""
    n = k * k
    mult = [[()] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            for t in range(k):
                mult[i * k + j][j * k + t] = ((i * k + t, F1),)
    return _from_slices(Algebra, name or f"M{k}", n, mult)


def dual_numbers(name="D") -> Algebra:
    """Q[t]/(t^2): basis (1, t)."""
    return _from_slices(Algebra, name, 2, [[((0, F1),), ((1, F1),)], [((1, F1),), ()]])


def null_algebra(m, name=None) -> Algebra:
    """An m-dimensional algebra with all products zero."""
    return _from_slices(Algebra, name or f"N{m}", m, [[()] * m for _ in range(m)])


def cyclic_group_algebra(k, name=None) -> Algebra:
    """The group algebra of Z/k: e_i e_j = e_(i+j mod k)."""
    mult = [[(((i + j) % k, F1),) for j in range(k)] for i in range(k)]
    return _from_slices(Algebra, name or f"C{k}", k, mult)


def upper_triangular_2(name="T2") -> Algebra:
    """Upper-triangular 2x2 matrices; basis (E11, E12, E22)."""
    mult = [[((0, F1),), ((1, F1),), ()],   # E11 E11 = E11, E11 E12 = E12
            [(), (), ((1, F1),)],           # E12 E22 = E12
            [(), (), ((2, F1),)]]           # E22 E22 = E22
    return _from_slices(Algebra, name, 3, mult)


def direct_sum_algebra(a: Algebra, b: Algebra, name=None) -> Algebra:
    """Componentwise product A (+) B as a single structure tensor."""
    n, t = a.dim, a.dim + b.dim
    mult = block_tensor((t, t), [((0, 0, 0), a.mult), ((n, n, n), b.mult)])
    return _from_slices(Algebra, name or f"{a.name}+{b.name}", t, mult)


def _unit(n):
    """The unit of an algebra whose basis starts with it."""
    return [unit_vector(n, 0)]


def _cyclic_characters(n):
    """The trivial character of Q[Z/n], and the sign character when n is even."""
    return [[F1] * n] + ([[F1 if i % 2 == 0 else -F1 for i in range(n)]] if n % 2 == 0 else [])


def _matrix_units(n):
    """The diagonal matrix units E_ii of M_k, where n = k*k."""
    k = isqrt(n)
    return [unit_vector(n, i * k + i) for i in range(k)]


# One row per family the samplers draw: (its algebra of dimension d named
# ``name``; the values on the basis of its rational characters; a complete set
# of orthogonal idempotents), the last two taking the algebra's dimension.
FAMILIES = {
    "field": (lambda d, name: field_q(name), lambda n: [[F1]], _unit),
    "null": (null_algebra, lambda n: [], lambda n: []),
    "cyclic": (cyclic_group_algebra, _cyclic_characters, _unit),
    "dual": (lambda d, name: dual_numbers(name), lambda n: [[F1, F0]], _unit),
    # the characters a -> a_11 and a -> a_22 are E11 and E22 as vectors
    "triangular": (lambda d, name: upper_triangular_2(name),
                   lambda n: [[F1, F0, F0], [F0, F0, F1]],
                   lambda n: [[F1, F0, F0], [F0, F0, F1]]),
    "matrix": (lambda d, name: matrix_algebra(isqrt(d), name), lambda n: [], _matrix_units),
}


def standard_idempotents(a: Algebra, family: str):
    """The orthogonal idempotents of the named family's row, summing to the unit if any.

    Only the benchmark ladder reads them, into ``AlgebraSample.idempotents``,
    and nothing reads that field yet.
    """
    return FAMILIES[family][2](a.dim)


def invert(p: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises if singular."""
    n = p.rows
    if p.cols != n:
        raise ShapeMismatch("only square matrices can be inverted")
    # rref [P | I] = [I | P^-1] exactly when P is invertible
    reduced = rref(Matrix._trusted([r + unit_vector(n, i) for i, r in enumerate(p.data)], 2 * n))
    if [row[:n] for row in reduced.data] != Matrix.identity(n).data:
        raise ShapeMismatch("matrix is singular")
    return Matrix._trusted([row[n:] for row in reduced.data], n)


def change_basis_algebra(a: Algebra, p: Matrix, name=None) -> Algebra:
    """Structure constants of A in the basis f_i = sum_j P[i][j] e_j."""
    if (p.rows, p.cols) != (a.dim, a.dim):
        raise ShapeMismatch("basis change must be square of the algebra dimension")
    return _change_basis_algebra(a, p, invert(p), name)


def _change_basis_algebra(a: Algebra, p: Matrix, pinv: Matrix, name) -> Algebra:
    """:func:`change_basis_algebra` with ``pinv``, the inverse of p, already at hand."""
    rows = _sparse_rows(p)
    return _from_slices(Algebra, name or f"{a.name}~", a.dim,
                        _transport(a.mult, rows, rows, _sparse_rows(pinv)))


def _change_basis_action(act, pa, pu, pu_inv) -> BimoduleAction:
    """Transport an action along basis changes pa of the algebra and pu of the module.

    ``pu_inv`` is the inverse of pu, already at hand.
    """
    ra, ru, out = _sparse_rows(pa), _sparse_rows(pu), _sparse_rows(pu_inv)
    return _from_slices(BimoduleAction, act.algebra_dim, act.module_dim,
                        _transport(act.left, ra, ru, out), _transport(act.right, ru, ra, out))


def change_basis_module(u: ModuleAlgebra, pa: Matrix, pu: Matrix, name=None) -> ModuleAlgebra:
    if (pu.rows, pu.cols) != (u.dim, u.dim):
        raise ShapeMismatch("basis change must be square of the algebra dimension")
    if (pa.rows, pa.cols) != (u.action.algebra_dim, u.action.algebra_dim):
        raise ShapeMismatch("algebra basis change has the wrong shape")
    pu_inv = invert(pu)
    return ModuleAlgebra(_change_basis_algebra(u.algebra, pu, pu_inv, name),
                         _change_basis_action(u.action, pa, pu, pu_inv))


def change_basis_character(t: Character, new_base: Algebra, p: Matrix) -> Character:
    """The same functional read in the new basis: t'(f_i) = t(P e_i)."""
    return Character(new_base, [t(row) for row in p.data])


def elementary_matrices(rng, n, steps=4):
    """A random product of small elementary row operations.

    Entries stay in a small integer/half-integer range so downstream exact
    arithmetic stays fast.
    """
    p = Matrix.identity(n)
    for _ in range(steps):
        op = rng.choice(["add", "swap", "scale"]) if n > 1 else "scale"
        if op == "add":
            i = rng.randrange(n)
            j = rng.randrange(n)
            while j == i:
                j = rng.randrange(n)
            c = frac(rng.choice([-2, -1, 1, 2]))
            rowi = p.data[i]
            rowj = p.data[j]
            p.data[i] = [x + c * y for x, y in zip(rowi, rowj)]
        elif op == "swap":
            i = rng.randrange(n)
            j = rng.randrange(n)
            p.data[i], p.data[j] = p.data[j], p.data[i]
        else:
            i = rng.randrange(n)
            c = frac(rng.choice([-1, 2, -2, 1]))
            p.data[i] = [c * x for x in p.data[i]]
    return p
