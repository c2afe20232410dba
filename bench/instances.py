"""Closed-form algebra families, written without semih1.

The benchmark's inputs and its oracle come from this file, so a defect in
semih1 cannot leak into the expected answers.  A structure table is a dict
``{(i, j): {k: c}}`` holding the nonzero coordinates of ``e_i * e_j``.

Frozen first-cohomology values (``HH^1(A) = H1(A, A)``):

* ``M_k``: 0 (separable).  ``Q[C_k]``: 0 (separable).
* ``Q[t]/(t^k)``: ``k - 1`` (the derivations ``t -> t^i``, ``1 <= i < k``).
* ``r``-Kronecker path algebra: ``r^2 - 1`` (Happel, 1989: ``1 - n +
  sum over arrows of the paths parallel to it`` for an acyclic quiver).
* upper-triangular ``n x n``: 0 (a path algebra of a tree).
* direct sums of unital algebras: the sum of the summands' values.
* ``T(A) = A ⋉ A`` with ``A^2 = 0`` on the ideal: ``1`` for ``M_k`` and
  ``k`` for ``Q[C_k]``, from ``HH^1(S ⊗ D) = Z(S) ⊗ HH^1(D)`` with
  ``D = Q[e]/(e^2)`` and ``S`` separable.

Centre dimensions (``N1 = dim - dim Z``, ``Hom_A(A, A) = Z(A)``): 1 for
``M_k``, the Kronecker algebras and the triangular algebras; ``k`` for the
commutative ``Q[C_k]`` and ``Q[t]/(t^k)``.
"""

import json
from fractions import Fraction

ONE = Fraction(1)


class Family:
    """A named algebra with its table and the frozen invariants."""

    __slots__ = ("name", "dim", "table", "h1", "center", "unit_pair")

    def __init__(self, name, dim, table, h1, center, unit_pair):
        self.name = name
        self.dim = dim
        self.table = table
        self.h1 = h1
        self.center = center
        # (e, x): basis indices with e*e = e, e*x = x and x != e; scaling
        # e*e by 2 breaks (e e) x = e (e x), so the algebra stops being
        # associative in every basis.
        self.unit_pair = unit_pair


def matrix_algebra(k):
    """M_k; E_ij at index i*k + j."""
    table = {}
    for i in range(k):
        for j in range(k):
            for t in range(k):
                table[(i * k + j, j * k + t)] = {i * k + t: ONE}
    return Family(f"M{k}", k * k, table, 0, 1, (0, 1))


def cyclic(k):
    """Q[C_k]: e_i e_j = e_(i+j mod k)."""
    table = {(i, j): {(i + j) % k: ONE} for i in range(k) for j in range(k)}
    return Family(f"C{k}", k, table, 0, k, (0, 1))


def truncated(k):
    """Q[t]/(t^k); t^i at index i."""
    table = {(i, j): {i + j: ONE} for i in range(k) for j in range(k) if i + j < k}
    return Family(f"P{k}", k, table, k - 1, k, (0, 1))


def kronecker(r):
    """Path algebra of two vertices and r parallel arrows.

    Basis e0, e1, a_1..a_r (indices 2..r+1) with e0 a = a = a e1.
    """
    table = {(0, 0): {0: ONE}, (1, 1): {1: ONE}}
    for a in range(2, r + 2):
        table[(0, a)] = {a: ONE}
        table[(a, 1)] = {a: ONE}
    return Family(f"K{r}", r + 2, table, r * r - 1, 1, (0, 2))


def upper_triangular(n):
    """Upper-triangular n x n matrices; E_ij (i <= j) in row-major order."""
    index = {}
    for i in range(n):
        for j in range(i, n):
            index[(i, j)] = len(index)
    table = {}
    for (i, j), a in index.items():
        for (l, t), b in index.items():
            if j == l:
                table[(a, b)] = {index[(i, t)]: ONE}
    return Family(f"T{n}", len(index), table, 0, 1, (index[(0, 0)], index[(0, 1)]))


def direct_sum(f, g):
    """f (+) g with g's basis shifted past f's."""
    n = f.dim
    table = dict(f.table)
    for (i, j), vec in g.table.items():
        table[(n + i, n + j)] = {n + k: c for k, c in vec.items()}
    return Family(f"{f.name}+{g.name}", n + g.dim, table,
                  f.h1 + g.h1, f.center + g.center, f.unit_pair)


def perturbed(f):
    """f with e*e scaled by 2 for its unit pair: never associative."""
    e, _ = f.unit_pair
    table = dict(f.table)
    table[(e, e)] = {e: 2 * ONE}
    return Family(f.name + "!", f.dim, table, None, None, f.unit_pair)


def _multiply(table, u, v):
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            for k, c in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + x * y * c
    return {k: c for k, c in out.items() if c}


def sheared(f, shears):
    """f in the basis where f_i = e_i + c e_j, one shear (i, j, c) at a time.

    A basis change keeps every invariant above, including the failure of
    associativity of a perturbed table.
    """
    table = f.table
    for i, j, c in shears:
        def lift(a):
            return {a: ONE, j: c} if a == i else {a: ONE}
        new = {}
        for a in range(f.dim):
            for b in range(f.dim):
                vec = _multiply(table, lift(a), lift(b))
                if i in vec:  # e-coordinates to f-coordinates
                    vec[j] = vec.get(j, 0) - c * vec[i]
                    if not vec[j]:
                        del vec[j]
                if vec:
                    new[(a, b)] = vec
        table = new
    return Family(f.name + "~", f.dim, table, f.h1, f.center, f.unit_pair)


def dense(f):
    """The table as the dense mult[i][j][k] list semih1's Algebra takes."""
    mult = [[[0] * f.dim for _ in range(f.dim)] for _ in range(f.dim)]
    for (i, j), vec in f.table.items():
        for k, c in vec.items():
            mult[i][j][k] = c
    return mult


def _entries(table, keys):
    a, b, c = keys
    return [{a: i, b: j, c: k, "c": str(x)}
            for (i, j), vec in sorted(table.items()) for k, x in sorted(vec.items())]


def algebra_spec(name, f):
    return {"name": name, "dim": f.dim, "mult": _entries(f.table, "ijk")}


def regular_module_spec(name, over, f):
    """f acting on itself on both sides, with its own multiplication."""
    return {"name": name, "over": over, "dim": f.dim,
            "mult": _entries(f.table, "ijk"),
            "left": _entries(f.table, ("i", "p", "q")),
            "right": _entries(f.table, ("p", "i", "q"))}


def instance_text(algebras, modules, jobs):
    doc = {"algebras": algebras, "jobs": jobs}
    if modules:
        doc["modules"] = modules
    return json.dumps(doc, indent=1)
