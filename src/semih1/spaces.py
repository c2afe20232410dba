"""Solvers for the linear spaces of maps attached to an algebra pair.

Every space of maps is a canonical :class:`~.linalg.Subspace` of the
coordinate space of linear maps from a source to a target: a map ``f`` with
``f(e_p) = sum_q F[p][q] u_q`` is flattened row-major, coordinate
``p * target_dim + q``, so the ambient is ``source_dim * target_dim`` and
``unflatten(row, source_dim, target_dim)`` gives back a basis map.  This
module owns that convention; the shape is the caller's to know.

It also owns the one vocabulary for linear constraints on such maps.  A
:class:`RowGroup` is a named bilinear identity in basis pairs ``(x, y)``;
each of its rows, one per ``(x, y, k)``, is a signed sum of terms of three
shapes, ``D(xy)``, ``(Dx)y`` and ``x(Dy)``, where the product is a grid of
slices (``B[x][y]`` holds the nonzero ``(k, c)`` coordinates of the product
of basis vectors x and y, as in :mod:`.algebra`) and ``D`` is one block of
the unknown map, placed at an offset of the flattened coordinates.  Rows
are integer rows, built only where some term reaches.  :func:`solve` hands
them to the engine, the one place where groups become a canonical kernel;
:func:`first_failure` keeps them on the group and returns the first basis
pair failing on a flattened map, the witness a per-matrix check reports.

Computed spaces, the last four read from the commutator rows of
``algebra._commutators`` (row p: the map a -> a u_p - u_p a) and their
transpose, the rows of a -> r_a:

* ``derivation_space``  -- solutions of d(ab) = a d(b) + d(a) b, maps A -> M,
* ``hom_space``         -- two-sided module homomorphisms, maps U -> V,
* ``inner_space``       -- the span of the commutator rows, maps A -> M,
* ``r/c/i_space``       -- the twisting maps r_a(x) = xa - ax, their central
                           slice, and the inner maps of U with vanishing
                           A-commutator, maps U -> U.
"""

from fractions import Fraction
from math import lcm

from .algebra import (
    Algebra,
    ModuleAlgebra,
    _commutators,
    _twists,
    _vector,
    center,
    regular_action,
    unit_vector,
)
from .errors import InternalInvariantViolation, NotADerivation, ShapeMismatch
from .linalg import (  # noqa: F401 -- kernel stays importable as spaces.kernel
    Matrix,
    Subspace,
    _by_coordinate,
    _combine,
    _kernel_of_images,
    _pairs,
    _solve_rows,
    _span_of_rows,
    kernel,
    kernel_of_rows,
    unflatten,
)


# term shapes of a row group: D applied to a product, or a product with D
# applied to its left or right factor
OUT, LEFT, RIGHT = "D(xy)", "(Dx)y", "x(Dy)"


class RowGroup:
    """A named bilinear identity, one linear row per (x, y, k).

    ``dims`` is ``(dx, dy, dk)``: basis pairs (x, y) and output coordinates
    k.  ``terms`` lists ``(sign, shape, tensor, place)``, each tensor a grid
    of slices.  With ``place = (row_offset, col_offset, width)`` the block D
    has entry ``D[r][s]`` at flat coordinate ``(row_offset + r) * width +
    col_offset + s``, and row (x, y, k) gets ``sign`` times coordinate k of

    * ``D(xy)``: ``sum_l tensor[x][y][l] D[l]``,
    * ``(Dx)y``: ``sum_l D[x][l] tensor[l][y]``,
    * ``x(Dy)``: ``sum_l tensor[x][l] D[y][l]``.

    Each term is indexed once, at construction, by the slot a pair (x, y)
    looks it up with: ``(x, y)``, ``y`` and ``x`` respectively, giving the
    signed ``(l, c)`` pairs of the sum, with k for the last two, each c an
    int: ``scale``, the lcm of all term denominators, times the coefficient.
    A pair's rows are thus built together, and only those some term reaches:
    every k when ``D(xy)`` has an entry, else the k of its other terms.
    Pairs are scanned x-major, or y-major when ``y_major`` is set; the first
    pair with a nonzero row is the group's witness.
    """

    __slots__ = ("name", "dims", "y_major", "scale", "_index", "_kept")

    def __init__(self, name, dims, terms, y_major=False):
        self.name = name
        self.dims = dims
        self.y_major = y_major
        self.scale = s = lcm(*(c.denominator for _, _, tensor, _ in terms
                               for slab in tensor for sl in slab for _, c in sl))
        self._index = []
        self._kept = None
        for sign, shape, tensor, (r0, c0, width) in terms:
            by, f = {}, sign * s
            for a, slab in enumerate(tensor):
                for b, sl in enumerate(slab):
                    for k, c in sl:
                        key, entry = {OUT: ((a, b), (k,)), LEFT: (b, (k, a)),
                                      RIGHT: (a, (k, b))}[shape]
                        by.setdefault(key, []).append((*entry, c.numerator * (f // c.denominator)))
            self._index.append((shape, r0, c0, width, by))

    def pairs(self):
        dx, dy, _ = self.dims
        if self.y_major:
            return [(x, y) for y in range(dy) for x in range(dx)]
        return [(x, y) for x in range(dx) for y in range(dy)]

    def _pair_rows(self, x, y):
        """k -> {flat coordinate: summed int coefficient} of row (x, y, k), for each k reached."""
        rows = {}
        for shape, r0, c0, width, by in self._index:
            if shape == OUT:
                terms = by.get((x, y), ())
                for k in range(self.dims[2]) if terms else ():
                    row = rows.setdefault(k, {})
                    for l, c in terms:
                        i = (r0 + l) * width + c0 + k
                        row[i] = row.get(i, 0) + c
            else:
                base = (r0 + (x if shape == LEFT else y)) * width + c0
                for k, l, c in by.get(y if shape == LEFT else x, ()):
                    row = rows.setdefault(k, {})
                    row[base + l] = row.get(base + l, 0) + c
        return rows

    def _rows(self):
        """((x, y), nonzero row (x, y, k) as (coordinate, int) pairs), in scan order."""
        for x, y in self.pairs():
            rows = self._pair_rows(x, y)
            for k in sorted(rows):
                if row := [(i, c) for i, c in rows[k].items() if c]:
                    yield (x, y), row

    def row(self, x, y, k):
        """The nonzero (flat coordinate, coefficient) entries of row (x, y, k), as Fractions."""
        row = self._pair_rows(x, y).get(k, {})
        return [(i, Fraction(c, self.scale)) for i, c in row.items() if c]


def solve(amb, *groups) -> Subspace:
    """The canonical kernel, inside Q^amb, of the integer rows of the groups; none is kept."""
    return kernel_of_rows([row for g in groups for _, row in g._rows()], amb)


def first_failure(group: RowGroup, flat):
    """The first basis pair whose rows do not vanish on a flattened map, else None.

    A group is read-only, so its rows are built once, at its first call, and kept.
    """
    if group._kept is None:
        group._kept = list(group._rows())
    for pair, row in group._kept:
        if sum(c * flat[i] for i, c in row if flat[i]):
            return pair
    return None


def leibniz(name, a: Algebra, act, place) -> RowGroup:
    """D(xy) = x.D(y) + D(x).y for D: A -> M placed at ``place``."""
    return RowGroup(name, (a.dim, a.dim, act.module_dim),
                    [(1, OUT, a.mult, place), (-1, RIGHT, act.left, place),
                     (-1, LEFT, act.right, place)])


def bimodule_hom(a_dim, u, v, place):
    """f(a.x) = a.f(x) and f(x.a) = f(x).a for f: U -> V placed at ``place``."""
    mu, mv = u.module_dim, v.module_dim
    return (RowGroup("hom-left", (a_dim, mu, mv),
                     [(1, OUT, u.left, place), (-1, RIGHT, v.left, place)]),
            RowGroup("hom-right", (mu, a_dim, mv),
                     [(1, OUT, u.right, place), (-1, LEFT, v.right, place)]))


def kills(name, tensor, place, dk) -> RowGroup:
    """D(xy) = 0 for every basis product of ``tensor``; D has ``dk`` columns."""
    return RowGroup(name, (len(tensor), len(tensor[0]) if tensor else 0, dk),
                    [(1, OUT, tensor, place)])


def lands_in(name, target: Subspace, place, dx) -> RowGroup:
    """D(e_x) lies in ``target`` for x < dx: its residual mod ``target`` vanishes."""
    d = target.ambient
    residual = [[_pairs(target.reduce(unit_vector(d, l)))] for l in range(d)]
    return RowGroup(name, (dx, 1, d), [(1, LEFT, residual, place)])


def _action_of(a: Algebra, m):
    act = m.action if isinstance(m, ModuleAlgebra) else m
    if act.algebra_dim != a.dim:
        raise ShapeMismatch("module is not over the given algebra")
    return act


def derivation_space(a: Algebra, m) -> Subspace:
    """All d: A -> M with d(ab) = a.d(b) + d(a).b, as a kernel.

    In finite dimension every derivation is continuous, so this is the full
    space Z1(A, M) with no topological qualifier.
    """
    act = _action_of(a, m)
    return solve(a.dim * act.module_dim, leibniz("leibniz", a, act, (0, 0, act.module_dim)))


def leibniz_defect(d: Matrix, a: Algebra, m):
    """First basis pair (i, j) where d fails the derivation law, else None."""
    act = _action_of(a, m)
    if (d.rows, d.cols) != (a.dim, act.module_dim):
        raise ShapeMismatch("candidate map has the wrong shape")
    return first_failure(leibniz("leibniz", a, act, (0, 0, d.cols)), d.flatten())


def _map(rows, coeffs, source_dim, target_dim) -> Matrix:
    """``sum_k coeffs[k] rows[k]`` of rows in flat map coordinates, as a matrix."""
    return unflatten(_vector(_combine(rows, coeffs), source_dim * target_dim),
                     source_dim, target_dim)


def _r(u: ModuleAlgebra):
    """The flat rows of a -> r_a, one per basis vector of the algebra."""
    act = u.action
    return _twists(_commutators(act), act.algebra_dim, act.module_dim)


def inner_map(x, a: Algebra, m) -> Matrix:
    """The matrix of a -> ax - xa for a module element x."""
    act = _action_of(a, m)
    if len(x) != act.module_dim:
        raise ShapeMismatch("module element has the wrong length")
    return _map(_commutators(act), x, a.dim, act.module_dim)


def inner_space(a: Algebra, m) -> Subspace:
    """N1(A, M): the span of the inner maps, as an image."""
    act = _action_of(a, m)
    return _span_of_rows(_commutators(act), a.dim * act.module_dim)


def _h1_of(z: Subspace, inner: Subspace, what=None) -> int:
    """dim Z1 - dim N1, once N1 is checked to lie inside Z1."""
    if not z.contains_subspace(inner):
        raise InternalInvariantViolation("inner maps escaped the derivation space"
                                         + ("" if what is None else f" of {what}"))
    return z.dim - inner.dim


def h1_dim(a: Algebra, m=None) -> int:
    """dim Z1(A,M) - dim N1(A,M); with m omitted, coefficients in A itself."""
    m = regular_action(a) if m is None else m
    return _h1_of(derivation_space(a, m), inner_space(a, m))


def hom_space(a: Algebra, u, v) -> Subspace:
    """Hom_A(U, V): maps with f(a.x) = a.f(x) and f(x.a) = f(x).a."""
    ua, va = _action_of(a, u), _action_of(a, v)
    mu, mv = ua.module_dim, va.module_dim
    return solve(mu * mv, *bimodule_hom(a.dim, ua, va, (0, 0, mv)))


def r_map(a_elt, u: ModuleAlgebra) -> Matrix:
    """The matrix of x -> x.a - a.x on U for an algebra element a."""
    if len(a_elt) != u.action.algebra_dim:
        raise ShapeMismatch("algebra element has the wrong length")
    return _map(_r(u), a_elt, u.dim, u.dim)


def r_space(a: Algebra, u: ModuleAlgebra) -> Subspace:
    """R_A(U): the span of the maps r_a over a in A."""
    return _span_of_rows(_r(u), u.dim * u.dim)


def c_space(a: Algebra, u: ModuleAlgebra) -> Subspace:
    """C_A(U): the maps r_a with a central in A."""
    rows = _r(u)
    return _span_of_rows([_combine(rows, z) for z in center(a).basis.data], u.dim * u.dim)


def u_inner_map(x, u_alg: Algebra) -> Matrix:
    """The inner map y -> yx - xy of the algebra U itself."""
    return inner_map(x, u_alg, regular_action(u_alg))


def i_space(a: Algebra, u: ModuleAlgebra) -> Subspace:
    """I(U): inner maps of U induced by x whose A-commutator map vanishes."""
    rows = _commutators(regular_action(u.algebra))
    return _span_of_rows([_combine(rows, x) for x in commutant_in_module(a, u).basis.data],
                         u.dim * u.dim)


def commutant_in_module(a: Algebra, u) -> Subspace:
    """{x in U : a.x = x.a for all a}: the parameter space behind I(U)."""
    act = _action_of(a, u)
    return _kernel_of_images(_commutators(act), act.module_dim)


def inner_witness(d: Matrix, a: Algebra, m):
    """Some x with (a -> ax - xa) = d, or None when d is not inner.

    Witnesses are not unique whenever the commutant is nontrivial; callers
    must verify a returned witness, never compare two of them.
    """
    if (defect := leibniz_defect(d, a, m)) is not None:
        raise NotADerivation(f"map violates the derivation law at basis pair {defect}")
    act = _action_of(a, m)
    # one row per map coordinate: sum_p x_p ad(u_p) = d, with d as column md
    images = [*_commutators(act), _pairs(d.flatten())]
    return _solve_rows(list(_by_coordinate(images).values()), act.module_dim)
