"""Solvers for the linear spaces of maps attached to an algebra pair.

All spaces live inside the coordinate space of linear maps from a source to
a target: a map ``f`` with ``f(e_p) = sum_q F[p][q] u_q`` is flattened
row-major, coordinate ``p * target_dim + q``.  This module owns that
convention.

It also owns the one vocabulary for linear constraints on such maps.  A
:class:`RowGroup` is a named bilinear identity in basis pairs ``(x, y)``;
each of its rows, one per ``(x, y, k)``, is a signed sum of terms of three
shapes, ``D(xy)``, ``(Dx)y`` and ``x(Dy)``, where the product is a grid of
slices (``B[x][y]`` holds the nonzero ``(k, c)`` coordinates of the product
of basis vectors x and y, as in :mod:`.algebra`) and ``D`` is one block of
the unknown map, placed at an offset of the flattened coordinates.
:func:`solve` is the one place where groups become a canonical kernel;
:func:`first_failure` evaluates a group on one flattened map and returns
its first failing basis pair, the witness a per-matrix check reports.  Both
visit only the rows some term reaches.

Computed spaces, the last four read from the commutator rows of
``algebra._commutators`` (row p: the map a -> a u_p - u_p a) and their
transpose, the rows of a -> r_a:

* ``derivation_space``  -- solutions of d(ab) = a d(b) + d(a) b,
* ``hom_space``         -- two-sided module homomorphisms,
* ``inner_space``       -- the span of the commutator rows,
* ``r/c/i_space``       -- the twisting maps r_a(x) = xa - ax, their central
                           slice, and the inner maps of U with vanishing
                           A-commutator.
"""

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
    F0,
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
    signed ``(l, c)`` pairs of the sum, with k for the last two.  A pair's
    rows are thus built together, and only those some term reaches: every k
    when ``D(xy)`` has an entry, else the k of its other terms.  Pairs are
    scanned x-major, or y-major when ``y_major`` is set; the first pair with
    a nonzero row is the group's witness.
    """

    __slots__ = ("name", "dims", "y_major", "_index")

    def __init__(self, name, dims, terms, y_major=False):
        self.name = name
        self.dims = dims
        self.y_major = y_major
        self._index = []
        for sign, shape, tensor, (r0, c0, width) in terms:
            by = {}
            for a, slab in enumerate(tensor):
                for b, sl in enumerate(slab):
                    for k, c in sl:
                        key, entry = {OUT: ((a, b), (k,)), LEFT: (b, (k, a)),
                                      RIGHT: (a, (k, b))}[shape]
                        by.setdefault(key, []).append((*entry, c if sign > 0 else -c))
            self._index.append((shape, r0, c0, width, by))

    def pairs(self):
        dx, dy, _ = self.dims
        if self.y_major:
            return [(x, y) for y in range(dy) for x in range(dx)]
        return [(x, y) for x in range(dx) for y in range(dy)]

    def _pair_rows(self, x, y):
        """k -> the (flat coordinate, coefficient) entries of row (x, y, k), for each k reached."""
        rows = {}
        for shape, r0, c0, width, by in self._index:
            if shape == OUT:
                terms = by.get((x, y), ())
                for k in range(self.dims[2]) if terms else ():
                    rows.setdefault(k, []).extend(((r0 + l) * width + c0 + k, c) for l, c in terms)
            else:
                base = (r0 + (x if shape == LEFT else y)) * width + c0
                for k, l, c in by.get(y if shape == LEFT else x, ()):
                    rows.setdefault(k, []).append((base + l, c))
        return rows

    def _rows(self):
        """((x, y), row (x, y, k)) for every row some term reaches, in scan order."""
        for x, y in self.pairs():
            rows = self._pair_rows(x, y)
            for k in sorted(rows):
                yield (x, y), rows[k]

    def row(self, x, y, k):
        """The nonzero (flat coordinate, coefficient) entries of row (x, y, k)."""
        return self._pair_rows(x, y).get(k, [])


def solve(amb, *groups) -> Subspace:
    """The canonical kernel, inside Q^amb, of every row of the given groups.

    Terms of a row that land on one coordinate are added up and the sums
    that cancel dropped, so each row reaches the engine as sparse pairs.
    """
    rows = []
    for g in groups:
        for _, entries in g._rows():
            merged = {}
            for i, c in entries:
                merged[i] = merged.get(i, F0) + c
            rows.append([(i, c) for i, c in merged.items() if c])
    if not rows:
        return Subspace.full(amb)
    return kernel_of_rows(rows, amb)


def first_failure(group: RowGroup, flat):
    """The first basis pair whose rows do not vanish on a flattened map, else None."""
    for pair, entries in group._rows():
        if sum(c * flat[i] for i, c in entries if flat[i]):
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


class LinearMapSpace:
    """A subspace of the maps source -> target, flattened row-major."""

    __slots__ = ("source_dim", "target_dim", "space")

    def __init__(self, source_dim, target_dim, space: Subspace):
        if space.ambient != source_dim * target_dim:
            raise ShapeMismatch("ambient dimension is not source_dim * target_dim")
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.space = space

    @property
    def dim(self):
        return self.space.dim

    def basis_maps(self):
        return [unflatten(row, self.source_dim, self.target_dim)
                for row in self.space.basis.data]

    def contains_map(self, m: Matrix) -> bool:
        if (m.rows, m.cols) != (self.source_dim, self.target_dim):
            raise ShapeMismatch("map has the wrong shape for this space")
        return self.space.contains(m.flatten())

    def __repr__(self):
        return (f"LinearMapSpace({self.source_dim}->{self.target_dim}, "
                f"dim={self.dim})")


def _action_of(m):
    return m.action if isinstance(m, ModuleAlgebra) else m


def derivation_space(a: Algebra, m) -> LinearMapSpace:
    """All d: A -> M with d(ab) = a.d(b) + d(a).b, as a kernel.

    In finite dimension every derivation is continuous, so this is the full
    space Z1(A, M) with no topological qualifier.
    """
    act = _action_of(m)
    if act.algebra_dim != a.dim:
        raise ShapeMismatch("module is not over the given algebra")
    n, md = a.dim, act.module_dim
    return LinearMapSpace(n, md, solve(n * md, leibniz("leibniz", a, act, (0, 0, md))))


def leibniz_defect(d: Matrix, a: Algebra, m):
    """First basis pair (i, j) where d fails the derivation law, else None."""
    act = _action_of(m)
    if (d.rows, d.cols) != (a.dim, act.module_dim):
        raise ShapeMismatch("candidate map has the wrong shape")
    return first_failure(leibniz("leibniz", a, act, (0, 0, d.cols)), d.flatten())


def _map(rows, coeffs, source_dim, target_dim) -> Matrix:
    """``sum_k coeffs[k] rows[k]`` of rows in flat map coordinates, as a matrix."""
    return unflatten(_vector(_combine(rows, coeffs), source_dim * target_dim),
                     source_dim, target_dim)


def _span(rows, source_dim, target_dim) -> LinearMapSpace:
    """The span of rows in flat map coordinates, as a space of maps."""
    return LinearMapSpace(source_dim, target_dim,
                          _span_of_rows(rows, source_dim * target_dim))


def _r(u: ModuleAlgebra):
    """The flat rows of a -> r_a, one per basis vector of the algebra."""
    act = u.action
    return _twists(_commutators(act), act.algebra_dim, act.module_dim)


def inner_map(x, a: Algebra, m) -> Matrix:
    """The matrix of a -> ax - xa for a module element x."""
    act = _action_of(m)
    if len(x) != act.module_dim:
        raise ShapeMismatch("module element has the wrong length")
    return _map(_commutators(act), x, a.dim, act.module_dim)


def inner_space(a: Algebra, m) -> LinearMapSpace:
    """N1(A, M): the span of the inner maps, as an image."""
    act = _action_of(m)
    return _span(_commutators(act), a.dim, act.module_dim)


def h1_dim(a: Algebra, m=None) -> int:
    """dim Z1(A,M) - dim N1(A,M); with m omitted, coefficients in A itself."""
    if m is None:
        m = regular_action(a)
    z = derivation_space(a, m)
    inner = inner_space(a, m)
    if not z.space.contains_subspace(inner.space):
        raise InternalInvariantViolation("inner maps escaped the derivation space")
    return z.dim - inner.dim


def hom_space(a: Algebra, u, v) -> LinearMapSpace:
    """Hom_A(U, V): maps with f(a.x) = a.f(x) and f(x.a) = f(x).a."""
    ua, va = _action_of(u), _action_of(v)
    if ua.algebra_dim != a.dim or va.algebra_dim != a.dim:
        raise ShapeMismatch("both modules must be over the given algebra")
    mu, mv = ua.module_dim, va.module_dim
    return LinearMapSpace(mu, mv, solve(mu * mv, *bimodule_hom(a.dim, ua, va, (0, 0, mv))))


def r_map(a_elt, u: ModuleAlgebra) -> Matrix:
    """The matrix of x -> x.a - a.x on U for an algebra element a."""
    if len(a_elt) != u.action.algebra_dim:
        raise ShapeMismatch("algebra element has the wrong length")
    return _map(_r(u), a_elt, u.dim, u.dim)


def r_space(a: Algebra, u: ModuleAlgebra) -> LinearMapSpace:
    """R_A(U): the span of the maps r_a over a in A."""
    return _span(_r(u), u.dim, u.dim)


def c_space(a: Algebra, u: ModuleAlgebra) -> LinearMapSpace:
    """C_A(U): the maps r_a with a central in A."""
    rows = _r(u)
    return _span([_combine(rows, z) for z in center(a).basis.data], u.dim, u.dim)


def u_inner_map(x, u_alg: Algebra) -> Matrix:
    """The inner map y -> yx - xy of the algebra U itself."""
    return inner_map(x, u_alg, regular_action(u_alg))


def i_space(a: Algebra, u: ModuleAlgebra) -> LinearMapSpace:
    """I(U): inner maps of U induced by x whose A-commutator map vanishes."""
    rows = _commutators(regular_action(u.algebra))
    return _span([_combine(rows, x) for x in commutant_in_module(a, u).basis.data],
                 u.dim, u.dim)


def commutant_in_module(a: Algebra, u) -> Subspace:
    """{x in U : a.x = x.a for all a}: the parameter space behind I(U)."""
    act = _action_of(u)
    return _kernel_of_images(_commutators(act), act.module_dim)


def inner_witness(d: Matrix, a: Algebra, m):
    """Some x with (a -> ax - xa) = d, or None when d is not inner.

    Witnesses are not unique whenever the commutant is nontrivial; callers
    must verify a returned witness, never compare two of them.
    """
    defect = leibniz_defect(d, a, m)
    if defect is not None:
        raise NotADerivation(f"map violates the derivation law at basis pair {defect}")
    act = _action_of(m)
    # one row per map coordinate: sum_p x_p ad(u_p) = d, with d as column md
    images = [*_commutators(act), _pairs(d.flatten())]
    return _solve_rows(list(_by_coordinate(images).values()), act.module_dim)
