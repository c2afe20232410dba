"""Solvers for the linear spaces of maps attached to an algebra pair.

All spaces live inside the coordinate space of linear maps from a source to
a target: a map ``f`` with ``f(e_p) = sum_q F[p][q] u_q`` is flattened
row-major, coordinate ``p * target_dim + q``.  This module owns that
convention; every verifier imports its index helpers instead of re-deriving
them.

It also owns the one vocabulary for linear constraints on such maps.  A
:class:`RowGroup` is a named bilinear identity in basis pairs ``(x, y)``;
each of its rows, one per ``(x, y, k)``, is a signed sum of terms of three
shapes, ``D(xy)``, ``(Dx)y`` and ``x(Dy)``, where the product is a grid of
slices (``B[x][y]`` holds the nonzero ``(k, c)`` coordinates of the product
of basis vectors x and y, as in :mod:`.algebra`) and ``D`` is one block of
the unknown map, placed at an offset of the flattened coordinates.
:func:`solve` is the one place where groups become a canonical kernel;
:func:`first_failure` evaluates a group on one flattened map and returns
its first failing basis pair, the witness a per-matrix check reports.

Computed spaces:

* ``derivation_space``  -- solutions of d(ab) = a d(b) + d(a) b,
* ``inner_space``       -- the image of x -> (a -> ax - xa),
* ``hom_space``         -- two-sided module homomorphisms,
* ``r/c/i_space``       -- the twisting maps r_a(x) = xa - ax, their central
                           slice, and the inner maps of U with vanishing
                           A-commutator.
"""

from .algebra import (
    Algebra,
    ModuleAlgebra,
    center,
    regular_action,
    unit_vector,
)
from .errors import InternalInvariantViolation, NotADerivation, ShapeMismatch
from .linalg import (
    F0,
    Matrix,
    Subspace,
    _pairs,
    kernel,
    kernel_of_rows,
    row_space,
    solve_right,
    unflatten,
)


def map_index(p, q, target_dim):
    """Flat coordinate of the (source p, target q) matrix entry."""
    return p * target_dim + q


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

    Each term is indexed once, at construction, by the slot pair a row
    looks it up with: ``(x, y)``, ``(y, k)`` and ``(x, k)`` respectively,
    each giving the signed ``(l, c)`` pairs of the sum.  Pairs are scanned
    x-major, or y-major when ``y_major`` is set; the first pair with a
    nonzero row is the group's witness.
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
                        key, l = {OUT: ((a, b), k), LEFT: ((b, k), a), RIGHT: ((a, k), b)}[shape]
                        by.setdefault(key, []).append((l, c if sign > 0 else -c))
            self._index.append((shape, r0, c0, width, by))

    def pairs(self):
        dx, dy, _ = self.dims
        if self.y_major:
            return [(x, y) for y in range(dy) for x in range(dx)]
        return [(x, y) for x in range(dx) for y in range(dy)]

    def row(self, x, y, k):
        """The nonzero (flat coordinate, coefficient) entries of row (x, y, k)."""
        out = []
        for shape, r0, c0, width, by in self._index:
            if shape == OUT:
                out += [((r0 + l) * width + c0 + k, c) for l, c in by.get((x, y), ())]
            elif shape == LEFT:
                base = (r0 + x) * width + c0
                out += [(base + l, c) for l, c in by.get((y, k), ())]
            else:
                base = (r0 + y) * width + c0
                out += [(base + l, c) for l, c in by.get((x, k), ())]
        return out


def solve(amb, *groups) -> Subspace:
    """The canonical kernel, inside Q^amb, of every row of the given groups.

    Terms of a row that land on one coordinate are added up and the sums
    that cancel dropped, so each row reaches the engine as sparse pairs.
    """
    rows = []
    for g in groups:
        for x, y in g.pairs():
            for k in range(g.dims[2]):
                entries = g.row(x, y, k)
                if entries:
                    merged = {}
                    for i, c in entries:
                        merged[i] = merged.get(i, F0) + c
                    rows.append([(i, c) for i, c in merged.items() if c])
    if not rows:
        return Subspace.full(amb)
    return kernel_of_rows(rows, amb)


def first_failure(group: RowGroup, flat):
    """The first basis pair whose rows do not vanish on a flattened map, else None."""
    for x, y in group.pairs():
        for k in range(group.dims[2]):
            if sum(c * flat[i] for i, c in group.row(x, y, k)):
                return (x, y)
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


def _inner_generators(a: Algebra, m) -> Matrix:
    """Rows-as-images matrix of x -> (a -> ax - xa) from M into map space."""
    act = _action_of(m)
    n, md = a.dim, act.module_dim
    gen = Matrix.zeros(md, n * md)
    for p in range(md):
        row = gen.data[p]
        for i in range(n):
            for q, c in act.left[i][p]:
                row[map_index(i, q, md)] += c
            for q, c in act.right[p][i]:
                row[map_index(i, q, md)] -= c
    return gen


def inner_map(x, a: Algebra, m) -> Matrix:
    """The matrix of a -> ax - xa for a module element x."""
    act = _action_of(m)
    n, md = a.dim, act.module_dim
    if len(x) != md:
        raise ShapeMismatch("module element has the wrong length")
    out = Matrix.zeros(n, md)
    for i in range(n):
        ei = unit_vector(n, i)
        left = act.act_left(ei, x)
        right = act.act_right(x, ei)
        out.data[i] = [lv - rv for lv, rv in zip(left, right)]
    return out


def inner_space(a: Algebra, m) -> LinearMapSpace:
    """N1(A, M): the span of the inner maps, as an image."""
    act = _action_of(m)
    return LinearMapSpace(a.dim, act.module_dim, row_space(_inner_generators(a, m)))


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
    act = u.action
    if len(a_elt) != act.algebra_dim:
        raise ShapeMismatch("algebra element has the wrong length")
    md = act.module_dim
    out = Matrix.zeros(md, md)
    for p in range(md):
        xp = unit_vector(md, p)
        right = act.act_right(xp, a_elt)
        left = act.act_left(a_elt, xp)
        out.data[p] = [rv - lv for rv, lv in zip(right, left)]
    return out


def r_space(a: Algebra, u: ModuleAlgebra) -> LinearMapSpace:
    """R_A(U): the span of the maps r_a over a in A."""
    md = u.dim
    rows = []
    for i in range(a.dim):
        ei = unit_vector(a.dim, i)
        rows.append(r_map(ei, u).flatten())
    return LinearMapSpace(md, md, Subspace.from_vectors(md * md, rows))


def c_space(a: Algebra, u: ModuleAlgebra) -> LinearMapSpace:
    """C_A(U): the maps r_a with a central in A."""
    md = u.dim
    rows = [r_map(z, u).flatten() for z in center(a).basis.data]
    return LinearMapSpace(md, md, Subspace.from_vectors(md * md, rows))


def u_inner_map(x, u_alg: Algebra) -> Matrix:
    """The inner map y -> yx - xy of the algebra U itself."""
    return inner_map(x, u_alg, regular_action(u_alg))


def i_space(a: Algebra, u: ModuleAlgebra) -> LinearMapSpace:
    """I(U): inner maps of U induced by x whose A-commutator map vanishes."""
    md = u.dim
    quiet = kernel(_inner_generators(a, u.action).transpose())
    rows = [u_inner_map(x, u.algebra).flatten() for x in quiet.basis.data]
    return LinearMapSpace(md, md, Subspace.from_vectors(md * md, rows))


def commutant_in_module(a: Algebra, u) -> Subspace:
    """{x in U : a.x = x.a for all a}: the parameter space behind I(U)."""
    return kernel(_inner_generators(a, _action_of(u)).transpose())


def inner_witness(d: Matrix, a: Algebra, m):
    """Some x with (a -> ax - xa) = d, or None when d is not inner.

    Witnesses are not unique whenever the commutant is nontrivial; callers
    must verify a returned witness, never compare two of them.
    """
    defect = leibniz_defect(d, a, m)
    if defect is not None:
        raise NotADerivation(f"map violates the derivation law at basis pair {defect}")
    gen = _inner_generators(a, m)
    return solve_right(gen.transpose(), d.flatten())
