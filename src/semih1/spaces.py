"""Solvers for the linear spaces of maps attached to an algebra pair.

Every space of maps is a canonical :class:`~.linalg.Subspace` of the
coordinate space of linear maps from a source to a target: a map ``f`` with
``f(e_p) = sum_q F[p][q] u_q`` is flattened row-major, coordinate
``p * target_dim + q``, so the ambient is ``source_dim * target_dim`` and
``linalg.unflatten(row, source_dim, target_dim)`` gives back a basis map.
This module owns that convention; the shape is the caller's to know.

It also owns the one vocabulary for linear constraints on such maps.  A
:class:`RowGroup` is a named bilinear identity in basis pairs ``(x, y)``;
each of its rows, one per ``(x, y, k)``, is a signed sum of terms of three
shapes, ``D(xy)``, ``(Dx)y`` and ``x(Dy)``, where the product is a grid of
slices (``B[x][y]`` holds the nonzero ``(k, c)`` coordinates of the product
of basis vectors x and y, as in :mod:`.algebra`) and ``D`` is one block of
the unknown map, placed at an offset of the flattened coordinates.  Rows
are integer rows, built only where some term reaches, each distinct row
once, first occurrence kept, and built once per group, in one pass over its
terms: ``RowGroup.kept`` fills them at first use and keeps them.  A group
visits only the pairs whose algebra index lies in the set it is given:
the kernel solvers pass :func:`~.algebra.generators`, basis indices whose
words span the algebra, and so build only the generator rows, which cut out
the same kernel under the associativity and bimodule laws that validation
guarantees; a witness scan passes none and visits every pair.
:func:`solve` hands the kept rows to the engine, the one place where groups
become a canonical kernel; :func:`first_failure` returns the first basis
pair whose kept rows fail on a flattened map, the witness a per-matrix
check reports.  Since equal row sets have one kernel, a caller holding two
systems can certify one kernel by the other's rows: :mod:`.verify` takes
Z1(A x| U) as the 3.1 kernel when the 3.1 rows, scaled to the Leibniz
group's denominator, are exactly the Leibniz rows of the total, and solves
the 3.1 groups only when they differ.

Computed spaces, the last four read from the commutator rows that
``algebra._commutators`` keeps on each action (row p: a -> a u_p - u_p a),
whose kernel is the commutant and centre of :mod:`.algebra`, and their
transpose, the rows of a -> r_a; C and I are each one elimination
(``linalg._image_of_kernel``), the groups' rows go to ``kernel_of_rows``:

* ``derivation_space``  -- solutions of d(ab) = a d(b) + d(a) b, maps A -> M; N1 on a separable A,
* ``hom_space``         -- two-sided module homomorphisms, maps U -> V,
* ``inner_space``       -- the span of the commutator rows, maps A -> M,
* ``r/c/i_space``       -- the twisting maps r_a(x) = xa - ax, their central
                           slice, and the inner maps of U with vanishing
                           A-commutator, maps U -> U.
"""

from math import lcm

from .algebra import (
    Algebra,
    ModuleAlgebra,
    _action_of,
    _commutators,
    _twists,
    generators,
    regular_action,
    separable,
)
from .errors import InternalInvariantViolation, NotADerivation, ShapeMismatch
from .linalg import (
    Matrix,
    Subspace,
    _combine,
    _image_of_kernel,
    _pairs,
    _reshape,
    _solve_rows,
    _span_of_rows,
    _vector,
    frac,
    kernel,  # noqa: F401 -- stays importable as spaces.kernel
    kernel_of_rows,
)


# term shapes of a row group: D applied to a product, or a product with D
# applied to its left or right factor
OUT, LEFT, RIGHT = "D(xy)", "(Dx)y", "x(Dy)"


class RowGroup:
    """A named bilinear identity, one linear row per (x, y, k).

    ``dims`` is ``(dx, dy, dk)``: basis pairs (x, y) and output coordinates
    k.  ``terms`` lists ``(sign, shape, tensor, place)``, each tensor a grid
    of slices.  With ``place = (r0, c0, width)`` the block D has entry
    ``D[r][s]`` at flat coordinate ``(r0 + r) * width + c0 + s``, and row
    (x, y, k) gets ``sign`` times coordinate k of

    * ``D(xy)``: ``sum_l tensor[x][y][l] D[l]``,
    * ``(Dx)y``: ``sum_l D[x][l] tensor[l][y]``,
    * ``x(Dy)``: ``sum_l tensor[x][l] D[y][l]``.

    Only the pairs with x in ``xs`` and y in ``ys`` have rows; an axis whose
    set is None visits every index.  A caller that passes a generating set of the
    algebra on one axis (:func:`~.algebra.generators`) keeps the rows that
    already cut out the kernel: a law that holds for x = g1 and x = g2 and
    every y holds for x = g1 g2, by associativity and the bimodule laws.

    The rows are built in one pass over the terms, in order.  Each entry of
    slice (a, b) is made an int once (``scale``, the lcm of all term
    denominators, times ``sign`` times it) and lands

    * for ``D(xy)``, entry (l, c) at ``D[l][k]`` of row (a, b, k), every k;
    * for ``(Dx)y``, entry (k, c) at ``D[x][a]`` of row (x, b, k), every x;
    * for ``x(Dy)``, entry (k, c) at ``D[y][b]`` of row (a, y, k), every y.

    A row takes its entries in term order, then in row-major slice order
    (a ``(Dx)y`` tensor is read by columns, which keeps that order), and
    only the rows some term reaches exist.  Pairs are scanned x-major, or
    y-major when ``y_major`` is set, and each distinct row is handed on
    once, first occurrence kept; the first pair with a nonzero row is the
    group's witness.  The rows are built once, by the first call of ``kept``.
    """

    __slots__ = ("name", "dims", "terms", "y_major", "xs", "ys", "scale", "_kept")

    def __init__(self, name, dims, terms, y_major=False, xs=None, ys=None):
        self.name = name
        self.dims = dims
        self.terms = terms
        self.y_major = y_major
        self.xs = range(dims[0]) if xs is None else xs
        self.ys = range(dims[1]) if ys is None else ys
        self.scale = lcm(*(c.denominator for _, _, tensor, _ in terms
                           for slab in tensor for sl in slab for _, c in sl))
        self._kept = None

    def pairs(self):
        if self.y_major:
            return [(x, y) for y in self.ys for x in self.xs]
        return [(x, y) for x in self.xs for y in self.ys]

    def _grid(self):
        """grid[x][y]: k -> {flat coordinate: summed int coefficient} of each row (x, y, k).

        Only the cells of pairs in ``xs`` and ``ys`` are filled.
        """
        (dx, dy, dk), xs, ys = self.dims, self.xs, self.ys
        grid = [[{} for _ in range(dy)] for _ in range(dx)]
        for sign, shape, tensor, (r0, c0, width) in self.terms:
            f = sign * self.scale
            if shape == OUT:
                for a in xs:
                    slab = tensor[a]
                    for b in ys:
                        entries = [((r0 + l) * width + c0, c.numerator * (f // c.denominator))
                                   for l, c in slab[b]]
                        rows = grid[a][b]
                        for k in range(dk) if entries else ():
                            row = rows.get(k) or rows.setdefault(k, {})
                            for i, c in entries:
                                row[i + k] = row.get(i + k, 0) + c
                continue
            # tensor column j lands in the rows (x, j, k) of every x in xs, tensor row j in
            # the rows (j, y, k) of every y in ys; bases pairs each with the flat
            # coordinate of its D[r][0]
            lines, others = (ys, xs) if shape == LEFT else (xs, ys)
            bases = [(r0 + r) * width + c0 for r in others]
            for j in lines:
                line = [slab[j] for slab in tensor] if shape == LEFT else tensor[j]
                entries = [(l, k, c.numerator * (f // c.denominator))
                           for l, sl in enumerate(line) for k, c in sl]
                cells = ([grid[x][j] for x in xs] if shape == LEFT
                         else [grid[j][y] for y in ys]) if entries else ()
                for rows, base in zip(cells, bases):
                    for l, k, c in entries:
                        row = rows.get(k) or rows.setdefault(k, {})
                        row[base + l] = row.get(base + l, 0) + c
        return grid

    def _rows(self):
        """((x, y), row (x, y, k)) in scan order, each distinct row once, first occurrence kept."""
        grid, seen = self._grid(), set()
        add = seen.add
        for pair in self.pairs():
            x, y = pair
            rows, grid[x][y] = grid[x][y], None  # each pair's dicts go once they are tupled
            for k in sorted(rows):
                r = rows[k]
                row = tuple(r.items()) if all(r.values()) else tuple(
                    (i, c) for i, c in r.items() if c)
                if row and row not in seen:
                    add(row)
                    yield pair, row

    def kept(self):
        """The list of ``_rows``, built at the first call and kept: a group is read-only."""
        if self._kept is None:
            self._kept = list(self._rows())
        return self._kept


def solve(amb, *groups) -> Subspace:
    """The kernel in Q^amb of the groups' kept rows, each distinct row once, first kept.

    A group cut to a generating set hands on only its generator rows; the
    kernel is the one of every row, so the canonical basis is too.
    """
    return kernel_of_rows(list(dict.fromkeys(row for g in groups for _, row in g.kept())), amb)


def first_failure(group: RowGroup, flat):
    """The first basis pair whose kept rows do not vanish on a flattened map, else None.

    Each distinct row is kept once, first occurrence kept: a repeat fails no earlier than
    its first copy.
    """
    for pair, row in group.kept():
        if sum(c * flat[i] for i, c in row if flat[i]):
            return pair
    return None


def leibniz(name, a: Algebra, act, place, gens=None) -> RowGroup:
    """D(xy) = x.D(y) + D(x).y for D: A -> M placed at ``place``.

    With ``gens``, basis indices whose words span A, only the rows with x in
    ``gens`` are built: they cut out the same derivations.  Without, every
    pair has its rows, as a witness scan needs.
    """
    return RowGroup(name, (a.dim, a.dim, act.module_dim),
                    [(1, OUT, a.mult, place), (-1, RIGHT, act.left, place),
                     (-1, LEFT, act.right, place)], xs=gens)


def bimodule_hom(a_dim, u, v, place, gens=None):
    """f(a.x) = a.f(x) and f(x.a) = f(x).a for f: U -> V placed at ``place``.

    With ``gens``, generating basis indices of the algebra, only the rows
    with a in ``gens`` are built, as for :func:`leibniz`.
    """
    mu, mv = u.module_dim, v.module_dim
    return (RowGroup("hom-left", (a_dim, mu, mv),
                     [(1, OUT, u.left, place), (-1, RIGHT, v.left, place)], xs=gens),
            RowGroup("hom-right", (mu, a_dim, mv),
                     [(1, OUT, u.right, place), (-1, LEFT, v.right, place)], ys=gens))


def pairing_groups(a: Algebra, act):
    """gamma: C -> A a bimodule homomorphism with c.gamma(c') + gamma(c).c' = 0.

    Row groups on the flattened coordinates of gamma, for the A-bimodule C
    with action ``act``: ``hom-left`` and ``hom-right`` state gamma(a.c) =
    a.gamma(c) and gamma(c.a) = gamma(c).a, ``pairing`` the last law.
    """
    n, mc = a.dim, act.module_dim
    place = (0, 0, n)
    pairing = RowGroup("pairing", (mc, mc, mc),
                       [(1, RIGHT, act.right, place), (1, LEFT, act.left, place)])
    return (*bimodule_hom(n, act, regular_action(a), place), pairing)


def kills(name, tensor, place, dk) -> RowGroup:
    """D(xy) = 0 for every basis product of ``tensor``; D has ``dk`` columns."""
    return RowGroup(name, (len(tensor), len(tensor[0]) if tensor else 0, dk),
                    [(1, OUT, tensor, place)])


def derivation_space(a: Algebra, m) -> Subspace:
    """All d: A -> M with d(ab) = a.d(b) + d(a).b, as a kernel.

    Every derivation is continuous in finite dimension, so this is all of Z1(A, M); on a separable
    A it is N1(A, M), which, like the generator cut, assumes the associativity validation checks.
    """
    act = _action_of(a, m)
    return inner_space(a, act) if separable(a) else solve(
        a.dim * act.module_dim, leibniz("leibniz", a, act, (0, 0, act.module_dim), generators(a)))


def leibniz_defect(d: Matrix, a: Algebra, m):
    """First basis pair (i, j) where d fails the derivation law, else None."""
    act = _action_of(a, m)
    if (d.rows, d.cols) != (a.dim, act.module_dim):
        raise ShapeMismatch("candidate map has the wrong shape")
    return first_failure(leibniz("leibniz", a, act, (0, 0, d.cols)), d.flatten())


def _map(rows, coeffs, source_dim, target_dim) -> Matrix:
    """``sum_k coeffs[k] rows[k]`` of rows in flat map coordinates, as a matrix."""
    flat = _vector(_combine(rows, _pairs([frac(x) for x in coeffs])), source_dim * target_dim)
    return _reshape(flat, source_dim, target_dim)


def _r(act):
    """The flat rows of a -> r_a, one per basis vector of the algebra."""
    return _twists(_commutators(act), act.algebra_dim, act.module_dim)


def inner_map(x, a: Algebra, m) -> Matrix:
    """The matrix of a -> ax - xa for a module element x (of U itself: ``regular_action(u)``)."""
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
    """dim Z1(A,M) - dim N1(A,M), 0 on a separable A; with m omitted, coefficients in A itself."""
    m = regular_action(a) if m is None else m
    _action_of(a, m)  # the shape check, which the separable route needs too
    return 0 if separable(a) else _h1_of(derivation_space(a, m), inner_space(a, m))


def hom_space(a: Algebra, u, v) -> Subspace:
    """Hom_A(U, V): maps with f(a.x) = a.f(x) and f(x.a) = f(x).a."""
    ua, va = _action_of(a, u), _action_of(a, v)
    mu, mv = ua.module_dim, va.module_dim
    return solve(mu * mv, *bimodule_hom(a.dim, ua, va, (0, 0, mv), generators(a)))


def r_map(a_elt, u: ModuleAlgebra) -> Matrix:
    """The matrix of x -> x.a - a.x on U for an algebra element a."""
    if len(a_elt) != u.action.algebra_dim:
        raise ShapeMismatch("algebra element has the wrong length")
    return _map(_r(u.action), a_elt, u.dim, u.dim)


def r_space(a: Algebra, u: ModuleAlgebra) -> Subspace:
    """R_A(U): the span of the maps r_a over a in A."""
    return _span_of_rows(_r(_action_of(a, u)), u.dim * u.dim)


def c_space(a: Algebra, u: ModuleAlgebra) -> Subspace:
    """C_A(U): the maps r_a with a central in A."""
    return _image_of_kernel(_commutators(regular_action(a)), _r(_action_of(a, u)),
                            a.dim * a.dim, u.dim * u.dim)


def i_space(a: Algebra, u: ModuleAlgebra) -> Subspace:
    """I(U): inner maps of U induced by x whose A-commutator map vanishes."""
    return _image_of_kernel(_commutators(_action_of(a, u)), _commutators(regular_action(u.algebra)),
                            a.dim * u.dim, u.dim * u.dim)


def inner_witness(d: Matrix, a: Algebra, m):
    """Some x with (a -> ax - xa) = d, or None when d is not inner.

    Witnesses are not unique whenever the commutant is nontrivial; callers
    must verify a returned witness, never compare two of them.
    """
    if (defect := leibniz_defect(d, a, m)) is not None:
        raise NotADerivation(f"map violates the derivation law at basis pair {defect}")
    return _witness(_action_of(a, m), _pairs(d.flatten()))


def _witness(act, flat):
    """Some x with sum_p x_p (a -> a u_p - u_p a) = flat, a sparse flat map, else None."""
    rows = {}  # the commutator rows and flat transposed: one equation per flat coordinate
    for p, image in enumerate([*_commutators(act), flat]):
        for key, c in image:
            rows.setdefault(key, []).append((p, c))
    return _solve_rows(list(rows.values()), act.module_dim)
