"""Structure-constant algebras, bimodules, and characters.

An :class:`Algebra` of dimension n keeps only its nonzero structure
constants: ``mult[i][j]``, the slice of ``e_i * e_j``, is a tuple of
``(k, c)`` pairs, k increasing and c a nonzero Fraction.  A
:class:`BimoduleAction` adds left/right action grids of the same form, and a
:class:`ModuleAlgebra` couples a module's own multiplication with such an
action.  Public constructors take dense nested lists; nothing is kept dense.
Every product of vectors through a structure tensor (a basis change, the
alpha-product's actions, the homomorphism check) runs on the slices through
:func:`_transport`.

Every axiom validated here is one block of associativity
(e_x e_y) e_z = e_x (e_y e_z) on basis vectors of the parts of a product:
the algebra axiom on A alone, the six module laws as the mixed blocks of
A x| U, and the three corner laws as blocks of the triangular algebra on
(A, M, B).  One checker runs a table of such blocks, exactly, and reports
every basis triple that breaks one, so downstream solvers may assume the
axioms hold.  The algebra and module laws are checked first with the
middle on generators first (Light's test); only a table that fails there
has its other middles scanned, and its failure list is the full scan's.
"""

from fractions import Fraction
from itertools import takewhile, zip_longest
from math import lcm
from operator import itemgetter

from .errors import ShapeMismatch, ValidationFailed
from .linalg import (
    F0,
    F1,
    Subspace,
    _combine,
    _kernel_of_images,
    _pairs,
    _span_of_rows,
    _sparse_rows,
    frac,
)


def unit_vector(n, i):
    """The i-th standard basis vector of Q^n."""
    v = [F0] * n
    v[i] = F1
    return v


def _from_slices(cls, *fields):
    """``cls(*fields)`` for an Algebra, BimoduleAction or CornerModule; later slots start None."""
    obj = object.__new__(cls)
    for slot, value in zip_longest(cls.__slots__, fields):
        setattr(obj, slot, value)
    return obj


def _transport(grid, xs, ys, out=None):
    """The grid of slices of x_i y_j over a grid of slices, for sparse rows xs and ys.

    ``x_i y_j`` is sum x_i[a] y_j[b] grid[a][b]; when ``out`` is given, each
    product is read through out's sparse rows, as sum_k c_k out[k].  Each
    slice is sorted by column with zeros dropped, the form of ``Algebra.mult``.
    """
    cols = [[_combine(slab, y) for slab in grid] for y in ys]
    return [[tuple(sorted(_combine(out, p) if out is not None else p))
             for p in (_combine(col, x) for col in cols)] for x in xs]


def block_tensor(shape, blocks):
    """A d0 x d1 grid of slices, ``shape = (d0, d1)``, with each (offsets, block) copied in.

    Entry (k, c) of block slice [i][j] lands as (o2 + k, c) in slice
    [o0 + i][o1 + j]; the blocks cover disjoint cells.
    """
    d0, d1 = shape
    out = [[()] * d1 for _ in range(d0)]
    for (o0, o1, o2), block in blocks:
        for i, slab in enumerate(block):
            out[o0 + i][o1:o1 + len(slab)] = [tuple((o2 + k, c) for k, c in sl) for sl in slab]
    return out


def _slices(tensor, d0, d1, d2, what):
    """The d0 x d1 grid of slices of a dense d0 x d1 x d2 tensor, shape-checked."""
    if len(tensor) != d0:
        raise ShapeMismatch(f"{what}: expected {d0} slices, got {len(tensor)}")
    out = []
    for i, slab in enumerate(tensor):
        if len(slab) != d1:
            raise ShapeMismatch(f"{what}[{i}]: expected {d1} rows, got {len(slab)}")
        rows = []
        for j, row in enumerate(slab):
            if len(row) != d2:
                raise ShapeMismatch(f"{what}[{i}][{j}]: expected {d2} entries")
            rows.append(_pairs([frac(x) for x in row]))
        out.append(rows)
    return out


class ValidationReport:
    """Per-axiom failure list; empty means every checked axiom holds."""

    def __init__(self, subject):
        self.subject = subject
        self.failures = []

    def add(self, axiom, witness, lhs, rhs):
        self.failures.append({"axiom": axiom, "witness": witness, "lhs": lhs, "rhs": rhs})

    @property
    def ok(self):
        return not self.failures

    def describe(self):
        if self.ok:
            return f"{self.subject}: valid"
        lines = [f"{self.subject}: {len(self.failures)} axiom violation(s)"]
        for f in self.failures[:20]:
            lines.append(f"  {f['axiom']} fails at {f['witness']}")
        return "\n".join(lines)

    def raise_if_failed(self):
        if not self.ok:
            raise ValidationFailed(self.describe(), report=self)


class Algebra:
    """A finite-dimensional algebra given by structure constants.

    The constructor takes ``mult`` dense, ``mult[i][j]`` the coordinate
    vector of ``e_i * e_j``, and keeps the slice of each product.
    Associativity is an invariant checked by :func:`validate_algebra`, not
    assumed at construction time; ``_valid`` keeps its verdict, ``_regular`` the
    regular action, ``_gens`` :func:`generators` and ``_separable`` :func:`separable`.
    """

    __slots__ = ("name", "dim", "mult", "_regular", "_gens", "_separable", "_valid")

    def __init__(self, name, dim, mult):
        self.name = name
        self.dim = dim
        self.mult = _slices(mult, dim, dim, dim, f"mult tensor of {name}")
        self._regular = self._gens = self._separable = self._valid = None

    def is_commutative(self):
        return all(self.mult[i][j] == self.mult[j][i]
                   for i in range(self.dim) for j in range(i + 1, self.dim))

    def __repr__(self):
        return f"Algebra({self.name!r}, dim={self.dim})"


class BimoduleAction:
    """Left/right action tensors of an algebra A on a module U.

    ``left[i][p]`` is the slice of ``e_i . u_p`` and ``right[p][i]`` that
    of ``u_p . e_i``; the constructor takes them dense.  The three bimodule
    axioms are checked by :func:`validate_module`; ``_comm`` keeps :func:`_commutators`
    and ``_memo`` the spaces of maps from A into it that :mod:`.verify` reads.
    """

    __slots__ = ("algebra_dim", "module_dim", "left", "right", "_comm", "_memo")

    def __init__(self, algebra_dim, module_dim, left, right):
        self.algebra_dim = algebra_dim
        self.module_dim = module_dim
        self.left = _slices(left, algebra_dim, module_dim, module_dim, "left action")
        self.right = _slices(right, module_dim, algebra_dim, module_dim, "right action")
        self._comm = self._memo = None

    @classmethod
    def trivial(cls, algebra_dim, module_dim):
        return _from_slices(cls, algebra_dim, module_dim,
                            [[()] * module_dim for _ in range(algebra_dim)],
                            [[()] * algebra_dim for _ in range(module_dim)])

    def is_symmetric(self):
        """True when a.x = x.a on every basis pair (a commutative bimodule)."""
        return all(self.left[i][p] == self.right[p][i]
                   for i in range(self.algebra_dim) for p in range(self.module_dim))


def regular_action(a: Algebra) -> BimoduleAction:
    """A acting on itself by multiplication on both sides; built once per algebra and kept."""
    a._regular = a._regular or _from_slices(BimoduleAction, a.dim, a.dim, a.mult, a.mult)
    return a._regular


def generators(a: Algebra):
    """Sorted basis indices G whose words span A; chosen once per algebra and kept.

    The scan runs in basis order and adds an index to G when it reaches it
    unreached.  An index k is reached when it is in G, or when it is the only
    unreached key of a product e_r e_g or e_g e_r with r reached and g in G:
    that product lies in the span of the words in G, and so does e_k.  Every
    index is reached in the end, so the words in G, in any bracketing, span
    A, associative or not.  The rule reads the slices alone, with no
    elimination; it may keep more generators than a smallest set.
    """
    if a._gens is None:
        mult, n = a.mult, a.dim
        gens, reached, pending = [], [False] * n, []
        for i in range(n):
            if reached[i]:
                continue
            gens.append(i)
            reached[i] = True
            new = [(r, i) for r in range(n) if reached[r]]
            while new:
                # the products of each new (reached, generator) pair, then every product
                # with two or more unreached keys, until no index is newly reached
                pending += [sl for r, g in new for sl in (mult[r][g], mult[g][r]) if sl]
                keep, fresh = [], []
                for sl in pending:
                    open_ = [k for k, _ in sl if not reached[k]]
                    if len(open_) == 1:
                        reached[open_[0]] = True
                        fresh.append(open_[0])
                    elif open_:
                        keep.append(sl)
                pending, new = keep, [(r, g) for r in fresh for g in gens]
        a._gens = tuple(gens)
    return a._gens


def separable(a: Algebra) -> bool:
    """Whether the trace form T(x, y) = tr L_xy has full rank; decided once and kept.

    Then A is semisimple (ker T holds every nilpotent ideal), so Z1(A, M) = N1(A, M) for
    every M (Hochschild 1945).  T is read in ints; a zero row needs no elimination.
    """
    if a._separable is None:
        s = lcm(*(c.denominator for slab in a.mult for sl in slab for _, c in sl))
        tr = [sum(c.numerator * (s // c.denominator) for j, sl in enumerate(slab)
                  for k, c in sl if k == j) for slab in a.mult]
        form = list(takewhile(bool, ({j: t for j, sl in enumerate(slab) if (t := sum(
            c.numerator * (s // c.denominator) * tr[k] for k, c in sl))} for slab in a.mult)))
        a._separable = a.dim == len(form) == _span_of_rows(form, a.dim).dim
    return a._separable


class ModuleAlgebra:
    """An algebra U together with a compatible A-bimodule action on it.

    ``_memo`` keeps the spaces of the pair (A, U) that :mod:`.verify` reads.
    """

    __slots__ = ("algebra", "action", "_memo")

    def __init__(self, algebra: Algebra, action: BimoduleAction):
        if action.module_dim != algebra.dim:
            raise ShapeMismatch("action module dimension differs from algebra dimension")
        self.algebra = algebra
        self.action = action
        self._memo = None

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def name(self):
        return self.algebra.name

    def __repr__(self):
        return f"ModuleAlgebra({self.algebra.name!r}, dim={self.dim})"


class Character:
    """A linear functional on an algebra, candidate multiplicative and nonzero."""

    __slots__ = ("base", "values")

    def __init__(self, base: Algebra, values):
        if len(values) != base.dim:
            raise ShapeMismatch("character length differs from algebra dimension")
        self.base = base
        self.values = [frac(v) for v in values]

    def __call__(self, vec):
        if len(vec) != len(self.values):
            raise ShapeMismatch("vector length differs from algebra dimension")
        return sum((v * x for v, x in zip(self.values, vec)), F0)


def _scaled(left, right, m):
    """The grids of the action a.x = t1(a) x, x.a = t2(a) x on Q^m.

    ``left`` and ``right`` are the values of t1 and t2 on the basis.
    """
    return ([[((p, v),) if v else () for p in range(m)] for v in left],
            [[((p, v),) if v else () for v in right] for p in range(m)])


def scaled_action(a: Algebra, left_char: Character, right_char: Character,
                  module_dim) -> BimoduleAction:
    """a.x = t1(a) x and x.a = t2(a) x; a bimodule for any characters."""
    return _from_slices(BimoduleAction, a.dim, module_dim,
                        *_scaled(left_char.values, right_char.values, module_dim))


def hom_failure(f, a: Algebra, b: Algebra):
    """The first basis pair (i, j) of A with f(e_i e_j) != f(e_i) f(e_j), or None.

    ``f`` is a Matrix whose row i is the image of e_i in B; pairs are
    scanned i-major.
    """
    rows = _sparse_rows(f)
    basis = [((i, F1),) for i in range(a.dim)]
    lhs = _transport(a.mult, basis, basis, rows)
    rhs = _transport(b.mult, rows, rows)
    return next(((i, j) for i in range(a.dim) for j in range(a.dim)
                 if lhs[i][j] != rhs[i][j]), None)


def validate_character(t: Character) -> bool:
    """True iff t is nonzero and multiplicative on all basis products."""
    v, mult = t.values, t.base.mult
    return any(v) and all(sum((c * v[k] for k, c in mult[i][j]), F0) == v[i] * v[j]
                          for i in range(len(v)) for j in range(len(v)))


class CornerModule:
    """An (A,B)-bimodule: A acts on the left, B on the right.

    This is the corner block of a block upper-triangular algebra; the
    constructor takes the action tensors dense and keeps their slices.
    Validation checks (aa')m = a(a'm), m(bb') = (mb)b', and (am)b = a(mb).
    """

    __slots__ = ("a_dim", "b_dim", "dim", "left", "right")

    def __init__(self, a_dim, b_dim, dim, left, right):
        self.a_dim = a_dim
        self.b_dim = b_dim
        self.dim = dim
        self.left = _slices(left, a_dim, dim, dim, "corner left action")
        self.right = _slices(right, dim, b_dim, dim, "corner right action")


# Every axiom is one block (x, y, z) of associativity (e_x e_y) e_z = e_x (e_y e_z)
# on basis vectors of the parts x, y, z.  A table is a tuple of loop nests;
# the rows of one nest share a loop and are reported triple by triple in it.
# A row is (axiom, parts xyz, scan): scan names the witness slot each loop
# variable runs over, outermost first.
_ALGEBRA_LAWS = ((("(ab)c=a(bc)", "AAA", "xyz"),),)
_MODULE_LAWS = (
    (("(ab)x=a(bx)", "AAU", "xyz"), ("x(ab)=(xa)b", "UAA", "yzx")),
    (("(ax)b=a(xb)", "AUA", "xyz"),),
    (("(a.x)y=a.(xy)", "AUU", "xyz"), ("(xy).a=x(y.a)", "UUA", "zxy"),
     ("(x.a)y=x(a.y)", "UAU", "yxz")),
)
_CORNER_LAWS = (
    (("(aa')m=a(a'm)", "AAM", "xyz"),),
    (("m(bb')=(mb)b'", "MBB", "xyz"),),
    (("(am)b=a(mb)", "AMB", "xyz"),),
)


def _associativity(subject, blocks, dims, laws, mids=None) -> ValidationReport:
    """Report every basis triple (i, j, k) where a law of the table fails.

    ``blocks[xyz][i][j]`` is the slice, in part z, of the product of basis
    vector i of part x with basis vector j of part y, and ``dims`` the
    dimension of each part; each pair of parts has at most one block.  A
    failure carries lhs = (e_i e_j) e_k and rhs = e_i (e_j e_k), dense.  Each
    block b is scaled to ints by the lcm s(b) of its denominators; with
    L = s(xy) s(xy.z) lhs and R = s(yz) s(x.yz) rhs, a law holds iff
    L s(yz) s(x.yz) = R s(xy) s(xy.z).  A row is checked one basis pair (i, j)
    at a time: that difference over every k is one int map keyed by k d + l
    (for the algebra law, L_{e_i e_j} = L_{e_i} L_{e_j}).  The nonzero e_j e_k
    are listed once per j and only they enter the map; when e_j e_k vanishes
    for every k, only the i with e_i e_j nonzero are visited.  The sides are
    written out only at a k where the map is nonzero.

    ``mids`` maps each part to the middles j scanned first (None: every
    index).  Callers pass generators, for which a pass proves every middle
    (Light's test: the middle nucleus {g : (xg)y = x(gy) for all x, y} of
    any algebra is a subalgebra, by the Teichmueller identity).  Only when
    some row fails there does every row scan the remaining middles, so each
    failing triple is found once.  A nest reports triple by triple in its
    loop order, rows in table order, whichever pass found it.
    """
    report = ValidationReport(subject)
    block_of = {key[:2]: key for key in blocks}
    scale = {key: lcm(*(c.denominator for slab in b for sl in slab for _, c in sl))
             for key, b in blocks.items()}
    ints = {key: [[tuple([(k, c.numerator * (scale[key] // c.denominator)) for k, c in sl])
                   for sl in slab] for slab in b] for key, b in blocks.items()}
    failed, rows = [[] for _ in laws], []
    for nest, out in zip(laws, failed):
        for row, (axiom, (x, y, z), scan) in enumerate(nest):
            xy, yz = block_of[x + y], block_of[y + z]
            xy_z, x_yz = block_of[xy[2] + z], block_of[x + yz[2]]
            ls, rs, d = scale[xy] * scale[xy_z], scale[yz] * scale[x_yz], dims[xy_z[2]]
            flat = [[(k * d + l, v * rs) for k, sl in enumerate(slab) for l, v in sl]
                    for slab in ints[xy_z]]
            rows.append((out, row, axiom, itemgetter(*("xyz".index(s) for s in scan)),
                         dims[x], y, d, ls, rs, ints[xy], ints[yz], ints[xy_z], ints[x_yz], flat))
    first = mids or {p: range(n) for p, n in dims.items()}
    rest = {p: sorted(set(range(dims[p])).difference(js)) for p, js in first.items()}
    for middles in (first, rest):
        for out, row, axiom, where, n, y, d, ls, rs, xy, yz, xy_z, x_yz, flat in rows:
            for j in middles[y]:
                right = [(k * d, c, ls * coef) for k, sl in enumerate(yz[j]) for c, coef in sl]
                for i in range(n) if right else [i for i, xi in enumerate(xy) if xi[j]]:
                    diff = {}
                    for c, coef in xy[i][j]:
                        for key, v in flat[c]:
                            diff[key] = diff.get(key, 0) + coef * v
                    x_yz_i = x_yz[i]
                    for kd, c, coef in right:
                        for l, v in x_yz_i[c]:
                            diff[kd + l] = diff.get(kd + l, 0) - coef * v
                    if not any(diff.values()):
                        continue
                    for k in sorted({key // d for key, v in diff.items() if v}):
                        lhs, rhs = [0] * d, [0] * d
                        for c, coef in xy[i][j]:
                            for l, v in xy_z[c][k]:
                                lhs[l] += coef * v
                        for c, coef in yz[j][k]:
                            for l, v in x_yz[i][c]:
                                rhs[l] += coef * v
                        out.append((where((i, j, k)), row, axiom, (i, j, k),
                                    [Fraction(v, ls) for v in lhs],
                                    [Fraction(v, rs) for v in rhs]))
        if not any(failed):
            break
    for out in failed:
        for _, _, *failure in sorted(out, key=itemgetter(0, 1)):
            report.add(*failure)
    return report


def validate_corner(m: CornerModule, a: Algebra, b: Algebra) -> ValidationReport:
    if m.a_dim != a.dim or m.b_dim != b.dim:
        raise ShapeMismatch("corner module dimensions do not match the algebras")
    return _associativity(f"corner module over ({a.name}, {b.name})",
                          {"AAA": a.mult, "BBB": b.mult, "AMM": m.left, "MBM": m.right},
                          {"A": a.dim, "B": b.dim, "M": m.dim}, _CORNER_LAWS)


def validate_algebra(a: Algebra) -> ValidationReport:
    """List every basis triple (i,j,k) where associativity fails; keep whether none does."""
    report = _associativity(f"algebra {a.name}", {"AAA": a.mult}, {"A": a.dim}, _ALGEBRA_LAWS,
                            {"A": generators(a)})
    a._valid = report.ok
    return report


def semidirect_blocks(a: Algebra, u: ModuleAlgebra):
    """The four blocks of (a, x)(b, y) = (ab, a.y + x.b + xy) on A x| U.

    Keyed by parts xyz: the product of a basis vector of part x with one of
    part y lies in part z.
    """
    return {"AAA": a.mult, "AUU": u.action.left, "UAU": u.action.right,
            "UUU": u.algebra.mult}


def validate_module(u: ModuleAlgebra, a: Algebra) -> ValidationReport:
    """Check the three bimodule axioms and the three compatibility laws.

    Compatibility ties the action to U's own multiplication:
    (a.x)y = a.(xy), (xy).a = x(y.a), and (x.a)y = x(a.y).  The six laws are
    the mixed blocks of associativity of A x| U.  When A and U have passed
    :func:`validate_algebra`, the AAA and UUU blocks hold and the generators
    of A and U generate A x| U, so the middle runs over those alone first.
    """
    if u.action.algebra_dim != a.dim:
        raise ShapeMismatch("action algebra dimension differs from base algebra")
    valid = a._valid and u.algebra._valid
    return _associativity(f"module {u.name} over {a.name}", semidirect_blocks(a, u),
                          {"A": a.dim, "U": u.dim}, _MODULE_LAWS,
                          {"A": generators(a), "U": generators(u.algebra)} if valid else None)


def _commutators(act):
    """Row p of x -> (a -> a.x - x.a): the nonzero (i * m + q, c) of e_i.u_p - u_p.e_i.

    Keys increase; m is the module dimension.  On a regular action these are
    the rows of ad_A; read transposed by :func:`_twists`, the maps r_a.  Kept on the action.
    """
    if act._comm is None:
        m, rows = act.module_dim, []
        for p in range(m):
            row = {}
            for i in range(act.algebra_dim):
                for q, c in act.left[i][p]:
                    row[i * m + q] = c
                for q, c in act.right[p][i]:  # compared first: a cancelling entry is not subtracted
                    key = i * m + q
                    row[key] = -c if (old := row.get(key)) is None else F0 if old == c else old - c
            rows.append(tuple([(j, c) for j, c in sorted(row.items()) if c]))
        act._comm = tuple(rows)
    return act._comm


def _twists(rows, n, m):
    """Row i of a -> r_a, r_a(x) = x.a - a.x: the commutator rows transposed and negated.

    Row i lists (p * m + q, c) for u_q in r_(e_i)(u_p), keys increasing.
    """
    out = [[] for _ in range(n)]
    for p, row in enumerate(rows):
        for j, c in row:
            i, q = divmod(j, m)
            out[i].append((p * m + q, -c))
    return out


def _action_of(a: Algebra, m):
    """The action of m, a module or a bare action; ShapeMismatch unless it is over a."""
    act = m.action if isinstance(m, ModuleAlgebra) else m
    if act.algebra_dim != a.dim:
        raise ShapeMismatch("module is not over the given algebra")
    return act


def annihilator_in_algebra(a: Algebra, u) -> Subspace:
    """ann_A U = {a in A : a.U = U.a = 0}, as a kernel on the action slices."""
    act = _action_of(a, u)
    m = act.module_dim
    return _kernel_of_images(
        [[(p * m + q, c) for p in range(m) for q, c in act.left[i][p]]
         + [((m + p) * m + q, c) for p in range(m) for q, c in act.right[p][i]]
         for i in range(act.algebra_dim)], act.algebra_dim, 2 * m * m)


def annihilator_in_module(u: ModuleAlgebra) -> Subspace:
    """ann_U U = {x in U : xU = Ux = 0} for U's own multiplication."""
    return annihilator_in_algebra(u.algebra, regular_action(u.algebra))


def commutant_in_module(a: Algebra, u) -> Subspace:
    """{x in U : a.x = x.a for all a}: the parameter space behind I(U)."""
    act = _action_of(a, u)
    return _kernel_of_images(_commutators(act), act.module_dim, act.algebra_dim * act.module_dim)


def center(a: Algebra) -> Subspace:
    """Z(A) = {z : z e_i = e_i z for every basis element}: the commutant of the regular action."""
    return commutant_in_module(a, regular_action(a))


def _span(grid, d) -> Subspace:
    return _span_of_rows([sl for slab in grid for sl in slab], d)


def span_of_products(a: Algebra) -> Subspace:
    """The linear span of all basis products e_i e_j (the span of A^2)."""
    return _span(a.mult, a.dim)

