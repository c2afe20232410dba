"""Structure-constant algebras, bimodules, and characters.

An :class:`Algebra` of dimension n keeps only its nonzero structure
constants: ``mult[i][j]``, the slice of ``e_i * e_j``, is a tuple of
``(k, c)`` pairs, k increasing and c a nonzero Fraction.  A
:class:`BimoduleAction` adds left/right action grids of the same form, and a
:class:`ModuleAlgebra` couples a module's own multiplication with such an
action.  Public constructors take dense nested lists; nothing is kept dense.

Every axiom validated here is one block of associativity
(e_x e_y) e_z = e_x (e_y e_z) on basis vectors of the parts of a product:
the algebra axiom on A alone, the six module laws as the mixed blocks of
A x| U, and the three corner laws as blocks of the triangular algebra on
(A, M, B).  One checker runs a table of such blocks, exactly, and reports
every basis triple that breaks one, so downstream solvers may assume the
axioms hold.
"""

from fractions import Fraction
from math import lcm
from operator import itemgetter

from .errors import (
    NotSubmodule,
    ShapeMismatch,
    ValidationFailed,
)
from .linalg import F0, F1, Subspace, _kernel_of_images, _pairs, _span_of_rows, frac


def unit_vector(n, i):
    """The i-th standard basis vector of Q^n."""
    v = [F0] * n
    v[i] = F1
    return v


def _vector(sl, d):
    """The dense vector of length d of a slice."""
    v = [F0] * d
    for k, c in sl:
        v[k] = c
    return v


def _from_slices(cls, *fields):
    """``cls(*fields)`` for an Algebra, BimoduleAction or CornerModule, tensors as slices."""
    obj = object.__new__(cls)
    for slot, value in zip(cls.__slots__, fields):
        setattr(obj, slot, value)
    return obj


def _bilinear(tensor, u, v, d):
    """sum u_i v_j (e_i e_j) over a grid of slices, as a dense vector of length d."""
    out = [F0] * d
    for i, x in enumerate(u):
        if x:
            ti = tensor[i]
            for j, y in enumerate(v):
                if y:
                    xy = x * y
                    for k, c in ti[j]:
                        out[k] += xy * c
    return out


def _scaled(left, right, m):
    """The grids of the action a.x = t1(a) x, x.a = t2(a) x on Q^m.

    ``left`` and ``right`` are the values of t1 and t2 on the basis.
    """
    return ([[((p, v),) if v else () for p in range(m)] for v in left],
            [[((p, v),) if v else () for v in right] for p in range(m)])


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
    assumed at construction time.
    """

    __slots__ = ("name", "dim", "mult")

    def __init__(self, name, dim, mult):
        self.name = name
        self.dim = dim
        self.mult = _slices(mult, dim, dim, dim, f"mult tensor of {name}")

    def product(self, u, v):
        """Bilinear extension of the basis products to coordinate vectors."""
        return _bilinear(self.mult, u, v, self.dim)

    def is_commutative(self):
        return all(self.mult[i][j] == self.mult[j][i]
                   for i in range(self.dim) for j in range(i + 1, self.dim))

    def __repr__(self):
        return f"Algebra({self.name!r}, dim={self.dim})"


class BimoduleAction:
    """Left/right action tensors of an algebra A on a module U.

    ``left[i][p]`` is the slice of ``e_i . u_p`` and ``right[p][i]`` that
    of ``u_p . e_i``; the constructor takes them dense.  The three bimodule
    axioms are checked by :func:`validate_module`.
    """

    __slots__ = ("algebra_dim", "module_dim", "left", "right")

    def __init__(self, algebra_dim, module_dim, left, right):
        self.algebra_dim = algebra_dim
        self.module_dim = module_dim
        self.left = _slices(left, algebra_dim, module_dim, module_dim, "left action")
        self.right = _slices(right, module_dim, algebra_dim, module_dim, "right action")

    @classmethod
    def trivial(cls, algebra_dim, module_dim):
        return _from_slices(cls, algebra_dim, module_dim,
                            [[()] * module_dim for _ in range(algebra_dim)],
                            [[()] * algebra_dim for _ in range(module_dim)])

    def act_left(self, avec, xvec):
        return _bilinear(self.left, avec, xvec, self.module_dim)

    def act_right(self, xvec, avec):
        return _bilinear(self.right, xvec, avec, self.module_dim)

    def is_symmetric(self):
        """True when a.x = x.a on every basis pair (a commutative bimodule)."""
        return all(self.left[i][p] == self.right[p][i]
                   for i in range(self.algebra_dim) for p in range(self.module_dim))


def regular_action(a: Algebra) -> BimoduleAction:
    """A acting on itself by multiplication on both sides."""
    return _from_slices(BimoduleAction, a.dim, a.dim, a.mult, a.mult)


class ModuleAlgebra:
    """An algebra U together with a compatible A-bimodule action on it."""

    __slots__ = ("algebra", "action")

    def __init__(self, algebra: Algebra, action: BimoduleAction):
        if action.module_dim != algebra.dim:
            raise ShapeMismatch("action module dimension differs from algebra dimension")
        self.algebra = algebra
        self.action = action

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def name(self):
        return self.algebra.name

    def __repr__(self):
        return f"ModuleAlgebra({self.algebra.name!r}, dim={self.dim})"


def regular_module(a: Algebra) -> ModuleAlgebra:
    """A as a module-algebra over itself."""
    return ModuleAlgebra(a, regular_action(a))


class Character:
    """A linear functional on an algebra, candidate multiplicative and nonzero."""

    __slots__ = ("base", "values")

    def __init__(self, base: Algebra, values):
        if len(values) != base.dim:
            raise ShapeMismatch("character length differs from algebra dimension")
        self.base = base
        self.values = [frac(v) for v in values]

    def __call__(self, vec):
        return sum((v * x for v, x in zip(self.values, vec)), F0)


def hom_failure(f, a: Algebra, b: Algebra):
    """The first basis pair (i, j) of A with f(e_i e_j) != f(e_i) f(e_j), or None.

    ``f`` is a Matrix whose row i is the image of e_i in B; pairs are
    scanned i-major.
    """
    for i in range(a.dim):
        for j in range(a.dim):
            if f.apply(_vector(a.mult[i][j], a.dim)) != b.product(f.data[i], f.data[j]):
                return i, j
    return None


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


def _associativity(subject, blocks, dims, laws) -> ValidationReport:
    """Report every basis triple (i, j, k) where a law of the table fails.

    ``blocks[xyz][i][j]`` is the slice, in part z, of the product of basis
    vector i of part x with basis vector j of part y, and ``dims`` the
    dimension of each part; each pair of parts has at most one block.  A
    failure carries lhs = (e_i e_j) e_k and rhs = e_i (e_j e_k), dense.  A
    nest visits, in its loop order, only the triples where e_i e_j or
    e_j e_k is nonzero for one of its rows: elsewhere both sides are zero.
    Each block b is scaled once to integers by the lcm s(b) of its
    denominators, so the sums run on ints: L = s(xy) s(xy.z) lhs and
    R = s(yz) s(x.yz) rhs, and a law holds iff L s(yz) s(x.yz) = R s(xy) s(xy.z).
    """
    report = ValidationReport(subject)
    block_of = {key[:2]: key for key in blocks}
    scale = {key: lcm(*(c.denominator for slab in b for sl in slab for _, c in sl))
             for key, b in blocks.items()}
    ints = {key: [[tuple([(k, c.numerator * (scale[key] // c.denominator)) for k, c in sl])
                   for sl in slab] for slab in b] for key, b in blocks.items()}
    for nest in laws:
        checks, loops = [], set()
        for axiom, (x, y, z), scan in nest:
            xy, yz = block_of[x + y], block_of[y + z]
            xy_z, x_yz = block_of[xy[2] + z], block_of[x + yz[2]]
            where = itemgetter(*("xyz".index(s) for s in scan))
            for i, slab in enumerate(blocks[xy]):
                for j, sl in enumerate(slab):
                    if sl:
                        loops.update(where((i, j, k)) for k in range(dims[z]))
            for j, slab in enumerate(blocks[yz]):
                for k, sl in enumerate(slab):
                    if sl:
                        loops.update(where((i, j, k)) for i in range(dims[x]))
            checks.append((axiom, ints[xy], ints[xy_z], ints[yz], ints[x_yz], dims[xy_z[2]],
                           itemgetter(*(scan.index(s) for s in "xyz")),
                           scale[xy] * scale[xy_z], scale[yz] * scale[x_yz]))
        for loop in sorted(loops):
            for axiom, xy, xy_z, yz, x_yz, d, slots, ls, rs in checks:
                i, j, k = slots(loop)
                lhs = [0] * d
                for c, coef in xy[i][j]:
                    for l, v in xy_z[c][k]:
                        lhs[l] += coef * v
                rhs = [0] * d
                for c, coef in yz[j][k]:
                    for l, v in x_yz[i][c]:
                        rhs[l] += coef * v
                if (lhs != rhs if ls == rs
                        else [x * rs for x in lhs] != [x * ls for x in rhs]):
                    report.add(axiom, (i, j, k), [Fraction(x, ls) for x in lhs],
                               [Fraction(x, rs) for x in rhs])
    return report


def validate_corner(m: CornerModule, a: Algebra, b: Algebra) -> ValidationReport:
    if m.a_dim != a.dim or m.b_dim != b.dim:
        raise ShapeMismatch("corner module dimensions do not match the algebras")
    return _associativity(f"corner module over ({a.name}, {b.name})",
                          {"AAA": a.mult, "BBB": b.mult, "AMM": m.left, "MBM": m.right},
                          {"A": a.dim, "B": b.dim, "M": m.dim}, _CORNER_LAWS)


def validate_algebra(a: Algebra) -> ValidationReport:
    """List every basis triple (i,j,k) where associativity fails."""
    return _associativity(f"algebra {a.name}", {"AAA": a.mult}, {"A": a.dim}, _ALGEBRA_LAWS)


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
    the mixed blocks of associativity of A x| U.
    """
    if u.action.algebra_dim != a.dim:
        raise ShapeMismatch("action algebra dimension differs from base algebra")
    return _associativity(f"module {u.name} over {a.name}", semidirect_blocks(a, u),
                          {"A": a.dim, "U": u.dim}, _MODULE_LAWS)


def _commutators(act):
    """Row p of x -> (a -> a.x - x.a): the nonzero (i * m + q, c) of e_i.u_p - u_p.e_i.

    Keys increase; m is the module dimension.  On a regular action these are
    the rows of ad_A; read transposed by :func:`_twists`, the maps r_a.
    """
    m = act.module_dim
    rows = []
    for p in range(m):
        row = {}
        for i in range(act.algebra_dim):
            for q, c in act.left[i][p]:
                row[i * m + q] = c
            for q, c in act.right[p][i]:
                row[i * m + q] = row.get(i * m + q, F0) - c
        rows.append([(j, c) for j, c in sorted(row.items()) if c])
    return rows


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


def annihilator_in_algebra(a: Algebra, u) -> Subspace:
    """ann_A U = {a in A : a.U = U.a = 0}, computed as a kernel."""
    act = u.action if isinstance(u, ModuleAlgebra) else u
    return relative_annihilator(Subspace.zero(act.module_dim), a, act)


def annihilator_in_module(u: ModuleAlgebra) -> Subspace:
    """ann_U U = {x in U : xU = Ux = 0} for U's own multiplication."""
    return annihilator_in_algebra(u.algebra, regular_action(u.algebra))


def is_sub_bimodule(n_space: Subspace, act: BimoduleAction) -> bool:
    """True when the subspace is closed under both actions of every basis element."""
    for row in n_space.basis.data:
        for i in range(act.algebra_dim):
            ai = unit_vector(act.algebra_dim, i)
            if not n_space.contains(act.act_left(ai, row)):
                return False
            if not n_space.contains(act.act_right(row, ai)):
                return False
    return True


def relative_annihilator(n_space: Subspace, a: Algebra, u) -> Subspace:
    """(N:U)_A = {a in A : a.U <= N and U.a <= N} for a sub-bimodule N.

    With N = 0 this reduces to ann_A U.
    """
    act = u.action if isinstance(u, ModuleAlgebra) else u
    if n_space.ambient != act.module_dim:
        raise ShapeMismatch("submodule lives in the wrong ambient dimension")
    if not is_sub_bimodule(n_space, act):
        raise NotSubmodule("the given subspace is not closed under the actions")
    m = act.module_dim

    def residual(sl):
        # e_i.u_p (resp. u_p.e_i) modulo N, linear in the algebra slot
        return _pairs(n_space.reduce(_vector(sl, m)))

    return _kernel_of_images(
        [[((p, 0, q), c) for p in range(m) for q, c in residual(act.left[i][p])]
         + [((p, 1, q), c) for p in range(m) for q, c in residual(act.right[p][i])]
         for i in range(act.algebra_dim)], act.algebra_dim)


def center(a: Algebra) -> Subspace:
    """Z(A) = {z : z e_i = e_i z for every basis element}."""
    return _kernel_of_images(_commutators(regular_action(a)), a.dim)


def _span(grid, d) -> Subspace:
    return _span_of_rows([sl for slab in grid for sl in slab], d)


def span_of_products(a: Algebra) -> Subspace:
    """The linear span of all basis products e_i e_j (the span of A^2)."""
    return _span(a.mult, a.dim)


def span_left_action(act: BimoduleAction) -> Subspace:
    """Span of A.U inside U."""
    return _span(act.left, act.module_dim)


def span_right_action(act: BimoduleAction) -> Subspace:
    """Span of U.A inside U."""
    return _span(act.right, act.module_dim)
