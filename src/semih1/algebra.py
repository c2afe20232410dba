"""Structure-constant algebras, bimodules, and characters.

An :class:`Algebra` of dimension n is the tensor ``mult[i][j]`` giving the
coordinates of ``e_i * e_j``.  A :class:`BimoduleAction` adds left/right
action tensors of an algebra on a module, and a :class:`ModuleAlgebra`
couples a module's own multiplication with such an action.

Every axiom validated here is one block of associativity
(e_x e_y) e_z = e_x (e_y e_z) on basis vectors of the parts of a product:
the algebra axiom on A alone, the six module laws as the mixed blocks of
A x| U, and the three corner laws as blocks of the triangular algebra on
(A, M, B).  One checker runs a table of such blocks, exactly, and reports
every basis triple that breaks one, so downstream solvers may assume the
axioms hold.
"""

import itertools

from .errors import (
    NotSubmodule,
    ShapeMismatch,
    ValidationFailed,
)
from .linalg import F0, F1, Matrix, Subspace, frac, kernel

def zero_vector(n):
    return [F0] * n


def unit_vector(n, i):
    """The i-th standard basis vector of Q^n."""
    v = [F0] * n
    v[i] = F1
    return v


def add_into(acc, vec, scale=F1):
    for i, x in enumerate(vec):
        if x:
            acc[i] += scale * x
    return acc


def vectors_equal(a, b):
    return all(x == y for x, y in zip(a, b))


def block_tensor(shape, blocks):
    """A zero tensor of the given shape with each (offsets, block) copied in.

    Entry [i][j][k] of a block lands at [o0 + i][o1 + j][o2 + k].
    """
    d0, d1, d2 = shape
    out = [[zero_vector(d2) for _ in range(d1)] for _ in range(d0)]
    for (o0, o1, o2), block in blocks:
        for i, slab in enumerate(block):
            for j, vec in enumerate(slab):
                out[o0 + i][o1 + j][o2:o2 + len(vec)] = vec
    return out


def _coerce_tensor(tensor, d0, d1, d2, what):
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
            rows.append([frac(x) for x in row])
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

    ``mult[i][j]`` is the coordinate vector of ``e_i * e_j``; associativity
    is an invariant checked by :func:`validate_algebra`, not assumed at
    construction time.
    """

    __slots__ = ("name", "dim", "mult")

    def __init__(self, name, dim, mult):
        self.name = name
        self.dim = dim
        self.mult = _coerce_tensor(mult, dim, dim, dim, f"mult tensor of {name}")

    def product(self, u, v):
        """Bilinear extension of the basis products to coordinate vectors."""
        out = zero_vector(self.dim)
        for i, x in enumerate(u):
            if not x:
                continue
            mi = self.mult[i]
            for j, y in enumerate(v):
                if y:
                    add_into(out, mi[j], x * y)
        return out

    def is_commutative(self):
        return all(
            vectors_equal(self.mult[i][j], self.mult[j][i])
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    def __repr__(self):
        return f"Algebra({self.name!r}, dim={self.dim})"


class BimoduleAction:
    """Left/right action tensors of an algebra A on a module U.

    ``left[i][p]`` is the vector of ``e_i . u_p`` and ``right[p][i]`` the
    vector of ``u_p . e_i``; the three bimodule axioms are checked by
    :func:`validate_module`.
    """

    __slots__ = ("algebra_dim", "module_dim", "left", "right")

    def __init__(self, algebra_dim, module_dim, left, right):
        self.algebra_dim = algebra_dim
        self.module_dim = module_dim
        self.left = _coerce_tensor(left, algebra_dim, module_dim, module_dim, "left action")
        self.right = _coerce_tensor(right, module_dim, algebra_dim, module_dim, "right action")

    @classmethod
    def trivial(cls, algebra_dim, module_dim):
        zl = [[zero_vector(module_dim) for _ in range(module_dim)] for _ in range(algebra_dim)]
        zr = [[zero_vector(module_dim) for _ in range(algebra_dim)] for _ in range(module_dim)]
        return cls(algebra_dim, module_dim, zl, zr)

    def act_left(self, avec, xvec):
        out = zero_vector(self.module_dim)
        for i, a in enumerate(avec):
            if not a:
                continue
            li = self.left[i]
            for p, x in enumerate(xvec):
                if x:
                    add_into(out, li[p], a * x)
        return out

    def act_right(self, xvec, avec):
        out = zero_vector(self.module_dim)
        for p, x in enumerate(xvec):
            if not x:
                continue
            rp = self.right[p]
            for i, a in enumerate(avec):
                if a:
                    add_into(out, rp[i], x * a)
        return out

    def is_symmetric(self):
        """True when a.x = x.a on every basis pair (a commutative bimodule)."""
        return all(
            vectors_equal(self.left[i][p], self.right[p][i])
            for i in range(self.algebra_dim)
            for p in range(self.module_dim)
        )


def regular_action(a: Algebra) -> BimoduleAction:
    """A acting on itself by multiplication on both sides."""
    left = [[a.mult[i][p] for p in range(a.dim)] for i in range(a.dim)]
    right = [[a.mult[p][i] for i in range(a.dim)] for p in range(a.dim)]
    return BimoduleAction(a.dim, a.dim, left, right)


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


def hom_failure(f: Matrix, a: Algebra, b: Algebra):
    """The first basis pair (i, j) of A with f(e_i e_j) != f(e_i) f(e_j), or None.

    Row i of ``f`` is the image of e_i in B; pairs are scanned i-major.
    """
    for i in range(a.dim):
        for j in range(a.dim):
            if f.apply(a.mult[i][j]) != b.product(f.data[i], f.data[j]):
                return i, j
    return None


_SCALARS = Algebra("Q", 1, [[[F1]]])


def validate_character(t: Character) -> bool:
    """True iff t is nonzero and multiplicative on all basis products."""
    image = Matrix.from_rows([[v] for v in t.values], cols=1)
    return any(t.values) and hom_failure(image, t.base, _SCALARS) is None


class CornerModule:
    """An (A,B)-bimodule: A acts on the left, B on the right.

    This is the corner block of a block upper-triangular algebra; validation
    checks (aa')m = a(a'm), m(bb') = (mb)b', and (am)b = a(mb).
    """

    __slots__ = ("a_dim", "b_dim", "dim", "left", "right")

    def __init__(self, a_dim, b_dim, dim, left, right):
        self.a_dim = a_dim
        self.b_dim = b_dim
        self.dim = dim
        self.left = _coerce_tensor(left, a_dim, dim, dim, "corner left action")
        self.right = _coerce_tensor(right, dim, b_dim, dim, "corner right action")


# Every axiom is one block (x, y, z) of associativity (e_x e_y) e_z = e_x (e_y e_z)
# on basis vectors of the parts x, y, z.  A table is a tuple of loop nests;
# the rows of one nest share a loop and are checked, and reported, triple by
# triple.  A row is (axiom, parts xyz, scan): scan names the witness slot each
# loop variable runs over, outermost first.
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

    ``blocks[xyz][i][j]`` is the part-z vector of the product of basis vector
    i of part x with basis vector j of part y, and ``dims`` the dimension of
    each part; each pair of parts has at most one block.  A failure carries
    lhs = (e_i e_j) e_k and rhs = e_i (e_j e_k).
    """
    report = ValidationReport(subject)
    block_of = {key[:2]: key for key in blocks}
    for nest in laws:
        checks = []
        for axiom, (x, y, z), scan in nest:
            xy, yz = block_of[x + y], block_of[y + z]
            xy_z, x_yz = block_of[xy[2] + z], block_of[x + yz[2]]
            slots = tuple(scan.index(s) for s in "xyz")
            checks.append((axiom, blocks[xy], blocks[xy_z], blocks[yz], blocks[x_yz],
                           dims[xy_z[2]], slots))
        _, parts, scan = nest[0]
        loops = [range(dims[parts["xyz".index(s)]]) for s in scan]
        for loop in itertools.product(*loops):
            for axiom, xy, xy_z, yz, x_yz, d, slots in checks:
                i, j, k = (loop[s] for s in slots)
                lhs = zero_vector(d)
                for c, coef in enumerate(xy[i][j]):
                    if coef:
                        add_into(lhs, xy_z[c][k], coef)
                rhs = zero_vector(d)
                for c, coef in enumerate(yz[j][k]):
                    if coef:
                        add_into(rhs, x_yz[i][c], coef)
                if lhs != rhs:
                    report.add(axiom, (i, j, k), lhs, rhs)
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


def annihilator_in_algebra(a: Algebra, u) -> Subspace:
    """ann_A U = {a in A : a.U = U.a = 0}, computed as a kernel."""
    act = u.action if isinstance(u, ModuleAlgebra) else u
    n, m = act.algebra_dim, act.module_dim
    rows = []
    for p in range(m):
        for q in range(m):
            rows.append([act.left[i][p][q] for i in range(n)])
            rows.append([act.right[p][i][q] for i in range(n)])
    return kernel(Matrix.from_rows(rows, cols=n))


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
    n, m = act.algebra_dim, act.module_dim
    rows = []
    for p in range(m):
        # residual of e_i.u_p (resp. u_p.e_i) modulo N, linear in the algebra slot
        left_res = [n_space.reduce(act.left[i][p]) for i in range(n)]
        right_res = [n_space.reduce(act.right[p][i]) for i in range(n)]
        for q in range(m):
            rows.append([left_res[i][q] for i in range(n)])
            rows.append([right_res[i][q] for i in range(n)])
    return kernel(Matrix.from_rows(rows, cols=n))


def center(a: Algebra) -> Subspace:
    """Z(A) = {z : z e_i = e_i z for every basis element}."""
    n = a.dim
    rows = []
    for i in range(n):
        for k in range(n):
            rows.append([a.mult[j][i][k] - a.mult[i][j][k] for j in range(n)])
    return kernel(Matrix.from_rows(rows, cols=n))


def span_of_products(a: Algebra) -> Subspace:
    """The linear span of all basis products e_i e_j (the span of A^2)."""
    return Subspace.from_vectors(a.dim, [a.mult[i][j] for i in range(a.dim) for j in range(a.dim)])


def span_left_action(act: BimoduleAction) -> Subspace:
    """Span of A.U inside U."""
    return Subspace.from_vectors(
        act.module_dim,
        [act.left[i][p] for i in range(act.algebra_dim) for p in range(act.module_dim)],
    )


def span_right_action(act: BimoduleAction) -> Subspace:
    """Span of U.A inside U."""
    return Subspace.from_vectors(
        act.module_dim,
        [act.right[p][i] for i in range(act.algebra_dim) for p in range(act.module_dim)],
    )
