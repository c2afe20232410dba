"""Semidirect products and their named special cases.

Every construction returns a :class:`SemidirectAlgebra`: the total algebra
on A x U with multiplication

    (a, x)(b, y) = (ab, a.y + x.b + xy),

together with the factors it was built from.  The basis convention is fixed
globally: A occupies coordinates 0..n-1 and U occupies n..n+m-1; block
extraction everywhere downstream relies on it.

``semidirect``, ``module_extension`` and ``alpha_product`` validate the
module they are handed, the first two around the trusted ``_semidirect`` and
``_module_extension``.  The others skip ``validate_module``: their module
laws hold by construction once the character or corner they check is valid.
"""

from .algebra import (
    Algebra,
    BimoduleAction,
    Character,
    CornerModule,
    ModuleAlgebra,
    _from_slices,
    _transport,
    block_tensor,
    hom_failure,
    regular_action,
    scaled_action,
    semidirect_blocks,
    validate_character,
    validate_corner,
    validate_module,
)
from .catalog import direct_sum_algebra, field_q, null_algebra
from .errors import (
    InvalidCharacter,
    NotBimodule,
    NotHomomorphism,
    ShapeMismatch,
)
from .linalg import F1, Matrix, _sparse_rows


class SemidirectAlgebra:
    """A semidirect product with its factor metadata.

    ``total`` is the (n+m)-dimensional algebra; ``part_a`` and ``part_u``
    are the factors, kept so block extraction never has to re-discover the
    splitting.  ``character`` is set for scaled-action (Lau-type) products
    and ``alpha`` for homomorphism-twisted ones.
    """

    __slots__ = ("total", "part_a", "part_u", "kind", "character", "alpha", "_memo")

    def __init__(self, total, part_a, part_u, kind, character=None, alpha=None):
        self.total = total
        self.part_a = part_a
        self.part_u = part_u
        self.kind = kind
        self.character = character
        self.alpha = alpha
        self._memo = {}

    @property
    def n(self):
        return self.part_a.dim

    @property
    def m(self):
        return self.part_u.dim

    @property
    def dim(self):
        return self.total.dim

    @property
    def name(self):
        return self.total.name

    def action_is_trivial(self):
        act = self.part_u.action
        return not any(sl for block in (act.left, act.right) for slab in block for sl in slab)

    def u_square_is_zero(self):
        return not any(sl for slab in self.part_u.algebra.mult for sl in slab)

    def __repr__(self):
        return f"SemidirectAlgebra({self.name!r}, n={self.n}, m={self.m}, kind={self.kind!r})"


def _assemble(a: Algebra, u: ModuleAlgebra, name, kind, character=None, alpha=None):
    """A x| U filled from :func:`semidirect_blocks`; callers vouch for the module laws."""
    n, t = a.dim, a.dim + u.dim
    offset = {"A": 0, "U": n}
    mult = block_tensor((t, t), [((offset[x], offset[y], offset[z]), block)
                                 for (x, y, z), block in semidirect_blocks(a, u).items()])
    return SemidirectAlgebra(_from_slices(Algebra, name, t, mult), a, u, kind,
                             character=character, alpha=alpha)


def semidirect(a: Algebra, u: ModuleAlgebra, name=None, character=None) -> SemidirectAlgebra:
    """Build A x| U from a module-algebra U over A.

    U is validated first (``validate_module``, raising ``ValidationFailed``):
    its six laws are the mixed blocks of associativity of A x| U, so the
    total is associative exactly when A and U also are.
    """
    validate_module(u, a).raise_if_failed()
    return _semidirect(a, u, name, character)


def _semidirect(a: Algebra, u: ModuleAlgebra, name=None, character=None) -> SemidirectAlgebra:
    """:func:`semidirect` of a module the caller has validated."""
    return _assemble(a, u, name or f"sd({a.name},{u.name})", "semidirect", character=character)


def direct_product(a: Algebra, u: Algebra, name=None) -> SemidirectAlgebra:
    """A x U with trivial actions: multiplication is componentwise.

    Every module law has an action on both sides, so all of them read 0 = 0.
    """
    mod = ModuleAlgebra(u, BimoduleAction.trivial(a.dim, u.dim))
    return _assemble(a, mod, name or f"dp({a.name},{u.name})", "direct")


def module_extension(a: Algebra, action: BimoduleAction, u_name=None,
                     name=None) -> SemidirectAlgebra:
    """T(A,U): the semidirect product with the U-multiplication forced to zero."""
    if action.algebra_dim != a.dim:
        raise ShapeMismatch("action is not over the given algebra")
    p = _module_extension(a, action, u_name, name)
    validate_module(p.part_u, a).raise_if_failed()
    return p


def _module_extension(a: Algebra, action: BimoduleAction, u_name=None,
                      name=None) -> SemidirectAlgebra:
    """:func:`module_extension` of an action the caller has validated."""
    u = ModuleAlgebra(null_algebra(action.module_dim, name=u_name or "U0"), action)
    return _assemble(a, u, name or f"T({a.name},{u.name})", "module-extension")


def triangular(a: Algebra, b: Algebra, corner: CornerModule, name=None) -> SemidirectAlgebra:
    """The block upper-triangular algebra on (A, M, B), as T(AxB, M).

    M becomes an (AxB)-bimodule via (a,b).m = a.m and m.(a,b) = m.b; its
    module laws are the corner laws, or read 0 = 0.
    """
    report = validate_corner(corner, a, b)
    if not report.ok:
        raise NotBimodule(report.describe())
    return _triangular(a, b, corner, name)


def _triangular(a: Algebra, b: Algebra, corner: CornerModule, name=None) -> SemidirectAlgebra:
    """The triangular algebra of a corner that the caller has validated."""
    base = direct_sum_algebra(a, b, name=f"dp({a.name},{b.name})")
    n, nb, md = a.dim, b.dim, corner.dim
    left = block_tensor((n + nb, md), [((0, 0, 0), corner.left)])
    right = block_tensor((md, n + nb), [((0, n, 0), corner.right)])
    mod = ModuleAlgebra(null_algebra(md, name="M"),
                        _from_slices(BimoduleAction, n + nb, md, left, right))
    return _assemble(base, mod, name or f"tri({a.name},{b.name})", "triangular")


def theta_lau(a: Algebra, u: Algebra, t: Character, name=None,
              kind="theta-lau") -> SemidirectAlgebra:
    """The scaled-action product: a.x = x.a = t(a) x for a character t.

    The module laws of a scaled action hold exactly when t is multiplicative.
    """
    if t.base is not a and t.base.dim != a.dim:
        raise ShapeMismatch("character is defined over a different algebra")
    char = Character(a, t.values)
    if not validate_character(char):
        raise InvalidCharacter("character must be nonzero and multiplicative")
    mod = ModuleAlgebra(u, scaled_action(a, char, char, u.dim))
    return _assemble(a, mod, name or f"lau({a.name},{u.name})", kind, character=char)


def unitization(u: Algebra, name=None) -> SemidirectAlgebra:
    """Adjoin a unit: the scaled-action product of the scalars with U."""
    scalars = field_q()
    return theta_lau(scalars, u, Character(scalars, [F1]),
                     name=name or f"unit({u.name})", kind="unitization")


def _check_algebra_hom(a: Algebra, u: Algebra, alpha: Matrix):
    if (alpha.rows, alpha.cols) != (a.dim, u.dim):
        raise ShapeMismatch("homomorphism matrix must be dim(A) x dim(U)")
    pair = hom_failure(alpha, a, u)
    if pair is not None:
        i, j = pair
        raise NotHomomorphism(f"alpha(e{i}*e{j}) != alpha(e{i})alpha(e{j})")


def alpha_product(a: Algebra, u: Algebra, alpha: Matrix, name=None) -> SemidirectAlgebra:
    """A x|_alpha U: the action a.x = alpha(a)x, x.a = x alpha(a) in U."""
    _check_algebra_hom(a, u, alpha)
    rows, basis = _sparse_rows(alpha), [((p, F1),) for p in range(u.dim)]
    mod = ModuleAlgebra(u, _from_slices(BimoduleAction, a.dim, u.dim,
                                        _transport(u.mult, rows, basis),
                                        _transport(u.mult, basis, rows)))
    # the compatibility laws are instances of U's own associativity
    validate_module(mod, a).raise_if_failed()
    return _assemble(a, mod, name or f"ad({a.name},{u.name})", "alpha", alpha=alpha)


def alpha_iso(a: Algebra, u: Algebra, alpha: Matrix) -> Matrix:
    """The map (a, x) -> (a, x - alpha(a)), a bijection of A x U onto A x|_alpha U.

    Transporting the direct-product multiplication through it lands exactly
    on the alpha-product multiplication; the verifier checks that entrywise.
    """
    _check_algebra_hom(a, u, alpha)
    n, m = a.dim, u.dim
    iso = Matrix.zeros(n + m, n + m)
    for i in range(n):
        iso.data[i][i] = F1
        for q in range(m):
            iso.data[i][n + q] = -alpha.data[i][q]
    for p in range(m):
        iso.data[n + p][n + p] = F1
    return iso


def fixture_nonzero_tau1(b: Algebra):
    """A module extension carrying a derivation whose U->A corner is nonzero.

    Take A = T(B,B) acting on U = B through the subalgebra copy only, and
    D((a,b'),x) = ((0,x),0).  D satisfies the derivation law on T(A,U) even
    though its tau1 block is nonzero, so D is not inner.

    Returns the product together with the full matrix of D.
    """
    n = b.dim
    base = module_extension(b, regular_action(b), u_name=b.name, name=f"T({b.name},{b.name})")
    ta = base.total  # dim 2n; first copy is the subalgebra, second the ideal
    left = block_tensor((2 * n, n), [((0, 0, 0), b.mult)])
    right = block_tensor((n, 2 * n), [((0, 0, 0), b.mult)])
    action = _from_slices(BimoduleAction, 2 * n, n, left, right)
    prod = module_extension(ta, action, u_name=b.name, name=f"T(T({b.name},{b.name}),{b.name})")
    t = prod.dim
    d = Matrix.zeros(t, t)
    for p in range(n):
        # tau1(u_p) = (0, u_p): the ideal copy of B inside A sits at columns n..2n-1
        d.data[2 * n + p][n + p] = F1
    return prod, d
