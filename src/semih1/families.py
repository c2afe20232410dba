"""Seeded random instance families for the self-test battery.

Raw random structure tensors are essentially never associative, so every
family starts from a catalog algebra (scalars, null, dual numbers, cyclic
group algebras, upper-triangular, matrix blocks, direct sums) and composes
it with a random small invertible change of basis.  Characters and
idempotents are transported along, which is what lets the module and
product samplers build scaled and homomorphism-twisted actions in the new
coordinates.
"""

from .algebra import (
    Algebra,
    BimoduleAction,
    Character,
    CornerModule,
    ModuleAlgebra,
    _from_slices,
    _scaled,
    regular_action,
)
from .catalog import (
    _change_basis_algebra,
    change_basis_character,
    change_basis_module,
    cyclic_group_algebra,
    dual_numbers,
    direct_sum_algebra,
    elementary_matrices,
    field_q,
    invert,
    matrix_algebra,
    null_algebra,
    standard_characters,
    standard_idempotents,
    upper_triangular_2,
)
from .linalg import F0, Matrix, frac
from .products import (
    _triangular,
    alpha_product,
    direct_product,
    module_extension,
    semidirect,
    theta_lau,
    unitization,
)

class AlgebraSample:
    """An algebra plus the transported extras the samplers need."""

    __slots__ = ("algebra", "characters", "idempotents", "family", "split")

    def __init__(self, algebra, characters, idempotents, family, split=None):
        self.algebra = algebra
        self.characters = characters
        self.idempotents = idempotents
        self.family = family
        # split = (d1, d2) when the algebra is a direct sum of two ideals
        # in its current coordinates
        self.split = split

    @property
    def dim(self):
        return self.algebra.dim


def _base_sample(rng, max_dim, name) -> AlgebraSample:
    options = [("field", 1)]
    if max_dim >= 1:
        options.append(("null", 1))
        options.append(("cyclic", 1))
    if max_dim >= 2:
        options.append(("dual", 2))
        options.extend([("null", d) for d in range(2, max_dim + 1)])
        options.extend([("cyclic", d) for d in range(2, max_dim + 1)])
    if max_dim >= 3:
        options.append(("triangular", 3))
    if max_dim >= 4:
        options.append(("matrix", 4))
    fam, d = rng.choice(options)
    if fam == "field":
        alg = field_q(name)
    elif fam == "null":
        alg = null_algebra(d, name)
    elif fam == "cyclic":
        alg = cyclic_group_algebra(d, name)
    elif fam == "dual":
        alg = dual_numbers(name)
    elif fam == "triangular":
        alg = upper_triangular_2(name)
    else:
        alg = matrix_algebra(2, name)
    return AlgebraSample(alg, standard_characters(alg, fam),
                         standard_idempotents(alg, fam), fam)


def _direct_sum_sample(rng, max_dim, name) -> AlgebraSample:
    d1 = rng.randint(1, max_dim - 1)
    left = _base_sample(rng, d1, name + "L")
    right = _base_sample(rng, max_dim - left.dim, name + "R")
    alg = direct_sum_algebra(left.algebra, right.algebra, name)
    chars = []
    for t in left.characters:
        chars.append(Character(alg, list(t.values) + [F0] * right.dim))
    for t in right.characters:
        chars.append(Character(alg, [F0] * left.dim + list(t.values)))
    idems = [w + [F0] * right.dim for w in left.idempotents]
    idems += [[F0] * left.dim + w for w in right.idempotents]
    return AlgebraSample(alg, chars, idems, "direct-sum", split=(left.dim, right.dim))


def _apply_basis_change(sample: AlgebraSample, rng) -> AlgebraSample:
    n = sample.dim
    if n == 0:
        return sample
    p = elementary_matrices(rng, n, steps=rng.randint(1, 4))
    pinv = invert(p)
    alg = _change_basis_algebra(sample.algebra, p, pinv, sample.algebra.name)
    chars = [change_basis_character(t, alg, p) for t in sample.characters]
    idems = [pinv.apply(w) for w in sample.idempotents]
    # a basis change scrambles the ideal-split coordinates, so drop it
    return AlgebraSample(alg, chars, idems, sample.family + "~", split=None)


def random_algebra_sample(rng, max_dim, name="A") -> AlgebraSample:
    if max_dim >= 2 and rng.random() < 0.25:
        sample = _direct_sum_sample(rng, max_dim, name)
    else:
        sample = _base_sample(rng, max_dim, name)
    if rng.random() < 0.4:
        sample = _apply_basis_change(sample, rng)
    return sample


def scaled_action(a: Algebra, left_char: Character, right_char: Character,
                  module_dim) -> BimoduleAction:
    """a.x = t1(a) x and x.a = t2(a) x; a bimodule for any characters."""
    return _from_slices(BimoduleAction, a.dim, module_dim,
                        *_scaled(left_char.values, right_char.values, module_dim))


def random_module_sample(rng, a_sample: AlgebraSample, max_dim) -> ModuleAlgebra:
    """A validated module-algebra over the sampled base algebra."""
    a = a_sample.algebra
    kinds = ["trivial"]
    if a.dim >= 1:
        kinds.append("regular")
    if a_sample.characters:
        kinds += ["scaled", "scaled"]
        kinds.append("two-scaled-null")
    kind = rng.choice(kinds)
    if kind == "regular":
        u = ModuleAlgebra(_from_slices(Algebra, a.name + "'", a.dim, a.mult), regular_action(a))
    elif kind == "trivial":
        ualg = random_algebra_sample(rng, max_dim, name="U").algebra
        u = ModuleAlgebra(ualg, BimoduleAction.trivial(a.dim, ualg.dim))
    elif kind == "scaled":
        t = rng.choice(a_sample.characters)
        ualg = random_algebra_sample(rng, max_dim, name="U").algebra
        u = ModuleAlgebra(ualg, scaled_action(a, t, t, ualg.dim))
    else:
        t1 = rng.choice(a_sample.characters)
        t2 = rng.choice(a_sample.characters)
        md = rng.randint(1, max_dim)
        u = ModuleAlgebra(null_algebra(md, "U"), scaled_action(a, t1, t2, md))
    if u.dim > 0 and rng.random() < 0.35:
        pu = elementary_matrices(rng, u.dim, steps=rng.randint(1, 3))
        u = change_basis_module(u, Matrix.identity(a.dim), pu, name=u.algebra.name)
    return u


def random_product(rng, max_dim, allow_kinds=None):
    """One seeded semidirect-product instance with dims <= max_dim per factor."""
    a_sample = random_algebra_sample(rng, max_dim)
    kinds = ["semidirect", "direct", "module-extension"]
    if a_sample.characters:
        kinds += ["theta-lau", "unitization", "triangular"]
        kinds.append("alpha")
    if allow_kinds is not None:
        kinds = [k for k in kinds if k in allow_kinds] or list(allow_kinds)
    kind = rng.choice(kinds)
    if kind == "semidirect":
        u = random_module_sample(rng, a_sample, max_dim)
        return semidirect(a_sample.algebra, u), a_sample
    if kind == "direct":
        ualg = random_algebra_sample(rng, max_dim, name="U").algebra
        return direct_product(a_sample.algebra, ualg), a_sample
    if kind == "module-extension":
        u = random_module_sample(rng, a_sample, max_dim)
        return module_extension(a_sample.algebra, u.action, u_name=u.name), a_sample
    if kind == "theta-lau":
        t = rng.choice(a_sample.characters)
        ualg = random_algebra_sample(rng, max_dim, name="U").algebra
        return theta_lau(a_sample.algebra, ualg, t), a_sample
    if kind == "unitization":
        q = field_q()
        scalars = AlgebraSample(q, standard_characters(q, "field"),
                                standard_idempotents(q, "field"), "field")
        prod = unitization(a_sample.algebra)
        return prod, scalars
    if kind == "alpha":
        # U = a fresh copy of A, so both the zero and the identity map are
        # algebra homomorphisms A -> U
        ualg = _from_slices(Algebra, a_sample.algebra.name + "'", a_sample.dim,
                            a_sample.algebra.mult)
        alpha = rng.choice([Matrix.zeros(a_sample.dim, a_sample.dim),
                            Matrix.identity(a_sample.dim),
                            Matrix.identity(a_sample.dim)])
        return alpha_product(a_sample.algebra, ualg, alpha), a_sample
    # triangular: scalar corner actions through characters of both factors,
    # a bimodule by construction;
    # the two diagonal blocks share the dimension budget so the product's
    # subalgebra part stays within max_dim
    da = rng.randint(1, max(1, max_dim - 1))
    a_sample = random_algebra_sample(rng, da, name="A")
    while not a_sample.characters:
        a_sample = random_algebra_sample(rng, da, name="A")
    b_sample = random_algebra_sample(rng, max(1, max_dim - a_sample.dim), name="B")
    while not b_sample.characters:
        b_sample = random_algebra_sample(rng, max(1, max_dim - a_sample.dim), name="B")
    ta = rng.choice(a_sample.characters)
    tb = rng.choice(b_sample.characters)
    md = rng.randint(1, max_dim)
    corner = _from_slices(CornerModule, a_sample.dim, b_sample.dim, md,
                          *_scaled(ta.values, tb.values, md))
    return _triangular(a_sample.algebra, b_sample.algebra, corner), a_sample


def random_matrix(rng, rows, cols) -> Matrix:
    m = Matrix.zeros(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.6:
                x = rng.randint(-3, 3)
                if x and rng.random() < 0.2:
                    m.data[i][j] = frac(x) / rng.randint(1, 3)
                else:
                    m.data[i][j] = frac(x)
    return m
