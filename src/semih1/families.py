"""Seeded random instance families for the self-test battery.

Raw random structure tensors are essentially never associative, so every
family starts from a row of ``catalog.FAMILIES`` or a direct sum of two,
composed with a random small invertible change of basis.  Its characters
are transported along, which lets the module and product samplers build
scaled actions in the new coordinates; the alpha sampler twists a copy of
the algebra by the zero or the identity map, homomorphisms in any basis.
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
    scaled_action,
)
from .catalog import (
    FAMILIES,
    _change_basis_algebra,
    change_basis_character,
    change_basis_module,
    direct_sum_algebra,
    elementary_matrices,
    invert,
    null_algebra,
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
    """An algebra plus the transported extras the samplers need.

    ``idempotents`` is kept for samples built by hand; the samplers leave it empty.
    """

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
    return _catalog_sample(*rng.choice(options), name)


def _catalog_sample(family, d, name) -> AlgebraSample:
    """The algebra of ``family``'s catalog row at size ``d``, with its characters."""
    build, characters, _ = FAMILIES[family]
    alg = build(d, name)
    return AlgebraSample(alg, [Character(alg, v) for v in characters(alg.dim)], (), family)


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
    return AlgebraSample(alg, chars, (), "direct-sum", split=(left.dim, right.dim))


def _apply_basis_change(sample: AlgebraSample, rng) -> AlgebraSample:
    n = sample.dim
    if n == 0:
        return sample
    p = elementary_matrices(rng, n, steps=rng.randint(1, 4))
    alg = _change_basis_algebra(sample.algebra, p, invert(p), sample.algebra.name)
    chars = [change_basis_character(t, alg, p) for t in sample.characters]
    # a basis change scrambles the ideal-split coordinates, so drop it
    return AlgebraSample(alg, chars, (), sample.family + "~", split=None)


def random_algebra_sample(rng, max_dim, name="A") -> AlgebraSample:
    if max_dim >= 2 and rng.random() < 0.25:
        sample = _direct_sum_sample(rng, max_dim, name)
    else:
        sample = _base_sample(rng, max_dim, name)
    if rng.random() < 0.4:
        sample = _apply_basis_change(sample, rng)
    return sample


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
        act = regular_action(a)  # the twin keeps a's action, so their derived data is shared
        u = ModuleAlgebra(_from_slices(Algebra, a.name + "'", a.dim, a.mult, act), act)
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


def random_product(rng, max_dim):
    """One seeded semidirect-product instance with dims <= max_dim per factor."""
    a_sample = random_algebra_sample(rng, max_dim)
    kinds = ["semidirect", "direct", "module-extension"]
    if a_sample.characters:
        kinds += ["theta-lau", "unitization", "triangular"]
        kinds.append("alpha")
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
        return unitization(a_sample.algebra), _catalog_sample("field", 1, "Q")
    if kind == "alpha":
        # U = a fresh copy of A, so both the zero and the identity map are
        # algebra homomorphisms A -> U; it keeps A's regular action
        ualg = _from_slices(Algebra, a_sample.algebra.name + "'", a_sample.dim,
                            a_sample.algebra.mult, regular_action(a_sample.algebra))
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
