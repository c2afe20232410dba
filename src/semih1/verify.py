"""Executable checks for the structure laws of semidirect products.

Each rule computes both sides of a claimed identity independently and
compares them exactly:

* ``3.1``      -- derivations of A x| U are exactly the maps whose four
                  blocks (delta1, delta2, tau1, tau2) satisfy the block
                  conditions; checked as equality of two solution subspaces.
* ``4.1-4.4``  -- hypothesis-gated linear isomorphisms computing H1(A x| U)
                  as a quotient by the subspaces E, F, K, or C+I.
* ``5.1/5.3``  -- direct products: block structure and H1 additivity.
* ``ttd/cte/embed``      -- module extensions T(A,U).
* ``lau-der/a1/prop10``  -- scaled-action (character) products.
* ``5.4``      -- the twist (a,x) -> (a, x - alpha(a)) carries the direct
                  product onto the alpha-product, entrywise.

The catalog is one table, ``RULES``: each rule id maps to the construction
it needs (None, ``direct``, ``extension``, ``scaled`` or ``alpha``), the
names of its gates and its check, which returns
``(lhs_dim, rhs_dim, verdict, details)``.  ``applies(rule_id, p)`` is the one
test that p is the construction a rule needs; ``verify_any`` rejects an
unknown id or a wrong construction, evaluates every gate, and runs the
check only when all of them hold.  ``verify_theorem`` (4.1-4.4) and
``verify_special_case`` (the rest) are id-range checks in front of it.

What the rules read is two more tables, each row computed at most once per
product and kept in it.  ``_SPACES`` names every space a product carries
(Z1 and N1 of A x| U, A, (A, U) and U; Hom_A(U) and its meet with Z1(U);
the annihilators; R, C and I; the pairing homomorphisms; the 3.1 row groups
and their kernel; the map Phi below) with how the product builds it from
its factors, read through ``space(p, name)``.  Every row but the 3.1 row
groups and Phi is a Subspace, of maps flattened as in :mod:`.spaces`.
``h1(p, part)`` is the checked difference of one part's Z1 and N1.
``GATES`` maps each gate name to ``p -> (holds, witness)``, read through
``hypothesis_check``.

Every linear system here is a list of row groups from :mod:`.spaces`, solved
by ``spaces.solve``: the eight 3.1 conditions are the blocks of the Leibniz
identity built from the factors' structure tensors, 5.1 solves its own
reduced groups, and ttd and lau-der compare Z1 with the 3.1 kernel
(their reduced rows are the 3.1 rows with vanishing terms dropped).  The
per-matrix witnesses of ``split_blocks`` evaluate the same groups.  ``_BLOCKS``
names each block's source and target part, the one statement of where a
block sits in a map on A x| U.

The inner derivation v -> vz - zv of z = (a0, x0) is the ``phi`` row, built
from the factors: its blocks are (ad a0, ad x0, 0, r_a0 + ad_U x0).  E, F and K
are images of it: the kept blocks over the kernel of one killed block.

Verdicts are ``verified``, ``hypotheses-not-met``, or ``MISMATCH``; a
MISMATCH on a validated instance falsifies the implementation and is never
an expected outcome.
"""

from .algebra import (
    _commutators,
    _scaled,
    _twists,
    annihilator_in_algebra,
    annihilator_in_module,
    hom_failure,
    regular_action,
    semidirect_blocks,
    span_of_products,
)
from .errors import (
    InternalInvariantViolation,
    ShapeMismatch,
    UnknownHypothesis,
    WrongConstructionKind,
)
from .linalg import (
    F0,
    F1,
    Matrix,
    Subspace,
    _combine,
    _kernel_of_images,
    _span_of_rows,
    intersect,
    product_subspace,
    subspace_sum,
    unflatten,
)
from .products import SemidirectAlgebra, alpha_iso, direct_product
from .spaces import (
    LEFT,
    OUT,
    RIGHT,
    RowGroup,
    _h1_of,
    bimodule_hom,
    c_space,
    derivation_space,
    first_failure,
    hom_space,
    i_space,
    inner_space,
    inner_witness,
    kills,
    lands_in,
    leibniz,
    leibniz_defect,
    r_space,
    solve,
)

THEOREM_IDS = ("4.1", "4.2", "4.3", "4.4")


# ---------------------------------------------------------------------------
# the spaces a product carries, each built once per product

def _memo(p: SemidirectAlgebra, key, thunk):
    memo = p._memo
    if key not in memo:
        memo[key] = thunk()
    return memo[key]


def space(p: SemidirectAlgebra, name):
    """The row ``name`` of ``_SPACES`` for p, built on first use and kept in p."""
    return _memo(p, name, lambda: _SPACES[name](p))


# H1 part -> what its cohomology is of; rows z1_<part> and n1_<part> hold its Z1 and N1
_PARTS = {"total": "the product", "a": "A", "au": "(A,U)", "u": "U"}


def h1(p: SemidirectAlgebra, part):
    """dim Z1 - dim N1 of one part of p: ``total``, ``a``, ``au`` or ``u``; checked once."""
    return _memo(p, ("h1", part),
                 lambda: _h1_of(space(p, f"z1_{part}"), space(p, f"n1_{part}"), _PARTS[part]))


def h1_total(p):
    return h1(p, "total")


# ---------------------------------------------------------------------------
# block decomposition and the 3.1 conditions as row groups

class BlockDecomposition:
    """The four corner maps of a linear map on A x| U, with condition status.

    ``conditions`` maps a condition name to a falsifying witness tuple, or
    None when the condition holds; ``ok`` is the conjunction.
    """

    __slots__ = ("delta1", "delta2", "tau1", "tau2", "conditions")

    def __init__(self, delta1, delta2, tau1, tau2, conditions):
        self.delta1 = delta1
        self.delta2 = delta2
        self.tau1 = tau1
        self.tau2 = tau2
        self.conditions = conditions

    @property
    def ok(self):
        return all(w is None for w in self.conditions.values())

    def failed(self):
        return {k: w for k, w in self.conditions.items() if w is not None}


# block -> (source part, target part) of a map on A x| U, in positional order
_BLOCKS = {"delta1": "AA", "delta2": "AU", "tau1": "UA", "tau2": "UU"}


def _block_ranges(p: SemidirectAlgebra):
    """block -> (row range, column range) of that block in a map on A x| U."""
    part = {"A": range(p.n), "U": range(p.n, p.dim)}
    return {block: (part[s], part[t]) for block, (s, t) in _BLOCKS.items()}


def split_matrix(d: Matrix, p: SemidirectAlgebra):
    if (d.rows, d.cols) != (p.dim, p.dim):
        raise ShapeMismatch("map must be square of the product dimension")
    return tuple(Matrix.from_rows([d.data[r][cols.start:cols.stop] for r in rows], cols=len(cols))
                 for rows, cols in _block_ranges(p).values())


def embed_blocks(p: SemidirectAlgebra, delta1=None, delta2=None, tau1=None, tau2=None) -> Matrix:
    """Assemble a map on A x| U from (some of) its four blocks."""
    d = Matrix.zeros(p.dim, p.dim)
    for block, (rows, cols) in zip((delta1, delta2, tau1, tau2), _block_ranges(p).values()):
        if block is not None:
            for r, brow in zip(rows, block.data):
                for c, x in zip(cols, brow):
                    d.data[r][c] = x
    return d


# The eight block conditions of 3.1 are the (source pair, target) blocks of
# the Leibniz identity on A x| U, in the order they are reported.  Only the
# tau1-hom-right pairs (x, a) are scanned a-major.
_CONDITIONS_3_1 = (
    ("delta1-derivation", "AAA", False),
    ("delta2-derivation", "AAU", False),
    ("tau1-hom-left", "AUA", False),
    ("tau1-hom-right", "UAA", True),
    ("tau1-kills-products", "UUA", False),
    ("tau2-left-twist", "AUU", False),
    ("tau2-right-twist", "UAU", False),
    ("tau2-product-twist", "UUU", False),
)


def _condition_groups(p: SemidirectAlgebra):
    """The eight 3.1 conditions as row groups on the t*t coordinates of a map.

    For parts x, y, k in {A, U}, block (x, y) -> k of the Leibniz identity
    D(vw) = D(v)w + vD(w) sums over the middle part z: D_(z->k) applied to
    the (x, y) -> z product, the (z, y) -> k product of D_(x->z)(v) with w,
    and the (x, z) -> k product of v with D_(y->z)(w).  The products are the
    four blocks of ``semidirect_blocks``, taken from the factors and never
    from the total algebra, so this kernel is solved independently of
    Z1(A x| U).
    """
    t = p.dim
    dims = {"A": p.n, "U": p.m}
    offset = {"A": 0, "U": p.n}
    mult = semidirect_blocks(p.part_a, p.part_u)
    groups = []
    for name, (x, y, k), y_major in _CONDITIONS_3_1:
        terms = []
        for z in "AU":
            if x + y + z in mult:
                terms.append((1, OUT, mult[x + y + z], (offset[z], offset[k], t)))
            if z + y + k in mult:
                terms.append((-1, LEFT, mult[z + y + k], (offset[x], offset[z], t)))
            if x + z + k in mult:
                terms.append((-1, RIGHT, mult[x + z + k], (offset[y], offset[z], t)))
        groups.append(RowGroup(name, (dims[x], dims[y], dims[k]), terms, y_major))
    return tuple(groups)


def split_blocks(d: Matrix, p: SemidirectAlgebra) -> BlockDecomposition:
    """Cut a map on A x| U into its four blocks and grade each condition.

    The conditions characterize derivations of A x| U:
      (a) delta1 is a derivation of A;
      (b) delta2 is a derivation of A into the bimodule U;
      (c) tau1 is an A-module homomorphism U -> A killing U-products;
      (d) tau2 twists by delta1/delta2 on actions and by tau1 on U-products.
    """
    delta1, delta2, tau1, tau2 = split_matrix(d, p)
    flat = d.flatten()
    cond = {g.name: first_failure(g, flat) for g in space(p, "groups31")}
    return BlockDecomposition(delta1, delta2, tau1, tau2, cond)


def is_derivation_via_3_1(d: Matrix, p: SemidirectAlgebra) -> bool:
    return split_blocks(d, p).ok


# ---------------------------------------------------------------------------
# reports

class HypothesisResult:
    __slots__ = ("name", "holds", "witness")

    def __init__(self, name, holds, witness=None):
        self.name = name
        self.holds = holds
        self.witness = witness

    def as_dict(self):
        return {"name": self.name, "holds": self.holds, "witness": self.witness}


class RuleReport:
    """Outcome of one verification rule on one instance."""

    __slots__ = ("rule_id", "instance", "hypotheses", "lhs_dim", "rhs_dim",
                 "verdict", "details")

    def __init__(self, rule_id, instance, hypotheses, lhs_dim, rhs_dim, verdict, details=None):
        self.rule_id = rule_id
        self.instance = instance
        self.hypotheses = hypotheses
        self.lhs_dim = lhs_dim
        self.rhs_dim = rhs_dim
        self.verdict = verdict
        self.details = details or {}

    @property
    def ok(self):
        return self.verdict != "MISMATCH"

    def as_dict(self):
        return {
            "rule": self.rule_id,
            "instance": self.instance,
            "verdict": self.verdict,
            "hypotheses": [h.as_dict() for h in self.hypotheses],
            "lhs_dim": self.lhs_dim,
            "rhs_dim": self.rhs_dim,
            "details": self.details,
        }

    def __repr__(self):
        return (f"RuleReport({self.rule_id!r}, {self.verdict}, "
                f"lhs={self.lhs_dim}, rhs={self.rhs_dim})")


def _verdict(ok):
    return "verified" if ok else "MISMATCH"


# ---------------------------------------------------------------------------
# rule 3.1: subspace-level equivalence, witnesses, and single-block criteria

def _kernels_agree(p: SemidirectAlgebra, cond: Subspace):
    """Z1(A x| U) against a kernel of block conditions: (Z1, details, verdict)."""
    leib = space(p, "z1_total")
    return leib, {"leibniz_dim": leib.dim, "conditions_dim": cond.dim}, _verdict(leib == cond)


def _equivalence(p: SemidirectAlgebra, samples=0, rng=None):
    """Rule 3.1 as (lhs_dim, rhs_dim, verdict, details); see theorem_3_1_equivalence."""
    cond = space(p, "cond31")
    leib, details, verdict = _kernels_agree(p, cond)
    if samples and rng is not None and verdict == "verified":
        t = p.dim
        agree = 0
        for _ in range(samples):
            mat = Matrix.zeros(t, t)
            for r in range(t):
                for s in range(t):
                    mat.data[r][s] = F1 * rng.randint(-2, 2)
            if leib.contains(mat.flatten()) != is_derivation_via_3_1(mat, p):
                verdict = "MISMATCH"
                details["sample_disagreement"] = [[str(x) for x in row] for row in mat.data]
                break
            agree += 1
        for row in leib.basis.data[: max(0, samples - 1)]:
            if not is_derivation_via_3_1(unflatten(row, t, t), p):
                verdict = "MISMATCH"
                details["basis_disagreement"] = True
                break
            agree += 1
        details["samples_checked"] = agree
    return leib.dim, cond.dim, verdict, details


def theorem_3_1_equivalence(p: SemidirectAlgebra, samples=0, rng=None) -> RuleReport:
    """Compare the Leibniz kernel of A x| U with the block-condition kernel.

    Both sides are solution sets of linear systems, so equality of the two
    canonical bases is the equivalence in full strength.  With ``samples``
    set, random maps are additionally spot-checked for agreement between
    the per-matrix block conditions and subspace membership.
    """
    return RuleReport("3.1", p.name, [], *_equivalence(p, samples, rng))


def inner_characterization(d: Matrix, p: SemidirectAlgebra):
    """Solve D = (v -> v z - z v) on A x| U; on success return z = (a0, x0).

    When a witness exists its blocks must take the inner shape
    (delta1, delta2, tau1, tau2) = (ad a0, ad x0, 0, ad_U x0 + r_a0), the
    image of z under the factor-built map ``_phi``; that is asserted block
    by block, not assumed.
    """
    total_reg = regular_action(p.total)
    witness = inner_witness(d, p.total, total_reg)
    if witness is None:
        return None
    diff = [x - y for x, y in zip(d.flatten(), _phi_flat(p, witness))]
    for block in _BLOCKS:
        if any(_block_part(p, diff, block)):
            raise InternalInvariantViolation(
                f"{block} block of an inner map is not the image of its witness")
    return witness[:p.n], witness[p.n:]


def corollary_3_2_check(kind, block: Matrix, p: SemidirectAlgebra) -> bool:
    """Exact single-block criteria for a map on A x| U to be a derivation.

    ``kind`` picks which corner the block occupies; the other three blocks
    are zero.  The tau1 criterion includes the module-homomorphism law,
    which the two displayed identities alone do not imply.
    """
    a, u = p.part_a, p.part_u
    act = u.action
    name = kind.removesuffix("-only")
    if name in _BLOCKS:
        (rs, cs), (s, t) = _block_ranges(p)[name], _BLOCKS[name]
        if (block.rows, block.cols) != (len(rs), len(cs)):
            shape = f"dim({s}) square" if s == t else f"dim({s}) x dim({t})"
            raise ShapeMismatch(f"{name} block must be {shape}")
    if kind == "delta1-only":
        if leibniz_defect(block, a, regular_action(a)) is not None:
            return False
        ann = space(p, "ann_a_u")
        return all(ann.contains(row) for row in block.data)
    if kind == "delta2-only":
        if leibniz_defect(block, a, act) is not None:
            return False
        ann = space(p, "ann_u_u")
        return all(ann.contains(row) for row in block.data)
    if kind == "tau1-only":
        groups = (*_pairing_groups(p),
                  kills("tau1-kills-products", u.algebra.mult, (0, 0, p.n), p.n))
        flat = block.flatten()
        return all(first_failure(g, flat) is None for g in groups)
    if kind == "tau2-only":
        if leibniz_defect(block, u.algebra, regular_action(u.algebra)) is not None:
            return False
        return space(p, "hom_u").contains(block.flatten())
    raise UnknownHypothesis(f"unknown single-block kind {kind!r}")


def _block_part(p, row, block):
    """The given flattened map on A x| U with every entry outside the named block zeroed."""
    rows, cols = _block_ranges(p)[block]
    return [x if j // p.dim in rows and j % p.dim in cols else F0 for j, x in enumerate(row)]


def tau1_vanishes(p: SemidirectAlgebra) -> bool:
    """True when every derivation of A x| U has zero U->A corner."""
    return all(not any(_block_part(p, row, "tau1"))
               for row in space(p, "z1_total").basis.data)


# ---------------------------------------------------------------------------
# the inner-derivation map and the subspaces E, F, K of the quotient rules

def _phi(p: SemidirectAlgebra):
    """The blocks of v -> v z - z v on A x| U as linear maps of z = (a0, x0).

    Maps each of delta1, delta2 and tau2 to n + m flat rows, the images of
    the parameter basis (A's, then U's): delta1 = ad a0, delta2 = ad x0 on
    (A, U) and tau2 = r_a0 + ad_U x0; tau1 is always zero.  Built from the
    factors' structure tensors, never from the total algebra.
    """
    a, u = p.part_a, p.part_u
    ad_au = _commutators(u.action)
    return {"delta1": _commutators(regular_action(a)) + [()] * p.m,
            "delta2": [()] * p.n + ad_au,
            "tau2": _twists(ad_au, p.n, p.m) + _commutators(regular_action(u.algebra))}


def _phi_flat(p: SemidirectAlgebra, w):
    """Φ(w), the inner derivation of z = w on A x| U, as a flattened map."""
    flat, t, ranges = [F0] * (p.dim * p.dim), p.dim, _block_ranges(p)
    for block, rows in space(p, "phi").items():
        rs, cs = ranges[block]
        for j, c in _combine(rows, w):
            s, q = divmod(j, len(cs))
            flat[(rs.start + s) * t + cs.start + q] = c
    return flat


def _image_over_kernel(p: SemidirectAlgebra, keep, kill) -> Subspace:
    """The two ``keep`` blocks of Φ, side by side, over the kernel of its ``kill`` block."""
    phi, ranges = space(p, "phi"), _block_ranges(p)
    first, second = (len(rs) * len(cs) for rs, cs in (ranges[block] for block in keep))
    rows = [_combine(phi[keep[0]], w) + [(first + j, c) for j, c in _combine(phi[keep[1]], w)]
            for w in _kernel_of_images(phi[kill], p.n + p.m).basis.data]
    return _span_of_rows(rows, first + second)


def build_E(p: SemidirectAlgebra) -> Subspace:
    """E = {(ad a, r_a + ad_U x) : a in A, x with ad_(A,U) x = 0}.

    Lives in maps(A,A) (+) maps(U,U); the denominator of the 4.1 quotient.
    """
    return _image_over_kernel(p, ("delta1", "tau2"), kill="delta2")


def build_F(p: SemidirectAlgebra) -> Subspace:
    """F = {(ad_(A,U) x, r_a + ad_U x) : x in U, a central in A}.

    Lives in maps(A,U) (+) maps(U,U); the denominator of the 4.2 quotient.
    """
    return _image_over_kernel(p, ("delta2", "tau2"), kill="delta1")


def build_K(p: SemidirectAlgebra) -> Subspace:
    """K = {(ad a, ad_(A,U) x) : r_a + ad_U x = 0 on U}.

    Lives in maps(A,A) (+) maps(A,U); the denominator of the 4.3 quotient.
    """
    return _image_over_kernel(p, ("delta1", "delta2"), kill="tau2")


# ---------------------------------------------------------------------------
# the space table and the gate table

def _pairing_groups(p: SemidirectAlgebra):
    """T: U -> A a module homomorphism with T(x)y + xT(y) = 0, on T's coordinates."""
    act = p.part_u.action
    n, m = p.n, p.m
    place = (0, 0, n)
    pairing = RowGroup("pairing", (m, m, m),
                       [(1, RIGHT, act.right, place), (1, LEFT, act.left, place)])
    return (*bimodule_hom(n, act, regular_action(p.part_a), place), pairing)


# space name -> how a product builds it from its factors (read through ``space``)
_SPACES = {
    "z1_total": lambda p: derivation_space(p.total, regular_action(p.total)),
    "n1_total": lambda p: inner_space(p.total, regular_action(p.total)),
    "z1_a": lambda p: derivation_space(p.part_a, regular_action(p.part_a)),
    "n1_a": lambda p: inner_space(p.part_a, regular_action(p.part_a)),
    "z1_au": lambda p: derivation_space(p.part_a, p.part_u.action),
    "n1_au": lambda p: inner_space(p.part_a, p.part_u.action),
    "z1_u": lambda p: derivation_space(p.part_u.algebra, regular_action(p.part_u.algebra)),
    "n1_u": lambda p: inner_space(p.part_u.algebra, regular_action(p.part_u.algebra)),
    "hom_u": lambda p: hom_space(p.part_a, p.part_u.action, p.part_u.action),
    # Hom_A(U) intersected with the derivations of U, in map coordinates
    "hom_cap_z1u": lambda p: intersect(space(p, "hom_u"), space(p, "z1_u")),
    "ann_a_u": lambda p: annihilator_in_algebra(p.part_a, p.part_u),
    "ann_u_u": lambda p: annihilator_in_module(p.part_u),
    "ann_a_a": lambda p: annihilator_in_algebra(p.part_a, regular_action(p.part_a)),
    "r": lambda p: r_space(p.part_a, p.part_u),
    "c": lambda p: c_space(p.part_a, p.part_u),
    "i": lambda p: i_space(p.part_a, p.part_u),
    # module homomorphisms T: U -> A with T(x)y + xT(y) = 0 for all x, y
    "pairing": lambda p: solve(p.m * p.n, *_pairing_groups(p)),
    "groups31": _condition_groups,
    "cond31": lambda p: solve(p.dim * p.dim, *space(p, "groups31")),
    "phi": _phi,
}


def _images_in(maps, target):
    """Gate: the maps out of A of row ``maps`` take values in row ``target``; else a basis map."""
    def gate(p):
        z, ann = space(p, maps), space(p, target)
        td = ann.ambient
        for row in z.basis.data:
            if not all(ann.contains(row[s * td:(s + 1) * td]) for s in range(p.n)):
                return False, [str(x) for x in row]
        return True, None
    return gate


def _zero(dim, key):
    """Gate: ``dim(p)`` is 0, else the witness ``{key: dim(p)}``."""
    def gate(p):
        d = dim(p)
        return d == 0, None if d == 0 else {key: d}
    return gate


def _hom_in_r_plus_n1u(p):
    rn = subspace_sum(space(p, "r"), space(p, "n1_u"))
    for row in space(p, "hom_cap_z1u").basis.data:
        if not rn.contains(row):
            return False, [str(x) for x in row]
    return True, None


def _tau1_gate(p):
    holds = tau1_vanishes(p)
    return holds, None if holds else "a basis derivation has tau1 != 0"


# gate name -> p -> (holds, witness); ``hypothesis_check`` evaluates each once per product
GATES = {
    "tau1-vanishes": _tau1_gate,
    "Z1(A) image in ann_A(U)": _images_in("z1_a", "ann_a_u"),
    "Z1(A,U) image in ann_U(U)": _images_in("z1_au", "ann_u_u"),
    "H1(A)=0": _zero(lambda p: h1(p, "a"), "h1"),
    "H1(A,U)=0": _zero(lambda p: h1(p, "au"), "h1"),
    "Hom(U) cap Z1(U) inside R(U)+N1(U)": _hom_in_r_plus_n1u,
    "no nonzero pairing hom U->A": _zero(lambda p: space(p, "pairing").dim, "dim"),
    "ann_U(U)=0 or span(A^2)=A": lambda p: (
        space(p, "ann_u_u").dim == 0 or span_of_products(p.part_a).dim == p.n, None),
    "ann_A(A)=0 or span(U^2)=U": lambda p: (
        space(p, "ann_a_a").dim == 0 or span_of_products(p.part_u.algebra).dim == p.m, None),
}


def hypothesis_check(name, p: SemidirectAlgebra) -> HypothesisResult:
    """Evaluate one named hypothesis exactly, with a witness when it fails."""
    if name not in GATES:
        raise UnknownHypothesis(f"unknown hypothesis {name!r}")
    return HypothesisResult(name, *_memo(p, ("gate", name), lambda: GATES[name](p)))


# ---------------------------------------------------------------------------
# the checks; each returns (lhs_dim, rhs_dim, verdict, details)

def _quotient(p, numerator, denominator):
    """Rules 4.1-4.4: h1(A x| U) against dim(numerator) - dim(denominator)."""
    lhs = h1_total(p)
    details = {"numerator_dim": numerator.dim, "denominator_dim": denominator.dim}
    if not numerator.contains_subspace(denominator):
        return lhs, None, "MISMATCH", dict(details, reason="denominator not inside numerator")
    rhs = numerator.dim - denominator.dim
    return lhs, rhs, _verdict(lhs == rhs), details


def _h1_sum(p, *parts):
    """h1(A x| U) against the sum of the h1s of the given parts."""
    lhs = h1_total(p)
    rhs = sum(h1(p, part) for part in parts)
    return lhs, rhs, _verdict(lhs == rhs), None


def _direct_blocks(p):
    """Rule 5.1: the direct-product block conditions as one reduced system.

    A derivation of A x U (trivial actions) is exactly: delta1 and tau2 are
    derivations, tau1 lands in ann_A(A) and kills U-products, delta2 lands
    in ann_U(U) and kills A-products.
    """
    a, u = p.part_a, p.part_u
    n, m, t = p.n, p.m, p.dim
    tau1, delta2 = (n, 0, t), (0, n, t)
    cond = solve(t * t,
                 leibniz("delta1", a, regular_action(a), (0, 0, t)),
                 leibniz("tau2", u.algebra, regular_action(u.algebra), (n, n, t)),
                 lands_in("tau1-in-ann", space(p, "ann_a_a"), tau1, m),
                 kills("tau1-kills", u.algebra.mult, tau1, n),
                 lands_in("delta2-in-ann", space(p, "ann_u_u"), delta2, n),
                 kills("delta2-kills", a.mult, delta2, m))
    leib, details, verdict = _kernels_agree(p, cond)
    # vanishing consequences under the stated non-degeneracy conditions
    force_delta2 = hypothesis_check("ann_U(U)=0 or span(A^2)=A", p).holds
    force_tau1 = hypothesis_check("ann_A(A)=0 or span(U^2)=U", p).holds
    details["forces_delta2_zero"] = force_delta2
    details["forces_tau1_zero"] = force_tau1
    if verdict == "verified":
        for row in leib.basis.data:
            if force_delta2 and any(_block_part(p, row, "delta2")):
                verdict = "MISMATCH"
                details["reason"] = "delta2 should vanish but does not"
                break
            if force_tau1 and any(_block_part(p, row, "tau1")):
                verdict = "MISMATCH"
                details["reason"] = "tau1 should vanish but does not"
                break
    return leib.dim, cond.dim, verdict, details


def _direct_h1_split(p):
    """Rule 5.3: H1, Z1 and N1 of A x U split over the two factors."""
    lhs, rhs = h1_total(p), h1(p, "a") + h1(p, "u")
    details = {
        "z1_split": space(p, "z1_total").dim == space(p, "z1_a").dim + space(p, "z1_u").dim,
        "n1_split": space(p, "n1_total").dim == space(p, "n1_a").dim + space(p, "n1_u").dim,
    }
    return lhs, rhs, _verdict(lhs == rhs and all(details.values())), details


def _alpha_transport(p):
    """Rule 5.4: the twist is an isomorphism of A x U onto the alpha-product."""
    a, u = p.part_a, p.part_u.algebra
    iso = alpha_iso(a, u, p.alpha)
    dp = direct_product(a, u)
    t = p.dim
    details = {"pairs_checked": t * t, "iso_invertible": iso.rank() == t}
    pair = hom_failure(iso, dp.total, p.total) if details["iso_invertible"] else None
    if pair is not None:
        details["failing_pair"] = pair
    return None, None, _verdict(details["iso_invertible"] and pair is None), details


def _extension_blocks(p):
    """Rule ttd: Z1 of a module extension T(A,U) against the 3.1 kernel.

    With U^2 = 0 every U-product term of the 3.1 rows vanishes: delta1 and
    delta2 are derivations, tau1 is a module homomorphism with
    x tau1(y) + tau1(x) y = 0, and tau2 is twisted by delta1 alone.
    """
    cond = space(p, "cond31")
    leib, details, verdict = _kernels_agree(p, cond)
    if verdict == "verified":
        # D = D1 + D2 with D1 = (delta1 + tau1, tau2) and D2 = (0, delta2),
        # both of which must themselves be derivations; as D is one, D1 is
        # one exactly when D2 is
        split_ok = all(leib.contains(_block_part(p, row, "delta2")) for row in leib.basis.data)
        details["decomposition_ok"] = split_ok
        inner_tau1_zero = all(not any(_block_part(p, row, "tau1"))
                              for row in space(p, "n1_total").basis.data)
        details["inner_tau1_zero"] = inner_tau1_zero
        verdict = _verdict(split_ok and inner_tau1_zero)
    return leib.dim, cond.dim, verdict, details


def _extension_h1(p):
    """Rule cte: H1(T(A,U)) = H1(A,U) + dim Hom_A(U) cap Z1(U) - dim C_A(U)."""
    lhs = h1_total(p)
    homz1, cs = space(p, "hom_cap_z1u"), space(p, "c")
    details = {"hom_dim": homz1.dim, "c_dim": cs.dim}
    if not homz1.contains_subspace(cs):
        return lhs, None, "MISMATCH", dict(details, reason="C_A(U) escapes Hom cap Z1")
    rhs = h1(p, "au") + homz1.dim - cs.dim
    return lhs, rhs, _verdict(lhs == rhs), details


def _extension_embedding(p):
    """Rule embed: H1(A,U) embeds in H1(T(A,U))."""
    lhs, rhs = h1(p, "au"), h1_total(p)
    return lhs, rhs, _verdict(lhs <= rhs), {"claim": "h1(A,U) embeds, so lhs <= rhs"}


def _scaled_blocks(p):
    """Rule lau-der: Z1 of a character-scaled product against the 3.1 kernel.

    With a.x = x.a = t(a)x the two action terms of each tau2 twist cancel:
    delta1 and delta2 are derivations coupled by t(delta1(a))x + delta2(a)x = 0
    and its right twin, tau1 is a module homomorphism killing U-products, and
    tau2 twists on U-products by t o tau1.
    """
    cond = space(p, "cond31")
    leib, details, verdict = _kernels_agree(p, cond)
    if verdict == "verified":
        # report the two coupling identities separately for each derivation
        act, umult = p.part_u.action, p.part_u.algebra.mult
        n, m, t = p.n, p.m, p.dim
        delta1, delta2 = (0, 0, t), (0, n, t)
        left = RowGroup("coupling-left", (n, m, m),
                        [(1, LEFT, act.left, delta1), (1, LEFT, umult, delta2)])
        right = RowGroup("coupling-right", (m, n, m),
                         [(1, RIGHT, act.right, delta1), (1, RIGHT, umult, delta2)])
        left_ok = all(first_failure(left, row) is None for row in leib.basis.data)
        right_ok = all(first_failure(right, row) is None for row in leib.basis.data)
        details["coupling_left_ok"] = left_ok
        details["coupling_right_ok"] = right_ok
        inner_ok = all(
            not any(_block_part(p, row, "tau1")) and not any(_block_part(p, row, "delta2"))
            for row in space(p, "n1_total").basis.data)
        details["inner_shape_ok"] = inner_ok
        verdict = _verdict(left_ok and right_ok and inner_ok)
    return leib.dim, cond.dim, verdict, details


# ---------------------------------------------------------------------------
# the rule table and its one runner

def _is_scaled(p):
    """True when p carries a character t and acts by a.x = x.a = t(a) x."""
    if p.character is None:
        return False
    act, theta = p.part_u.action, p.character.values
    return (act.left, act.right) == _scaled(theta, theta, p.m)


# construction -> (what a rule on it needs, the test that a product is one)
_CONSTRUCTIONS = {
    "direct": ("a direct product (trivial actions)", SemidirectAlgebra.action_is_trivial),
    "extension": ("a module extension (U^2 = 0)", SemidirectAlgebra.u_square_is_zero),
    "scaled": ("a character-scaled product", _is_scaled),
    "alpha": ("an alpha-product carrying its homomorphism",
              lambda p: p.kind == "alpha" and p.alpha is not None),
}

def _product(p, first, second):
    """The product of two rows of ``_SPACES``: the numerator of a quotient rule."""
    return product_subspace(space(p, first), space(p, second))


# rule id -> (construction it needs or None, gates, check)
RULES = {
    "3.1": (None, (), _equivalence),
    "4.1": (None, ("tau1-vanishes", "Z1(A) image in ann_A(U)", "H1(A,U)=0"),
            lambda p: _quotient(p, _product(p, "z1_a", "hom_cap_z1u"),
                                build_E(p))),
    "4.2": (None, ("tau1-vanishes", "Z1(A,U) image in ann_U(U)", "H1(A)=0"),
            lambda p: _quotient(p, _product(p, "z1_au", "hom_cap_z1u"),
                                build_F(p))),
    "4.3": (None, ("tau1-vanishes", "Z1(A) image in ann_A(U)", "Z1(A,U) image in ann_U(U)",
                   "Hom(U) cap Z1(U) inside R(U)+N1(U)"),
            lambda p: _quotient(p, _product(p, "z1_a", "z1_au"),
                                build_K(p))),
    "4.4": (None, ("tau1-vanishes", "H1(A)=0", "H1(A,U)=0"),
            lambda p: _quotient(p, space(p, "hom_cap_z1u"),
                                subspace_sum(space(p, "c"), space(p, "i")))),
    "5.1": ("direct", (), _direct_blocks),
    "5.3": ("direct", ("ann_U(U)=0 or span(A^2)=A", "ann_A(A)=0 or span(U^2)=U"),
            _direct_h1_split),
    "ttd": ("extension", (), _extension_blocks),
    "cte": ("extension", ("no nonzero pairing hom U->A", "H1(A)=0"), _extension_h1),
    "embed": ("extension", (), _extension_embedding),
    "lau-der": ("scaled", (), _scaled_blocks),
    "a1": ("scaled", ("tau1-vanishes", "Z1(A) image in ann_A(U)", "H1(A,U)=0"),
           lambda p: _h1_sum(p, "a", "u")),
    "prop10": ("scaled", ("tau1-vanishes", "H1(A)=0", "H1(A,U)=0"),
               lambda p: _h1_sum(p, "u")),
    "5.4": ("alpha", (), _alpha_transport),
}


def applies(rule_id, p: SemidirectAlgebra) -> bool:
    """True when p is the construction that rule ``rule_id`` needs."""
    construction = RULES[rule_id][0]
    return construction is None or _CONSTRUCTIONS[construction][1](p)


def verify_any(rule_id, p: SemidirectAlgebra) -> RuleReport:
    """Run one rule of ``RULES``: construction, then every gate, then the check.

    A gate failure yields ``hypotheses-not-met`` and no claim is tested;
    otherwise both sides are computed independently and must agree.
    """
    if rule_id not in RULES:
        raise UnknownHypothesis(f"unknown rule {rule_id!r}")
    construction, gates, check = RULES[rule_id]
    if not applies(rule_id, p):
        raise WrongConstructionKind(f"rule {rule_id} needs {_CONSTRUCTIONS[construction][0]}")
    hyps = [hypothesis_check(name, p) for name in gates]
    if not all(h.holds for h in hyps):
        return RuleReport(rule_id, p.name, hyps, None, None, "hypotheses-not-met")
    return RuleReport(rule_id, p.name, hyps, *check(p))


def verify_theorem(rule_id, p: SemidirectAlgebra) -> RuleReport:
    """Run one of the H1 quotient rules 4.1-4.4."""
    if rule_id not in THEOREM_IDS:
        raise UnknownHypothesis(f"unknown rule {rule_id!r}")
    return verify_any(rule_id, p)


def verify_special_case(rule_id, p: SemidirectAlgebra) -> RuleReport:
    """Run any rule but 4.1-4.4: 3.1 or a construction-specific rule."""
    if rule_id in THEOREM_IDS:
        raise UnknownHypothesis(f"unknown rule {rule_id!r}")
    return verify_any(rule_id, p)
