"""Executable checks for the structure laws of semidirect products.

Each rule computes both sides of a claimed identity independently and
compares them exactly:

* ``3.1``      -- derivations of A x| U are exactly the maps whose four
                  blocks (delta1, delta2, tau1, tau2) satisfy the block
                  conditions; checked as equality of two solution subspaces.
* ``4.1-4.4``  -- hypothesis-gated linear isomorphisms computing H1(A x| U)
                  as one quotient shape: kept blocks over iota^-1(N1), below.
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
3.1, ttd and lau-der are one check, ``_blocks_rule``, and 5.3, a1 and prop10
another, ``_h1_sum``; their rows name only the facts they add, keys of
``_FACTS`` (fact key -> p -> bool).

What the rules read is more tables, each row computed at most once and kept
by what it is of, read through ``space(p, name)``, which keeps in p what p
reads.  ``_SPACES`` builds the rows of the total (its Z1 and N1, the 3.1 and
coupling row groups, the map Phi below); ``_FACTOR_SPACES`` the rows of the
factors (Z1 and N1 of A, (A, U) and U, the annihilators and the single-block
laws, R, C, I and their sums, the pairing homomorphisms), kept in U's
algebra.  Z1, N1 and Hom_A of A into an action are ``_factor_space``
entries kept in A under the action, so every product and job on one action
shares them.  Every row but the row groups and Phi is a Subspace, of maps
flattened as in :mod:`.spaces`.
``h1(p, part)`` is the checked difference of one part's Z1 and N1.
``GATES`` maps each gate name to ``p -> (holds, witness)``, read through
``hypothesis_check``; a containment gate's witness is its first basis map outside.

Every linear system here is a list of row groups from :mod:`.spaces`, solved
by ``spaces.solve``: the eight 3.1 conditions are the blocks of the Leibniz
identity built from the factors' structure tensors, and their kernel is
Z1(A x| U) itself when their rows are exactly the Leibniz rows of the total
(``_cond31``), else solved from them; 5.1 places four kept block spaces
by iota (``_placed``).  The Leibniz group of the total and the 3.1 groups
keep only the rows whose source index lies in the generating set of
A x| U (``algebra.generators``), which cut out the same kernel; the
per-matrix witnesses of ``split_blocks`` read the same groups on every
pair, kept as the ``groups31_full`` row.  Where a block sits in a map on
A x| U is stated once: ``_layout(p, blocks)`` maps each flat coordinate to
its place in the named blocks side by side, read from ``_BLOCKS`` (each
block's source and target part), as are the RowGroup places.

The ``phi`` row holds Phi(z), v -> vz - zv, for each basis vector z = (a0, x0) as
a flat map on A x| U with blocks (ad a0, ad x0, 0, r_a0 + ad_U x0), from the
factors.  Rules 4.1-4.4 name only their kept blocks: the spaces filling them side
by side over iota^-1(N1), Phi where it vanishes off them (E, F, K or C + I), one layout;
cte is the same quotient check, Hom_A(U) cap Z1(U) over C_A(U), offset by H1(A, U).

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
    generators,
    hom_failure,
    regular_action,
    semidirect_blocks,
    separable,
    span_of_products,
)
from .catalog import direct_sum_algebra
from .errors import (
    InternalInvariantViolation,
    NotADerivation,
    ShapeMismatch,
    UnknownHypothesis,
    WrongConstructionKind,
)
from .linalg import (
    Matrix,
    Subspace,
    _combine,
    _image_of_kernel,
    _pairs,
    _reshape,
    _span_of_rows,
    _vector,
    intersect,
    product_subspace,
    subspace_sum,
)
from .products import SemidirectAlgebra, alpha_iso
from .spaces import (
    LEFT,
    OUT,
    RIGHT,
    RowGroup,
    _h1_of,
    _witness,
    c_space,
    derivation_space,
    first_failure,
    hom_space,
    i_space,
    inner_space,
    kills,
    leibniz,
    leibniz_defect,
    pairing_groups,
    r_space,
    solve,
)

THEOREM_IDS = ("4.1", "4.2", "4.3", "4.4")


# ---------------------------------------------------------------------------
# the spaces a product reads, each built once and kept by what it is of

def _memo(owner, key, thunk):
    """The value ``owner`` (a product or an Algebra) keeps under ``key``, built on first use."""
    if owner._memo is None:  # an Algebra's memo is made at its first entry
        owner._memo = {}
    if key not in owner._memo:
        owner._memo[key] = thunk()
    return owner._memo[key]


def space(p: SemidirectAlgebra, name):
    """The row ``name`` of p, kept in p: a row of the total built by ``_SPACES``, a row of
    the factors the entry :func:`_factor_rows` keeps, which every product on them reads."""
    return _memo(p, name, lambda: _SPACES[name](p) if name in _SPACES
                 else _factor_rows(p.part_a, p.part_u, name))


def _factor_rows(a, u, name):
    """The row ``name`` of ``_FACTOR_SPACES`` for A and U, built on first use and kept in U's
    algebra under (name, A, U's action), so it lives as long as the module does."""
    return _memo(u.algebra, (name, a, u.action), lambda: _FACTOR_SPACES[name](a, u))


def _factor_space(a, act, kind):
    """Z1, N1 or Hom_A (``kind`` z1, n1 or hom) of A into ``act``, kept in A under (kind, act).

    Every product and job on one action reads this entry; a separable A's Z1 is its N1 entry.
    """
    return _memo(a, (kind, act), lambda: _OF_ACTION[kind](a, act))


# kind -> (A, action) -> the space of maps that ``_factor_space`` keeps
_OF_ACTION = {
    "z1": lambda a, act: _factor_space(a, act, "n1") if separable(a) else derivation_space(a, act),
    "n1": lambda a, act: inner_space(a, act),
    "hom": lambda a, act: hom_space(a, act, act),
}

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


def _part(p: SemidirectAlgebra, part):
    """The coordinates of part ``A`` or ``U`` in A x| U: A's first, then U's."""
    return range(p.n) if part == "A" else range(p.n, p.dim)


def _place(p: SemidirectAlgebra, parts):
    """The RowGroup place of the block from ``parts[0]`` to ``parts[1]`` in a map on A x| U."""
    return _part(p, parts[0]).start, _part(p, parts[1]).start, p.dim


def _layout(p: SemidirectAlgebra, blocks):
    """Flat coordinate of a map on A x| U -> its coordinate in ``blocks`` side by side; kept in p.

    Each block is laid out row-major, so its keys, in order, place the blocks
    back into a map on A x| U: the block embedding iota.
    """
    return _memo(p, ("layout", blocks), lambda: {j: i for i, j in enumerate(
        r * p.dim + c for s, t in (_BLOCKS[block] for block in blocks)
        for r in _part(p, s) for c in _part(p, t))})


def _restrict(p, row, blocks):
    """A sparse flattened map on A x| U read in the layout of ``blocks``: its entries there."""
    where = _layout(p, blocks)
    return [(where[j], x) for j, x in row if j in where]


def _placed(p, rows, blocks):
    """iota: sparse rows in the layout of ``blocks``, placed as maps on A x| U."""
    place = list(_layout(p, blocks))
    return [[(place[i], x) for i, x in row] for row in rows]


def _shape(p: SemidirectAlgebra, block):
    """(rows, columns) of the named block of a map on A x| U."""
    return tuple(len(_part(p, part)) for part in _BLOCKS[block])


def _check_block(p: SemidirectAlgebra, name, block: Matrix):
    """Raise ShapeMismatch unless ``block`` has the shape of the named block of a map on A x| U."""
    if (block.rows, block.cols) != _shape(p, name):
        s, t = _BLOCKS[name]
        raise ShapeMismatch(f"{name} block must be "
                            + (f"dim({s}) square" if s == t else f"dim({s}) x dim({t})"))


def _flat_map(d: Matrix, p: SemidirectAlgebra):
    """``d.flatten()`` for a map d on A x| U; a map of another shape raises."""
    if (d.rows, d.cols) != (p.dim, p.dim):
        raise ShapeMismatch("map must be square of the product dimension")
    return d.flatten()


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


def _condition_groups(p: SemidirectAlgebra, full=False):
    """The eight 3.1 conditions as row groups on the t*t coordinates of a map.

    For parts x, y, k in {A, U}, block (x, y) -> k of the Leibniz identity
    D(vw) = D(v)w + vD(w) sums over the middle part z: D_(z->k) applied to
    the (x, y) -> z product, the (z, y) -> k product of D_(x->z)(v) with w,
    and the (x, z) -> k product of v with D_(y->z)(w).  The products are the
    four blocks of ``semidirect_blocks``, taken from the factors and never
    from the total algebra, so these rows are built independently of the
    Leibniz rows of A x| U that ``_cond31`` compares them with.

    Unless ``full`` is set, a group keeps only the rows whose source index v
    lies in the generating set of A x| U, split into its A and U parts, as
    ``_leibniz_total`` does: their union cuts out Z1(A x| U).  The witness
    scan of ``split_blocks`` reads every row, from the ``groups31_full`` row.
    """
    mult, cut = semidirect_blocks(p.part_a, p.part_u), {"A": None, "U": None}
    if not full:
        gens = generators(p.total)
        cut = {"A": tuple(g for g in gens if g < p.n), "U": tuple(g - p.n for g in gens if g >= p.n)}
    groups = []
    for name, (x, y, k), y_major in _CONDITIONS_3_1:
        # in the order of the Leibniz group of A x| U, so that each row is its row (x, y, k)
        terms = [(sign, shape, mult[key], _place(p, place)) for sign, shape, key, place in (
            *((1, OUT, x + y + z, z + k) for z in "AU"),
            *((-1, RIGHT, x + z + k, y + z) for z in "AU"),
            *((-1, LEFT, z + y + k, x + z) for z in "AU")) if key in mult]
        groups.append(RowGroup(name, tuple(len(_part(p, q)) for q in (x, y, k)), terms, y_major,
                               xs=cut[x]))
    return tuple(groups)


def _coupling_groups(p: SemidirectAlgebra):
    """The lau-der couplings t(delta1(a))x + delta2(a)x and its right twin as row groups."""
    act, umult = p.part_u.action, p.part_u.algebra.mult
    delta1, delta2 = _place(p, _BLOCKS["delta1"]), _place(p, _BLOCKS["delta2"])
    return (RowGroup("coupling-left", (p.n, p.m, p.m),
                     [(1, LEFT, act.left, delta1), (1, LEFT, umult, delta2)]),
            RowGroup("coupling-right", (p.m, p.n, p.m),
                     [(1, RIGHT, act.right, delta1), (1, RIGHT, umult, delta2)]))


def _leibniz_total(p: SemidirectAlgebra):
    """The Leibniz group of A x| U on its generator rows, from the total algebra; kept in p."""
    return _memo(p, "leibniz_total", lambda: leibniz(
        "leibniz", p.total, regular_action(p.total), (0, 0, p.dim), generators(p.total)))


def _same_rows(leib: RowGroup, groups) -> bool:
    """True when the groups' distinct rows, scaled to ``leib.scale``, are those of ``leib``."""
    rows = set()
    for g in groups:
        f = leib.scale // g.scale  # g's entries are entries of the total: g.scale divides it
        rows.update(row if f == 1 else tuple((i, c * f) for i, c in row) for _, row in g.kept())
    return rows == {row for _, row in leib.kept()}


def _cond31(p: SemidirectAlgebra) -> Subspace:
    """The kernel of the 3.1 groups: Z1(A x| U) when their rows are its rows, else solved.

    Each 3.1 row, times the Leibniz scale over its group's, is a row of the
    Leibniz group of A x| U.  When the distinct ones are all its distinct rows,
    the two systems have one row set and so one kernel.  The Leibniz rows are
    dropped once this is decided.
    """
    groups, leib, z1 = space(p, "groups31"), _leibniz_total(p), space(p, "z1_total")
    same = _same_rows(leib, groups)
    leib._kept = None
    return z1 if same else solve(p.dim * p.dim, *groups)


def split_blocks(d: Matrix, p: SemidirectAlgebra) -> BlockDecomposition:
    """Cut a map on A x| U into its four blocks and grade each condition.

    The conditions characterize derivations of A x| U:
      (a) delta1 is a derivation of A;
      (b) delta2 is a derivation of A into the bimodule U;
      (c) tau1 is an A-module homomorphism U -> A killing U-products;
      (d) tau2 twists by delta1/delta2 on actions and by tau1 on U-products.
    """
    flat = _flat_map(d, p)
    blocks = [_reshape([flat[j] for j in _layout(p, (block,))], *_shape(p, block))
              for block in _BLOCKS]
    cond = {g.name: first_failure(g, flat) for g in space(p, "groups31_full")}
    return BlockDecomposition(*blocks, cond)


def _meets_3_1(p: SemidirectAlgebra, flat) -> bool:
    """True when a dense flattened map on A x| U (ints or Fractions) meets every 3.1 condition."""
    return all(first_failure(g, flat) is None for g in space(p, "groups31"))


def is_derivation_via_3_1(d: Matrix, p: SemidirectAlgebra) -> bool:
    return _meets_3_1(p, _flat_map(d, p))


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


def theorem_3_1_equivalence(p: SemidirectAlgebra, samples=0, rng=None) -> RuleReport:
    """Compare the Leibniz kernel of A x| U with the block-condition kernel.

    Both sides are solution sets of linear systems, so equality of the two
    canonical bases is the equivalence in full strength.  With ``samples``
    set, random maps drawn from ``rng`` are also spot-checked for agreement
    of the per-matrix block conditions with subspace membership.  Negative
    samples raise ValueError, and samples without an rng TypeError, first.
    """
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    if samples > 0 and rng is None:
        raise TypeError("sampling needs an rng")
    rep = verify_any("3.1", p)
    if not (samples and rep.verdict == "verified"):
        return rep
    leib, t, agree = space(p, "z1_total"), p.dim, 0
    for _ in range(samples):
        flat = [rng.randint(-2, 2) for _ in range(t * t)]
        if (not leib.reduce(_pairs(flat))) != _meets_3_1(p, flat):
            rep.verdict = "MISMATCH"
            rep.details["sample_disagreement"] = [[str(x) for x in flat[r * t:(r + 1) * t]]
                                                  for r in range(t)]
            break
        agree += 1
    for row in leib.rows[:samples - 1]:
        if not _meets_3_1(p, _vector(row, t * t)):
            rep.verdict = "MISMATCH"
            rep.details["basis_disagreement"] = True
            break
        agree += 1
    rep.details["samples_checked"] = agree
    return rep


def inner_characterization(d: Matrix, p: SemidirectAlgebra):
    """Solve D = (v -> v z - z v) on A x| U; on success return z = (a0, x0).

    When a witness exists its blocks must take the inner shape
    (delta1, delta2, tau1, tau2) = (ad a0, ad x0, 0, ad_U x0 + r_a0), the
    image of z under the factor-built map ``_phi``; that is asserted block
    by block, not assumed.
    """
    if (d.rows, d.cols) != (p.dim, p.dim):
        raise ShapeMismatch("candidate map has the wrong shape")
    flat = d.flatten()
    if space(p, "z1_total").reduce(_pairs(flat)):
        raise NotADerivation("map violates the derivation law at basis pair "
                             f"{leibniz_defect(d, p.total, regular_action(p.total))}")
    witness = _witness(regular_action(p.total), _pairs(flat))
    if witness is None:
        return None
    phi_w = _vector(_combine(space(p, "phi"), _pairs(witness)), p.dim * p.dim)
    diff = _pairs([x - y for x, y in zip(flat, phi_w)])
    for block in _BLOCKS:
        if _restrict(p, diff, (block,)):
            raise InternalInvariantViolation(
                f"{block} block of an inner map is not the image of its witness")
    return witness[:p.n], witness[p.n:]


# single-block kind -> the spaces its block lies in
_SINGLE_BLOCK = {"delta1-only": ("z1_a", "rows_in_ann_a_u"),
                 "delta2-only": ("z1_au", "rows_in_ann_u_u"),
                 "tau1-only": ("pairing", "kills_u2"), "tau2-only": ("hom_cap_z1u",)}


def corollary_3_2_check(kind, block: Matrix, p: SemidirectAlgebra) -> bool:
    """Exact single-block criteria for a map on A x| U to be a derivation.

    ``kind`` picks which corner the block occupies; the other three blocks
    are zero.  The block must lie in every space ``_SINGLE_BLOCK`` names, each
    kept by p.  The tau1 space, the pairing homomorphisms killing U-products,
    includes the module-homomorphism law, which the two displayed identities
    alone do not imply.
    """
    name = kind.removesuffix("-only")
    if name in _BLOCKS:
        _check_block(p, name, block)
    if kind not in _SINGLE_BLOCK:
        raise UnknownHypothesis(f"unknown single-block kind {kind!r}")
    return all(space(p, s).contains(block.flatten()) for s in _SINGLE_BLOCK[kind])


def _vanishes(p: SemidirectAlgebra, name, blocks) -> bool:
    """True when every map of the space ``name`` of p is zero on ``blocks``."""
    return not any(_restrict(p, row, blocks) for row in space(p, name).rows)


def tau1_vanishes(p: SemidirectAlgebra) -> bool:
    """True when every derivation of A x| U has zero U->A corner."""
    return _vanishes(p, "z1_total", ("tau1",))


# ---------------------------------------------------------------------------
# the inner-derivation map and the denominators E, F, K, C + I of the quotient rules

def _phi(p: SemidirectAlgebra):
    """Φ(e_k) for each basis vector e_k of A x| U, as a sparse flattened map on A x| U.

    Φ(z) is v -> v z - z v for z = (a0, x0), with blocks delta1 = ad a0,
    delta2 = ad x0 on (A, U), tau1 = 0 and tau2 = r_a0 + ad_U x0, each placed
    by ``_layout``.  Built from the factors' structure tensors, never from
    the total algebra; Φ(w) is ``_combine`` of these rows with w.
    """
    a, u = p.part_a, p.part_u
    ad_au = _commutators(u.action)
    blocks = {"delta1": _commutators(regular_action(a)) + ((),) * p.m,
              "delta2": ((),) * p.n + ad_au,
              "tau2": (*_twists(ad_au, p.n, p.m), *_commutators(regular_action(u.algebra)))}
    place = {block: list(_layout(p, (block,))) for block in blocks}
    return [[(place[block][i], x) for block, rows in blocks.items() for i, x in rows[k]]
            for k in range(p.dim)]


def _image_over_kernel(p: SemidirectAlgebra, keep) -> Subspace:
    """ι⁻¹(N1) for the ``keep`` blocks: Φ where it vanishes off them, read in their layout."""
    phi, where = space(p, "phi"), _layout(p, keep)
    return _image_of_kernel([[(j, x) for j, x in row if j not in where] for row in phi],
                            [_restrict(p, row, keep) for row in phi], p.dim * p.dim, len(where))


# ---------------------------------------------------------------------------
# the space, gate and fact tables

# row of the total -> how p builds it (kept in p)
_SPACES = {
    "z1_total": lambda p: solve(p.dim * p.dim, _leibniz_total(p)),
    "n1_total": lambda p: inner_space(p.total, regular_action(p.total)),
    "groups31": _condition_groups,
    "groups31_full": lambda p: _condition_groups(p, full=True),
    "cond31": _cond31,
    "couplings": _coupling_groups,
    "phi": _phi,
}

# row of the factors -> how it is built from A and U (kept by ``_factor_rows``)
_FACTOR_SPACES = {
    "z1_a": lambda a, u: _factor_space(a, regular_action(a), "z1"),
    "n1_a": lambda a, u: _factor_space(a, regular_action(a), "n1"),
    "z1_au": lambda a, u: _factor_space(a, u.action, "z1"),
    "n1_au": lambda a, u: _factor_space(a, u.action, "n1"),
    "z1_u": lambda a, u: _factor_space(u.algebra, regular_action(u.algebra), "z1"),
    "n1_u": lambda a, u: _factor_space(u.algebra, regular_action(u.algebra), "n1"),
    "hom_u": lambda a, u: _factor_space(a, u.action, "hom"),
    # Hom_A(U) intersected with the derivations of U, in map coordinates
    "hom_cap_z1u": lambda a, u: intersect(_factor_rows(a, u, "hom_u"), _factor_rows(a, u, "z1_u")),
    "ann_a_u": lambda a, u: annihilator_in_algebra(a, u),
    "ann_u_u": lambda a, u: annihilator_in_module(u),
    "ann_a_a": lambda a, u: annihilator_in_algebra(a, regular_action(a)),
    # the maps A -> A, A -> U and U -> A whose every row lies in ann_A(U), ann_U(U), ann_A(A)
    "rows_in_ann_a_u": lambda a, u: product_subspace(*[_factor_rows(a, u, "ann_a_u")] * a.dim),
    "rows_in_ann_u_u": lambda a, u: product_subspace(*[_factor_rows(a, u, "ann_u_u")] * a.dim),
    "rows_in_ann_a_a": lambda a, u: product_subspace(*[_factor_rows(a, u, "ann_a_a")] * u.dim),
    # the maps U -> A that vanish on U-products, and A -> U that vanish on A-products
    "kills_u2": lambda a, u: solve(u.dim * a.dim, kills("kills_u2", u.algebra.mult,
                                                        (0, 0, a.dim), a.dim)),
    "kills_a2": lambda a, u: solve(a.dim * u.dim, kills("kills_a2", a.mult, (0, 0, u.dim), u.dim)),
    "r": lambda a, u: r_space(a, u),
    "c": lambda a, u: c_space(a, u),
    "i": lambda a, u: i_space(a, u),
    "r_plus_n1u": lambda a, u: subspace_sum(_factor_rows(a, u, "r"), _factor_rows(a, u, "n1_u")),
    "c_plus_i": lambda a, u: subspace_sum(_factor_rows(a, u, "c"), _factor_rows(a, u, "i")),
    # module homomorphisms T: U -> A with T(x)y + xT(y) = 0 for all x, y
    "pairing": lambda a, u: solve(u.dim * a.dim, *pairing_groups(a, u.action)),
}


def _inside(maps, target):
    """Gate: row ``maps`` lies in row ``target``, else its first basis map outside."""
    def gate(p):
        z, room = space(p, maps), space(p, target)
        outside = next((row for row in z.rows if room.reduce(row)), None)
        return outside is None, None if outside is None else [
            str(x) for x in _vector(outside, z.ambient)]
    return gate


def _zero(dim, key):
    """Gate: ``dim(p)`` is 0, else the witness ``{key: dim(p)}``."""
    def gate(p):
        d = dim(p)
        return d == 0, None if d == 0 else {key: d}
    return gate


def _tau1_gate(p):
    holds = tau1_vanishes(p)
    return holds, None if holds else "a basis derivation has tau1 != 0"


# gate name -> p -> (holds, witness); ``hypothesis_check`` evaluates each once per product
GATES = {
    "tau1-vanishes": _tau1_gate,
    "Z1(A) image in ann_A(U)": _inside("z1_a", "rows_in_ann_a_u"),
    "Z1(A,U) image in ann_U(U)": _inside("z1_au", "rows_in_ann_u_u"),
    "H1(A)=0": _zero(lambda p: h1(p, "a"), "h1"),
    "H1(A,U)=0": _zero(lambda p: h1(p, "au"), "h1"),
    "Hom(U) cap Z1(U) inside R(U)+N1(U)": _inside("hom_cap_z1u", "r_plus_n1u"),
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


def _delta2_splits_off(p):
    """ttd: each derivation D of T(A,U) is D1 + D2, D1 = (delta1 + tau1, tau2), D2 = (0, delta2).

    With U^2 = 0 every U-product term of the 3.1 rows vanishes: delta1 and
    delta2 are derivations, tau1 is a module homomorphism with
    x tau1(y) + tau1(x) y = 0, and tau2 is twisted by delta1 alone.  So D1
    and D2 must both be derivations; as D is one, D1 is one exactly when D2
    is, so each basis derivation's delta2 block alone must lie in Z1.
    """
    z1, delta2 = space(p, "z1_total"), _layout(p, ("delta2",))
    return not any(z1.reduce([(j, x) for j, x in row if j in delta2]) for row in z1.rows)


def _coupled(side):
    """lau-der: every derivation meets the left (0) or right (1) coupling of ``couplings``.

    With a.x = x.a = t(a)x the two t terms of each tau2 twist cancel: delta1
    and delta2 are derivations coupled by t(delta1(a))x + delta2(a)x = 0 and
    its right twin, tau1 is a module homomorphism killing U-products, and
    tau2 twists on U-products by t o tau1.
    """
    return lambda p: all(first_failure(space(p, "couplings")[side], row) is None
                         for row in space(p, "z1_total").basis.data)


# fact key -> p -> bool; a rule names the facts it adds, and reports each under its key
_FACTS = {
    "decomposition_ok": _delta2_splits_off,
    # every inner derivation has tau1 = 0 (ttd), and delta2 = 0 too (lau-der)
    "inner_tau1_zero": lambda p: _vanishes(p, "n1_total", ("tau1",)),
    "coupling_left_ok": _coupled(0),
    "coupling_right_ok": _coupled(1),
    "inner_shape_ok": lambda p: _vanishes(p, "n1_total", ("delta2", "tau1")),
    # 5.3: Z1 and N1 of A x U are those of A and of U side by side
    "z1_split": lambda p: space(p, "z1_total").dim == space(p, "z1_a").dim + space(p, "z1_u").dim,
    "n1_split": lambda p: space(p, "n1_total").dim == space(p, "n1_a").dim + space(p, "n1_u").dim,
}


# ---------------------------------------------------------------------------
# the checks; each returns (lhs_dim, rhs_dim, verdict, details)

def _quotient(p, numerator, denominator, labels, reason, base=0):
    """Rules 4.1-4.4 and cte: h1(A x| U) against base + dim(numerator) - dim(denominator)."""
    lhs = h1_total(p)
    details = dict(zip(labels, (numerator.dim, denominator.dim)))
    if not numerator.contains_subspace(denominator):
        return lhs, None, "MISMATCH", dict(details, reason=reason)
    rhs = base + numerator.dim - denominator.dim
    return lhs, rhs, _verdict(lhs == rhs), details


def _blocks_rule(*facts):
    """Theorem 3.1 and the ``facts`` a construction adds: Z1(A x| U) against the 3.1 kernel.

    When the two agree, each fact is reported under its key, in order, and
    the verdict is verified only if every one holds.
    """
    def check(p):
        cond = space(p, "cond31")
        leib, details, verdict = _kernels_agree(p, cond)
        if verdict == "verified":
            details.update((key, _FACTS[key](p)) for key in facts)
            verdict = _verdict(all(details[key] for key in facts))
        return leib.dim, cond.dim, verdict, details
    return check


def _h1_sum(*parts, facts=()):
    """h1(A x| U) against the sum of the h1s of ``parts``; every fact is reported and must hold."""
    def check(p):
        lhs, rhs = h1_total(p), sum(h1(p, part) for part in parts)
        details = {key: _FACTS[key](p) for key in facts}
        return lhs, rhs, _verdict(lhs == rhs and all(details.values())), details
    return check


def _direct_blocks(p):
    """Rule 5.1: Proposition 5.1's block conditions, read from the spaces p keeps.

    A derivation of A x U (trivial actions) is exactly: delta1 and tau2 are
    derivations, delta2 lands in ann_U(U) and kills A-products, tau1 lands
    in ann_A(A) and kills U-products: four kept block spaces, placed by iota.
    """
    blocks = product_subspace(space(p, "z1_a"),
                              intersect(space(p, "rows_in_ann_u_u"), space(p, "kills_a2")),
                              intersect(space(p, "rows_in_ann_a_a"), space(p, "kills_u2")),
                              space(p, "z1_u"))
    cond = _span_of_rows(_placed(p, blocks.rows, tuple(_BLOCKS)), p.dim * p.dim)
    leib, details, verdict = _kernels_agree(p, cond)
    # vanishing consequences under the stated non-degeneracy conditions
    for b, gate in (("delta2", "ann_U(U)=0 or span(A^2)=A"), ("tau1", "ann_A(A)=0 or span(U^2)=U")):
        details[f"forces_{b}_zero"] = hypothesis_check(gate, p).holds
    forced = [b for b in ("delta2", "tau1") if details[f"forces_{b}_zero"]]
    stray = [b for row in leib.rows for b in forced if _restrict(p, row, (b,))]
    if verdict == "verified" and stray:
        verdict, details["reason"] = "MISMATCH", f"{stray[0]} should vanish but does not"
    return leib.dim, cond.dim, verdict, details


def _alpha_transport(p):
    """Rule 5.4: the twist is an isomorphism of A x U onto the alpha-product."""
    a, u, t = p.part_a, p.part_u.algebra, p.dim
    iso = alpha_iso(a, u, p.alpha)
    invertible = iso.rank() == t
    details = {"pairs_checked": t * t, "iso_invertible": invertible}
    pair = hom_failure(iso, direct_sum_algebra(a, u), p.total) if invertible else None
    if pair is not None:
        details["failing_pair"] = pair
    return None, None, _verdict(invertible and pair is None), details


def _extension_h1(p):
    """Rule cte: H1(T(A,U)) = H1(A,U) + dim Hom_A(U) cap Z1(U) - dim C_A(U)."""
    return _quotient(p, space(p, "hom_cap_z1u"), space(p, "c"), ("hom_dim", "c_dim"),
                     "C_A(U) escapes Hom cap Z1", h1(p, "au"))


def _extension_embedding(p):
    """Rule embed: H1(A,U) embeds in H1(T(A,U))."""
    lhs, rhs = h1(p, "au"), h1_total(p)
    return lhs, rhs, _verdict(lhs <= rhs), {"claim": "h1(A,U) embeds, so lhs <= rhs"}


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

def _quotient_on(*keep):
    """Rules 4.1-4.4: the spaces filling the ``keep`` blocks over ι⁻¹(N1) there, one layout."""
    fills = [{"delta1": "z1_a", "delta2": "z1_au", "tau2": "hom_cap_z1u"}[b] for b in keep]
    return lambda p: _quotient(p, product_subspace(*(space(p, f) for f in fills)),
                               _image_over_kernel(p, keep), ("numerator_dim", "denominator_dim"),
                               "denominator not inside numerator")


# rule id -> (construction it needs or None, gates, check)
RULES = {
    "3.1": (None, (), _blocks_rule()),
    "4.1": (None, ("tau1-vanishes", "Z1(A) image in ann_A(U)", "H1(A,U)=0"),
            _quotient_on("delta1", "tau2")),
    "4.2": (None, ("tau1-vanishes", "Z1(A,U) image in ann_U(U)", "H1(A)=0"),
            _quotient_on("delta2", "tau2")),
    "4.3": (None, ("tau1-vanishes", "Z1(A) image in ann_A(U)", "Z1(A,U) image in ann_U(U)",
                   "Hom(U) cap Z1(U) inside R(U)+N1(U)"),
            _quotient_on("delta1", "delta2")),
    "4.4": (None, ("tau1-vanishes", "H1(A)=0", "H1(A,U)=0"), _quotient_on("tau2")),
    "5.1": ("direct", (), _direct_blocks),
    "5.3": ("direct", ("ann_U(U)=0 or span(A^2)=A", "ann_A(A)=0 or span(U^2)=U"),
            _h1_sum("a", "u", facts=("z1_split", "n1_split"))),
    "ttd": ("extension", (), _blocks_rule("decomposition_ok", "inner_tau1_zero")),
    "cte": ("extension", ("no nonzero pairing hom U->A", "H1(A)=0"), _extension_h1),
    "embed": ("extension", (), _extension_embedding),
    "lau-der": ("scaled", (), _blocks_rule("coupling_left_ok", "coupling_right_ok",
                                           "inner_shape_ok")),
    "a1": ("scaled", ("tau1-vanishes", "Z1(A) image in ann_A(U)", "H1(A,U)=0"),
           _h1_sum("a", "u")),
    "prop10": ("scaled", ("tau1-vanishes", "H1(A)=0", "H1(A,U)=0"), _h1_sum("u")),
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
