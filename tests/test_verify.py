import random
from fractions import Fraction

import pytest

from semih1.algebra import (
    BimoduleAction,
    Character,
    ModuleAlgebra,
    regular_action,
)
from semih1.catalog import (
    direct_sum_algebra,
    dual_numbers,
    field_q,
    matrix_algebra,
    null_algebra,
    upper_triangular_2,
)
from semih1.errors import (
    NotADerivation,
    ShapeMismatch,
    UnknownHypothesis,
    WrongConstructionKind,
)
from semih1.linalg import Matrix, Subspace, product_subspace
from semih1.products import (
    alpha_product,
    direct_product,
    fixture_nonzero_tau1,
    module_extension,
    semidirect,
    theta_lau,
    unitization,
)
from semih1.families import random_product
from semih1.spaces import inner_map, inner_witness, r_map
from semih1.verify import (
    _image_over_kernel,
    _placed,
    applies,
    corollary_3_2_check,
    hypothesis_check,
    inner_characterization,
    is_derivation_via_3_1,
    space,
    split_blocks,
    tau1_vanishes,
    theorem_3_1_equivalence,
    verify_any,
    verify_special_case,
    verify_theorem,
)


def embed(p, **blocks):
    """The map on A x| U with the given blocks, each a Matrix, placed by iota; zero elsewhere."""
    names, d = tuple(blocks), Matrix.zeros(p.dim, p.dim)
    row = list(enumerate(x for name in names for x in blocks[name].flatten()))
    for j, x in _placed(p, [row], names)[0]:
        d.data[j // p.dim][j % p.dim] = x
    return d


def lau_dual():
    q = field_q()
    return theta_lau(q, null_algebra(1), Character(q, [1]))


def test_split_blocks_zero_map():
    p = direct_product(dual_numbers(), field_q())
    bd = split_blocks(Matrix.zeros(3, 3), p)
    assert bd.ok
    assert bd.delta1.is_zero() and bd.tau2.is_zero()


def test_split_blocks_roundtrip():
    p = unitization(upper_triangular_2())
    rng = random.Random(3)
    d = Matrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
    bd = split_blocks(d, p)
    assert embed(p, delta1=bd.delta1, delta2=bd.delta2, tau1=bd.tau1, tau2=bd.tau2) == d


def test_split_blocks_identity_fails_leibniz():
    p = module_extension(dual_numbers(), BimoduleAction.trivial(2, 1))
    bd = split_blocks(Matrix.identity(3), p)
    assert bd.conditions["delta1-derivation"] is not None


def test_split_blocks_nonzero_tau1_fixture():
    p, d = fixture_nonzero_tau1(field_q())
    bd = split_blocks(d, p)
    assert bd.ok
    assert not bd.tau1.is_zero()


def test_equivalence_on_assorted_products():
    qq = direct_sum_algebra(field_q("Q1"), field_q("Q2"))
    products = [
        direct_product(matrix_algebra(2), field_q()),
        module_extension(field_q(), regular_action(field_q())),
        theta_lau(qq, null_algebra(1), Character(qq, [1, 0])),
        unitization(dual_numbers()),
        alpha_product(field_q(), field_q("Q'"), Matrix([[1]])),
    ]
    rng = random.Random(9)
    for p in products:
        rep = theorem_3_1_equivalence(p, samples=3, rng=rng)
        assert rep.verdict == "verified", rep.as_dict()
        assert rep.lhs_dim == rep.rhs_dim


def test_inner_maps_always_pass_block_conditions():
    p = unitization(dual_numbers())
    rng = random.Random(13)
    for _ in range(10):
        witness = [rng.randint(-2, 2) for _ in range(p.dim)]
        d = inner_map(witness, p.total, regular_action(p.total))
        assert is_derivation_via_3_1(d, p)
        assert space(p, "z1_total").contains(d.flatten())


def test_inner_characterization_roundtrip():
    p = alpha_product(matrix_algebra(2), matrix_algebra(2, "M2'"), Matrix.identity(4))
    rng = random.Random(17)
    witness = [rng.randint(-2, 2) for _ in range(p.dim)]
    d = inner_map(witness, p.total, regular_action(p.total))
    found = inner_characterization(d, p)
    assert found is not None
    a0, x0 = found
    assert inner_map(list(a0) + list(x0), p.total, regular_action(p.total)) == d


def test_inner_characterization_rejects_outer_and_nonderivations():
    p, d = fixture_nonzero_tau1(field_q())
    assert inner_characterization(d, p) is None  # tau1 != 0 blocks inner-ness
    lau = lau_dual()
    # delta(t) = t on the dual numbers is a derivation but not inner
    outer = Matrix([[0, 0], [0, 1]])
    assert inner_characterization(outer, lau) is None
    with pytest.raises(NotADerivation):
        inner_characterization(Matrix.identity(2), lau)


def test_inner_and_3_1_checks_keep_their_error_contract():
    """A wrong shape is refused before any membership test; a non-derivation names its pair."""
    u = dual_numbers()
    p = semidirect(dual_numbers(), ModuleAlgebra(u, regular_action(u)))
    assert p.dim == 4
    for bad in (Matrix.zeros(1, 1), Matrix.zeros(4, 3)):
        with pytest.raises(ShapeMismatch, match="^candidate map has the wrong shape$"):
            inner_characterization(bad, p)
        with pytest.raises(ShapeMismatch, match="^map must be square of the product dimension$"):
            is_derivation_via_3_1(bad, p)
    d = Matrix.zeros(4, 4)
    d.data[0][1] = Fraction(1)
    with pytest.raises(NotADerivation) as expected:
        inner_witness(d, p.total, regular_action(p.total))
    with pytest.raises(NotADerivation) as raised:
        inner_characterization(d, p)
    assert str(raised.value) == str(expected.value)


def test_3_1_sampling_without_an_rng_raises_before_any_work():
    p = direct_product(dual_numbers(), field_q())
    with pytest.raises(TypeError):
        theorem_3_1_equivalence(p, samples=3)
    assert p._memo == {}
    rep = theorem_3_1_equivalence(p, samples=0)
    assert rep.verdict == "verified"
    assert rep.details == {"leibniz_dim": 1, "conditions_dim": 1}


def test_3_1_negative_samples_raise_before_any_work():
    p = direct_product(dual_numbers(), field_q())
    for rng in (None, random.Random(1)):
        with pytest.raises(ValueError):
            theorem_3_1_equivalence(p, samples=-1, rng=rng)
    assert p._memo == {}


def test_3_1_basis_disagreement_report(monkeypatch):
    """A 3.1 check that rejects every map: the sampled maps, outside Z1, agree; a basis one not."""
    import semih1.verify

    p = direct_product(dual_numbers(), field_q())
    monkeypatch.setattr(semih1.verify, "_meets_3_1", lambda p, flat: False)
    rep = theorem_3_1_equivalence(p, samples=3, rng=random.Random(1))
    assert rep.verdict == "MISMATCH"
    assert rep.details == {"leibniz_dim": 1, "conditions_dim": 1, "basis_disagreement": True,
                           "samples_checked": 3}


def test_3_1_sample_disagreement_report_is_unchanged():
    """With the 3.1 groups emptied, the first sampled map outside Z1 is reported as drawn."""
    p, _ = random_product(random.Random("battery:1:0"), 3)
    t = p.dim
    assert t
    space(p, "cond31")
    p._memo["groups31"] = ()  # every map now meets the block conditions
    rep = theorem_3_1_equivalence(p, samples=2, rng=random.Random(7))
    z1, replay = space(p, "z1_total"), random.Random(7)
    for agreed in range(2):
        grid = [[replay.randint(-2, 2) for _ in range(t)] for _ in range(t)]
        if not z1.contains([x for row in grid for x in row]):
            break
    else:
        pytest.fail("both samples lie in Z1; draw another product")
    assert rep.verdict == "MISMATCH"
    assert rep.details["sample_disagreement"] == [[str(x) for x in row] for row in grid]
    assert rep.details["samples_checked"] == agreed + min(1, z1.dim)


def test_corollary_delta1_only():
    # trivial action: ann_A(U) = A, so any derivation of A embeds
    p = direct_product(dual_numbers(), field_q())
    delta = Matrix([[0, 0], [0, 1]])  # 1 -> 0, t -> t
    assert corollary_3_2_check("delta1-only", delta, p)
    embedded = embed(p, delta1=delta)
    assert is_derivation_via_3_1(embedded, p)
    # with a faithful action the same block is rejected
    p2 = alpha_product(dual_numbers(), dual_numbers("D'"), Matrix.identity(2))
    assert not corollary_3_2_check("delta1-only", delta, p2)
    assert not is_derivation_via_3_1(embed(p2, delta1=delta), p2)
    # a kind that names no corner
    with pytest.raises(UnknownHypothesis):
        corollary_3_2_check("delta3-only", delta, p)


def test_corollary_tau1_only_needs_module_hom_law():
    # the two displayed identities hold for any map into a trivial action,
    # but the module-homomorphism law still fails for a unital base
    p = direct_product(field_q(), null_algebra(1))
    tau1 = Matrix([[1]])
    assert not corollary_3_2_check("tau1-only", tau1, p)
    assert not is_derivation_via_3_1(embed(p, tau1=tau1), p)


def test_corollary_tau1_only_fixture_passes():
    p, d = fixture_nonzero_tau1(field_q())
    bd = split_blocks(d, p)
    assert corollary_3_2_check("tau1-only", bd.tau1, p)
    assert is_derivation_via_3_1(embed(p, tau1=bd.tau1), p)


def test_corollary_tau2_only_requires_hom():
    # r_a for non-central a is a derivation of U but not a module
    # homomorphism when the action is faithful
    p = alpha_product(matrix_algebra(2), matrix_algebra(2, "M2'"), Matrix.identity(4))
    block = r_map([0, 1, 0, 0], p.part_u)
    assert not block.is_zero()
    assert not corollary_3_2_check("tau2-only", block, p)
    assert not is_derivation_via_3_1(embed(p, tau2=block), p)
    # a central element gives a module homomorphism, hence a derivation
    central = r_map([1, 0, 0, 1], p.part_u)
    assert central.is_zero()
    assert corollary_3_2_check("tau2-only", central, p)


def test_corollary_delta2_only():
    p = module_extension(dual_numbers(), regular_action(dual_numbers()))
    delta2 = Matrix([[0, 0], [0, 1]])  # a derivation into the bimodule
    assert corollary_3_2_check("delta2-only", delta2, p)
    assert is_derivation_via_3_1(embed(p, delta2=delta2), p)


def test_corollary_cross_check_random_blocks():
    rng = random.Random(21)
    p = module_extension(dual_numbers(), regular_action(dual_numbers()))
    shapes = {"delta1-only": (2, 2), "delta2-only": (2, 2),
              "tau1-only": (2, 2), "tau2-only": (2, 2)}
    for kind, (r, c) in shapes.items():
        for _ in range(12):
            block = Matrix([[rng.randint(-1, 1) for _ in range(c)] for _ in range(r)])
            embedded = embed(p, **{kind.split("-")[0]: block})
            assert corollary_3_2_check(kind, block, p) == \
                is_derivation_via_3_1(embedded, p)


def test_tau1_vanishes_cases():
    # span(U^2) = U forces tau1 = 0
    assert tau1_vanishes(unitization(matrix_algebra(2)))
    # the witness fixture has a derivation with tau1 != 0
    p, _ = fixture_nonzero_tau1(field_q())
    assert not tau1_vanishes(p)
    # scaled product over the scalars with a null line
    assert tau1_vanishes(lau_dual())


def test_hypothesis_checks():
    p = direct_product(dual_numbers(), field_q())
    assert hypothesis_check("Z1(A) image in ann_A(U)", p).holds
    te = module_extension(field_q(), regular_action(field_q()))
    assert hypothesis_check("Z1(A,U) image in ann_U(U)", te).holds
    faithful = alpha_product(matrix_algebra(2), matrix_algebra(2, "M2'"),
                             Matrix.identity(4))
    res = hypothesis_check("Z1(A) image in ann_A(U)", faithful)
    assert not res.holds
    assert res.witness is not None
    assert hypothesis_check("H1(A)=0", faithful).holds
    with pytest.raises(UnknownHypothesis):
        hypothesis_check("no-such-hypothesis", p)


def test_efk_spaces_for_scaled_products():
    # for a character-scaled action: E = N1(A) x N1(U), F = 0 x N1(U),
    # K = N1(A) x 0
    t2 = upper_triangular_2()
    p = theta_lau(t2, matrix_algebra(2), Character(t2, [1, 0, 0]))
    na = space(p, "n1_a")
    nu = space(p, "n1_u")
    assert na.dim == 2 and nu.dim == 3
    from semih1.linalg import Subspace
    zero = Subspace.zero(p.n * p.m)
    assert _image_over_kernel(p, ("delta1", "tau2")) == product_subspace(na, nu)
    assert _image_over_kernel(p, ("delta2", "tau2")) == product_subspace(zero, nu)
    assert _image_over_kernel(p, ("delta1", "delta2")) == product_subspace(na, zero)


def test_verify_41_direct_product():
    qq = direct_sum_algebra(field_q("Q1"), field_q("Q2"))
    p = direct_product(qq, matrix_algebra(2))
    rep = verify_theorem("4.1", p)
    assert rep.verdict == "verified"
    assert rep.lhs_dim == rep.rhs_dim == 0


def test_verify_44_scaled_dual_fixture():
    rep = verify_theorem("4.4", lau_dual())
    assert rep.verdict == "verified"
    assert rep.lhs_dim == rep.rhs_dim == 1


def test_a_denominator_outside_its_numerator_is_a_mismatch_report():
    """With Hom cap Z1(U) emptied, rule 4.4's C + I = I(M2) escapes it and is reported so."""
    p = unitization(matrix_algebra(2))
    space(p, "c")
    p._memo["hom_cap_z1u"] = Subspace.zero(p.m * p.m)
    rep = verify_theorem("4.4", p)
    assert all(h.holds for h in rep.hypotheses)
    assert (rep.verdict, rep.lhs_dim, rep.rhs_dim) == ("MISMATCH", 0, None)
    assert rep.details == {"numerator_dim": 0, "denominator_dim": 3,
                           "reason": "denominator not inside numerator"}


def test_verify_43_gate_failure_path():
    # Hom cap Z1(U) = B(U) while R + N1 = 0 for a null line with trivial
    # action, so the quotient hypothesis fails and no claim is tested
    p = direct_product(field_q(), null_algebra(1))
    rep = verify_theorem("4.3", p)
    assert rep.verdict == "hypotheses-not-met"
    failed = [h.name for h in rep.hypotheses if not h.holds]
    assert "Hom(U) cap Z1(U) inside R(U)+N1(U)" in failed


def test_verify_gates_are_reported():
    p = alpha_product(matrix_algebra(2), matrix_algebra(2, "M2'"), Matrix.identity(4))
    rep = verify_theorem("4.1", p)
    assert rep.verdict == "hypotheses-not-met"
    assert any(not h.holds for h in rep.hypotheses)
    with pytest.raises(UnknownHypothesis):
        verify_theorem("9.9", p)


def test_special_case_51_and_53():
    p = direct_product(matrix_algebra(2), matrix_algebra(2, "M2'"))
    rep = verify_special_case("5.1", p)
    assert rep.verdict == "verified"
    assert rep.details["forces_delta2_zero"] and rep.details["forces_tau1_zero"]
    rep = verify_special_case("5.3", p)
    assert rep.verdict == "verified"
    assert rep.lhs_dim == rep.rhs_dim == 0
    with pytest.raises(WrongConstructionKind):
        verify_special_case("5.1", lau_dual())


def test_special_case_54_transport():
    for alpha, a, u in ((Matrix.zeros(1, 1), field_q(), field_q("Q'")),
                        (Matrix.identity(1), field_q(), field_q("Q'")),
                        (Matrix.identity(4), matrix_algebra(2), matrix_algebra(2, "M2'"))):
        p = alpha_product(a, u, alpha)
        rep = verify_special_case("5.4", p)
        assert rep.verdict == "verified"
        assert rep.details["iso_invertible"]
    with pytest.raises(WrongConstructionKind):
        verify_special_case("5.4", direct_product(field_q(), field_q("Q'")))


def test_special_case_ttd_cte_embed():
    te = module_extension(field_q(), regular_action(field_q()))
    assert verify_special_case("ttd", te).verdict == "verified"
    rep = verify_special_case("cte", te)
    assert rep.verdict == "verified"
    assert rep.lhs_dim == rep.rhs_dim == 1
    rep = verify_special_case("embed", te)
    assert rep.verdict == "verified"
    assert rep.lhs_dim <= rep.rhs_dim
    with pytest.raises(WrongConstructionKind):
        verify_special_case("cte", unitization(matrix_algebra(2)))


def test_special_case_cte_gating():
    # H1(A) != 0 for the dual numbers, so the cte gate must close
    d = dual_numbers()
    te = module_extension(d, regular_action(d))
    rep = verify_special_case("cte", te)
    assert rep.verdict == "hypotheses-not-met"
    assert any(h.name == "H1(A)=0" and not h.holds for h in rep.hypotheses)


def test_special_case_scaled_rules():
    p = lau_dual()
    for rid in ("lau-der", "a1", "prop10"):
        rep = verify_special_case(rid, p)
        assert rep.verdict == "verified", (rid, rep.as_dict())
    rep = verify_special_case("lau-der", p)
    assert rep.details["coupling_left_ok"] and rep.details["coupling_right_ok"]
    with pytest.raises(WrongConstructionKind):
        verify_special_case("lau-der", direct_product(field_q(), field_q("Q'")))


def test_special_case_prop10_values():
    # H1(A x|_t U) = H1(U): with U the 1-dim null algebra both sides are 1
    rep = verify_special_case("prop10", lau_dual())
    assert rep.lhs_dim == rep.rhs_dim == 1
    with pytest.raises(UnknownHypothesis):
        verify_special_case("nope", lau_dual())


def test_scaled_rules_need_the_scaled_action_not_just_a_character():
    # a character attached to a product whose action is not a.x = x.a = t(a) x
    d = dual_numbers()
    p = semidirect(d, ModuleAlgebra(dual_numbers("D'"), regular_action(d)),
                   character=Character(d, [1, 0]))
    assert not applies("lau-der", p)
    for rid in ("lau-der", "a1", "prop10"):
        with pytest.raises(WrongConstructionKind, match="needs a character-scaled product"):
            verify_any(rid, p)
    assert applies("lau-der", lau_dual())
