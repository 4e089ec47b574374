from fractions import Fraction
from itertools import product

import pytest

from distmon import (
    DistortedStructure, NAT, PARITY, character_family, check_D1, check_D2,
    check_D3, check_idempotent_axiom, compose, generate_universe,
    graded_character, graded_map, identity, identity_idempotent,
    identity_unit, invertibility_test, koszul_braiding, parity_projector,
    search_structural_idempotents, symmetric_braiding, tensor_obj, twist,
    unit_object,
)
from distmon.errors import MonoidMismatch
from distmon.distortion import Tabulated
from distmon.twist import AXIOMS
from distmon.reports import CheckBudget

from conftest import Q, obj

BUDGET = CheckBudget()
UNIVERSE = generate_universe(PARITY, 1, 1, 2)
ODD = obj(PARITY, {1: 1})
MIXED = obj(PARITY, {0: 1, 1: 1})
UNIT = unit_object(PARITY)


# ---------------------------------------------------------------------------
# the parity projector family


def test_projector_blocks():
    m = parity_projector().at(Q, MIXED, MIXED)
    # even part: summands (0,0) and (1,1); the latter is killed
    assert m.block(0) == ((Fraction(1), Fraction(0)),
                          (Fraction(0), Fraction(0)))
    # odd part: both mixed summands survive
    assert m.block(1) == ((Fraction(1), Fraction(0)),
                          (Fraction(0), Fraction(1)))


def test_projector_is_idempotent():
    e = parity_projector()
    for x, y in product(UNIVERSE, repeat=2):
        m = e.at(Q, x, y)
        assert compose(m, m) == m


def test_projector_normalized_on_unit():
    e = parity_projector()
    for x in UNIVERSE:
        assert e.at(Q, x, UNIT) == identity(Q, tensor_obj(x, UNIT))
        assert e.at(Q, UNIT, x) == identity(Q, tensor_obj(UNIT, x))


# ---------------------------------------------------------------------------
# the axiom table of the parity projector


def run_axiom(e, axiom, beta=None, universe=UNIVERSE):
    return check_idempotent_axiom(Q, e, axiom, universe, BUDGET, beta=beta)


def test_projector_E0_E1_pass():
    e = parity_projector()
    assert run_axiom(e, "E0").passed
    assert run_axiom(e, "E1").passed


def _zero_iff_two_odd():
    """The two sides of the cocycle multiplicativity kill a parity triple
    exactly when at least two entries are odd (boolean oracle)."""
    c = lambda i, j: 0 if (i, j) == (1, 1) else 1
    table = {}
    for a, b, k in product((0, 1), repeat=3):
        lhs_zero = c((a + b) % 2, k) * c(a, b) == 0
        rhs_zero = c(b, k) * c(a, (b + k) % 2) == 0
        two_odd = a + b + k >= 2
        table[(a, b, k)] = (lhs_zero, rhs_zero, two_odd)
    return table


def test_cocycle_boolean_oracle():
    for (lhs_zero, rhs_zero, two_odd) in _zero_iff_two_odd().values():
        assert lhs_zero == rhs_zero == two_odd


def test_projector_cocycle_forms_pass():
    e = parity_projector()
    assert run_axiom(e, "E2L_cocycle").passed
    assert run_axiom(e, "E2R_cocycle").passed


def test_projector_literal_E2_fails():
    e = parity_projector()
    left = run_axiom(e, "E2L")
    assert left.verdict == "fail"
    assert left.witness.factor_degrees == (1, 1, 0)
    # left side carries c(0,0) = 1, right side c(1,0) * c(1,1) = 0
    assert left.witness.left_value == Fraction(1)
    assert left.witness.right_value == Fraction(0)
    right = run_axiom(e, "E2R")
    assert right.verdict == "fail"
    assert right.witness.factor_degrees == (0, 1, 1)


def test_projector_sliding_fails_with_flip_witness():
    e = parity_projector()
    beta = koszul_braiding()
    rep = run_axiom(e, "BL", beta=beta)
    assert rep.verdict == "fail"
    w = rep.witness
    assert w.factor_degrees == (1, 1, 0)
    assert w.objects == (ODD, ODD, UNIT)
    # left composite vanishes, right composite is the nonzero flip
    assert w.left_map.blocks == ()
    assert w.left_value == Fraction(0)
    assert w.right_value == Fraction(1)
    rep = run_axiom(e, "BR", beta=beta)
    assert rep.verdict == "fail"
    assert rep.witness.factor_degrees == (0, 1, 1)


def test_sliding_needs_braiding():
    with pytest.raises(ValueError):
        run_axiom(parity_projector(), "BL")


def test_identity_idempotent_passes_everything():
    e = identity_idempotent()
    beta = koszul_braiding()
    for axiom in AXIOMS:
        assert run_axiom(e, axiom, beta=beta).passed


def test_tabulated_projector_matches_structural():
    e = parity_projector()
    entries = {
        (x, y): e.at(Q, x, y) for x, y in product(UNIVERSE, repeat=2)
    }
    tab = Tabulated(entries)
    assert run_axiom(tab, "E0").passed
    assert run_axiom(tab, "E1").passed


def test_tabulated_broken_normalization_fails_E1():
    e = parity_projector()
    entries = {
        (x, y): e.at(Q, x, y) for x, y in product(UNIVERSE, repeat=2)
    }
    xy = tensor_obj(ODD, UNIT)
    entries[(ODD, UNIT)] = graded_map(Q, xy, xy, {1: [[Fraction(0)]]})
    rep = run_axiom(Tabulated(entries), "E1")
    assert rep.verdict == "fail"
    assert rep.witness.objects == (ODD, UNIT)


# ---------------------------------------------------------------------------
# the twist construction


def test_twist_by_identity_is_braiding():
    beta = koszul_braiding()
    sigma = twist(beta, identity_idempotent())
    for x, y in product(UNIVERSE, repeat=2):
        assert sigma.at(Q, x, y) == beta.at(Q, x, y)


def test_twist_blocks_multiply_sign_and_projector():
    sigma = twist(koszul_braiding(), parity_projector())
    m = sigma.at(Q, MIXED, MIXED)
    # even part: (0,0) survives with +1, (1,1) killed ((-1) * 0 = 0)
    assert m.block(0) == ((Fraction(1), Fraction(0)),
                          (Fraction(0), Fraction(0)))


def test_twist_of_koszul_keeps_its_parity_guard():
    sigma = twist(koszul_braiding(), identity_idempotent())
    x = obj(NAT, {1: 1})
    with pytest.raises(MonoidMismatch):
        sigma.at(Q, x, x)


def test_twist_coefficient_is_the_product_of_the_rules():
    beta, e = koszul_braiding(), parity_projector()
    sigma = twist(beta, e)
    for i, j in product((0, 1), repeat=2):
        assert sigma.coefficient(Q, i, j) == \
            Q.mul(beta.coefficient(Q, i, j), e.coefficient(Q, i, j))
    assert [sigma.coefficient(Q, i, j) for i, j in product((0, 1), repeat=2)] \
        == [1, 1, 1, 0]


@pytest.mark.parametrize("family, objects", [
    (symmetric_braiding(), (MIXED, ODD)),
    (koszul_braiding(), (ODD, ODD)),
    (twist(koszul_braiding(), parity_projector()), (MIXED, MIXED)),
    (identity_unit(), (MIXED,)),
    (graded_character(Q.parse("2")), (MIXED,)),
    (character_family(Q, [Q.one, Q.parse("3")]), (MIXED,)),
    (identity_idempotent(), (MIXED, ODD)),
    (parity_projector(), (MIXED, MIXED)),
], ids=["symmetric", "koszul", "twist", "identity-unit", "character",
        "table", "identity-idempotent", "projector"])
def test_each_family_builds_a_map_once(family, objects):
    built = []

    def counting_build(*args, _build=family.build):
        built.append(args[1:-1])
        return _build(*args)

    family.build = counting_build
    first = family.at(Q, *objects)
    assert family.at(Q, *objects) is first
    assert built == [objects]


def test_twist_fails_hexagons():
    sigma = twist(koszul_braiding(), parity_projector())
    ds = DistortedStructure(Q, PARITY, UNIVERSE, sigma, identity_unit())
    rep = check_D3(ds, BUDGET)
    assert rep.verdict == "fail"
    assert rep.witness.factor_degrees == (1, 1, 1)


def test_twist_of_tabulated_composes():
    beta = koszul_braiding()
    e = parity_projector()
    entries = {
        (x, y): e.at(Q, x, y) for x, y in product(UNIVERSE, repeat=2)
    }
    composed = twist(beta, Tabulated(entries))
    structural = twist(beta, e)
    for x, y in product(UNIVERSE, repeat=2):
        assert composed.at(Q, x, y) == structural.at(Q, x, y)


def test_full_twist_hypotheses_give_distorted_structure():
    # with e = Id every axiom holds, and the twist passes D1-D3
    sigma = twist(koszul_braiding(), identity_idempotent())
    ds = DistortedStructure(Q, PARITY, UNIVERSE, sigma, identity_unit())
    assert check_D1(ds, BUDGET).passed
    assert check_D2(ds, BUDGET).passed
    assert check_D3(ds, BUDGET).passed


# ---------------------------------------------------------------------------
# invertibility


def test_koszul_invertible_everywhere():
    rep = invertibility_test(Q, koszul_braiding(), UNIVERSE)
    assert rep.invertible_everywhere
    assert rep.first_witness is None


def test_twist_not_invertible_with_odd_pair_witness():
    sigma = twist(koszul_braiding(), parity_projector())
    rep = invertibility_test(Q, sigma, UNIVERSE)
    assert not rep.invertible_everywhere
    assert rep.first_witness == (ODD, ODD)
    assert rep.verdict_for(ODD, ODD) is False
    # the single block of that pair is the zero 1x1 block
    assert sigma.at(Q, ODD, ODD).blocks == ()


def test_identity_idempotent_invertible():
    rep = invertibility_test(Q, identity_idempotent(), UNIVERSE)
    assert rep.invertible_everywhere


def test_twist_invertibility_matches_idempotent():
    beta = koszul_braiding()
    for e in (identity_idempotent(), parity_projector()):
        by_twist = invertibility_test(Q, twist(beta, e), UNIVERSE)
        by_e = invertibility_test(Q, e, UNIVERSE)
        assert by_twist.invertible_everywhere == by_e.invertible_everywhere


# ---------------------------------------------------------------------------
# exhaustive structural search


def test_search_enumerates_two_candidates():
    rep = search_structural_idempotents(Q, koszul_braiding(), UNIVERSE, BUDGET)
    assert [row.odd_odd_coefficient for row in rep.rows] == [0, 1]


def test_search_rows_match_axiom_table():
    rep = search_structural_idempotents(Q, koszul_braiding(), UNIVERSE, BUDGET)
    row0, row1 = rep.rows
    assert row0.verdicts() == {
        "E0": "pass", "E1": "pass",
        "E2L": "fail", "E2R": "fail",
        "E2L_cocycle": "pass", "E2R_cocycle": "pass",
        "BL": "fail", "BR": "fail",
    }
    assert all(v == "pass" for v in row1.verdicts().values())
    bl = next(r for r in row0.reports if r.axiom == "BL")
    assert bl.witness.factor_degrees == (1, 1, 0)


def test_search_joint_contracts():
    rep = search_structural_idempotents(Q, koszul_braiding(), UNIVERSE, BUDGET)
    assert rep.satisfying(("E0", "E1", "BL")) == [1]
    assert rep.satisfying(("E0", "E1", "E2L_cocycle", "E2R_cocycle")) == [0, 1]


def test_search_requires_parity():
    from distmon import NAT
    nat_universe = generate_universe(NAT, 1, 1, 1)
    with pytest.raises(MonoidMismatch):
        search_structural_idempotents(Q, symmetric_braiding(), nat_universe,
                                      BUDGET)
