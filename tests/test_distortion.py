from fractions import Fraction
from itertools import product

import pytest

from distmon import (
    DistortedStructure, NAT, PARITY, TRIVIAL, character_family, check_D1,
    check_D2, check_D3, check_D4, check_lambda_sigma_commute,
    classify_scalar_unit_families, compose, generate_universe,
    graded_character, graded_map, identity, identity_unit, koszul_braiding,
    parity_projector, symmetric_braiding, tabulate_binary, tensor_obj, twist,
    unit_object,
)
from distmon.distortion import Tabulated
from distmon.errors import BadUnitScalar, CoverageError, MonoidMismatch
from distmon.fields import PrimeField
from distmon.reports import CheckBudget

from conftest import Q, obj

BUDGET = CheckBudget()

PARITY_UNIVERSE = generate_universe(PARITY, 1, 1, 2)
NAT_UNIVERSE = generate_universe(NAT, 2, 1, 2)


def parity_ds(sigma, lam=None):
    return DistortedStructure(Q, PARITY, PARITY_UNIVERSE, sigma,
                              lam or identity_unit())


def nat_ds(sigma, lam=None):
    return DistortedStructure(Q, NAT, NAT_UNIVERSE, sigma,
                              lam or identity_unit())


# ---------------------------------------------------------------------------
# braiding families


def test_symmetric_flip_concentrated():
    x = obj(NAT, {1: 1})
    block = symmetric_braiding().at(Q, x, x).block(2)
    assert block == ((1,),)


def test_symmetric_is_involutive():
    sigma = symmetric_braiding()
    for x, y in product(NAT_UNIVERSE, repeat=2):
        forward = sigma.at(Q, x, y)
        back = sigma.at(Q, y, x)
        assert compose(back, forward) == identity(Q, tensor_obj(x, y))


def test_koszul_blocks_on_mixed_object():
    x = obj(PARITY, {0: 1, 1: 1})
    m = koszul_braiding().at(Q, x, x)
    # even block: summands (0,0) then (1,1); the odd-odd flip picks up -1
    assert m.block(0) == ((Fraction(1), Fraction(0)),
                          (Fraction(0), Fraction(-1)))
    # odd block: the two mixed summands swap with sign +1
    assert m.block(1) == ((Fraction(0), Fraction(1)),
                          (Fraction(1), Fraction(0)))


def test_koszul_sign_on_odd_pair():
    x = obj(PARITY, {1: 1})
    assert koszul_braiding().at(Q, x, x).block(0) == ((Fraction(-1),),)


def test_koszul_is_involutive():
    sigma = koszul_braiding()
    for x, y in product(PARITY_UNIVERSE, repeat=2):
        forward = sigma.at(Q, x, y)
        back = sigma.at(Q, y, x)
        assert compose(back, forward) == identity(Q, tensor_obj(x, y))


def test_koszul_requires_parity():
    with pytest.raises(MonoidMismatch):
        koszul_braiding().at(Q, obj(NAT, {0: 1}), obj(NAT, {1: 1}))


# ---------------------------------------------------------------------------
# unit families


def test_character_t_one_is_identity():
    lam = graded_character(Q.one)
    for x in NAT_UNIVERSE:
        assert lam.at(Q, x) == identity(Q, x)


def test_character_t_zero():
    lam = graded_character(Q.zero)
    x = obj(NAT, {0: 1, 1: 1, 2: 1})
    m = lam.at(Q, x)
    assert m.block(0) == ((1,),)
    assert m.block(1) is None and m.block(2) is None


def test_character_multiplicative_block():
    # t = 2 acts on the degree-2 part of a product of degree-1 objects by 4
    lam = graded_character(Q.parse("2"))
    v = obj(NAT, {1: 1})
    assert lam.at(Q, tensor_obj(v, v)).block(2) == ((Fraction(4),),)


def test_character_family_rejects_bad_unit():
    with pytest.raises(BadUnitScalar):
        character_family(Q, [Q.parse("2"), Q.one])


def test_character_family_agrees_with_character():
    t = Q.parse("3")
    table = character_family(Q, [Q.one, t, Q.mul(t, t)])
    lam = graded_character(t)
    for x in NAT_UNIVERSE:
        assert table.at(Q, x) == lam.at(Q, x)


def test_character_family_short_table():
    lam = character_family(Q, [Q.one])
    x = obj(NAT, {0: 2})
    assert lam.at(Q, x) == identity(Q, x)


# ---------------------------------------------------------------------------
# D1: binaturality


def test_D1_koszul_structural():
    rep = check_D1(parity_ds(koszul_braiding()), BUDGET)
    assert rep.passed
    assert rep.coverage.note == "structural: exact for all morphisms"
    assert rep.coverage.sampled_maps > 0


def test_D1_tabulated_copy_passes():
    pairs = list(product(PARITY_UNIVERSE, repeat=2))
    fam = tabulate_binary(symmetric_braiding(), Q, pairs)
    ds = parity_ds(fam)
    rep = check_D1(ds, BUDGET)
    assert rep.passed
    assert rep.coverage.note is None


def test_D1_scaled_entry_fails_with_pair_witness():
    pairs = list(product(PARITY_UNIVERSE, repeat=2))
    fam = tabulate_binary(symmetric_braiding(), Q, pairs)
    x = PARITY_UNIVERSE[1]
    bad = fam.entries[(x, x)]
    fam.entries[(x, x)] = graded_map(
        Q, bad.source, bad.target,
        {d: [[Q.mul(Fraction(2), v) for v in row] for row in m]
         for d, m in bad.dense_blocks()})
    rep = check_D1(parity_ds(fam), BUDGET)
    assert rep.verdict == "fail"
    assert rep.witness.objects[:2] == (x, x) or (x, x) == rep.witness.objects[2:]


def test_D1_missing_pair_raises_coverage():
    fam = Tabulated({}, "empty")
    with pytest.raises(CoverageError):
        check_D1(parity_ds(fam), BUDGET)


def test_D1_zero_hom_quadruple_counts_a_tuple_and_no_map():
    # Hom({0:1}, {1:1}) is zero, so (a, a, a, b) is decided with no map pair
    a, b = obj(NAT, {0: 1}), obj(NAT, {1: 1})
    ds = DistortedStructure(Q, NAT, [a, b], symmetric_braiding(), identity_unit())

    def coverage(cap):
        cov = check_D1(ds, CheckBudget(max_object_tuples=cap)).coverage
        return cov.object_tuples, cov.sampled_maps

    assert coverage(1) == (1, 1)
    assert coverage(2) == (2, 1)
    assert coverage(16) == (16, 4)


def test_D1_budget_caps_tuples():
    rep = check_D1(parity_ds(koszul_braiding()),
                   CheckBudget(max_object_tuples=10))
    assert rep.coverage.object_tuples == 10


# ---------------------------------------------------------------------------
# D2: unit normalization


def test_D2_symmetric():
    assert check_D2(parity_ds(symmetric_braiding()), BUDGET).passed


def test_D2_twisted_projector():
    # e_{X,I} = Id, so the twist leaves the unit rows of sigma intact
    sigma = twist(koszul_braiding(), parity_projector())
    assert check_D2(parity_ds(sigma), BUDGET).passed


def test_D2_catches_bad_unit_component():
    unit = unit_object(PARITY)
    entries = {x: identity(Q, x) for x in PARITY_UNIVERSE}
    entries[unit] = graded_map(Q, unit, unit, {0: [[Fraction(2)]]})
    lam = Tabulated(entries)
    rep = check_D2(parity_ds(symmetric_braiding(), lam), BUDGET)
    assert rep.verdict == "fail"
    assert rep.witness.objects == (unit,)


def test_D2_reports_structural_bad_unit_scalar():
    # a structural family with a(0) != 1 is constructible; the checker,
    # not the constructor, reports the violation
    from distmon.distortion import StructuralFamily
    from distmon.exactlin import degree_scaling
    lam = StructuralFamily(degree_scaling, lambda f, m: f.parse("2"), "const=2")
    rep = check_D2(parity_ds(symmetric_braiding(), lam), BUDGET)
    assert rep.verdict == "fail"
    assert rep.witness.objects == (unit_object(PARITY),)
    assert rep.witness.left_value == Fraction(2)
    assert rep.witness.right_value == Fraction(1)


# ---------------------------------------------------------------------------
# D3: hexagons


def test_D3_koszul_passes():
    rep = check_D3(parity_ds(koszul_braiding()), BUDGET)
    assert rep.passed
    assert rep.coverage.object_tuples == 27


def test_D3_symmetric_trivial_grading():
    universe = generate_universe(TRIVIAL, 0, 2, 1)
    ds = DistortedStructure(Q, TRIVIAL, universe, symmetric_braiding(),
                            identity_unit())
    assert check_D3(ds, BUDGET).passed


def _oracle_hexagon_failures(coeff):
    """Scalar route: first failing parity degree triple per hexagon form.

    coeff(i, j) is the full structural coefficient including sign.
    """
    failures = []
    for i, j, k in product((0, 1), repeat=3):
        h1 = coeff((i + j) % 2, k) != coeff(i, k) * coeff(j, k)
        h2 = coeff(i, (j + k) % 2) != coeff(i, j) * coeff(i, k)
        if h1 or h2:
            failures.append((i, j, k))
    return failures


def test_D3_twisted_projector_fails_at_odd_triple():
    sigma = twist(koszul_braiding(), parity_projector())

    def coeff(i, j):
        sign = -1 if i * j % 2 else 1
        c = 0 if (i, j) == (1, 1) else 1
        return Fraction(sign * c)

    assert _oracle_hexagon_failures(coeff) == [(1, 1, 1)]  # oracle, frozen
    rep = check_D3(parity_ds(sigma), BUDGET)
    assert rep.verdict == "fail"
    assert rep.witness.factor_degrees == (1, 1, 1)
    assert rep.witness.left_value == Fraction(1)   # c(0,1) = 1 survives
    assert rep.witness.right_value == Fraction(0)  # c(1,1)^2 = 0


# ---------------------------------------------------------------------------
# D4: multiplicativity of the unit family


def test_D4_characters_pass_over_Q_and_F3():
    for t in ("0", "2", "-1"):
        assert check_D4(nat_ds(symmetric_braiding(),
                               graded_character(Q.parse(t))), BUDGET).passed
    f3 = PrimeField(3)
    for t in ("0", "2", "-1"):
        ds = DistortedStructure(f3, NAT, NAT_UNIVERSE, symmetric_braiding(),
                                graded_character(f3.parse(t)))
        assert check_D4(ds, BUDGET).passed


def test_D4_counterexample_table():
    lam = character_family(Q, [Q.one, Q.one, Q.zero])
    rep = check_D4(nat_ds(symmetric_braiding(), lam), BUDGET)
    assert rep.verdict == "fail"
    v = obj(NAT, {1: 1})
    assert rep.witness.objects == (v, v)
    assert rep.witness.block_degree == 2
    assert rep.witness.factor_degrees == (1, 1)
    assert rep.witness.left_value == Fraction(0)
    assert rep.witness.right_value == Fraction(1)


def test_D4_identity_family():
    assert check_D4(nat_ds(symmetric_braiding()), BUDGET).passed


# ---------------------------------------------------------------------------
# the derived commutation law


def test_lambda_sigma_commute_koszul_character():
    ds = parity_ds(koszul_braiding(), graded_character(Q.parse("2")))
    assert check_lambda_sigma_commute(ds, BUDGET).passed


def test_lambda_sigma_commute_without_D4():
    # the table (1, 1, 0) violates D4 yet still commutes with sigma
    lam = character_family(Q, [Q.one, Q.one, Q.zero])
    ds = nat_ds(symmetric_braiding(), lam)
    assert check_D4(ds, BUDGET).verdict == "fail"
    assert check_lambda_sigma_commute(ds, BUDGET).passed


def test_lambda_sigma_commute_any_structural_pair():
    for sigma in (symmetric_braiding(), koszul_braiding(),
                  twist(koszul_braiding(), parity_projector())):
        for lam in (identity_unit(), graded_character(Q.parse("-1")),
                    character_family(Q, [Q.one, Q.zero])):
            ds = parity_ds(sigma, lam)
            assert check_lambda_sigma_commute(ds, BUDGET).passed


# ---------------------------------------------------------------------------
# scalar classification on the trivially graded model


def test_classify_returns_identity_only():
    assert classify_scalar_unit_families(Q) == [Q.one]
    for p in (2, 3):
        f = PrimeField(p)
        assert classify_scalar_unit_families(f) == [f.one]


def test_classify_excludes_zero():
    # c = 0 satisfies c^2 = c but fails the unit condition
    assert Q.zero not in classify_scalar_unit_families(Q)
