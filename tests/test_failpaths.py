"""Pinned reports of corrupted, capped and structural cases.

The builtin catalog fails only a few checks, and runs D1/D3 only on
structural families, so these cases pin what the report-level pins do not:
the verdict, the coverage (tuples, maps, note) and the witness (objects,
per-factor degrees, entry and values) of failing runs built with the test
hooks, plus the pass notes and counts of capped and structural runs.  The
values were computed before the checkers shared one quantifier loop and
must not change with it.
"""

from fractions import Fraction
from itertools import product

import pytest

from distmon import (
    DistortedStructure, NAT, PARITY, character_family, check_base, check_D1,
    check_D2, check_D3, check_D4, check_horizontal_strictness,
    check_idempotent_axiom, check_interchange,
    check_lax_axioms, check_laxator_naturality, check_monoidal,
    check_SLambda, check_Ssigma, check_triple_strictness, collapse_functor,
    check_lambda_conjugation, check_lambda_sigma_commute, compose_lax,
    generate_universe,
    graded_character, graded_map, horizontal, identity_functor, identity_unit,
    koszul_braiding, parity_projector, projection_transformation,
    scalar_transformation, symmetric_braiding, tabulate_binary, tensor_obj,
    truncation_functor, twist, unit_object,
)
from distmon.distortion import StructuralFamily, Tabulated
from distmon.exactlin import associator, flip_map, identity, sort_universe
from distmon.harness import CHECKS
from distmon.reports import CheckBudget

from conftest import Q, obj

BUDGET = CheckBudget()
NAT_U = generate_universe(NAT, 2, 1, 2)
PARITY_U = generate_universe(PARITY, 1, 1, 2)
ODD = obj(PARITY, {1: 1})
PUNIT = unit_object(PARITY)


def doubled(m):
    return graded_map(Q, m.source, m.target, {
        d: [[Q.mul(Fraction(2), v) for v in row] for row in block]
        for d, block in m.dense_blocks()
    })


def nat_ds(lam=None, sigma=None, universe=NAT_U):
    return DistortedStructure(Q, NAT, universe, sigma or symmetric_braiding(),
                              lam or identity_unit())


def parity_ds(sigma, lam=None, universe=PARITY_U):
    return DistortedStructure(Q, PARITY, universe, sigma, lam or identity_unit())


def _bad_mu_functor(universe=NAT_U):
    t1 = truncation_functor(nat_ds(universe=universe), 1)
    target_pair = (obj(NAT, {0: 1, 1: 1}), obj(NAT, {1: 1}))

    def bad_mu(x, y, _mu=t1.mu):
        m = _mu(x, y)
        if (x, y) == target_pair and m.blocks:
            return doubled(m)
        return m

    return t1._replace(mu=bad_mu)


def _lax_pentagon():
    return check_lax_axioms(_bad_mu_functor(), BUDGET)


def _lax_left_unit():
    t1 = truncation_functor(nat_ds(), 1)
    return check_lax_axioms(t1._replace(mu0=doubled(t1.mu0)), BUDGET)


def _ssigma():
    return check_Ssigma(collapse_functor(parity_ds(koszul_braiding())), BUDGET)


def _laxator_naturality(universe=NAT_U):
    return check_laxator_naturality(_bad_mu_functor(universe), BUDGET)


def _slambda_collapse():
    return check_SLambda(collapse_functor(nat_ds(graded_character(Q.parse("2")))),
                         BUDGET)


def _triple_strictness(unit: bool):
    ds = nat_ds()
    t1, t2 = truncation_functor(ds, 1), truncation_functor(ds, 2)
    u = collapse_functor(ds)

    def corrupting_compose(g, f):
        composite = compose_lax(g, f)
        if f.info[0] != "composite":
            return composite
        if unit:
            return composite._replace(mu0=doubled(composite.mu0))
        return composite._replace(mu=lambda x, y: doubled(composite.mu(x, y)))

    return check_triple_strictness(u, t1, t2, BUDGET,
                                   compose_fn=corrupting_compose)


def _corrupt_at(cell, target_obj):
    def component(x, _c=cell.component):
        m = _c(x)
        return doubled(m) if x == target_obj and m.blocks else m
    return cell._replace(component=component)


def _monoidal_scalar():
    idf = identity_functor(nat_ds())
    return check_monoidal(scalar_transformation(idf, Q.parse("2")), BUDGET)


def _projection_stack(universe=NAT_U):
    ds = nat_ds(universe=universe)
    return (truncation_functor(ds, 1), truncation_functor(ds, 2),
            truncation_functor(ds, 3))


def _monoidal_projection():
    t1, t2, _ = _projection_stack()
    cell = _corrupt_at(projection_transformation(t2, t1), obj(NAT, {1: 1}))
    return check_monoidal(cell, BUDGET)


def _interchange():
    t1, t2, t3 = _projection_stack()
    eta = projection_transformation(t3, t2)
    theta = projection_transformation(t2, t1)
    phi = _corrupt_at(projection_transformation(t2, t1), obj(NAT, {1: 1}))
    psi = projection_transformation(t1, t1)
    return check_interchange(eta, theta, phi, psi, BUDGET)


def _horizontal_strictness(universe=NAT_U):
    """A horizontal composition that doubles a composite's component at
    {1:1} when its outer cell is itself a composite, so that only the
    bracketing (c * b) * a of the chain [a, b, c] is corrupted."""
    t1, t2, t3 = _projection_stack(universe)
    made = []

    def corrupting_horizontal(phi, theta):
        out = horizontal(phi, theta)
        if any(phi is m for m in made):
            out = _corrupt_at(out, obj(NAT, {1: 1}))
        made.append(out)
        return out

    chain = [projection_transformation(t3, t2), projection_transformation(t2, t1),
             projection_transformation(t1, t1)]
    return check_horizontal_strictness([chain], BUDGET,
                                       horizontal_fn=corrupting_horizontal)


def _closure(universe):
    """The universe and the tensor of each pair of its objects."""
    return set(universe) | {tensor_obj(x, y) for x, y in product(universe, repeat=2)}


def _tabulated_sigma(sigma):
    return tabulate_binary(sigma, Q, list(product(_closure(PARITY_U), repeat=2)))


def _d1_tabulated(universe=PARITY_U):
    fam = _tabulated_sigma(symmetric_braiding())
    x = PARITY_U[1]
    fam.entries[(x, x)] = doubled(fam.entries[(x, x)])
    return check_D1(parity_ds(fam, universe=universe), BUDGET)


def _d2_tabulated_unit():
    entries = {x: identity(Q, x) for x in PARITY_U}
    entries[PUNIT] = graded_map(Q, PUNIT, PUNIT, {0: [[Fraction(2)]]})
    return check_D2(parity_ds(symmetric_braiding(), Tabulated(entries)),
                    BUDGET)


def _d3(sigma):
    return check_D3(parity_ds(sigma), BUDGET)


def _d3_second_hexagon():
    """s(i, j) = 2^i at j = 1 and 1 elsewhere: the first hexagon holds and the
    second fails at degrees (1, 1, 1), among other summands of degree 3."""
    sigma = StructuralFamily(
        flip_map, lambda f, i, j: f.from_int(2 ** i if j == 1 else 1), "s=2^i@1")
    wide = [obj(NAT, {0: 1, 1: 2, 2: 1})]
    return check_D3(DistortedStructure(Q, NAT, wide, sigma, identity_unit()), BUDGET)


def _d4_character_table():
    return check_D4(nat_ds(character_family(Q, [Q.one, Q.parse("2"),
                                                 Q.parse("3")])), BUDGET)


def _projector_entries():
    e = parity_projector()
    return {(x, y): e.at(Q, x, y) for x, y in product(PARITY_U, repeat=2)}


def _e0_tabulated():
    entries = _projector_entries()
    entries[(ODD, PUNIT)] = doubled(entries[(ODD, PUNIT)])
    return check_idempotent_axiom(Q, Tabulated(entries), "E0",
                                  PARITY_U, BUDGET)


def _e0_tabulated_naturality(universe=PARITY_U):
    # idempotent everywhere, but the (ODD, ODD) entry is the identity
    entries = _projector_entries()
    entries[(ODD, ODD)] = identity(Q, tensor_obj(ODD, ODD))
    return check_idempotent_axiom(Q, Tabulated(entries), "E0",
                                  universe, BUDGET)


def _e1_tabulated():
    entries = _projector_entries()
    xy = tensor_obj(ODD, PUNIT)
    entries[(ODD, PUNIT)] = graded_map(Q, xy, xy, {1: [[Fraction(0)]]})
    return check_idempotent_axiom(Q, Tabulated(entries), "E1",
                                  PARITY_U, BUDGET)


def _twist_axiom(axiom, universe=PARITY_U):
    return check_idempotent_axiom(Q, parity_projector(), axiom, universe,
                                  BUDGET, beta=koszul_braiding())


# an object with two basis vectors in one degree, on which the two bracketings
# of a triple tensor order their columns differently
WIDE_U = [obj(PARITY, {0: 1, 1: 2})]


def _tabulated_cocycle(axiom):
    """The parity projector tabulated on the tensor closure, with the
    identity at (ODD, ODD): idempotent, but no longer a cocycle."""
    e = _generic_binary(parity_projector(), PARITY_U)
    e.entries[(ODD, ODD)] = identity(Q, tensor_obj(ODD, ODD))
    return check_idempotent_axiom(Q, e, axiom, PARITY_U, BUDGET)


DENSE_U = generate_universe(NAT, 1, 2, 2)


def dense(src, tgt, shift):
    """A dense map with entries in {-1, 0, 1, 2}, varied by ``shift``."""
    return graded_map(Q, src, tgt, {
        d: [[Q.from_int((r + 2 * c + d + shift) % 4 - 1) for c in range(k)]
            for r in range(tgt.dim(d))]
        for d, k in src.dims})


def _dense_lambda():
    return Tabulated({x: dense(x, x, 1) for x in DENSE_U})


def _lambda_sigma_dense():
    # a structural sigma commutes with any graded Lambda summand by summand,
    # so failing takes a sigma that is not binatural as well
    sigma = Tabulated({(x, y): dense(tensor_obj(x, y), tensor_obj(y, x), 0)
                       for x, y in product(DENSE_U, repeat=2)})
    return check_lambda_sigma_commute(
        DistortedStructure(Q, NAT, DENSE_U, sigma, _dense_lambda()), BUDGET)


def _lambda_conjugation_dense():
    ds = DistortedStructure(Q, NAT, DENSE_U, symmetric_braiding(), _dense_lambda())
    cell = scalar_transformation(identity_functor(ds), Q.one)
    target = obj(NAT, {0: 2})

    def component(x, _c=cell.component):
        return dense(x, x, 2) if x is target else _c(x)

    return check_lambda_conjugation(cell._replace(component=component), BUDGET)


def _lax(cap):
    t1 = truncation_functor(nat_ds(), 1)
    return check_lax_axioms(t1, CheckBudget(max_object_tuples=cap))


def _base_capped():
    return check_base(Q, NAT_U, CheckBudget(max_object_tuples=50))


def _base_corrupted(universe=NAT_U):
    bad_at = (NAT_U[1], NAT_U[2], NAT_U[3])

    def corrupt(field, x, y, z):
        a = associator(field, x, y, z)
        return doubled(a) if (x, y, z) == bad_at else a

    return check_base(Q, universe, CheckBudget(), assoc=corrupt)


def _base_scaled_identity_associator(universe=NAT_U):
    """One column of an associator that is the interned identity, scaled."""
    bad_at = (obj(NAT, {0: 1, 1: 1}), obj(NAT, {1: 1}), obj(NAT, {1: 1}))

    def scaled(field, x, y, z):
        a = associator(field, x, y, z)
        if (x, y, z) != bad_at:
            return a
        assert a is identity(field, a.source)
        blocks = {d: [list(row) for row in m] for d, m in a.dense_blocks()}
        blocks[3][0][0] = Fraction(2)
        return graded_map(field, a.source, a.target, blocks)

    return check_base(Q, universe, CheckBudget(), assoc=scaled)


CASES = {
    "lax-pentagon": _lax_pentagon,
    "lax-left-unit": _lax_left_unit,
    "Ssigma-collapse-koszul": _ssigma,
    "laxator_naturality-bad-mu": _laxator_naturality,
    "SLambda-collapse": _slambda_collapse,
    "triple_strictness-pairs": lambda: _triple_strictness(unit=False),
    "triple_strictness-unit": lambda: _triple_strictness(unit=True),
    "monoidal-scalar": _monoidal_scalar,
    "monoidal-projection": _monoidal_projection,
    "interchange-projection": _interchange,
    "horizontal_strictness-composite": _horizontal_strictness,
    "D1-tabulated": _d1_tabulated,
    "D2-tabulated-unit": _d2_tabulated_unit,
    "D3-tabulated-twist": lambda: _d3(_tabulated_sigma(
        twist(koszul_braiding(), parity_projector()))),
    "D3-structural-twist": lambda: _d3(twist(koszul_braiding(),
                                             parity_projector())),
    "D4-character-table": _d4_character_table,
    "E0-tabulated-idempotency": _e0_tabulated,
    "E0-tabulated-naturality": _e0_tabulated_naturality,
    "E1-tabulated": _e1_tabulated,
    "BL-parity-projector": lambda: _twist_axiom("BL"),
    "BR-parity-projector": lambda: _twist_axiom("BR"),
    "E2R-parity-projector": lambda: _twist_axiom("E2R"),
    "E2L_cocycle-tabulated": lambda: _tabulated_cocycle("E2L_cocycle"),
    "E2R_cocycle-tabulated": lambda: _tabulated_cocycle("E2R_cocycle"),
    "lambda_sigma-dense": _lambda_sigma_dense,
    "lambda_conjugation-dense-component": _lambda_conjugation_dense,
    "E2L-parity-projector": lambda: _twist_axiom("E2L"),
    "E0-parity-projector": lambda: _twist_axiom("E0"),
    "E2L-wide": lambda: _twist_axiom("E2L", WIDE_U),
    "E2R-wide": lambda: _twist_axiom("E2R", WIDE_U),
    "BL-wide": lambda: _twist_axiom("BL", WIDE_U),
    "BR-wide": lambda: _twist_axiom("BR", WIDE_U),
    "D3-structural-twist-wide": lambda: check_D3(DistortedStructure(
        Q, PARITY, WIDE_U, twist(koszul_braiding(), parity_projector()),
        identity_unit()), BUDGET),
    "D3-second-hexagon-wide": _d3_second_hexagon,
    "E2R_cocycle-parity-projector": lambda: _twist_axiom("E2R_cocycle"),
    "D1-koszul": lambda: check_D1(parity_ds(koszul_braiding()), BUDGET),
    "D3-koszul": lambda: _d3(koszul_braiding()),
    "lax-truncation": lambda: _lax(4096),
    "lax-max-tuples-5": lambda: _lax(5),
    "base-max-tuples-50": _base_capped,
    "base-corrupted-associator": _base_corrupted,
    "base-scaled-identity-associator": _base_scaled_identity_associator,
}


def summary(report):
    """Verdict, coverage and witness of a report as plain values."""
    cov = report.coverage
    out = (report.axiom, report.verdict, cov.object_tuples, cov.sampled_maps,
           cov.note)
    w = report.witness
    if w is None:
        return out + (None,)
    return out + ((tuple(str(o) for o in w.objects), w.factor_degrees,
                   w.block_degree, w.row, w.col,
                   Q.fmt(w.left_value), Q.fmt(w.right_value)),)


STRUCTURAL = "structural: exact for all morphisms"
EXPECTED = {
    "BL-parity-projector": ("BL", "fail", 13, 0, None,
        (("{1:1}", "{1:1}", "{0:1}"), (1, 1, 0), 0, 0, 0, "0", "1")),
    "BL-wide": ("BL", "fail", 1, 0, None,
        (("{0:1, 1:2}",) * 3, (1, 1, 0), 0, 9, 7, "0", "1")),
    "BR-wide": ("BR", "fail", 1, 0, None,
        (("{0:1, 1:2}",) * 3, (0, 1, 1), 0, 5, 5, "0", "1")),
    "BR-parity-projector": ("BR", "fail", 5, 0, None,
        (("{0:1}", "{1:1}", "{1:1}"), (0, 1, 1), 0, 0, 0, "0", "1")),
    "D1-koszul": ("D1", "pass", 81, 64, STRUCTURAL, None),
    "D1-tabulated": ("D1", "fail", 42, 22, None,
        (("{1:1}", "{1:1}", "{1:1}", "{0:1, 1:1}"), (1, 1), 0, 0, 0, "2", "1")),
    "D2-tabulated-unit": ("D2", "fail", 4, 0, None,
        (("{0:1}",), (0,), 0, 0, 0, "2", "1")),
    "D3-koszul": ("D3", "pass", 27, 0, STRUCTURAL, None),
    "D3-structural-twist": ("D3", "fail", 14, 0, None,
        (("{1:1}", "{1:1}", "{1:1}"), (1, 1, 1), 1, 0, 0, "1", "0")),
    "D3-tabulated-twist": ("D3", "fail", 14, 0, None,
        (("{1:1}", "{1:1}", "{1:1}"), (1, 1, 1), 1, 0, 0, "1", "0")),
    "D3-second-hexagon-wide": ("D3", "fail", 1, 0, None,
        (("{0:1, 1:2, 2:1}",) * 3, (1, 1, 1), 3, 6, 5, "1", "4")),
    "D3-structural-twist-wide": ("D3", "fail", 1, 0, None,
        (("{0:1, 1:2}",) * 3, (1, 1, 1), 1, 5, 2, "1", "0")),
    "D4-character-table": ("D4", "fail", 8, 0, None,
        (("{1:1}", "{1:1}"), (1, 1), 2, 0, 0, "3", "4")),
    "E0-parity-projector": ("E0", "pass", 90, 64, STRUCTURAL, None),
    "E0-tabulated-idempotency": ("E0", "fail", 4, 0, None,
        (("{1:1}", "{0:1}"), (1, 0), 1, 0, 0, "4", "2")),
    "E0-tabulated-naturality": ("E0", "fail", 51, 22, None,
        (("{1:1}", "{1:1}", "{1:1}", "{0:1, 1:1}"), (1, 1), 0, 0, 0, "1", "0")),
    "E1-tabulated": ("E1", "fail", 2, 0, None,
        (("{1:1}", "{0:1}"), (1, 0), 1, 0, 0, "0", "1")),
    "E2L_cocycle-tabulated": ("E2L_cocycle", "fail", 15, 0, None,
        (("{1:1}", "{1:1}", "{0:1, 1:1}"), (1, 1, 0), 0, 0, 0, "1", "0")),
    "E2R-parity-projector": ("E2R", "fail", 5, 0, None,
        (("{0:1}", "{1:1}", "{1:1}"), (0, 1, 1), 0, 0, 0, "1", "0")),
    "E2R_cocycle-tabulated": ("E2R_cocycle", "fail", 15, 0, None,
        (("{1:1}", "{1:1}", "{0:1, 1:1}"), (1, 1, 0), 0, 0, 0, "1", "0")),
    "E2L-wide": ("E2L", "fail", 1, 0, None,
        (("{0:1, 1:2}",) * 3, (1, 1, 0), 0, 7, 1, "1", "0")),
    "E2R-wide": ("E2R", "fail", 1, 0, None,
        (("{0:1, 1:2}",) * 3, (0, 1, 1), 0, 5, 1, "1", "0")),
    "E2L-parity-projector": ("E2L", "fail", 13, 0, None,
        (("{1:1}", "{1:1}", "{0:1}"), (1, 1, 0), 0, 0, 0, "1", "0")),
    "E2R_cocycle-parity-projector": ("E2R_cocycle", "pass", 27, 0,
        "structural scalar route cross-checked", None),
    "SLambda-collapse": ("SLambda", "fail", 2, 0, None,
        (("{1:1}",), (0,), 0, 0, 0, "2", "1")),
    "Ssigma-collapse-koszul": ("Ssigma", "fail", 5, 0, None,
        (("{1:1}", "{1:1}"), (0, 0), 0, 0, 0, "-1", "1")),
    "base-corrupted-associator": ("base", "fail", 298, 0, "pentagon",
        (("{1:1}", "{1:1}", "{1:1}", "{0:1, 1:1}"), (3,), 3, 0, 0, "1", "2")),
    "base-scaled-identity-associator": ("base", "fail", 368, 0, "pentagon",
        (("{1:1}", "{0:1, 1:1}", "{1:1}", "{1:1}"), (4,), 4, 0, 0, "1", "2")),
    "base-max-tuples-50": ("base", "pass", 86, 0,
        "triangle pairs=36 pentagon quadruples=50", None),
    "horizontal_strictness-composite": ("horizontal_strictness", "fail", 2, 0,
        "associativity", (("{1:1}",), (1,), 1, 0, 0, "1", "2")),
    "interchange-projection": ("interchange", "fail", 6, 0, None,
        (("{1:1, 2:1}",), (1,), 1, 0, 0, "2", "1")),
    "lambda_conjugation-dense-component": ("lambda_conjugation", "fail", 2, 0,
        None, (("{0:2}",), (0,), 0, 0, 0, "-1", "4")),
    "lambda_sigma-dense": ("lambda_sigma", "fail", 10, 0, None,
        (("{0:2}", "{0:2}"), (0, 0), 0, 0, 0, "8", "1")),
    "lax-left-unit": ("lax", "fail", 1, 0, "left unit",
        (("{0:1}",), (0,), 0, 0, 0, "2", "1")),
    "lax-max-tuples-5": ("lax", "pass", 11, 0, "unit objects=6 pentagon triples=5",
        None),
    "lax-pentagon": ("lax", "fail", 124, 0, "pentagon",
        (("{0:1, 1:1}", "{1:1}", "{0:1, 1:1}"), (0, 1, 0), 1, 0, 0, "2", "1")),
    "lax-truncation": ("lax", "pass", 222, 0, "unit objects=6 pentagon triples=216",
        None),
    "laxator_naturality-bad-mu": ("laxator_naturality", "fail", 56, 13, None,
        (("{0:1}", "{1:1}", "{0:1, 1:1}", "{1:1}"), (0, 1), 1, 0, 0, "2", "1")),
    "monoidal-projection": ("monoidal", "fail", 10, 0, None,
        (("{1:1}", "{0:1, 1:1}"), (1, 0), 1, 0, 0, "2", "1")),
    "monoidal-scalar": ("monoidal", "fail", 1, 0, None,
        (("{0:1}", "{0:1}"), (0, 0), 0, 0, 0, "4", "2")),
    "triple_strictness-pairs": ("triple_strictness", "fail", 2, 0, None,
        (("{0:1}", "{0:1}"), (0,), 0, 0, 0, "2", "1")),
    "triple_strictness-unit": ("triple_strictness", "fail", 1, 0, "unit",
        (("{0:1}",), (0,), 0, 0, 0, "2", "1")),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fail_path_report_is_pinned(case):
    assert summary(CASES[case]()) == EXPECTED[case]


# the naturality cases, whose witnesses come from composites built only for
# the pair the rank-one route hands over, a horizontal composite whose
# cells are rebuilt on the witness's objects, and the base pentagons, which
# skip the whiskerings of identity associators
REPLAYED = {
    "D1-tabulated": _d1_tabulated,
    "E0-tabulated-naturality": _e0_tabulated_naturality,
    "laxator_naturality-bad-mu": _laxator_naturality,
    "horizontal_strictness-composite": _horizontal_strictness,
    "base-corrupted-associator": _base_corrupted,
    "base-scaled-identity-associator": _base_scaled_identity_associator,
}


@pytest.mark.parametrize("case", sorted(REPLAYED))
def test_naturality_witness_replays_on_its_objects(case):
    # a universe made only of the witness's objects fails again, with the
    # same witness
    report = REPLAYED[case]()
    replay = REPLAYED[case](sort_universe(report.witness.objects))
    assert replay.verdict == "fail" and replay.witness == report.witness


# Check ids that no case above fails, each with the reason
NO_FAILING_CASE = {
    "classify": "c^2 = c and c = 1 leave only c = 1 in every field",
    "search_idempotents": "a search row reports the verdicts of the E/B checks above",
}


def test_every_check_id_has_a_failing_case():
    failing = {e[0] for e in EXPECTED.values() if e[1] == "fail"}
    assert sorted(set(CHECKS) - failing - set(NO_FAILING_CASE)) == []
    assert sorted(failing & set(NO_FAILING_CASE)) == []
    assert set(NO_FAILING_CASE) <= set(CHECKS)


# ---------------------------------------------------------------------------
# the identity shortcuts against the generic path


def _generic(m):
    """A value-equal copy rebuilt from dense rows, which is never interned."""
    copy = graded_map(Q, m.source, m.target, dict(m.dense_blocks()))
    assert copy == m and copy is not identity(Q, copy.source)
    return copy


def _generic_binary(family, universe):
    return Tabulated({pair: _generic(family.at(Q, *pair))
                      for pair in product(_closure(universe), repeat=2)})


def _generic_unit(family, universe):
    return Tabulated({x: _generic(family.at(Q, x)) for x in _closure(universe)})


def _without_note(report):
    out = summary(report)
    return out[:4] + out[5:]


SIGMA_11 = StructuralFamily(  # 2 on X_1 (x) Y_1 and 1 elsewhere: fails D3
    flip_map, lambda f, i, j: f.parse("2") if (i, j) == (1, 1) else f.one, "s11=2")


@pytest.mark.parametrize("sigma, lam", [
    (symmetric_braiding(), identity_unit()),
    (SIGMA_11, graded_character(Q.parse("2"))),
    (symmetric_braiding(), character_family(Q, [Q.one, Q.parse("2"), Q.parse("3")])),
], ids=["identities", "sigma11-character", "character-table"])
def test_nat_checks_agree_with_the_generic_path(sigma, lam):
    structural = nat_ds(lam, sigma)
    generic = nat_ds(_generic_unit(lam, NAT_U), _generic_binary(sigma, NAT_U))
    for check in (check_D3, check_D4, check_lambda_sigma_commute):
        assert (_without_note(check(structural, BUDGET))
                == _without_note(check(generic, BUDGET)))


@pytest.mark.parametrize("axiom", ["E2L", "BL"])
def test_parity_projector_agrees_with_the_generic_path(axiom):
    e, beta = parity_projector(), koszul_braiding()
    structural = check_idempotent_axiom(Q, e, axiom, PARITY_U, BUDGET, beta=beta)
    generic = check_idempotent_axiom(
        Q, _generic_binary(e, PARITY_U), axiom, PARITY_U, BUDGET,
        beta=_generic_binary(beta, PARITY_U))
    assert _without_note(generic) == _without_note(structural)
    assert structural.verdict == "fail"
