"""Acceptance criteria, one test per criterion.

Every comparison is exact (no tolerances anywhere); each test prints one
pass/fail line.  Criterion universes are generated from fixed bounds: the
desk scale stays at <= 12 objects, per-degree dimensions <= 2, degrees
<= 2.
"""

import json
import time
from fractions import Fraction
from itertools import product

from distmon import (
    DistortedStructure, NAT, PARITY, character_family,
    check_base, check_D1, check_D2, check_D3, check_D4,
    check_idempotent_axiom, check_interchange, check_horizontal_strictness,
    check_SLambda, check_triple_strictness, classify_scalar_unit_families,
    collapse_functor, compose, generate_universe,
    graded_character, identity_idempotent, identity_transformation,
    identity_unit, invertibility_test, koszul_braiding, parity_projector,
    projection_transformation, run_examples,
    search_structural_idempotents, symmetric_braiding, truncation_functor,
    twist,
)
from distmon.fields import PrimeField, RATIONAL as Q
from distmon.reports import CheckBudget
from distmon.twist import scalar_axiom_sides

from conftest import obj

BUDGET = CheckBudget()

PARITY_UNIVERSE = generate_universe(PARITY, 1, 1, 2)
NAT_UNIVERSE = generate_universe(NAT, 2, 1, 2)


def report_line(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number}: {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_acceptance_01_base_coherence():
    start = time.monotonic()
    nat = check_base(Q, NAT_UNIVERSE, BUDGET)
    parity = check_base(Q, PARITY_UNIVERSE, BUDGET)
    elapsed = time.monotonic() - start
    ok = nat.passed and parity.passed and elapsed < 10.0
    report_line(1, "pentagon + triangle pass exactly on the default "
                   f"universes in {elapsed:.2f}s", ok)


def test_acceptance_02_braidings_satisfy_axioms():
    koszul_ds = DistortedStructure(Q, PARITY, PARITY_UNIVERSE,
                                   koszul_braiding(), identity_unit())
    sym_ds = DistortedStructure(Q, NAT, NAT_UNIVERSE,
                                symmetric_braiding(), identity_unit())
    ok = all(chk(koszul_ds, BUDGET).passed and chk(sym_ds, BUDGET).passed
             for chk in (check_D1, check_D2, check_D3, check_D4))
    report_line(2, "Koszul braiding on parity and symmetric braiding on N "
                   "pass D1-D4 with the identity unit distortion", ok)


def test_acceptance_03_parity_projector_table():
    e = parity_projector()
    beta = koszul_braiding()

    def run(axiom):
        return check_idempotent_axiom(Q, e, axiom, PARITY_UNIVERSE, BUDGET,
                                      beta=beta)

    ok = all(run(a).passed for a in ("E0", "E1", "E2L_cocycle", "E2R_cocycle"))

    bl = run("BL")
    ok &= bl.verdict == "fail"
    ok &= bl.witness.factor_degrees == (1, 1, 0)
    ok &= bl.witness.left_map.blocks == ()          # left composite is zero
    ok &= bl.witness.right_value == Fraction(1)     # the surviving flip
    ok &= run("BR").verdict == "fail"

    literal = run("E2L")
    ok &= literal.verdict == "fail"
    ok &= literal.witness.factor_degrees == (1, 1, 0)
    # independent structural-scalar oracle for the literal form
    c = lambda i, j: Q.zero if (i, j) == (1, 1) else Q.one
    s = lambda i, j: Q.one
    lhs, rhs = scalar_axiom_sides(Q, PARITY, c, s, "E2L", 1, 1, 0)
    ok &= (lhs, rhs) == (Fraction(1), Fraction(0)) and lhs != rhs
    report_line(3, "parity projector: E0/E1/cocycle forms pass, sliding "
                   "fails at (1,1,0) with the zero-vs-flip witness, literal "
                   "multiplicativity fails per the scalar oracle", ok)


def test_acceptance_04_graded_characters_pass_D4():
    ok = True
    for field in (Q, PrimeField(3)):
        for t in ("0", "2", "-1"):
            ds = DistortedStructure(field, NAT, NAT_UNIVERSE,
                                    symmetric_braiding(),
                                    graded_character(field.parse(t)))
            ok &= check_D4(ds, BUDGET).passed
    f2 = PrimeField(2)
    minus_one = graded_character(f2.parse("-1"))
    ident = identity_unit()
    ok &= all(minus_one.at(f2, x) == ident.at(f2, x) for x in NAT_UNIVERSE)
    report_line(4, "degree characters t in {0, 2, -1} satisfy "
                   "multiplicativity over Q and F3; t = -1 over F2 "
                   "degenerates to the identity family", ok)


def test_acceptance_05_table_counterexample():
    lam = character_family(Q, [Q.one, Q.one, Q.zero])
    ds = DistortedStructure(Q, NAT, NAT_UNIVERSE, symmetric_braiding(), lam)
    rep = check_D4(ds, BUDGET)
    v = obj(NAT, {1: 1})
    ok = (rep.verdict == "fail"
          and rep.witness.objects == (v, v)
          and rep.witness.block_degree == 2
          and rep.witness.left_value == Fraction(0)
          and rep.witness.right_value == Fraction(1))
    report_line(5, "the table (1, 1, 0) fails multiplicativity with witness "
                   "V = W = {1:1}, blocks [0] vs [1] at degree 2", ok)


def test_acceptance_06_scalar_classification():
    ok = classify_scalar_unit_families(Q) == [Q.one]
    for p in (2, 3):
        field = PrimeField(p)
        ok &= classify_scalar_unit_families(field) == [field.one]
    report_line(6, "constant unit families on the ungraded model reduce to "
                   "[1] over Q, F2, F3", ok)


def test_acceptance_07_collapse_unit_compatibility():
    ds2 = DistortedStructure(Q, NAT, NAT_UNIVERSE, symmetric_braiding(),
                             graded_character(Q.parse("2")))
    rep = check_SLambda(collapse_functor(ds2), BUDGET)
    ok = rep.verdict == "fail" and rep.witness.objects == (obj(NAT, {1: 1}),)
    ds1 = DistortedStructure(Q, NAT, NAT_UNIVERSE, symmetric_braiding(),
                             graded_character(Q.one))
    ok &= check_SLambda(collapse_functor(ds1), BUDGET).passed
    report_line(7, "degree collapse fails strict unit compatibility for "
                   "t = 2 with witness {1:1} and passes for t = 1", ok)


def test_acceptance_08_triple_strictness():
    ds = DistortedStructure(Q, NAT, NAT_UNIVERSE, symmetric_braiding(),
                            identity_unit())
    t1 = truncation_functor(ds, 1)
    t2 = truncation_functor(ds, 2)
    u = collapse_functor(ds)
    ok = check_triple_strictness(u, t1, t2, BUDGET).passed
    # every composable bracketing over the builtin chain functors
    for h, g, f in product((t1, t2), repeat=3):
        ok &= check_triple_strictness(h, g, f, BUDGET).passed
    for g, f in product((t1, t2), repeat=2):
        ok &= check_triple_strictness(u, g, f, BUDGET).passed
    report_line(8, "both bracketings of composite laxators agree blockwise "
                   "on the collapse/truncation catalog", ok)


def test_acceptance_09_interchange_and_horizontal_strictness():
    ds = DistortedStructure(Q, NAT, NAT_UNIVERSE, symmetric_braiding(),
                            identity_unit())
    t1 = truncation_functor(ds, 1)
    t2 = truncation_functor(ds, 2)
    t3 = truncation_functor(ds, 3)
    eta = projection_transformation(t3, t2)
    theta = projection_transformation(t2, t1)
    phi = projection_transformation(t3, t2)
    psi = projection_transformation(t2, t1)
    id_u = identity_transformation(collapse_functor(ds))
    ok = check_interchange(eta, theta, phi, psi, BUDGET).passed
    ok &= check_horizontal_strictness(
        [[eta, theta, psi], [theta, psi, id_u]], BUDGET).passed
    # well-definedness: the two whiskering formulas agree componentwise
    for cell_phi, cell_theta in ((psi, theta), (id_u, theta), (phi, eta)):
        f1, f2 = cell_theta.source_functor, cell_theta.target_functor
        g1, g2 = cell_phi.source_functor, cell_phi.target_functor
        for x in ds.universe:
            a = compose(cell_phi.component(f2.obj(x)),
                        g1.mor(cell_theta.component(x)))
            b = compose(g2.mor(cell_theta.component(x)),
                        cell_phi.component(f1.obj(x)))
            ok &= a == b
    report_line(9, "interchange and horizontal strictness hold exactly on "
                   "the projection catalog, both whiskering formulas agree", ok)


def test_acceptance_10_invertibility_and_search():
    beta = koszul_braiding()
    twisted = invertibility_test(Q, twist(beta, parity_projector()),
                                 PARITY_UNIVERSE)
    odd = obj(PARITY, {1: 1})
    ok = not twisted.invertible_everywhere
    ok &= twisted.first_witness == (odd, odd)
    ok &= invertibility_test(Q, twist(beta, identity_idempotent()),
                             PARITY_UNIVERSE).invertible_everywhere
    search = search_structural_idempotents(Q, beta, PARITY_UNIVERSE, BUDGET)
    ok &= search.satisfying(("E0", "E1", "BL")) == [1]
    report_line(10, "the twisted distortion is non-invertible with witness "
                    "pair ({1:1}, {1:1}); only the identity idempotent "
                    "satisfies idempotency, normalization and sliding", ok)


def test_acceptance_11_determinism():
    first, ok_first = run_examples("json")
    second, ok_second = run_examples("json")
    ok = ok_first and ok_second and first == second
    reseeded, ok_reseeded = run_examples("json", seed=987654321)
    ok &= ok_reseeded  # every golden verdict still holds

    def verdicts(text):
        return [
            (c["axiom"], c["verdict"])
            for section in json.loads(text)["catalog"]
            for c in section["report"]["checks"]
        ]

    ok &= verdicts(first) == verdicts(reseeded)
    report_line(11, "builtin suite output is byte-identical across runs and "
                    "verdict-stable across seeds", ok)
