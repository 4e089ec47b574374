from fractions import Fraction

import pytest

from distmon import (
    DistortedStructure, NAT, check_horizontal_strictness, check_interchange,
    check_lambda_conjugation, check_monoidal, collapse_functor, compose,
    compose_lax, generate_universe, graded_character, graded_map,
    horizontal, identity, identity_functor, identity_transformation,
    identity_unit, projection_transformation, scalar_transformation,
    symmetric_braiding, truncation_functor, vertical,
)
from distmon.errors import StructureMismatch
from distmon.exactlin import elementary_maps
from distmon.fields import PrimeField
from distmon.reports import CheckBudget

from conftest import Q, obj

BUDGET = CheckBudget()
NAT_UNIVERSE = generate_universe(NAT, 2, 1, 2)


def make_ds(lam=None, field=Q):
    universe = NAT_UNIVERSE if field == Q else \
        generate_universe(NAT, 2, 1, 2)
    return DistortedStructure(field, NAT, universe, symmetric_braiding(),
                              lam or identity_unit())


def projection_stack(ds):
    t1 = truncation_functor(ds, 1)
    t2 = truncation_functor(ds, 2)
    t3 = truncation_functor(ds, 3)
    return t1, t2, t3


def cells_equal(a, b, universe):
    return all(a.component(x) == b.component(x) for x in universe)


# ---------------------------------------------------------------------------
# construction


def test_projection_between_equal_bounds_is_identity_cell():
    ds = make_ds()
    t1 = truncation_functor(ds, 1)
    t1b = truncation_functor(ds, 1)
    pi = projection_transformation(t1, t1b)
    for x in ds.universe:
        assert pi.component(x) == identity(Q, t1.obj(x))


def test_projection_requires_truncations_and_descending_bounds():
    ds = make_ds()
    t1, t2, _ = projection_stack(ds)
    with pytest.raises(StructureMismatch):
        projection_transformation(t1, t2)  # bound must not increase
    with pytest.raises(StructureMismatch):
        projection_transformation(identity_functor(ds), t1)


def test_projection_is_monoidal():
    ds = make_ds()
    t1, t2, _ = projection_stack(ds)
    pi = projection_transformation(t2, t1)
    assert check_monoidal(pi, BUDGET).passed


def test_projection_unit_axiom_directly():
    ds = make_ds()
    t1, t2, _ = projection_stack(ds)
    pi = projection_transformation(t2, t1)
    assert compose(pi.component(ds.unit), t2.mu0) == t1.mu0


def test_identity_cell_is_monoidal():
    ds = make_ds()
    assert check_monoidal(identity_transformation(collapse_functor(ds)),
                          BUDGET).passed


def test_cell_naturality_on_elementary_maps():
    # theta_{X'} o F(f) = G(f) o theta_X for every elementary map f; both
    # sides are linear in f, so this holds for every degree-preserving map
    ds = make_ds()
    t1, t2, _ = projection_stack(ds)
    pi = projection_transformation(t2, t1)
    for x in ds.universe:
        for y in ds.universe:
            for f in elementary_maps(Q, x, y):
                lhs = compose(pi.component(y), t2.mor(f))
                rhs = compose(t1.mor(f), pi.component(x))
                assert lhs == rhs


def test_scalar_cells_monoidal_iff_one():
    ds = make_ds()
    idf = identity_functor(ds)
    verdicts = {
        c: check_monoidal(scalar_transformation(idf, Q.parse(c)), BUDGET).verdict
        for c in ("0", "1", "2", "-1")
    }
    assert verdicts == {"0": "fail", "1": "pass", "2": "fail", "-1": "fail"}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_scalar_cells_over_prime_fields(p):
    field = PrimeField(p)
    ds = make_ds(field=field)
    idf = identity_functor(ds)
    passing = [
        c for c in range(p)
        if check_monoidal(scalar_transformation(idf, c), BUDGET).passed
    ]
    assert passing == [field.one]


# ---------------------------------------------------------------------------
# unit-distortion conjugation


def test_lambda_conjugation_for_projection():
    ds = make_ds(graded_character(Q.parse("2")))
    t1, t2, _ = projection_stack(ds)
    pi = projection_transformation(t2, t1)
    assert check_lambda_conjugation(pi, BUDGET).passed


def test_lambda_conjugation_identity_cell():
    ds = make_ds()
    assert check_lambda_conjugation(
        identity_transformation(truncation_functor(ds, 1)), BUDGET).passed


def test_lambda_conjugation_on_collapse_still_evaluates():
    # the collapse breaks strict unit-distortion compatibility for t != 1,
    # but the conjugation square of the identity cell on it still holds
    ds = make_ds(graded_character(Q.parse("2")))
    u = collapse_functor(ds)
    rep = check_lambda_conjugation(identity_transformation(u), BUDGET)
    assert rep.passed


# ---------------------------------------------------------------------------
# vertical composition


def test_vertical_unit_law():
    ds = make_ds()
    t1, t2, _ = projection_stack(ds)
    pi = projection_transformation(t2, t1)
    assert cells_equal(vertical(identity_transformation(t1), pi), pi,
                       ds.universe)
    assert cells_equal(vertical(pi, identity_transformation(t2)), pi,
                       ds.universe)


def test_vertical_projections_collapse_to_direct():
    ds = make_ds()
    t1, t2, t3 = projection_stack(ds)
    two_step = vertical(projection_transformation(t2, t1),
                        projection_transformation(t3, t2))
    direct = projection_transformation(t3, t1)
    assert cells_equal(two_step, direct, ds.universe)


def test_vertical_preserves_monoidal():
    ds = make_ds()
    t1, t2, t3 = projection_stack(ds)
    a = projection_transformation(t3, t2)
    b = projection_transformation(t2, t1)
    assert check_monoidal(a, BUDGET).passed
    assert check_monoidal(b, BUDGET).passed
    assert check_monoidal(vertical(b, a), BUDGET).passed


def test_vertical_requires_shared_functor():
    ds = make_ds()
    t1, t2, t3 = projection_stack(ds)
    with pytest.raises(StructureMismatch):
        vertical(projection_transformation(t3, t2),
                 projection_transformation(t2, t1))


# ---------------------------------------------------------------------------
# horizontal composition


def test_horizontal_whiskering_displays():
    ds = make_ds()
    t1, t2, _ = projection_stack(ds)
    pi = projection_transformation(t2, t1)
    u = collapse_functor(ds)
    id_u = identity_transformation(u)
    left = horizontal(id_u, pi)          # Id_U * pi
    for x in ds.universe:
        assert left.component(x) == u.mor(pi.component(x))
    id_t2 = identity_transformation(t2)
    right = horizontal(pi, id_t2)        # pi * Id_{tau2}
    for x in ds.universe:
        assert right.component(x) == pi.component(t2.obj(x))


def test_horizontal_well_definedness_both_formulas():
    ds = make_ds()
    t1, t2, _ = projection_stack(ds)
    theta = projection_transformation(t2, t1)
    phi = projection_transformation(t2, t1)
    out = horizontal(phi, theta)
    f1, f2 = theta.source_functor, theta.target_functor
    g1, g2 = phi.source_functor, phi.target_functor
    for x in ds.universe:
        a = compose(phi.component(f2.obj(x)), g1.mor(theta.component(x)))
        b = compose(g2.mor(theta.component(x)), phi.component(f1.obj(x)))
        assert a == b == out.component(x)


def test_horizontal_is_monoidal_across_collapse():
    ds = make_ds()
    t1, t2, _ = projection_stack(ds)
    pi = projection_transformation(t2, t1)
    id_u = identity_transformation(collapse_functor(ds))
    assert check_monoidal(horizontal(id_u, pi), BUDGET).passed


def test_horizontal_structure_mismatch():
    ds_a, ds_b = make_ds(), make_ds()
    pi_a = projection_transformation(*reversed(projection_stack(ds_a)[:2]))
    pi_b = projection_transformation(*reversed(projection_stack(ds_b)[:2]))
    with pytest.raises(StructureMismatch):
        horizontal(pi_b, pi_a)


def _corrupt_at(cell, target_obj):
    def component(x, _c=cell.component):
        m = _c(x)
        if x != target_obj or not m.blocks:
            return m
        blocks = {
            d: [[Q.mul(Fraction(2), v) for v in row] for row in block]
            for d, block in m.dense_blocks()
        }
        return graded_map(Q, m.source, m.target, blocks)
    return cell._replace(component=component)


def test_horizontal_rejects_non_natural_cell():
    # scaling one component only is not natural: the two whiskering
    # formulas hit the corrupted object on one side alone for any x whose
    # truncation collapses onto it
    ds = make_ds()
    t1, t2, _ = projection_stack(ds)
    pi = projection_transformation(t2, t1)
    broken = _corrupt_at(projection_transformation(t2, t1), obj(NAT, {1: 1}))
    assert obj(NAT, {1: 1, 2: 1}) in ds.universe
    with pytest.raises(StructureMismatch):
        horizontal(broken, pi)


# ---------------------------------------------------------------------------
# interchange


def test_interchange_identities():
    ds = make_ds()
    t1 = truncation_functor(ds, 1)
    u = collapse_functor(ds)
    id_t1 = identity_transformation(t1)
    id_u = identity_transformation(u)
    assert check_interchange(id_t1, id_t1, id_u, id_u, BUDGET).passed


def test_interchange_projection_chains():
    ds = make_ds()
    t1, t2, t3 = projection_stack(ds)
    eta = projection_transformation(t3, t2)
    theta = projection_transformation(t2, t1)
    phi = projection_transformation(t3, t2)
    psi = projection_transformation(t2, t1)
    rep = check_interchange(eta, theta, phi, psi, BUDGET)
    assert rep.passed
    # both sides are the straight-through projection
    lhs = horizontal(vertical(psi, phi), vertical(theta, eta))
    for x in ds.universe:
        m = lhs.component(x)
        assert m.source == compose_lax(t3, t3).obj(x)
        assert m.target == compose_lax(t1, t1).obj(x)


def test_interchange_detects_corrupted_component():
    # interchange holds by naturality of phi at theta_x; corrupting phi at
    # the truncated image of a mixed object breaks exactly that step
    ds = make_ds()
    t1, t2, t3 = projection_stack(ds)
    eta = projection_transformation(t3, t2)
    theta = projection_transformation(t2, t1)
    phi = _corrupt_at(projection_transformation(t2, t1), obj(NAT, {1: 1}))
    psi = projection_transformation(t1, t1)
    rep = check_interchange(eta, theta, phi, psi, BUDGET)
    assert rep.verdict == "fail"
    assert rep.witness is not None


# ---------------------------------------------------------------------------
# horizontal strictness


def test_horizontal_strictness_projection_catalog():
    ds = make_ds()
    t1, t2, t3 = projection_stack(ds)
    eta = projection_transformation(t3, t2)
    theta = projection_transformation(t2, t1)
    psi = projection_transformation(t2, t1)
    id_u = identity_transformation(collapse_functor(ds))
    rep = check_horizontal_strictness(
        [[eta, theta, psi], [theta, psi, id_u]], BUDGET)
    assert rep.passed


def test_horizontal_strictness_identity_heavy():
    ds = make_ds()
    t1 = truncation_functor(ds, 1)
    cells = [identity_transformation(t1)] * 3
    assert check_horizontal_strictness([cells], BUDGET).passed


def test_horizontal_strictness_mismatch_is_error():
    ds_a, ds_b = make_ds(), make_ds()
    t1a, t2a, _ = projection_stack(ds_a)
    t1b, t2b, _ = projection_stack(ds_b)
    chain = [
        projection_transformation(t2a, t1a),
        projection_transformation(t2b, t1b),
        projection_transformation(t2a, t1a),
    ]
    with pytest.raises(StructureMismatch):
        check_horizontal_strictness([chain], BUDGET)
    with pytest.raises(StructureMismatch):
        check_horizontal_strictness([[chain[0], chain[2]]], BUDGET)


def test_horizontal_strictness_fail_counts_the_instances_decided(monkeypatch):
    # Well-formed cells satisfy both laws, so a failure needs a cell whose
    # component changes between calls and a composite without the
    # construction gate.  A FAIL line counts (chain, object) and (cell,
    # law, object) instances up to the failing one, not whole chains.
    from distmon import transform
    monkeypatch.setattr(transform, "horizontal", transform._whisker)
    ds = make_ds()
    t1, t2, t3 = projection_stack(ds)
    target = ds.universe[3]

    def flaky(cell, bad_call):
        calls = []

        def component(x, _c=cell.component):
            m = _c(x)
            calls.append(x)
            if x != target or calls.count(x) != bad_call:
                return m
            return graded_map(Q, m.source, m.target, {
                d: [[Q.mul(Fraction(2), v) for v in row] for row in block]
                for d, block in m.dense_blocks()})
        return cell._replace(component=component)

    pi = projection_transformation(t2, t1)
    for bad_call, tuples, note in ((2, 4, "associativity"), (3, 10, "unit law"),
                                   (5, 16, "unit law")):
        cell = flaky(projection_transformation(t3, t2), bad_call)
        rep = check_horizontal_strictness([[cell, pi, pi]], BUDGET)
        assert rep.verdict == "fail"
        assert (rep.coverage.object_tuples, rep.coverage.note) == (tuples, note)
        assert rep.witness.objects == (target,)
