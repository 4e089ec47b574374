from fractions import Fraction
from itertools import product

import pytest

from distmon import (
    DistortedStructure, GradedObject, NAT, PARITY, check_lax_axioms,
    check_laxator_naturality, check_SLambda, check_Ssigma,
    check_triple_strictness, collapse_functor, compose, compose_lax,
    generate_universe, graded_character, graded_map, identity,
    identity_functor, identity_unit, koszul_braiding, symmetric_braiding,
    tensor_obj, truncation_functor,
)
from distmon.errors import MonoidMismatch, StructureMismatch
from distmon.exactlin import elementary_maps
from distmon.reports import CheckBudget

from conftest import Q, obj

BUDGET = CheckBudget()
NAT_UNIVERSE = generate_universe(NAT, 2, 1, 2)


def nat_ds(lam=None, sigma=None):
    return DistortedStructure(Q, NAT, NAT_UNIVERSE, sigma or symmetric_braiding(),
                              lam or identity_unit())


def scaled(field, m, factor):
    return graded_map(field, m.source, m.target, {
        d: [[field.mul(factor, v) for v in row] for row in block]
        for d, block in m.dense_blocks()
    })


# ---------------------------------------------------------------------------
# identity functor


def test_identity_functor_passes_all_axioms():
    f = identity_functor(nat_ds())
    assert check_lax_axioms(f, BUDGET).passed
    assert check_SLambda(f, BUDGET).passed
    assert check_Ssigma(f, BUDGET).passed


def test_identity_is_unit_for_composition():
    ds = nat_ds()
    t1 = truncation_functor(ds, 1)
    for composite in (compose_lax(identity_functor(ds), t1),
                      compose_lax(t1, identity_functor(ds))):
        for x, y in product(ds.universe, repeat=2):
            assert composite.mu(x, y) == t1.mu(x, y)
        assert composite.mu0 == t1.mu0


# ---------------------------------------------------------------------------
# truncation


def test_truncation_object_map():
    ds = nat_ds()
    t1 = truncation_functor(ds, 1)
    assert t1.obj(obj(NAT, {0: 1, 1: 1, 2: 1})) == obj(NAT, {0: 1, 1: 1})
    assert t1.obj(obj(NAT, {2: 1})) == GradedObject(NAT, ())


def test_truncation_needs_nat():
    parity_ds = DistortedStructure(Q, PARITY, generate_universe(PARITY, 1, 1, 1),
                                   symmetric_braiding(), identity_unit())
    with pytest.raises(MonoidMismatch):
        truncation_functor(parity_ds, 1)


def test_truncation_laxator_shape():
    # X = Y = {0:1, 1:1}, bound 1: identity below the bound, nothing above
    ds = nat_ds()
    t1 = truncation_functor(ds, 1)
    x = obj(NAT, {0: 1, 1: 1})
    m = t1.mu(x, x)
    assert m.source == tensor_obj(x, x)      # degrees 0, 1, 2 survive tensoring
    assert m.target == obj(NAT, {0: 1, 1: 2})
    assert m.block(0) == ((1,),)
    assert len(m.block(1)) == 2
    assert m.block(2) is None                # degree 2 is unreached


def test_truncation_passes_axioms_with_character():
    ds = nat_ds(lam=graded_character(Q.parse("2")))
    t1 = truncation_functor(ds, 1)
    assert check_lax_axioms(t1, BUDGET).passed
    assert check_SLambda(t1, BUDGET).passed
    assert check_Ssigma(t1, BUDGET).passed


def test_corrupted_laxator_fails_pentagon():
    ds = nat_ds()
    t1 = truncation_functor(ds, 1)
    target_pair = (obj(NAT, {0: 1, 1: 1}), obj(NAT, {1: 1}))

    def bad_mu(x, y, _mu=t1.mu):
        m = _mu(x, y)
        if (x, y) == target_pair and m.blocks:
            return scaled(Q, m, Fraction(2))
        return m

    broken = t1._replace(mu=bad_mu)
    rep = check_lax_axioms(broken, BUDGET)
    assert rep.verdict == "fail"
    assert rep.witness is not None


def test_each_laxator_is_built_once_per_check():
    """The lax axioms, Ssigma and laxator naturality look laxators up in a
    table local to one check: each mu(X, Y) is built once per call, and
    again by the next call, so no functor keeps the table."""
    t1 = truncation_functor(nat_ds(), 1)
    built = []

    def counting_mu(x, y, _mu=t1.mu):
        built.append((x, y))
        return _mu(x, y)

    counted = t1._replace(mu=counting_mu)
    for check in (check_lax_axioms, check_Ssigma, check_laxator_naturality):
        for _ in range(2):
            built.clear()
            assert check(counted, BUDGET).passed
            assert len(built) == len(set(built)) > 0


# ---------------------------------------------------------------------------
# collapse


def test_collapse_object_and_morphism():
    ds = nat_ds()
    u = collapse_functor(ds)
    x = obj(NAT, {0: 1, 1: 1, 2: 1})
    assert u.obj(x) == obj(u.target.monoid, {0: 3})
    f = graded_map(Q, x, x, {0: [[Fraction(2)]], 2: [[Fraction(3)]]})
    total = u.mor(f)
    assert total.block(0) == (
        (Fraction(2), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(3)),
    )


def test_collapse_of_an_interned_identity_is_the_interned_identity():
    u = collapse_functor(nat_ds())
    for x in NAT_UNIVERSE + (obj(NAT, {0: 2, 1: 1, 2: 3}),):
        assert u.mor(identity(Q, x)) is identity(Q, u.obj(x))
    x = obj(NAT, {0: 2, 1: 1})
    copy = graded_map(Q, x, x, dict(identity(Q, x).dense_blocks()))
    assert copy is not identity(Q, x)
    assert u.mor(copy) == identity(Q, u.obj(x))
    assert u.mor(copy) is not identity(Q, u.obj(x))


def _oracle_collapse_permutation(x, y):
    """Brute-force layout match: concatenated-blockwise source order against
    the degree-sorted tensor order."""
    xpos, p = {}, 0
    for d, k in x.dims:
        for a in range(k):
            xpos[(d, a)] = p
            p += 1
    ypos, p = {}, 0
    for d, k in y.dims:
        for b in range(k):
            ypos[(d, b)] = p
            p += 1
    xy = tensor_obj(x, y)
    target = []
    for n in xy.degrees:
        for i, j in [(i, j) for i in x.degrees for j in y.degrees if i + j == n]:
            for a in range(x.dim(i)):
                for b in range(y.dim(j)):
                    target.append((i, j, a, b))
    dy = y.total_dim
    size = x.total_dim * dy
    rows = [[Fraction(0)] * size for _ in range(size)]
    for r, (i, j, a, b) in enumerate(target):
        rows[r][xpos[(i, a)] * dy + ypos[(j, b)]] = Fraction(1)
    return tuple(tuple(r) for r in rows)


def test_collapse_laxator_is_layout_permutation():
    ds = nat_ds()
    u = collapse_functor(ds)
    x, y = obj(NAT, {0: 1, 1: 1}), obj(NAT, {0: 1, 2: 1})
    got = u.mu(x, y).block(0)
    assert got == _oracle_collapse_permutation(x, y)
    # frozen: source order (0,0),(0,2),(1,0),(1,2) resorts to total-degree
    # order (0,0),(1,0),(0,2),(1,2) -- the middle two swap
    expected = (
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
    )
    assert got == tuple(tuple(Fraction(v) for v in row) for row in expected)


def test_collapse_passes_lax_axioms():
    u = collapse_functor(nat_ds())
    assert check_lax_axioms(u, BUDGET).passed


def test_collapse_SLambda_depends_on_character():
    z = obj(NAT, {1: 1})
    rep = check_SLambda(collapse_functor(nat_ds(graded_character(Q.parse("2")))),
                        BUDGET)
    assert rep.verdict == "fail"
    assert rep.witness.objects == (z,)
    assert rep.witness.left_value == Fraction(2)
    assert rep.witness.right_value == Fraction(1)
    rep = check_SLambda(collapse_functor(nat_ds(graded_character(Q.one))), BUDGET)
    assert rep.passed


def test_collapse_Ssigma_symmetric_passes():
    assert check_Ssigma(collapse_functor(nat_ds()), BUDGET).passed


def test_collapse_Ssigma_koszul_source_fails_with_sign():
    parity_universe = generate_universe(PARITY, 1, 1, 2)
    ds = DistortedStructure(Q, PARITY, parity_universe, koszul_braiding(),
                            identity_unit())
    u = collapse_functor(ds)
    rep = check_Ssigma(u, BUDGET)
    assert rep.verdict == "fail"
    odd = obj(PARITY, {1: 1})
    assert rep.witness.objects == (odd, odd)
    assert rep.witness.left_value == Fraction(-1)
    assert rep.witness.right_value == Fraction(1)
    # the sign shows on the mixed object too, in its odd-odd entry
    mixed = obj(PARITY, {0: 1, 1: 1})
    lhs = compose(u.mor(ds.sigma_map(mixed, mixed)), u.mu(mixed, mixed))
    rhs = compose(u.mu(mixed, mixed),
                  u.target.sigma_map(u.obj(mixed), u.obj(mixed)))
    diffs = {
        (r, c)
        for r in range(4) for c in range(4)
        if lhs.block(0)[r][c] != rhs.block(0)[r][c]
    }
    # the odd-odd source column lands on the odd-odd slot of U(X (x) Y),
    # which the laxator layout puts at row 1 (degree-0 summands first)
    assert diffs == {(1, 3)}
    assert lhs.block(0)[1][3] == Fraction(-1)
    assert rhs.block(0)[1][3] == Fraction(1)


# ---------------------------------------------------------------------------
# composition


def test_composite_laxator_formula():
    ds = nat_ds()
    t1, t2 = truncation_functor(ds, 1), truncation_functor(ds, 2)
    composite = compose_lax(t1, t2)
    for x, y in product(ds.universe, repeat=2):
        direct = compose(t1.mor(t2.mu(x, y)), t1.mu(t2.obj(x), t2.obj(y)))
        assert composite.mu(x, y) == direct
        # tau1 after tau2 projects exactly like tau1 alone
        assert composite.mu(x, y) == t1.mu(x, y)
    assert composite.mu0 == t1.mu0


def test_composite_passes_axioms():
    ds = nat_ds()
    t1 = truncation_functor(ds, 1)
    u = collapse_functor(ds)
    composite = compose_lax(u, t1)
    assert check_lax_axioms(composite, BUDGET).passed
    assert check_SLambda(composite, BUDGET).passed
    assert check_Ssigma(composite, BUDGET).passed


def test_composition_preserves_verdicts_on_catalog():
    ds = nat_ds()
    t1, t2 = truncation_functor(ds, 1), truncation_functor(ds, 2)
    u = collapse_functor(ds)
    checks = (check_lax_axioms, check_SLambda, check_Ssigma)
    for g, f in ((t1, t2), (u, t1), (u, t2)):
        assert all(chk(g, BUDGET).passed and chk(f, BUDGET).passed
                   for chk in checks)
        composite = compose_lax(g, f)
        for chk in checks:
            assert chk(composite, BUDGET).passed


def test_compose_lax_requires_matching_structures():
    ds_a, ds_b = nat_ds(), nat_ds()
    with pytest.raises(StructureMismatch):
        compose_lax(truncation_functor(ds_a, 1), truncation_functor(ds_b, 1))


def test_compose_lax_is_memoized():
    ds = nat_ds()
    t1, t2 = truncation_functor(ds, 1), truncation_functor(ds, 2)
    assert compose_lax(t1, t2) is compose_lax(t1, t2)


def test_functoriality_of_morphism_maps():
    ds = nat_ds()
    x, y, z = ds.universe[3], ds.universe[4], ds.universe[5]
    for func in (truncation_functor(ds, 1), collapse_functor(ds)):
        assert func.mor(identity(Q, x)) == identity(Q, func.obj(x))
        for f, g in product(elementary_maps(Q, x, y), elementary_maps(Q, y, z)):
            assert func.mor(compose(g, f)) == compose(func.mor(g), func.mor(f))


def _entries(m):
    """Nonzero entries {(degree, row, col): value} of a map's dense blocks."""
    return {(d, r, c): v for d, rows in m.dense_blocks()
            for r, row in enumerate(rows) for c, v in enumerate(row) if v}


def test_morphism_maps_are_linear():
    # the premise of deciding naturality on elementary maps: F.mor of a map
    # is the sum of F.mor of its basis maps, weighted by its entries
    ds = nat_ds()
    t1 = truncation_functor(ds, 1)
    u = collapse_functor(ds)
    for func in (identity_functor(ds), t1, u, compose_lax(u, t1)):
        for x, y in product(ds.universe, repeat=2):
            basis = elementary_maps(Q, x, y)
            f = graded_map(Q, x, y, {
                d: [[Fraction(2 + r + 3 * c, 1 + d) for c in range(k)]
                    for r in range(y.dim(d))]
                for d, k in x.dims if y.dim(d)})
            coeffs = _entries(f)
            assert len(coeffs) == len(basis)
            combined: dict = {}
            for e in basis:
                (spot,) = _entries(e)
                for key, v in _entries(func.mor(e)).items():
                    combined[key] = combined.get(key, 0) + coeffs[spot] * v
            assert {k: v for k, v in combined.items() if v} == \
                _entries(func.mor(f))


def test_laxator_naturality_counts_zero_hom_quadruples_without_maps():
    # of the 16 quadruples over {0:1}, {1:1}, only the 4 with X = X' and
    # Y = Y' have a nonzero Hom space, each with one basis pair
    a, b = obj(NAT, {0: 1}), obj(NAT, {1: 1})
    ds = DistortedStructure(Q, NAT, [a, b], symmetric_braiding(), identity_unit())
    for func in (identity_functor(ds), truncation_functor(ds, 0)):
        for cap, counts in ((2, (2, 1)), (16, (16, 4))):
            cov = check_laxator_naturality(
                func, CheckBudget(max_object_tuples=cap)).coverage
            assert (cov.object_tuples, cov.sampled_maps) == counts


def test_laxator_naturality():
    ds = nat_ds()
    small = CheckBudget(max_object_tuples=60)
    for func in (identity_functor(ds), truncation_functor(ds, 1),
                 collapse_functor(ds)):
        assert check_laxator_naturality(func, small).passed


# ---------------------------------------------------------------------------
# strictness of triple composition


def test_triple_strictness_on_collapse_chain():
    ds = nat_ds()
    t1, t2 = truncation_functor(ds, 1), truncation_functor(ds, 2)
    u = collapse_functor(ds)
    assert check_triple_strictness(u, t1, t2, BUDGET).passed


def test_triple_strictness_identities():
    ds = nat_ds()
    i = identity_functor(ds)
    assert check_triple_strictness(i, i, i, BUDGET).passed


def test_triple_strictness_detects_corruption():
    ds = nat_ds()
    t1, t2 = truncation_functor(ds, 1), truncation_functor(ds, 2)
    u = collapse_functor(ds)

    def corrupting_compose(g, f):
        composite = compose_lax(g, f)
        if f.info[0] == "composite":
            # corrupt only the H(GF) bracketing
            return composite._replace(
                mu=lambda x, y: scaled(Q, composite.mu(x, y), Fraction(2)))
        return composite

    rep = check_triple_strictness(u, t1, t2, BUDGET,
                                  compose_fn=corrupting_compose)
    assert rep.verdict == "fail"
