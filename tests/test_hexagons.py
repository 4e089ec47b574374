"""The nested walks of ``check_D3`` and of the cocycle checks against the
``product`` walks they replaced.

The references below build both hexagons, and both cocycle forms, of every
triple in product order, with every whiskering and composite built afresh,
as the checks did before they skipped interned-identity links and hoisted
each prefix's tensor and family map.  On universes with mixed dimensions,
where some flips, idempotents and associators are identities and others
are not, both walks must give equal reports: verdict, tuples, ``maps=``,
note and witness, maps included.  Tabulated families fail at the last
triple or at an early one, and a ``ComposedBinary`` idempotent takes the
route that shares no composite.
"""

from fractions import Fraction
from itertools import product

import pytest

from distmon import (
    DistortedStructure, NAT, PARITY, check_D3, check_idempotent_axiom,
    generate_universe, graded_map, identity_idempotent, identity_unit,
    koszul_braiding, parity_projector, symmetric_braiding,
)
from distmon import distortion
from distmon.distortion import (
    STRUCTURAL_NOTE, StructuralFamily, scalar_route, tabulate_binary,
)
from distmon.exactlin import (
    associator, associator_inv, compose, flip_map, identity, sort_universe,
    summand_scaling, tensor_map, tensor_obj,
)
from distmon.reports import CheckBudget, Phase, Side, decide
from distmon.twist import ComposedBinary

from conftest import Q, obj


def reference_D3(ds, budget):
    field, sigma = ds.field, ds.sigma

    def whiskered(w, a, b, left):
        m = sigma.at(field, a, b)
        return (tensor_map(identity(field, w), m) if left
                else tensor_map(m, identity(field, w)))

    def sides(x, y, z):
        hex1_rhs = compose(
            associator(field, z, x, y),
            compose(whiskered(y, x, z, False),
                    compose(associator_inv(field, x, z, y),
                            compose(whiskered(x, y, z, True),
                                    associator(field, x, y, z)))))
        hex2_rhs = compose(
            associator_inv(field, y, z, x),
            compose(whiskered(y, x, z, True),
                    compose(associator(field, y, x, z),
                            compose(whiskered(z, x, y, False),
                                    associator_inv(field, x, y, z)))))
        return [Side(sigma.at(field, tensor_obj(x, y), z), hex1_rhs, ((x, y), z)),
                Side(sigma.at(field, x, tensor_obj(y, z)), hex2_rhs, (x, (y, z)))]

    triples = ((t, sides(*t)) for t in product(ds.universe, repeat=3))
    note = agrees = None
    if sigma.structural:
        note = STRUCTURAL_NOTE
        agrees = scalar_route(field, ds.monoid, None,
                              lambda i, j: sigma.coefficient(field, i, j), ("H1", "H2"))
    return decide("D3", Phase(triples, budget.max_object_tuples),
                  note=note, agrees=agrees)


def reference_cocycle(field, e, axiom, universe, budget):
    objs = sort_universe(universe)

    def sides(x, y, z):
        idz, idx = identity(field, z), identity(field, x)
        pair = compose(e.at(field, tensor_obj(x, y), z),
                       tensor_map(e.at(field, x, y), idz))
        split = compose(tensor_map(idx, e.at(field, y, z)),
                        e.at(field, x, tensor_obj(y, z)))
        if axiom == "E2L_cocycle":
            al = associator(field, x, y, z)
            return [Side(compose(al, pair), compose(split, al), ((x, y), z))]
        alinv = associator_inv(field, x, y, z)
        return [Side(compose(pair, alinv), compose(alinv, split), (x, (y, z)))]

    triples = ((t, sides(*t)) for t in product(objs, repeat=3))
    note = agrees = None
    if e.structural:
        note = "structural scalar route cross-checked"
        agrees = scalar_route(field, objs[0].monoid,
                              lambda i, j: e.coefficient(field, i, j),
                              lambda i, j: field.one, (axiom,))
    return decide(axiom, Phase(triples, budget.max_object_tuples),
                  note=note, agrees=agrees)


NAT_MIXED = sort_universe(obj(NAT, t) for t in (
    {0: 1}, {1: 2}, {0: 1, 1: 1}, {0: 2, 1: 1}, {1: 1, 2: 2}, {0: 1, 2: 1}))
PARITY_MIXED = generate_universe(PARITY, 1, 2, 2)  # 8 objects, dims 1 and 2
UNIVERSES = {"nat": NAT_MIXED, "parity": PARITY_MIXED}
CAPS = [1, 7, 50, 299, None]
BUDGET = CheckBudget()


def budget(cap):
    return CheckBudget() if cap is None else CheckBudget(max_object_tuples=cap)


def closure_pairs(universe):
    """Every pair of objects a triple check asks a binary family for."""
    objs = {*universe, *(tensor_obj(x, y) for x, y in product(universe, repeat=2))}
    return list(product(sorted(objs, key=lambda o: (len(o.dims), o.dims)), repeat=2))


def doubled(m):
    return graded_map(Q, m.source, m.target, {
        d: [[Q.mul(Fraction(2), v) for v in row] for row in block]
        for d, block in m.dense_blocks()})


def copied(m):
    """A value-equal map that is never the interned identity."""
    return graded_map(Q, m.source, m.target, dict(m.dense_blocks()))


def tabulated(family, universe, change=None, at=None):
    """``family`` tabulated over the closure pairs of ``universe``, with
    ``change`` applied to the entry ``at`` (every entry when ``at`` is
    None)."""
    tab = tabulate_binary(family, Q, closure_pairs(universe))
    if change is not None:
        tab.entries = {key: change(m) if at is None or key == at else m
                       for key, m in tab.entries.items()}
    return tab


def s11_flip():
    """A structural flip that breaks both hexagons: 2 on X_1 (x) Y_1."""
    return StructuralFamily(
        flip_map, lambda f, i, j: f.parse("2") if (i, j) == (1, 1) else f.one, "s11=2")


def low_idempotent():
    """A nat idempotent and cocycle: one on the summands of degree <= 4,
    zero above, so neither zero nor the identity on the last triple."""
    return StructuralFamily(summand_scaling,
                            lambda f, i, j: f.one if i + j <= 4 else f.zero, "low")


def broken_cocycle():
    """A 0/1 summand scaling that is no cocycle: it kills X_0 (x) Y_1."""
    return StructuralFamily(summand_scaling,
                            lambda f, i, j: f.zero if (i, j) == (0, 1) else f.one,
                            "broken")


def _sigmas(name):
    universe = UNIVERSES[name]
    first, second, last = universe[0], universe[1], universe[-1]
    base = symmetric_braiding() if name == "nat" else koszul_braiding()
    return {
        "structural": base,
        "structural-failing": s11_flip(),
        "tabulated": tabulated(base, universe),
        "tabulated-copies": tabulated(base, universe, copied),
        "tabulated-last": tabulated(base, universe, doubled,
                                    (tensor_obj(last, last), last)),
        "tabulated-first": tabulated(base, universe, doubled,
                                     (tensor_obj(first, first), first)),
        "tabulated-second": tabulated(base, universe, doubled, (first, second)),
    }


def _idempotents(name):
    universe = UNIVERSES[name]
    first, second, last = universe[0], universe[1], universe[-1]
    base = low_idempotent() if name == "nat" else parity_projector()
    return {
        "structural": base,
        "structural-identity": identity_idempotent(),
        "structural-failing": broken_cocycle(),
        "tabulated": tabulated(base, universe),
        "tabulated-copies": tabulated(base, universe, copied),
        "tabulated-last": tabulated(base, universe, doubled,
                                    (tensor_obj(last, last), last)),
        "tabulated-early": tabulated(base, universe, doubled, (first, second)),
        "composed": ComposedBinary(identity_idempotent(), tabulated(base, universe)),
        "composed-failing": ComposedBinary(broken_cocycle(), base),
    }


def d3(universe, sigma, cap):
    ds = DistortedStructure(Q, universe[0].monoid, universe, sigma, identity_unit())
    return check_D3(ds, budget(cap)), reference_D3(ds, budget(cap))


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_D3_matches_the_product_walk(name, cap):
    universe = UNIVERSES[name]
    verdicts = set()
    for kind, sigma in _sigmas(name).items():
        report, reference = d3(universe, sigma, cap)
        assert report == reference, kind
        verdicts.add(report.verdict)
        if kind in ("structural", "tabulated", "tabulated-copies"):
            assert report.passed, kind
    if cap is None:
        assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_tabulated_flips_fail_where_they_are_changed(name):
    """The failing tables fail where the test means them to: at the last
    triple, after every other triple passed, and at the first."""
    universe = UNIVERSES[name]
    n = len(universe)
    first, last = universe[0], universe[-1]
    sigmas = _sigmas(name)
    report, _ = d3(universe, sigmas["tabulated-last"], None)
    assert report.witness.objects == (last, last, last)
    assert report.coverage.object_tuples == n ** 3
    report, _ = d3(universe, sigmas["tabulated-first"], None)
    assert report.witness.objects == (first, first, first)
    assert report.coverage.object_tuples == 1


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("axiom", ["E2L_cocycle", "E2R_cocycle"])
@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_cocycles_match_the_product_walk(name, axiom, cap):
    universe = UNIVERSES[name]
    verdicts = set()
    for kind, e in _idempotents(name).items():
        report = check_idempotent_axiom(Q, e, axiom, universe, budget(cap))
        assert report == reference_cocycle(Q, e, axiom, universe, budget(cap)), kind
        verdicts.add(report.verdict)
        if kind in ("structural", "structural-identity", "tabulated",
                    "tabulated-copies", "composed"):
            assert report.passed, kind
    if cap is None:
        assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("axiom", ["E2L_cocycle", "E2R_cocycle"])
@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_tabulated_idempotents_fail_where_they_are_changed(name, axiom):
    """At the last triple after every other passed, and at (F, F, G), the
    first triple that reads e(F, G) twice on one side: at (F, F, F) both
    forms are e(F, F) o e(F, F), whatever e(F, F) is."""
    universe = UNIVERSES[name]
    n = len(universe)
    first, second, last = universe[0], universe[1], universe[-1]
    es = _idempotents(name)
    report = check_idempotent_axiom(Q, es["tabulated-last"], axiom, universe, BUDGET)
    assert report.witness.objects == (last, last, last)
    assert report.coverage.object_tuples == n ** 3
    report = check_idempotent_axiom(Q, es["tabulated-early"], axiom, universe, BUDGET)
    assert report.witness.objects == (first, first, second)
    assert report.coverage.object_tuples == 2


def test_the_walks_compose_no_interned_identity(monkeypatch):
    """No ``compose`` call of D3 or of the cocycle checks gets an interned
    identity, although most of their associators and whiskerings are."""
    calls = []

    def counted(g, f):
        calls.append(any(m is m.source._identities.get(m.field) for m in (g, f)))
        return compose(g, f)

    monkeypatch.setattr(distortion, "compose", counted)
    for name, universe in UNIVERSES.items():
        for sigma in (symmetric_braiding() if name == "nat" else koszul_braiding(),
                      _sigmas(name)["tabulated-copies"]):
            d3(universe, sigma, None)
        for e in (_idempotents(name)["structural"], _idempotents(name)["composed"]):
            for axiom in ("E2L_cocycle", "E2R_cocycle"):
                check_idempotent_axiom(Q, e, axiom, universe, budget(None))
    assert calls and not any(calls)
