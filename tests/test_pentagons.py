"""The nested pentagon walks of ``check_base`` and ``check_lax_axioms``
against the ``product`` walks they replaced.

The references below build every whiskering and composite of every tuple,
as the checks did before they skipped the whiskerings of interned
identities and passed runs of held tuples to ``decide`` as one int.  On
universes with mixed dimensions, where some associators and laxators are
identities and others are not, both walks must give equal reports:
verdict, coverage, note and witness, maps included.  The caps end inside
runs of held tuples.
"""

from fractions import Fraction
from functools import cache
from itertools import product

import pytest

from distmon import (
    DistortedStructure, NAT, PARITY, check_base, check_lax_axioms,
    collapse_functor, compose_lax, generate_universe, graded_map,
    identity_functor, identity_unit, koszul_braiding, symmetric_braiding,
    truncation_functor,
)
from distmon import distortion
from distmon.exactlin import (
    associator, compose, identity, left_unitor, right_unitor, sort_universe,
    tensor_map, tensor_obj, unit_object,
)
from distmon.reports import CheckBudget, Phase, Side, decide

from conftest import Q, obj


def reference_base(field, universe, budget, assoc=None):
    assoc = assoc or associator
    objs = sort_universe(universe)
    unit = unit_object(objs[0].monoid)

    def triangles():
        for x, y in product(objs, repeat=2):
            lhs = compose(tensor_map(identity(field, x), left_unitor(field, y)),
                          assoc(field, x, unit, y))
            rhs = tensor_map(right_unitor(field, x), identity(field, y))
            yield (x, y), [Side(lhs, rhs)]

    def pentagons():
        for w, x, y, z in product(objs, repeat=4):
            p1 = compose(assoc(field, w, x, tensor_obj(y, z)),
                         assoc(field, tensor_obj(w, x), y, z))
            p2 = compose(tensor_map(identity(field, w), assoc(field, x, y, z)),
                         compose(assoc(field, w, tensor_obj(x, y), z),
                                 tensor_map(assoc(field, w, x, y), identity(field, z))))
            yield (w, x, y, z), [Side(p1, p2)]

    return decide("base", Phase(triangles(), note="triangle"),
                  Phase(pentagons(), budget.max_object_tuples, "pentagon"),
                  note="triangle pairs={} pentagon quadruples={}")


def reference_lax(func, budget):
    field = func.target.field
    src_unit = func.source.unit
    mu = cache(func.mu)

    def unit_sides(x):
        fx = func.obj(x)
        lhs = compose(func.mor(left_unitor(field, x)),
                      compose(mu(src_unit, x),
                              tensor_map(func.mu0, identity(field, fx))))
        yield Side(lhs, left_unitor(field, fx), note="left unit")
        lhs = compose(func.mor(right_unitor(field, x)),
                      compose(mu(x, src_unit),
                              tensor_map(identity(field, fx), func.mu0)))
        yield Side(lhs, right_unitor(field, fx), note="right unit")

    def pentagons():
        for x, y, z in product(func.source.universe, repeat=3):
            fx, fy, fz = func.obj(x), func.obj(y), func.obj(z)
            lhs = compose(
                func.mor(associator(field, x, y, z)),
                compose(mu(tensor_obj(x, y), z),
                        tensor_map(mu(x, y), identity(field, fz))))
            rhs = compose(
                mu(x, tensor_obj(y, z)),
                compose(tensor_map(identity(field, fx), mu(y, z)),
                        associator(field, fx, fy, fz)))
            yield (x, y, z), [Side(lhs, rhs, ((fx, fy), fz))]

    units = (((x,), unit_sides(x)) for x in func.source.universe)
    return decide("lax", Phase(units),
                  Phase(pentagons(), budget.max_object_tuples, "pentagon"),
                  note="unit objects={} pentagon triples={}")


NAT_MIXED = sort_universe(obj(NAT, t) for t in (
    {0: 1}, {1: 2}, {0: 1, 1: 1}, {0: 2, 1: 1}, {1: 1, 2: 2}, {0: 1, 2: 1}))
PARITY_MIXED = generate_universe(PARITY, 1, 2, 2)  # 8 objects, dims 1 and 2
CAPS = [1, 7, 50, 299, None]


def budget(cap):
    return CheckBudget() if cap is None else CheckBudget(max_object_tuples=cap)


def doubled(m):
    return graded_map(Q, m.source, m.target, {
        d: [[Q.mul(Fraction(2), v) for v in row] for row in block]
        for d, block in m.dense_blocks()})


def copied(m):
    """A value-equal map that is never the interned identity."""
    return graded_map(Q, m.source, m.target, dict(m.dense_blocks()))


def _is_identity(m):
    return m is identity(Q, m.source)


@pytest.mark.parametrize("universe", [NAT_MIXED, PARITY_MIXED],
                         ids=["nat", "parity"])
def test_both_kinds_of_associator_occur(universe):
    kinds = {_is_identity(associator(Q, *t)) for t in product(universe, repeat=3)}
    assert kinds == {True, False}


def _runs(universe, cap, monkeypatch, **kwargs):
    """The report of ``check_base`` and the pentagon items it passed to
    ``decide``, as ``int`` for a run and ``tuple`` for a quadruple."""
    seen = []

    def recording(axiom, triangles, pentagons, **kw):
        def items():
            for item in pentagons.instances:
                seen.append(item if item.__class__ is int else item[0])
                yield item
        return decide(axiom, triangles, pentagons._replace(instances=items()), **kw)

    monkeypatch.setattr(distortion, "decide", recording)
    return check_base(Q, universe, budget(cap), **kwargs), seen


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("universe", [NAT_MIXED, PARITY_MIXED],
                         ids=["nat", "parity"])
def test_base_matches_the_product_walk(universe, cap, monkeypatch):
    report, seen = _runs(universe, cap, monkeypatch)
    assert report == reference_base(Q, universe, budget(cap))
    assert report.passed
    assert any(s.__class__ is int for s in seen)
    # the walk looks ahead at most to the end of one innermost loop
    n = len(universe)
    assert sum(s if s.__class__ is int else 1 for s in seen) < (cap or n ** 4) + n


def test_a_cap_ends_inside_a_run(monkeypatch):
    # what the caps above rely on: each one cuts a run short
    _, seen = _runs(PARITY_MIXED, None, monkeypatch)
    runs, k = [], 0
    for s in seen:
        if s.__class__ is int:
            runs.append((k, k + s))
            k += s
        else:
            k += 1
    assert all(any(a < cap < b for a, b in runs) for cap in CAPS[:-1])


def _corrupt_assoc(bad_at, change):
    def assoc(field, x, y, z):
        a = associator(field, x, y, z)
        return change(a) if (x, y, z) == bad_at else a
    return assoc


def _base_hooks(universe):
    """An identity and a non-identity associator, each doubled and each
    replaced by a value-equal copy that is not interned."""
    triples = list(product(universe, repeat=3))
    ident = next(t for t in triples if _is_identity(associator(Q, *t))
                 and not all(o.dims == ((0, 1),) for o in t))
    other = next(t for t in triples if not _is_identity(associator(Q, *t)))
    return {f"{name}-{kind}": _corrupt_assoc(t, change)
            for name, t in (("identity", ident), ("permutation", other))
            for kind, change in (("doubled", doubled), ("copied", copied))}


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("universe", [NAT_MIXED, PARITY_MIXED],
                         ids=["nat", "parity"])
def test_base_with_an_assoc_hook_matches_the_product_walk(universe, cap):
    verdicts = set()
    for name, hook in _base_hooks(universe).items():
        report = check_base(Q, universe, budget(cap), assoc=hook)
        assert report == reference_base(Q, universe, budget(cap), assoc=hook), name
        verdicts.add(report.verdict)
        if name.endswith("copied"):
            assert report.passed, name
    if cap is None:
        assert verdicts == {"pass", "fail"}


def nat_ds(universe):
    return DistortedStructure(Q, NAT, universe, symmetric_braiding(), identity_unit())


def _functors():
    nat = nat_ds(NAT_MIXED)
    parity = DistortedStructure(Q, PARITY, PARITY_MIXED, koszul_braiding(),
                                identity_unit())
    t1 = truncation_functor(nat, 1)
    return {
        "nat-identity": identity_functor(nat),
        "nat-truncation-1": t1,
        "nat-truncation-2": truncation_functor(nat, 2),
        "nat-collapse": collapse_functor(nat),
        "nat-collapse-after-truncation": compose_lax(collapse_functor(nat), t1),
        "parity-identity": identity_functor(parity),
        "parity-collapse": collapse_functor(parity),
    }


FUNCTORS = _functors()


def _with_mu(func, change, at=None):
    def mu(x, y, _mu=func.mu):
        m = _mu(x, y)
        return change(m) if at is None or (x, y) == at else m
    return func._replace(mu=mu)


def _corrupted(func):
    """Variants of the functor: every laxator replaced by a value-equal copy
    that is not interned, and one nonzero laxator doubled, once an identity
    and once another, where the functor has them."""
    pairs = list(product(func.source.universe, repeat=2))
    kinds = {}
    for pair in pairs:
        m = func.mu(*pair)
        if m.blocks:
            kinds.setdefault(_is_identity(m), pair)
    out = {"copied": _with_mu(func, copied)}
    for ident, pair in kinds.items():
        out[f"doubled-{'identity' if ident else 'other'}"] = _with_mu(func, doubled, pair)
    return out


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("name", sorted(FUNCTORS))
def test_lax_matches_the_product_walk(name, cap):
    func = FUNCTORS[name]
    report = check_lax_axioms(func, budget(cap))
    assert report == reference_lax(func, budget(cap))
    assert report.passed
    for kind, bad in _corrupted(func).items():
        report = check_lax_axioms(bad, budget(cap))
        assert report == reference_lax(bad, budget(cap)), kind
        if kind == "copied":
            assert report.passed


def test_laxators_of_both_kinds_occur():
    kinds = {_is_identity(f.mu(x, y))
             for f in FUNCTORS.values() for x, y in product(f.source.universe, repeat=2)}
    assert kinds == {True, False}
    verdicts = {check_lax_axioms(bad, CheckBudget()).verdict
                for f in FUNCTORS.values() for bad in _corrupted(f).values()}
    assert verdicts == {"pass", "fail"}
