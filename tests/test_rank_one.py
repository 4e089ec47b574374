"""The rank-one route against the two composites it stands in for.

D1, E0's naturality half and ``laxator_naturality`` decide each pair of
elementary basis maps with ``exactlin.RankOne``, and build the composites
only for a pair it finds unequal.  These tests check, on every elementary
pair of each universe, that the kernel's verdict is ``first_difference``'s
on the composites, and that each check's whole report (verdict, tuples,
maps and witness) equals the one a loop that always builds the composites
gives.  The builtin functors' entry rules (``laxfun.Entrywise``) are
checked against the maps their ``mor`` builds, on every elementary map.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from distmon import (
    DistortedStructure, NAT, PARITY, PrimeField, check_D1,
    check_laxator_naturality, collapse_functor,
    compose_lax, generate_universe, graded_map, identity_functor,
    identity_unit, koszul_braiding, parity_projector, symmetric_braiding,
    tabulate_binary, tensor_obj, truncation_functor,
)
from distmon.distortion import (
    StructuralFamily, Tabulated, basis_quadruples, binaturality_phase,
)
from distmon.exactlin import (
    RankOne, compose, elementary_maps, entry, flip_map, identity, pair_decoder,
    GradedObject, block_map, sort_universe, tensor_map,
)
from distmon.errors import ObjectMismatch
from distmon.laxfun import Entrywise
from distmon.reports import CheckBudget, Phase, Side, decide, first_difference

from conftest import Q, obj

BUDGET = CheckBudget()
FP = PrimeField(2147483647)
PARITY_U = generate_universe(PARITY, 1, 1, 2)  # the catalog's parity universe
NAT_U = generate_universe(NAT, 2, 1, 2)        # the catalog's nat universe
FP_U = generate_universe(NAT, 2, 2, 1)         # naturality-fp's universe
DENSE_U = sort_universe([obj(NAT, {0: 2, 1: 2}), obj(NAT, {0: 2, 1: 1}),
                         obj(NAT, {0: 1, 1: 2})])  # the dense nat universe, k=2
ODD = obj(PARITY, {1: 1})


def doubled(m):
    return graded_map(Q, m.source, m.target, {
        d: [[Q.mul(Fraction(2), v) for v in row] for row in block]
        for d, block in m.dense_blocks()})


def dense_family(universe, flips, seed):
    """A tabulated family of dense maps, about half of the entries zero, so
    that rows and columns hold no, one or several entries."""
    rng = Random(seed)
    entries = {}
    for x, y in product(universe, repeat=2):
        src = tensor_obj(x, y)
        tgt = tensor_obj(y, x) if flips else src
        entries[(x, y)] = graded_map(Q, src, tgt, {
            d: [[Fraction(rng.choice((0, 0, 0, 1, 2, -1))) for _ in range(k)]
                for _ in range(tgt.dim(d))]
            for d, k in src.dims})
    return Tabulated(entries, f"dense{seed}")


def tabulated_sigma(universe):
    """test_failpaths' D1 fake: the symmetric flip, doubled at one pair."""
    fam = tabulate_binary(symmetric_braiding(), Q, product(universe, repeat=2))
    x = universe[1]
    fam.entries[(x, x)] = doubled(fam.entries[(x, x)])
    return fam


def tabulated_projector():
    """test_failpaths' E0 fake: the parity projector, the identity at (ODD, ODD)."""
    e = parity_projector()
    entries = {(x, y): e.at(Q, x, y) for x, y in product(PARITY_U, repeat=2)}
    entries[(ODD, ODD)] = identity(Q, tensor_obj(ODD, ODD))
    return Tabulated(entries)


SIGMA_11 = StructuralFamily(
    flip_map, lambda f, i, j: f.parse("2") if (i, j) == (1, 1) else f.one, "s11=2")

# (field, universe, family, flips, natural): D1's families flip, E0's do
# not; the fakes fail naturality on some pairs
FAMILIES = {
    "parity-symmetric": (Q, PARITY_U, symmetric_braiding(), True, True),
    "parity-koszul": (Q, PARITY_U, koszul_braiding(), True, True),
    "parity-tabulated-sigma": (Q, PARITY_U, tabulated_sigma(PARITY_U), True, False),
    "parity-dense-sigma": (Q, PARITY_U, dense_family(PARITY_U, True, 1), True, False),
    "parity-projector": (Q, PARITY_U, parity_projector(), False, True),
    "parity-tabulated-projector": (Q, PARITY_U, tabulated_projector(), False, False),
    "parity-dense-idempotent": (
        Q, PARITY_U, dense_family(PARITY_U, False, 2), False, False),
    "nat-symmetric": (Q, NAT_U, symmetric_braiding(), True, True),
    "nat-sigma11": (Q, NAT_U, SIGMA_11, True, True),
    "nat-dense-sigma": (Q, NAT_U, dense_family(NAT_U, True, 3), True, False),
    "fp-symmetric": (FP, FP_U, symmetric_braiding(), True, True),
    "dense-symmetric": (Q, DENSE_U, symmetric_braiding(), True, True),
    "dense-dense-sigma": (Q, DENSE_U, dense_family(DENSE_U, True, 4), True, False),
    "dense-dense-idempotent": (
        Q, DENSE_U, dense_family(DENSE_U, False, 5), False, False),
}


def _composites_phase(field, family_at, universe, flips):
    """Binaturality as it was decided before the rank-one route: both
    composites for every pair."""
    def instances():
        for (x, y, xp, yp), fs, gs in basis_quadruples(field, universe):
            if not (fs and gs):
                yield (x, y, xp, yp), ()
                continue
            m_src, m_tgt = family_at(x, y), family_at(xp, yp)
            decode = pair_decoder(x, y)
            yield (x, y, xp, yp), (
                Side(compose(tensor_map(g, f) if flips else tensor_map(f, g), m_src),
                     compose(m_tgt, tensor_map(f, g)), decode)
                for (f, *_), (g, *_) in product(fs, gs))

    return Phase(instances(), BUDGET.max_object_tuples, sampled=True)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_kernel_matches_first_difference_on_every_elementary_pair(name):
    field, universe, family, flips, natural = FAMILIES[name]
    ranks = RankOne(field)
    verdicts = Counter()
    for (x, y, xp, yp), fs, gs in basis_quadruples(field, universe):
        if not (fs and gs):
            continue
        m_src, m_tgt = family.at(field, x, y), family.at(field, xp, yp)
        for (f, _, ef, _), (g, _, eg, _) in product(fs, gs):
            fg = tensor_map(f, g)
            gf = tensor_map(g, f) if flips else fg
            e2 = ranks.tensor(ranks.layout(x, y), ranks.layout(xp, yp), ef, eg)
            e = (ranks.tensor(ranks.layout(y, x), ranks.layout(yp, xp), eg, ef)
                 if flips else e2)
            assert (e, e2) == (entry(gf), entry(fg))
            same = first_difference(compose(gf, m_src), compose(m_tgt, fg)) is None
            assert ranks.equal(e, m_src, e2, m_tgt) is same
            verdicts[same] += 1
    assert verdicts[True] > 0
    assert (verdicts[False] == 0) is natural


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_binaturality_report_matches_the_composites(name):
    field, universe, family, flips, natural = FAMILIES[name]

    def family_at(a, b):
        return family.at(field, a, b)

    axiom = "D1" if flips else "E0"
    report = decide(axiom, binaturality_phase(field, family_at, universe,
                                              BUDGET, flips))
    assert report == decide(axiom, _composites_phase(field, family_at,
                                                     universe, flips))
    assert report.passed is natural


# ---------------------------------------------------------------------------
# laxator naturality


def _nat_ds(field, universe):
    return DistortedStructure(field, NAT, universe, symmetric_braiding(),
                              identity_unit())


def _bad_mu(func):
    """``func`` with the nonzero laxators out of the first object doubled."""
    first = func.source.universe[0]

    def mu(x, y, _mu=func.mu):
        m = _mu(x, y)
        return doubled(m) if x is first and m.blocks else m
    return func._replace(mu=mu)


def _functors(field, universe):
    ds = _nat_ds(field, universe)
    t1, u = truncation_functor(ds, 1), collapse_functor(ds)
    out = {"Id": identity_functor(ds), "tau1": t1, "U": u,
           "U*tau1": compose_lax(u, t1)}
    if field is Q:
        out["tau1-bad-mu"] = _bad_mu(t1)
    return out


LAX_UNIVERSES = {"nat": (Q, NAT_U), "fp": (FP, FP_U), "dense": (Q, DENSE_U)}


def _laxator_composites(func):
    """``laxator_naturality`` as it was decided before the rank-one route."""
    field = func.source.field

    def quadruples():
        for (x, y, xp, yp), us, vs in basis_quadruples(
                field, func.source.universe, func.mor):
            if not (us and vs):
                yield (x, y, xp, yp), ()
                continue
            decode = pair_decoder(func.obj(x), func.obj(y))
            mu_xy, mu_p = func.mu(x, y), func.mu(xp, yp)
            yield (x, y, xp, yp), (
                Side(compose(mu_p, tensor_map(fu, fv)),
                     compose(func.mor(tensor_map(u, v)), mu_xy), decode)
                for (u, fu, *_), (v, fv, *_) in product(us, vs))

    return decide("laxator_naturality",
                  Phase(quadruples(), BUDGET.max_object_tuples, sampled=True))


def _entrywise_functors(field, universe):
    ds = _nat_ds(field, universe)
    t1, t2, t3 = (truncation_functor(ds, b) for b in (1, 2, 3))
    u = collapse_functor(ds)
    return {"Id": identity_functor(ds), "tau1": t1, "tau2": t2, "tau3": t3,
            "U": u, "U*tau1": compose_lax(u, t1), "tau1*tau2": compose_lax(t1, t2),
            "U*tau1*tau2": compose_lax(u, compose_lax(t1, t2))}


@pytest.mark.parametrize("universe", sorted(LAX_UNIVERSES))
def test_entry_rules_match_the_maps_on_every_elementary_map(universe):
    field, objs = LAX_UNIVERSES[universe]
    objects = sort_universe([*objs, *(tensor_obj(x, y)
                                      for x, y in product(objs, repeat=2))])
    maps = [(a, b, e) for a, b in product(objects, repeat=2)
            for e in elementary_maps(field, a, b)]
    assert maps
    for name, func in _entrywise_functors(field, objs).items():
        assert isinstance(func.mor, Entrywise), name
        for a, b, e in maps:
            fe = func.mor(e)
            assert func.mor.entry(a, b, entry(e)) == (fe.source, fe.target,
                                                      entry(fe)), name


@pytest.mark.parametrize("universe", sorted(LAX_UNIVERSES))
def test_laxator_kernel_matches_first_difference_on_every_elementary_pair(universe):
    field, objs = LAX_UNIVERSES[universe]
    for name, func in _functors(field, objs).items():
        ranks = RankOne(field)
        verdicts = Counter()
        for (x, y, xp, yp), us, vs in basis_quadruples(field, objs, func.mor):
            if not (us and vs):
                continue
            fx, fy, fxp, fyp = map(func.obj, (x, y, xp, yp))
            mu_xy, mu_p = func.mu(x, y), func.mu(xp, yp)
            for (u, fu, eu, _), (v, fv, ev, _) in product(us, vs):
                fuv = func.mor(tensor_map(u, v))
                e2 = ranks.tensor(ranks.layout(fx, fy), ranks.layout(fxp, fyp),
                                  eu, ev)
                assert e2 == entry(tensor_map(fu, fv))
                same = first_difference(compose(mu_p, tensor_map(fu, fv)),
                                        compose(fuv, mu_xy)) is None
                assert ranks.equal(entry(fuv), mu_xy, e2, mu_p) is same, name
                verdicts[same] += 1
        assert verdicts[True] > 0, name
        assert (verdicts[False] > 0) == name.endswith("bad-mu"), name


@pytest.mark.parametrize("universe", sorted(LAX_UNIVERSES))
def test_laxator_report_matches_the_composites(universe):
    field, objs = LAX_UNIVERSES[universe]
    for name, func in _functors(field, objs).items():
        assert (check_laxator_naturality(func, BUDGET)
                == _laxator_composites(func)), name


def test_an_image_with_two_entries_takes_the_composites():
    # tau1 whose morphism map sends each elementary endomorphism of a
    # two-degree object to that object's truncated identity: two entries,
    # and a functor that is not linear, so the square fails
    tau1 = truncation_functor(_nat_ds(Q, NAT_U), 1)
    two = [x for x in NAT_U if len(tau1.obj(x).dims) == 2]

    def mor(f, _mor=tau1.mor):
        if f.source is f.target and f.source in two and entry(f):
            return identity(Q, tau1.obj(f.source))
        return _mor(f)

    func = tau1._replace(mor=mor)
    assert two and entry(mor(identity(Q, two[0]))) is None
    report = check_laxator_naturality(func, BUDGET)
    assert report == _laxator_composites(func)
    assert report.verdict == "fail"


@pytest.mark.parametrize("composite", [False, True])
def test_a_replaced_morphism_map_drops_the_entry_rule(composite):
    # U, or U*tau1, with a linear morphism map that doubles every image:
    # the replacement keeps no rule, so each pair is decided from the
    # doubled maps, and the square fails on every pair with a nonzero side
    def functor(universe):
        funcs = _functors(Q, universe)
        func = funcs["U*tau1" if composite else "U"]
        return func._replace(mor=lambda f, _mor=func.mor: doubled(_mor(f)))

    func = functor(NAT_U)
    assert not isinstance(func.mor, Entrywise)
    report = check_laxator_naturality(func, BUDGET)
    assert report == _laxator_composites(func)
    assert report.verdict == "fail"
    witness = report.witness
    replay = check_laxator_naturality(functor(sort_universe(witness.objects)),
                                      BUDGET)
    assert replay.verdict == "fail"
    assert replay.witness.factor_degrees == witness.factor_degrees


@pytest.mark.parametrize("name", ["tau1-bad-mu", "doubled U"])
def test_each_laxator_pair_is_decided_by_one_kernel_call(name, monkeypatch):
    # the rule route (tau1 with doubled laxators) and the built-map route
    # (U with a doubled mor) both ask the kernel once per pair: each pair it
    # finds unequal becomes one Side marked unequal, with no second call
    import distmon.laxfun as laxfun
    funcs = _functors(Q, NAT_U)
    func = (funcs[name] if name in funcs else
            funcs["U"]._replace(mor=lambda f, _mor=funcs["U"].mor: doubled(_mor(f))))
    unequal, marked = [], []
    kernel, make_side = RankOne.equal, laxfun.Side

    def equal(self, *args):
        same = kernel(self, *args)
        unequal.extend(() if same else [args])
        return same

    def side(*args, **kw):
        marked.extend([kw] if kw.get("equal") is False else ())
        return make_side(*args, **kw)

    monkeypatch.setattr(RankOne, "equal", equal)
    monkeypatch.setattr(laxfun, "Side", side)
    assert check_laxator_naturality(func, BUDGET).verdict == "fail"
    assert unequal and len(unequal) == len(marked)


def test_a_kernel_that_disagrees_with_the_composites_is_an_internal_error(
        monkeypatch):
    monkeypatch.setattr(RankOne, "equal", lambda self, e, m, e2, n: False)
    ds = _nat_ds(Q, NAT_U)
    with pytest.raises(AssertionError, match="internal: rank-one route"):
        check_D1(ds, BUDGET)
    with pytest.raises(AssertionError, match="internal: rank-one route"):
        check_laxator_naturality(truncation_functor(ds, 1), BUDGET)


def test_entries_in_different_degrees_differ():
    # E and E' both at (0, 0) of their blocks, but in degrees 0 and 1
    x = obj(NAT, {0: 1, 1: 1})
    e, e2 = elementary_maps(Q, x, x)
    m = identity(Q, x)
    assert entry(e)[0] == 0 and entry(e2)[0] == 1
    assert first_difference(compose(e, m), compose(m, e2)) is not None
    assert not RankOne(Q).equal(entry(e), m, entry(e2), m)
    assert RankOne(Q).equal(entry(e), m, entry(e), m)


def test_family_maps_off_the_square_raise_as_the_composites_do():
    # one tabulated sigma map has the right blocks but a target with one
    # more degree: the kernel would read the same rows, so only the object
    # test sends its pairs to the composites, whose compose refuses it
    fam = tabulate_binary(symmetric_braiding(), Q, product(NAT_U, repeat=2))
    x, y = NAT_U[1], NAT_U[2]
    m = fam.entries[(x, y)]
    wider = GradedObject(NAT, m.target.dims + ((9, 1),))
    fam.entries[(x, y)] = block_map(Q, m.source, wider, dict(m.blocks))
    with pytest.raises(ObjectMismatch):
        check_D1(DistortedStructure(Q, NAT, NAT_U, fam, identity_unit()), BUDGET)


@pytest.mark.parametrize("kind", ["tau1", "U"])
def test_images_off_the_square_take_the_composites(kind):
    # a functor whose object map is the identity, while its morphism images
    # and laxators live on the truncated or collapsed objects: no pair fits
    # the layout of the objects the kernel would be given
    func = _functors(Q, NAT_U)[kind]
    func = func._replace(obj=lambda x: x)
    assert check_laxator_naturality(func, BUDGET) == _laxator_composites(func)


def test_laxators_off_the_square_raise_as_the_composites_do():
    # tau1 with laxators whose source has one more degree: the kernel would
    # read the same rows and columns, so only the object test sends the
    # pairs to the composites, whose compose refuses them
    tau1 = _functors(Q, NAT_U)["tau1"]

    def mu(x, y, _mu=tau1.mu):
        m = _mu(x, y)
        wider = GradedObject(NAT, m.source.dims + ((9, 1),))
        return block_map(Q, wider, m.target, dict(m.blocks))

    with pytest.raises(ObjectMismatch):
        check_laxator_naturality(tau1._replace(mu=mu), BUDGET)
