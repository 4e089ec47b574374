"""The rank-one route against the two composites it stands in for.

D1, E0's naturality half and ``laxator_naturality`` decide every pair of
elementary basis maps of an object quadruple in one
``exactlin.RankOne.settle`` call, from the entries of the basis maps and of
their images, build the maps and composites only for a pair it cannot
hold, and count each run of quadruples with a zero Hom space in one step.
These tests check, on every elementary pair of each universe, that
the kernel's verdict is ``first_difference``'s on the composites, and that
each check's whole report (verdict, tuples, maps and witness) equals the
one a loop that walks every quadruple and always builds the composites
gives, also under caps that end inside a run of vacuous quadruples, at the
first quadruple with a pair, and at a failing quadruple.  The builtin
functors' entry movers (``laxfun.Entrywise``) are checked against the maps
``mor`` builds, on every elementary map; a functor given another ``mor``
has a rule that moves no entry, so the composites decide its pairs.  A
square that holds builds no basis map.
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
    RankOne, compose, elementary, elementary_maps, flip_map, identity,
    GradedObject, block_map, sort_universe, summand_scaling, tensor_map,
)
from distmon.errors import ObjectMismatch
from distmon.laxfun import Entrywise, _entry_rule
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


def entry(m):
    """The one nonzero entry ``(degree, row, col, value)`` of an elementary
    map; ``()`` for the zero map and ``None`` for a map with more than one
    nonzero entry."""
    if not m.blocks:
        return ()
    if len(m.blocks) > 1:
        return None
    d, block = m.blocks[0]
    found = None
    for c, col in enumerate(block):
        if col:
            if found is not None or len(col) != 2:
                return None
            found = (d, col[0], c, col[1])
    return found


def doubled(m):
    return graded_map(Q, m.source, m.target, {
        d: [[Q.mul(Fraction(2), v) for v in row] for row in block]
        for d, block in m.dense_blocks()})


def dense_family(universe, flips, seed, field=Q):
    """A tabulated family of dense maps, about half of the entries zero, so
    that rows and columns hold no, one or several entries."""
    rng = Random(seed)
    entries = {}
    for x, y in product(universe, repeat=2):
        src = tensor_obj(x, y)
        tgt = tensor_obj(y, x) if flips else src
        entries[(x, y)] = graded_map(field, src, tgt, {
            d: [[field.from_int(rng.choice((0, 0, 0, 1, 2, -1))) for _ in range(k)]
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
# the projection of X (x) Y onto its summands of total degree at most 1
LOW = StructuralFamily(
    summand_scaling, lambda f, i, j: f.one if i + j <= 1 else f.zero, "low")

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
    "nat-tabulated-sigma": (Q, NAT_U, tabulated_sigma(NAT_U), True, False),
    "nat-low": (Q, NAT_U, LOW, False, True),
    "nat-dense-idempotent": (Q, NAT_U, dense_family(NAT_U, False, 6), False, False),
    "fp-symmetric": (FP, FP_U, symmetric_braiding(), True, True),
    "fp-dense-sigma": (FP, FP_U, dense_family(FP_U, True, 7, FP), True, False),
    "fp-low": (FP, FP_U, LOW, False, True),
    "fp-dense-idempotent": (FP, FP_U, dense_family(FP_U, False, 8, FP), False, False),
    "dense-symmetric": (Q, DENSE_U, symmetric_braiding(), True, True),
    "dense-dense-sigma": (Q, DENSE_U, dense_family(DENSE_U, True, 4), True, False),
    "dense-dense-idempotent": (
        Q, DENSE_U, dense_family(DENSE_U, False, 5), False, False),
}


def _quadruples(field, universe, image=lambda u: u):
    """Every object quadruple in canonical order, with the elementary bases
    of Hom(X, X') and Hom(Y, Y') as ``(u, image(u))`` pairs; a zero Hom
    space gives an empty basis."""
    bases = {}

    def basis(a, b):
        if (a, b) not in bases:
            bases[a, b] = [(u, image(u)) for u in elementary_maps(field, a, b)]
        return bases[a, b]

    for x, y, xp, yp in product(universe, repeat=4):
        yield (x, y, xp, yp), basis(x, xp), basis(y, yp)


def _composites_phase(field, family_at, universe, flips, cap=BUDGET.max_object_tuples):
    """Binaturality as it was decided before the rank-one route: each
    quadruple one instance, both composites for every pair."""
    def instances():
        for (x, y, xp, yp), fs, gs in _quadruples(field, universe):
            if not (fs and gs):
                yield (x, y, xp, yp), ()
                continue
            m_src, m_tgt = family_at(x, y), family_at(xp, yp)
            yield (x, y, xp, yp), (
                Side(compose(tensor_map(g, f) if flips else tensor_map(f, g), m_src),
                     compose(m_tgt, tensor_map(f, g)), (x, y))
                for (f, _), (g, _) in product(fs, gs))

    return Phase(instances(), cap, sampled=True)


def _with_pairs(field, universe, mover=None, obj=None):
    """The quadruples with a pair that ``basis_quadruples`` yields, each as
    ``(k, objects, us, vs)`` with k its position in canonical order."""
    k = 0
    for item in basis_quadruples(field, universe, lambda *q: q, mover, obj):
        if item.__class__ is int:
            k += item
        else:
            yield (k, *item[1])
            k += 1


def _settled(ranks, m, n, objects, images, us, vs, flip=False, mover=None):
    """The kernel's verdict on each pair of ``product(us[0], vs[0])``, in
    order: "holds", "unequal", or "off" (handed over without a verdict)."""
    out = []
    for item in ranks.settle(ranks.half(m, objects[:2], images[:2], flip),
                             ranks.half(n, objects[2:], images[2:], flip), us, vs,
                             lambda s, t, u, v, unequal: "unequal" if unequal else "off",
                             mover):
        out += ["holds"] * item if item.__class__ is int else [item]
    return out


def _boundary_caps(field, universe, failing):
    """Caps that end inside the first run of at least two quadruples with a
    zero Hom space, at and just after the first quadruple with a pair, and
    just before, at and just after each quadruple in ``failing``."""
    vacuous = {k for k, (_, fs, gs) in enumerate(_quadruples(field, universe))
               if not (fs and gs)}
    first = next(k for k, *_ in _with_pairs(field, universe))
    caps = {first + 1, first + 2}
    inside = [k + 1 for k in sorted(vacuous) if k + 1 in vacuous]
    caps |= set(inside[:1])
    for k in failing:
        caps |= {k, k + 1, k + 2}
    return sorted(caps), bool(inside)


def test_basis_quadruples_count_each_vacuous_run_whole():
    # every quadruple with a pair, at its position, with its bases; between
    # them, maximal runs that add up to the quadruples with a zero Hom space
    for field, universe in ((Q, PARITY_U), (Q, NAT_U), (FP, FP_U), (Q, DENSE_U)):
        want = [(k, objects, [u for u, _ in fs], [g for g, _ in gs])
                for k, (objects, fs, gs) in enumerate(_quadruples(field, universe))
                if fs and gs]
        got = []
        for k, objects, us, vs in _with_pairs(field, universe):
            x, y, xp, yp = objects
            assert us[1] is us[0] and vs[1] is vs[0]  # the identity's images
            got.append((k, objects, [elementary(field, x, xp, e) for e in us[0]],
                        [elementary(field, y, yp, e) for e in vs[0]]))
        assert got == want
        items = list(basis_quadruples(field, universe, lambda *q: q))
        kinds = [item.__class__ is int for item in items]
        assert not any(a and b for a, b in zip(kinds, kinds[1:]))
        runs = [item for item in items if item.__class__ is int]
        assert sum(runs) == len(universe) ** 4 - len(want)
        assert bool(runs) is (universe is not DENSE_U)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_kernel_matches_first_difference_on_every_elementary_pair(name):
    # the kernel holds exactly the pairs whose composites agree, so the
    # first pair it cannot hold is the first pair that fails
    field, universe, family, flips, natural = FAMILIES[name]
    ranks = RankOne(field)
    verdicts = Counter()
    for _, objects, fs, gs in _with_pairs(field, universe):
        x, y, xp, yp = objects
        m_src, m_tgt = family.at(field, x, y), family.at(field, xp, yp)
        want = []
        for f, g in product(elementary_maps(field, x, xp), elementary_maps(field, y, yp)):
            fg = tensor_map(f, g)
            gf = tensor_map(g, f) if flips else fg
            same = first_difference(compose(gf, m_src), compose(m_tgt, fg)) is None
            want.append("holds" if same else "unequal")
            verdicts[same] += 1
        assert _settled(ranks, m_src, m_tgt, objects, objects, fs, gs, flips) == want
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


# the dense universe has no quadruple with a zero Hom space
@pytest.mark.parametrize("name", sorted(n for n in FAMILIES if not n.startswith("dense-")))
def test_capped_binaturality_reports_match_the_composites(name):
    field, universe, family, flips, natural = FAMILIES[name]

    def family_at(a, b):
        return family.at(field, a, b)

    axiom = "D1" if flips else "E0"
    failing = [k for k, objects, fs, gs in _with_pairs(field, universe)
               if "unequal" in _settled(RankOne(field), family_at(*objects[:2]),
                                        family_at(*objects[2:]), objects, objects,
                                        fs, gs, flips)]
    assert bool(failing) is not natural
    caps, has_run = _boundary_caps(field, universe, failing[:2])
    assert has_run
    for cap in caps:
        report = decide(axiom, binaturality_phase(
            field, family_at, universe, CheckBudget(max_object_tuples=cap), flips))
        assert report == decide(axiom, _composites_phase(
            field, family_at, universe, flips, cap)), cap
        passed = cap <= min(failing, default=cap)
        assert report.passed is passed
        assert report.coverage.object_tuples == (cap if passed else failing[0] + 1)


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


def _laxator_composites(func, cap=BUDGET.max_object_tuples):
    """``laxator_naturality`` as it was decided before the rank-one route."""
    field = func.source.field

    def quadruples():
        for (x, y, xp, yp), us, vs in _quadruples(
                field, func.source.universe, func.mor):
            if not (us and vs):
                yield (x, y, xp, yp), ()
                continue
            factors = (func.obj(x), func.obj(y))
            mu_xy, mu_p = func.mu(x, y), func.mu(xp, yp)
            yield (x, y, xp, yp), (
                Side(compose(mu_p, tensor_map(fu, fv)),
                     compose(func.mor(tensor_map(u, v)), mu_xy), factors)
                for (u, fu), (v, fv) in product(us, vs))

    return decide("laxator_naturality", Phase(quadruples(), cap, sampled=True))


def _entrywise_functors(field, universe):
    ds = _nat_ds(field, universe)
    t1, t2, t3 = (truncation_functor(ds, b) for b in (1, 2, 3))
    u = collapse_functor(ds)
    return {"Id": identity_functor(ds), "tau1": t1, "tau2": t2, "tau3": t3,
            "U": u, "U*tau1": compose_lax(u, t1), "tau1*tau2": compose_lax(t1, t2),
            "U*tau1*tau2": compose_lax(u, compose_lax(t1, t2))}


@pytest.mark.parametrize("universe", sorted(LAX_UNIVERSES))
def test_entry_rules_match_the_maps_on_every_elementary_map(universe):
    # the builtin functors' movers against the maps they build: the objects
    # are mapped once per pair, and an image that leaves them has no entry;
    # a functor with a replaced (plain) morphism map gets a rule that maps
    # the objects by obj and moves no entry
    field, objs = LAX_UNIVERSES[universe]
    objects = sort_universe([*objs, *(tensor_obj(x, y)
                                      for x, y in product(objs, repeat=2))])
    maps = [(a, b, e) for a, b in product(objects, repeat=2)
            for e in elementary_maps(field, a, b)]
    assert maps
    for name, func in _entrywise_functors(field, objs).items():
        assert isinstance(func.mor, Entrywise), name
        mover = _entry_rule(func)
        plain = _entry_rule(func._replace(mor=lambda f, _mor=func.mor: _mor(f)))
        for a, b, e in maps:
            fa, fb, move = mover(a, b)
            assert (fa, fb) == (func.obj(a), func.obj(b)), name
            fe = func.mor(e)
            assert move(entry(e)) == (entry(fe) if (fe.source, fe.target) == (fa, fb)
                                      else None), name
            pa, pb, move = plain(a, b)
            assert (pa, pb) == (fa, fb) and move(entry(e)) is None, name


@pytest.mark.parametrize("universe", sorted(LAX_UNIVERSES))
def test_laxator_kernel_matches_first_difference_on_every_elementary_pair(universe):
    field, objs = LAX_UNIVERSES[universe]
    for name, func in _functors(field, objs).items():
        ranks = RankOne(field)
        verdicts = Counter()
        mover = _entry_rule(func)
        for _, objects, us, vs in _with_pairs(field, objs, mover, func.obj):
            x, y, xp, yp = objects
            mu_xy, mu_p = func.mu(x, y), func.mu(xp, yp)
            want = []
            for u, v in product(elementary_maps(field, x, xp),
                                elementary_maps(field, y, yp)):
                fu, fv = func.mor(u), func.mor(v)
                same = first_difference(compose(mu_p, tensor_map(fu, fv)),
                                        compose(func.mor(tensor_map(u, v)),
                                                mu_xy)) is None
                want.append("holds" if same else "unequal")
                verdicts[same] += 1
            images = tuple(map(func.obj, objects))
            assert _settled(ranks, mu_xy, mu_p, objects, images, us, vs,
                            mover=mover) == want, name
        assert verdicts[True] > 0, name
        assert (verdicts[False] > 0) == name.endswith("bad-mu"), name


@pytest.mark.parametrize("universe", sorted(LAX_UNIVERSES))
def test_laxator_report_matches_the_composites(universe):
    field, objs = LAX_UNIVERSES[universe]
    for name, func in _functors(field, objs).items():
        assert (check_laxator_naturality(func, BUDGET)
                == _laxator_composites(func)), name


@pytest.mark.parametrize("universe", ["nat", "fp"])
def test_capped_laxator_reports_match_the_composites(universe):
    field, objs = LAX_UNIVERSES[universe]
    for name, func in _functors(field, objs).items():
        first_fail = _laxator_composites(func).coverage.object_tuples
        failing = [first_fail - 1] if name.endswith("bad-mu") else []
        caps, has_run = _boundary_caps(field, objs, failing)
        assert has_run
        for cap in caps:
            report = check_laxator_naturality(func, CheckBudget(max_object_tuples=cap))
            assert report == _laxator_composites(func, cap), (name, cap)
            passed = not (failing and cap > failing[0])
            assert report.passed is passed, (name, cap)
            assert report.coverage.object_tuples == (cap if passed else failing[0] + 1)


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
    # the rule route (tau1 with doubled laxators) and a functor without a
    # rule (U with a doubled mor) both ask the kernel once per quadruple,
    # and the kernel accounts for each pair once: the pairs it holds and
    # hands over add up to maps=.  With a rule, each pair it finds unequal
    # becomes one Side marked unequal, with no second verdict; without
    # one, it hands every pair over, once, and marks none unequal
    import distmon.laxfun as laxfun
    funcs = _functors(Q, NAT_U)
    func = (funcs[name] if name in funcs else
            funcs["U"]._replace(mor=lambda f, _mor=funcs["U"].mor: doubled(_mor(f))))
    calls, pairs, handed, unequal, marked = [], [], [], [], []
    kernel, make_side = RankOne.settle, laxfun.Side

    def settle(self, source, target, us, vs, unsettled, *args, **kw):
        objects = source[1] + target[1]  # each half names its object pair
        calls.append(objects)

        def hand_over(s, t, u, v, is_unequal):
            handed.append((objects, u, v))
            unequal.extend([(objects, u, v)] if is_unequal else ())
            return unsettled(s, t, u, v, is_unequal)

        for item in kernel(self, source, target, us, vs, hand_over, *args, **kw):
            pairs.append(item if item.__class__ is int else 1)
            yield item

    def side(*args, **kw):
        marked.extend([kw] if kw.get("equal") is False else ())
        return make_side(*args, **kw)

    monkeypatch.setattr(RankOne, "settle", settle)
    monkeypatch.setattr(laxfun, "Side", side)
    report = check_laxator_naturality(func, BUDGET)
    assert report.verdict == "fail"
    assert len(calls) == len(set(calls))
    assert sum(pairs) == report.coverage.sampled_maps
    if name in funcs:
        assert unequal and len(unequal) == len(marked)
    else:
        assert not unequal and not marked
        assert len(handed) == len(set(handed)) == report.coverage.sampled_maps


def _count_elementary(monkeypatch):
    """The (source, target) of every elementary map built from here on,
    through any ``distmon`` module that binds ``elementary``."""
    import sys
    import distmon.exactlin as exactlin
    built, real = [], exactlin.elementary

    def counted(field, source, target, e):
        built.append((source, target))
        return real(field, source, target, e)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "distmon"
               and getattr(m, "elementary", None) is real]
    assert {m.__name__ for m in modules} >= {"distmon.exactlin", "distmon.distortion",
                                             "distmon.laxfun"}
    for module in modules:
        monkeypatch.setattr(module, "elementary", counted)
    return built


def test_a_square_that_holds_builds_no_basis_map(monkeypatch):
    # naturality-fp's checks hold on every pair from entries alone; the
    # parent of the entry tables built 27 basis maps per check
    funcs = _functors(FP, FP_U)
    built = _count_elementary(monkeypatch)
    reports = [check_D1(_nat_ds(FP, FP_U), BUDGET)] + [
        check_laxator_naturality(funcs[name], BUDGET) for name in ("tau1", "U", "U*tau1")]
    assert [(r.verdict, r.coverage.sampled_maps) for r in reports] == [("pass", 729)] * 4
    assert built == []


def test_only_the_pairs_handed_over_build_maps(monkeypatch):
    # tau1 with doubled laxators: the kernel hands over the unequal pair,
    # whose composites build u and v, and nothing else builds a map
    func = _functors(Q, NAT_U)["tau1-bad-mu"]
    handed, kernel = [], RankOne.settle

    def settle(self, source, target, us, vs, unsettled, *args, **kw):
        def hand_over(s, t, u, v, unequal):
            (x, y), (xp, yp) = s[1], t[1]  # each half names its object pair
            handed.extend([(x, xp), (y, yp)])
            return unsettled(s, t, u, v, unequal)
        return kernel(self, source, target, us, vs, hand_over, *args, **kw)

    monkeypatch.setattr(RankOne, "settle", settle)
    built = _count_elementary(monkeypatch)
    assert check_laxator_naturality(func, BUDGET).verdict == "fail"
    assert handed and built == handed


def test_a_kernel_that_disagrees_with_the_composites_is_an_internal_error(
        monkeypatch):
    def unequal_everywhere(self, source, target, us, vs, unsettled, *args, **kw):
        for u, v in product(us[0], vs[0]):
            yield unsettled(source, target, u, v, True)

    monkeypatch.setattr(RankOne, "settle", unequal_everywhere)
    ds = _nat_ds(Q, NAT_U)
    with pytest.raises(AssertionError, match="internal: rank-one route"):
        check_D1(ds, BUDGET)
    with pytest.raises(AssertionError, match="internal: rank-one route"):
        check_laxator_naturality(truncation_functor(ds, 1), BUDGET)


def test_entries_in_different_degrees_differ():
    # E' = u (x) id_I is at (0, 0) of degree 0 or 1 of X = {0:1, 1:1}, and
    # M = N = id: a rule that moves E to the same place in the other degree
    # makes both pairs unequal, and the identity rule holds both
    x, unit = obj(NAT, {0: 1, 1: 1}), obj(NAT, {0: 1})
    m = identity(Q, x)
    e, e2 = elementary_maps(Q, x, x)
    us = [entry(e), entry(e2)]
    vs = [entry(v) for v in elementary_maps(Q, unit, unit)]
    us, vs = (us, us), (vs, vs)  # entry tables, with the identity's images
    quadruple = (x, unit, x, unit)
    assert entry(e)[0] == 0 and entry(e2)[0] == 1
    assert first_difference(compose(e, m), compose(m, e2)) is not None

    def moved(a, b):
        return a, b, lambda e: (1 - e[0], *e[1:])

    assert _settled(RankOne(Q), m, m, quadruple, quadruple, us, vs,
                    mover=moved) == ["unequal", "unequal"]
    assert _settled(RankOne(Q), m, m, quadruple, quadruple, us, vs,
                    mover=lambda a, b: (a, b, lambda e: e)) == ["holds", "holds"]


def _sigma_with_target(dims):
    """The tabulated symmetric flip with one map's target replaced by an
    object with the same blocks and the degree table ``dims(target)``."""
    fam = tabulate_binary(symmetric_braiding(), Q, product(NAT_U, repeat=2))
    x, y = NAT_U[1], NAT_U[2]
    m = fam.entries[(x, y)]
    fam.entries[(x, y)] = block_map(Q, m.source, GradedObject(NAT, dims(m.target)),
                                    dict(m.blocks))
    return DistortedStructure(Q, NAT, NAT_U, fam, identity_unit())


def test_family_maps_off_the_square_raise_as_the_composites_do():
    # one tabulated sigma map has the right blocks but a target with one
    # more degree: the kernel would read the same rows, so only the object
    # test sends its pairs to the composites, whose compose refuses it
    with pytest.raises(ObjectMismatch):
        check_D1(_sigma_with_target(lambda t: t.dims + ((9, 1),)), BUDGET)


def test_a_family_map_with_rows_beyond_its_target_is_never_read():
    # the map's rows lie outside its (zero) target: the kernel must read no
    # row of a map that does not fit, so the composites refuse it instead
    with pytest.raises(ObjectMismatch):
        check_D1(_sigma_with_target(lambda t: ()), BUDGET)


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
