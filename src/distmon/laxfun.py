"""Lax monoidal functors compatible with the distortion pair.

A functor here is a concrete description: object map, morphism map, the
laxator family mu(X, Y) : FX (x)' FY -> F(X (x) Y) and the unit map
mu0 : I' -> FI.  Three constructors cover the interesting ground:

* the identity functor (everything is the identity),
* degree truncation over the natural-number grading -- genuinely lax,
  mu is a projection-shaped partial identity,
* the degree collapse onto the trivially graded structure -- the functor
  that forgets degrees, which breaks strict unit-distortion
  compatibility whenever the source unit distortion is nontrivial.

Composition builds the composite laxators
``mu^{GF}(X,Y) = G(mu^F(X,Y)) o mu^G(FX,FY)`` and
``mu0^{GF} = G(mu0^F) o mu0^G``; both bracketings of a triple composite
produce blockwise equal data, and the strictness checker verifies that
on concrete universes rather than assuming it.

Each of these morphism maps moves entries without mixing them: truncation
keeps an entry or drops it, collapse shifts it, and a composite chains the
two.  Their ``mor`` is an ``Entrywise`` map, which also moves the entry
of an elementary map, so ``check_laxator_naturality`` decides a basis
pair from entries and builds u, v, ``u (x) v`` and ``F(u (x) v)`` only
for a pair it hands to the composites.  A functor given any other ``mor``
has no rule, and the composites decide each of its pairs.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Callable, NamedTuple

from .errors import MonoidMismatch, StructureMismatch
from .exactlin import (
    GradedMap, GradedObject, TRIVIAL, associator, block_map,
    collapse_laxator, collapse_map, compose, elementary, identity,
    left_unitor, right_unitor, sort_universe, tensor_map, tensor_obj,
    unit_object,
)
from .distortion import (
    DistortedStructure, identity_unit, rank_one_phase, symmetric_braiding,
)
from .reports import CheckBudget, CheckReport, Phase, Side, decide


class Entrywise:
    """A morphism map ``F`` that sends an elementary map to an elementary
    map or to zero, with the rule that does so without building a map.

    ``mover(A, B)`` maps the objects once: it is ``(FA, FB, move)``, where
    ``move(e)`` is the entry of ``F(E) : FA -> FB`` for the elementary map
    ``E : A -> B`` with entry ``e``, both as ``(degree, row, col, value)``
    (``()`` for zero).
    The rule belongs to the map it describes: a functor given another
    ``mor`` has none.
    """

    __slots__ = ("_mor", "mover")

    def __init__(self, mor: Callable[[GradedMap], GradedMap], mover: Callable):
        self._mor, self.mover = mor, mover

    def __call__(self, f: GradedMap) -> GradedMap:
        return self._mor(f)


class LaxFunctor(NamedTuple):
    """A functor's data; compared and hashed by reference, so a copy made
    with ``_replace`` is a functor of its own (``compose_lax`` keys on it)."""

    name: str
    source: DistortedStructure
    target: DistortedStructure
    obj: Callable[[GradedObject], GradedObject]
    mor: Callable[[GradedMap], GradedMap]
    mu: Callable[[GradedObject, GradedObject], GradedMap]
    mu0: GradedMap
    info: tuple = ()

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def identity_functor(ds: DistortedStructure) -> LaxFunctor:
    field = ds.field
    return LaxFunctor(
        name="Id",
        source=ds,
        target=ds,
        obj=lambda x: x,
        mor=Entrywise(lambda f: f, lambda a, b: (a, b, lambda e: e)),
        mu=lambda x, y: identity(field, tensor_obj(x, y)),
        mu0=identity(field, ds.unit),
        info=("identity",),
    )


@cache  # shared by every truncation functor and keyed by reference, like tensor_obj
def _truncated(x: GradedObject, bound: int) -> GradedObject:
    return GradedObject(x.monoid, tuple((d, k) for d, k in x.dims if d <= bound))


def truncation_functor(ds: DistortedStructure, bound: int) -> LaxFunctor:
    """Kill all degrees above ``bound``; lax but not strong.

    ``mor`` returns ``f`` itself when no degree of its objects is cut, and
    the interned identity when the truncated map is one; ``mu(X, Y)`` is
    the interned identity when tau X (x) tau Y equals tau(X (x) Y).
    """
    if ds.monoid.kind != "nat":
        raise MonoidMismatch("truncation needs the natural-number grading")
    field = ds.field

    def obj(x: GradedObject) -> GradedObject:
        if not x.dims or x.dims[-1][0] <= bound:
            return x
        return _truncated(x, bound)

    def mor(f: GradedMap) -> GradedMap:
        src, tgt = obj(f.source), obj(f.target)
        if src is f.source and tgt is f.target:
            return f
        return block_map(field, src, tgt, {d: m for d, m in f.blocks if d <= bound})

    def mover(a: GradedObject, b: GradedObject) -> tuple:
        # a kept degree keeps its positions
        return obj(a), obj(b), lambda e: e if e and e[0] <= bound else ()

    def mu(x: GradedObject, y: GradedObject) -> GradedMap:
        src = tensor_obj(obj(x), obj(y))
        return block_map(field, src, obj(tensor_obj(x, y)),
                         {d: m for d, m in identity(field, src).blocks if d <= bound})

    return LaxFunctor(
        name=f"tau{bound}",
        source=ds,
        target=ds,
        obj=obj,
        mor=Entrywise(mor, mover),
        mu=mu,
        mu0=identity(field, ds.unit),
        info=("truncation", bound),
    )


def collapse_functor(ds: DistortedStructure) -> LaxFunctor:
    """Forget the grading: total dimension in degree 0, block-diagonal maps.

    The target carries the symmetric flip and the identity unit distortion
    on the trivially graded images of the source universe.
    """
    field = ds.field

    @cache  # looked up by total dimension instead of rebuilding the image
    def image(total: int) -> GradedObject:
        return GradedObject(TRIVIAL, ((0, total),) if total else ())

    def obj(x: GradedObject) -> GradedObject:
        return image(x.total_dim)

    def mor(f: GradedMap) -> GradedMap:
        return collapse_map(f, obj(f.source), obj(f.target))

    def mover(a: GradedObject, b: GradedObject) -> tuple:
        # degree d's block starts at row b.starts[d] and column a.starts[d]
        rows, cols = b.starts, a.starts
        return obj(a), obj(b), lambda e: e and (
            0, rows[e[0]] + e[1], cols[e[0]] + e[2], e[3])

    def mu(x: GradedObject, y: GradedObject) -> GradedMap:
        return collapse_laxator(field, x, y, tensor_obj(obj(x), obj(y)),
                                obj(tensor_obj(x, y)))

    images = [obj(x) for x in ds.universe] + [unit_object(TRIVIAL)]
    target = DistortedStructure(
        field, TRIVIAL, sort_universe(images),
        symmetric_braiding(), identity_unit(),
    )

    return LaxFunctor(
        name="U",
        source=ds,
        target=target,
        obj=obj,
        mor=Entrywise(mor, mover),
        mu=mu,
        mu0=identity(field, target.unit),
        info=("collapse",),
    )


@cache
def compose_lax(g: LaxFunctor, f: LaxFunctor) -> LaxFunctor:
    """g after f, with the composite laxators.

    Memoized so that repeated composites of the same 1-cells are the same
    object; 2-cell composition relies on that identity.
    """
    if f.target is not g.source:
        raise StructureMismatch(
            f"cannot compose {g.name} after {f.name}: structures differ"
        )

    def mu(x, y):
        return compose(g.mor(f.mu(x, y)), g.mu(f.obj(x), f.obj(y)))

    def mor(m):
        return g.mor(f.mor(m))

    if isinstance(g.mor, Entrywise) and isinstance(f.mor, Entrywise):
        def mover(a, b):
            fa, fb, fmove = f.mor.mover(a, b)
            ga, gb, gmove = g.mor.mover(fa, fb)
            return ga, gb, lambda e: gmove(fmove(e))
        mor = Entrywise(mor, mover)

    return LaxFunctor(
        name=f"{g.name}*{f.name}",
        source=f.source,
        target=g.target,
        obj=lambda x: g.obj(f.obj(x)),
        mor=mor,
        mu=mu,
        mu0=compose(g.mor(f.mu0), g.mu0),
        info=("composite", f.info, g.info),
    )


# ---------------------------------------------------------------------------
# checkers


def check_lax_axioms(func: LaxFunctor, budget: CheckBudget) -> CheckReport:
    """Lax pentagon over universe triples and both unit triangles.

    The pentagon walks (x, y, z) in canonical order with each F(x) and its
    identity found once and ``mu(x, y)`` once per pair.  The whiskering of
    a laxator that is an interned identity is not built, since
    ``tensor_map`` and ``compose`` would hand back the other map unchanged;
    a run of triples whose two sides come out as one interned map holds
    without a scan and goes to ``decide`` as its length.
    """
    field = func.target.field
    src_unit = func.source.unit
    mu = cache(func.mu)  # each laxator built once per check, kept by no functor

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
        images = []
        for x in func.source.universe:
            fx = func.obj(x)
            images.append((x, fx, identity(field, fx)))
        for x, fx, id_fx in images:
            for y, fy, _ in images:
                xy, mu_xy = tensor_obj(x, y), mu(x, y)
                strict = mu_xy is identity(field, mu_xy.source)
                held = 0
                for z, fz, id_fz in images:
                    lhs = mu(xy, z)
                    if not strict:
                        lhs = compose(lhs, tensor_map(mu_xy, id_fz))
                    lhs = compose(func.mor(associator(field, x, y, z)), lhs)
                    rhs, mu_yz = associator(field, fx, fy, fz), mu(y, z)
                    if mu_yz is not identity(field, mu_yz.source):
                        rhs = compose(tensor_map(id_fx, mu_yz), rhs)
                    rhs = compose(mu(x, tensor_obj(y, z)), rhs)
                    if lhs is rhs:
                        held += 1
                        continue
                    if held:
                        yield held
                        held = 0
                    yield (x, y, z), [Side(lhs, rhs, ((fx, fy), fz))]
                if held:
                    yield held

    units = (((x,), unit_sides(x)) for x in func.source.universe)
    return decide("lax", Phase(units),
                  Phase(pentagons(), budget.max_object_tuples, "pentagon"),
                  note="unit objects={} pentagon triples={}")


def check_SLambda(func: LaxFunctor, budget: CheckBudget) -> CheckReport:
    """Strict unit-distortion compatibility F(Lambda_Z) = Lambda'_{FZ}."""
    objects = (((z,), [Side(func.mor(func.source.lambda_map(z)),
                            func.target.lambda_map(func.obj(z)))])
               for z in func.source.universe)
    return decide("SLambda", Phase(objects))


def check_Ssigma(func: LaxFunctor, budget: CheckBudget) -> CheckReport:
    """F(sigma_{X,Y}) o mu(X,Y) = mu(Y,X) o sigma'_{FX,FY}."""
    mu = cache(func.mu)  # each laxator built once per check, kept by no functor

    def pairs():
        for x, y in product(func.source.universe, repeat=2):
            fx, fy = func.obj(x), func.obj(y)
            lhs = compose(func.mor(func.source.sigma_map(x, y)), mu(x, y))
            rhs = compose(mu(y, x), func.target.sigma_map(fx, fy))
            yield (x, y), [Side(lhs, rhs, (fx, fy))]

    return decide("Ssigma", Phase(pairs(), budget.max_object_tuples))


def _entry_rule(func: LaxFunctor) -> Callable:
    """``func.mor``'s mover (``Entrywise``); a morphism map with none gets
    one that maps the objects by ``func.obj`` and moves no entry, so that
    every pair goes to the composites."""
    if isinstance(func.mor, Entrywise):
        return func.mor.mover
    obj = func.obj
    return lambda a, b: (obj(a), obj(b), lambda e: None)


def check_laxator_naturality(func: LaxFunctor, budget: CheckBudget) -> CheckReport:
    """mu(X',Y') o (F(u) (x)' F(v)) = F(u (x) v) o mu(X,Y), decided on every
    pair of elementary maps (u, v).

    Both sides are bilinear in (u, v) because ``F.mor`` is linear, so the
    basis pairs decide the square for all maps.  The bases are entry tables
    with the entries of their images, from ``_entry_rule``'s mover, and each
    laxator is built once per check.  One ``exactlin.RankOne.settle`` call
    per object quadruple decides every pair whose images have entries and
    whose maps have the objects the square needs, from one row of mu(X,Y)
    and one column of mu(X',Y'); u, v and the two composites are built only
    for a pair off that route, which is every pair of a functor without an
    entry rule, or one it finds unequal.
    """
    field = func.source.field

    def composites(s, t, eu, ev, unequal):
        (mu_xy, (x, y), factors), (mu_p, (xp, yp)) = s[:3], t[:2]
        u, v = elementary(field, x, xp, eu), elementary(field, y, yp, ev)
        return Side(compose(mu_p, tensor_map(func.mor(u), func.mor(v))),
                    compose(func.mor(tensor_map(u, v)), mu_xy),
                    factors, equal=False if unequal else None)

    return decide("laxator_naturality", rank_one_phase(
        field, func.source.universe, func.mu, composites, budget.max_object_tuples,
        mover=_entry_rule(func), obj=func.obj))


def check_triple_strictness(h: LaxFunctor, g: LaxFunctor, f: LaxFunctor,
                            budget: CheckBudget,
                            compose_fn=None) -> CheckReport:
    """Blockwise equality of both bracketings of the composite laxators.

    ``compose_fn`` is a test hook; the default is the real composition.
    """
    compose_fn = compose_fn or compose_lax
    left = compose_fn(h, compose_fn(g, f))
    right = compose_fn(compose_fn(h, g), f)
    unit = ((f.source.unit,), [Side(left.mu0, right.mu0)])
    pairs = (((x, y), [Side(left.mu(x, y), right.mu(x, y))])
             for x, y in product(f.source.universe, repeat=2))
    return decide("triple_strictness", Phase([unit], note="unit"),
                  Phase(pairs, budget.max_object_tuples))
