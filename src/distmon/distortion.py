"""Distortion data on graded vector spaces and its axiom checkers.

A binary family assigns to each object pair a map X (x) Y -> Y (x) X, and
a unit family assigns to each object an endomorphism.  A structural
family is one scalar per degree tuple laid out as a map: a coefficient
rule ``(field, *degrees) -> scalar`` and a builder from ``exactlin``.
The braidings and twists flip every summand X_i (x) Y_j onto
Y_j (x) X_i scaled by c(i, j) (the Koszul rule is (-1)^(i*j), and its
builder refuses a grading other than parity); the idempotents scale
X_i (x) Y_j in place; Lambda scales X_m by a(m).

Checkers decide base coherence (``base``: the triangle and pentagon of
the associators) and the four structure axioms by exact matrix equality:
binaturality, unit normalization, both typed hexagons, and
multiplicativity of the unit family.  Each states its quantifiers as
``reports.Phase``s and leaves enumeration, caps, counts and witnesses to
``reports.decide``.  Binaturality is bilinear in the pair of morphisms,
so it is decided exactly on every pair of elementary basis maps; for a
structural family, which is binatural blockwise by construction, the
coverage note says so.  The scalar route reduces D3 and the twist axioms
of structural data to per-degree-triple scalar identities that never
touch a matrix; it cross-checks every tuple the matrices decide.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import product
from typing import Callable, Sequence

from .errors import BadUnitScalar, CoverageError, MonoidMismatch, ObjectMismatch
from .exactlin import (
    GradedMap, GradedObject, GradingMonoid, RankOne, TRIVIAL,
    compose, degree_scaling, elementary, flip_map, identity,
    associator, associator_inv,
    left_unitor, left_unitor_inv, right_unitor, right_unitor_inv,
    sort_universe, tensor_map, tensor_obj, unit_object,
)
from .reports import (
    CheckBudget, CheckReport, Phase, Side, decide, equality_witness,
)

STRUCTURAL_NOTE = "structural: exact for all morphisms"


# ---------------------------------------------------------------------------
# families


class StructuralFamily:
    """A family given by one scalar per degree tuple: ``at(field, *objects)``
    is ``build(field, *objects, coeff)`` with ``coeff(*degrees) =
    coefficient(field, *degrees)``, built once per (field, objects).

    The memo lives as long as the family, and a scenario builds its own
    families, so it is freed with the scenario.  Beside the family's maps it
    holds the composites several checks take from them (``shared``): the
    whiskerings ``id_W (x) m(A, B)`` and ``m(A, B) (x) id_W`` and the twist
    axioms' cocycle forms.
    """

    structural = True

    def __init__(self, build: Callable, coefficient: Callable, label: str = ""):
        self.build = build
        self.coefficient = coefficient
        self.label = label
        self._memo: dict = {}

    def at(self, field, *objects: GradedObject) -> GradedMap:
        key = (field, *objects)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self.build(
                field, *objects, partial(self.coefficient, field))
        return got

    def __repr__(self):
        return f"StructuralFamily({self.label})"


class Tabulated:
    """Finite table of a family: object -> map for a unit family, object
    pair -> map for a binary or idempotent one.  Missing entries raise
    CoverageError."""

    structural = False

    def __init__(self, entries: dict, label: str = ""):
        self.entries = dict(entries)
        self.label = label

    def at(self, field, *objects: GradedObject) -> GradedMap:
        try:
            return self.entries[objects[0] if len(objects) == 1 else objects]
        except KeyError:
            names = ", ".join(map(str, objects))
            raise CoverageError(
                f"tabulated family {self.label} has no entry for ({names})"
            ) from None

    def __repr__(self):
        return f"Tabulated({self.label}, {len(self.entries)} entries)"


def shared(family, key: tuple, build: Callable) -> GradedMap:
    """``build()``, built once per ``key`` for a structural ``family`` and
    kept in its memo; built afresh for any other family.  ``key`` starts
    with a tag naming the composite, then the field and the objects.  An
    interned identity is not kept: where the checks share composites it is
    built from identities, which the unit laws settle at about the cost of
    a lookup, so keeping it would only cost memory."""
    if not family.structural:
        return build()
    memo = family._memo
    got = memo.get(key)
    if got is None:
        got = build()
        if got is not got.source._identities.get(got.field):
            memo[key] = got
    return got


def id_tensor(family, field, w: GradedObject, a: GradedObject,
              b: GradedObject) -> GradedMap:
    """``id_W (x) family(A, B)``, shared through the family (``shared``);
    the interned identity when the family's map is one."""
    return shared(family, ("id (x)", field, w, a, b),
                  lambda: tensor_map(identity(field, w), family.at(field, a, b)))


def tensor_id(family, field, a: GradedObject, b: GradedObject,
              w: GradedObject) -> GradedMap:
    """``family(A, B) (x) id_W``, as ``id_tensor``."""
    return shared(family, ("(x) id", field, a, b, w),
                  lambda: tensor_map(family.at(field, a, b), identity(field, w)))


def tabulate_binary(family, field, pairs) -> Tabulated:
    """Materialize a family over explicit object pairs."""
    return Tabulated(
        {(x, y): family.at(field, x, y) for x, y in pairs},
        getattr(family, "label", ""),
    )


def _parity_flip(field, x: GradedObject, y: GradedObject, coeff) -> GradedMap:
    """``flip_map`` for a rule with the Koszul sign, defined on parity only."""
    if x.monoid.kind != "parity":
        raise MonoidMismatch("Koszul sign rule needs parity grading")
    return flip_map(field, x, y, coeff)


def symmetric_braiding() -> StructuralFamily:
    return StructuralFamily(flip_map, lambda f, i, j: f.one, "symmetric")


def koszul_braiding() -> StructuralFamily:
    return StructuralFamily(
        _parity_flip, lambda f, i, j: f.neg(f.one) if (i * j) % 2 else f.one,
        "koszul")


def identity_unit() -> StructuralFamily:
    return StructuralFamily(degree_scaling, lambda f, m: f.one, "identity")


def graded_character(t) -> StructuralFamily:
    """Degreewise scaling by t**m; the caller supplies t in the right field."""
    return StructuralFamily(degree_scaling, lambda f, m: f.pow(t, m),
                            f"character(t={t})")


def character_family(field, coeffs: Sequence) -> StructuralFamily:
    """Degreewise scaling by an explicit table, zero beyond the table."""
    coeffs = tuple(coeffs)
    if not coeffs or coeffs[0] != field.one:
        raise BadUnitScalar("unit family table must start with 1 at degree 0")

    def scale(f, m, _c=coeffs):
        return _c[m] if m < len(_c) else f.zero

    return StructuralFamily(degree_scaling, scale,
                            f"table{[field.fmt(c) for c in coeffs]}")


# ---------------------------------------------------------------------------
# the assembled structure


class DistortedStructure:
    """A field, a grading, a finite universe, and the pair (sigma, Lambda)."""

    def __init__(self, field, monoid: GradingMonoid,
                 universe: Sequence[GradedObject], sigma, lam):
        for obj in universe:
            if obj.monoid != monoid:
                raise MonoidMismatch(f"universe object {obj} uses a different grading")
        self.field = field
        self.monoid = monoid
        self.universe = sort_universe(universe)
        self.sigma = sigma
        self.lam = lam
        self.unit = unit_object(monoid)

    def sigma_map(self, x: GradedObject, y: GradedObject) -> GradedMap:
        return self.sigma.at(self.field, x, y)

    def lambda_map(self, x: GradedObject) -> GradedMap:
        return self.lam.at(self.field, x)


# ---------------------------------------------------------------------------
# shared naturality quantifier (D1, idempotent E0 and laxator naturality)


def basis_quadruples(field, universe, sides: Callable, mover: Callable = None,
                     obj: Callable = None):
    """A sampled ``Phase``'s instances over ``product(universe, repeat=4)``:
    each run of quadruples with a zero Hom space, which hold vacuously, as
    its length, and any other (X, Y, X', Y') as ``(objects, sides(objects,
    us, vs))`` with the bases of Hom(X, X') and Hom(Y, Y').  A basis of
    Hom(A, B) is an entry table ``(entries, images)``, built once per walk:
    the entries ``(d, r, c, 1)`` of the elementary maps in ``elementary_maps``
    order, and the entry of each one's image under F, the identity when
    ``mover`` is None.  Otherwise ``mover(A, B)`` is ``(FA, FB, move)`` and
    the images are ``move``'s, or all ``None`` unless FA, FB are ``obj(A)``,
    ``obj(B)``."""
    n, last, bases, one = len(universe), -1, {}, field.one
    nonzero = cache(lambda a: [c for c, t in enumerate(universe)
                               if any(t.dim(d) for d in universe[a].degrees)])

    def basis(a, b):
        got = bases.get((a, b))
        if got is None:
            s, t = universe[a], universe[b]
            entries = images = [(d, r, c, one) for d, k in s.dims
                                for r in range(t.dim(d)) for c in range(k)]
            if mover is not None:
                fs, ft, move = mover(s, t)
                images = (list(map(move, entries)) if fs is obj(s) and ft is obj(t)
                          else [None] * len(entries))
            got = bases[a, b] = entries, images
        return got

    for a, x in enumerate(universe):
        for b, y in enumerate(universe):
            for c in nonzero(a):
                for d in nonzero(b):
                    k = ((a * n + b) * n + c) * n + d
                    if k > last + 1:
                        yield k - last - 1
                    objects = (x, y, universe[c], universe[d])
                    yield objects, sides(objects, basis(a, c), basis(b, d))
                    last = k
    if n ** 4 > last + 1:
        yield n ** 4 - last - 1


def rank_one_phase(field, universe, family_at: Callable, composites: Callable,
                   cap, flip: bool = False, mover: Callable = None,
                   obj: Callable = None) -> Phase:
    """The sampled ``Phase`` of ``basis_quadruples`` with one
    ``RankOne.settle`` call per quadruple, ``composites`` as its
    ``unsettled``.  The half of each object pair, with its map
    ``family_at(A, B)`` and its images under ``obj``, is built once."""
    ranks = RankOne(field)
    half = cache(lambda pair: ranks.half(family_at(*pair), pair, pair if obj is None
                                         else (obj(pair[0]), obj(pair[1])), flip))

    def sides(objects, us, vs):
        return ranks.settle(half(objects[:2]), half(objects[2:]), us, vs,
                            composites, mover)
    return Phase(basis_quadruples(field, universe, sides, mover, obj), cap, sampled=True)


def binaturality_phase(field, family_at: Callable, universe,
                       budget: CheckBudget, flips: bool = True) -> Phase:
    """Naturality in both arguments, decided on every pair (f, g) of
    elementary basis maps.

    For a flipping family (X (x) Y -> Y (x) X) the square reads
    ``(g (x) f) o m_{X,Y} = m_{X',Y'} o (f (x) g)``; for an endomorphism
    family ``f (x) g`` appears on both sides.  Both sides are bilinear in
    (f, g), so the basis pairs decide the square for all maps; a quadruple
    with a zero Hom space has no pair and holds vacuously, and its family
    maps are not built.  ``f (x) g`` and ``g (x) f`` are elementary, so each
    side is one row of ``m_{X,Y}`` or one column of ``m_{X',Y'}``: one
    ``exactlin.RankOne.settle`` call decides every pair of a quadruple from
    the entry tables of ``basis_quadruples``.  f, g and the composites are
    built only for a pair it finds unequal, for the witness, or for family
    maps that do not fit the square.
    """
    def composites(s, t, ef, eg, unequal):
        (m, (x, y)), (n, (xp, yp)) = s[:2], t[:2]
        f, g = elementary(field, x, xp, ef), elementary(field, y, yp, eg)
        return Side(compose(tensor_map(g, f) if flips else tensor_map(f, g), m),
                    compose(n, tensor_map(f, g)), (x, y),
                    equal=False if unequal else None)

    return rank_one_phase(field, universe, family_at, composites,
                          budget.max_object_tuples, flips)


# ---------------------------------------------------------------------------
# scalar route (structural data only)


def scalar_axiom_sides(field, monoid, c: Callable, s: Callable,
                       axiom: str, i: int, j: int, k: int):
    """Per-degree-triple scalar values of both sides of an axiom.

    ``c(i, j)`` is the idempotent coefficient, ``s(i, j)`` the braiding
    coefficient (with its sign); both return field scalars.  ``H1`` and
    ``H2`` are the two hexagons of D3, which read only ``s``.
    """
    add = monoid.add
    mul = field.mul
    if axiom == "H1":
        return s(add(i, j), k), mul(s(i, k), s(j, k))
    if axiom == "H2":
        return s(i, add(j, k)), mul(s(i, j), s(i, k))
    if axiom == "E2L":
        return c(add(i, j), k), mul(c(j, k), c(i, add(j, k)))
    if axiom == "E2R":
        return c(i, add(j, k)), mul(c(i, j), c(add(i, j), k))
    if axiom in ("E2L_cocycle", "E2R_cocycle"):
        return (mul(c(add(i, j), k), c(i, j)),
                mul(c(j, k), c(i, add(j, k))))
    if axiom == "BL":
        common = mul(c(j, k), s(j, k))
        return mul(c(i, add(j, k)), common), mul(c(i, k), common)
    if axiom == "BR":
        common = mul(c(i, j), s(i, j))
        return mul(c(add(i, j), k), common), mul(c(i, k), common)
    raise ValueError(f"axiom {axiom!r} has no scalar form")


def scalar_route(field, monoid, c: Callable, s: Callable, axioms) -> Callable:
    """``agrees(x, y, z)``: every listed scalar identity holds on every
    degree triple of the objects, computed without any matrix.  Each degree
    triple is evaluated once per call of ``scalar_route``."""
    holds: dict = {}  # (i, j, k) -> every listed identity holds there

    def agrees(x, y, z) -> bool:
        for t in product(x.degrees, y.degrees, z.degrees):
            if t not in holds:
                holds[t] = all(lhs == rhs for lhs, rhs in (
                    scalar_axiom_sides(field, monoid, c, s, a, *t) for a in axioms))
            if not holds[t]:
                return False
        return True
    return agrees


# ---------------------------------------------------------------------------
# axiom checkers


def check_base(field, universe: Sequence[GradedObject], budget: CheckBudget,
               assoc: Callable = None) -> CheckReport:
    """Triangle (all pairs) and pentagon (quadruples, capped by budget).

    Every unitor is the interned identity, so the triangle of (x, y) is
    ``assoc(x, I, y)`` against the identity of X (x) Y.  The pentagon walks
    (w, x, y, z) in canonical order and builds ``assoc(w, x, y)`` and the
    tensors of each prefix once.  A whiskering ``id_W (x) a`` or
    ``a (x) id_Z`` of an associator that is an interned identity is not
    built, since ``tensor_map`` and ``compose`` would hand back the other
    map unchanged.  A run of quadruples whose two sides come out as one
    interned map holds without a scan and goes to ``decide`` as its length,
    flushed after each innermost loop.  ``assoc`` is a test hook; the
    default is the canonical associator.
    """
    if not universe:
        raise ObjectMismatch("check_base needs a nonempty universe")
    assoc = assoc or associator
    objs = sort_universe(universe)
    unit = unit_object(objs[0].monoid)

    triangles = (((x, y), [Side(assoc(field, x, unit, y),
                                identity(field, tensor_obj(x, y)))])
                 for x, y in product(objs, repeat=2))

    def pentagons():
        for w in objs:
            id_w = identity(field, w)
            for x in objs:
                wx = tensor_obj(w, x)
                for y in objs:
                    xy = tensor_obj(x, y)
                    a = assoc(field, w, x, y)
                    a_id = a is a.source._identities.get(field)
                    held = 0
                    for z in objs:
                        p1 = compose(assoc(field, w, x, tensor_obj(y, z)),
                                     assoc(field, wx, y, z))
                        p2 = assoc(field, w, xy, z)
                        if not a_id:
                            p2 = compose(p2, tensor_map(a, identity(field, z)))
                        b = assoc(field, x, y, z)
                        if b is not b.source._identities.get(field):
                            p2 = compose(tensor_map(id_w, b), p2)
                        if p1 is p2:
                            held += 1
                            continue
                        if held:
                            yield held
                            held = 0
                        yield (w, x, y, z), [Side(p1, p2)]
                    if held:
                        yield held

    return decide("base", Phase(triangles, note="triangle"),
                  Phase(pentagons(), budget.max_object_tuples, "pentagon"),
                  note="triangle pairs={} pentagon quadruples={}")


def check_D1(ds: DistortedStructure, budget: CheckBudget) -> CheckReport:
    """Binaturality of sigma, decided on every pair of elementary maps."""
    return decide("D1", binaturality_phase(ds.field, ds.sigma_map,
                                           ds.universe, budget),
                  note=STRUCTURAL_NOTE if ds.sigma.structural else None)


def check_D2(ds: DistortedStructure, budget: CheckBudget) -> CheckReport:
    """Unit normalization of sigma and Lambda_I = Id."""
    field, unit = ds.field, ds.unit

    def normalization_sides(x):
        yield Side(ds.sigma_map(x, unit),
                   compose(left_unitor_inv(field, x), right_unitor(field, x)),
                   (x, unit), (x, unit))
        yield Side(ds.sigma_map(unit, x),
                   compose(right_unitor_inv(field, x), left_unitor(field, x)),
                   (unit, x), (unit, x))

    def unit_law():
        yield (unit,), [Side(ds.lambda_map(unit), identity(field, unit))]

    normalizations = (((x,), normalization_sides(x)) for x in ds.universe)
    return decide("D2", Phase(normalizations), Phase(unit_law()))


def compose_links(*maps) -> GradedMap:
    """``maps[0] o ... o maps[-1]``, composed from the right, with no call for
    a link that is None or an interned identity; links that do not meet
    still go to ``compose``, which refuses them."""
    out = maps[-1]
    for m in maps[-2::-1]:
        unit = out.target._identities.get(out.field)
        if m is None or m is unit:
            continue
        out = (m if out is unit and m.source is out.target and m.field is out.field
               else compose(m, out))
    return out


def check_D3(ds: DistortedStructure, budget: CheckBudget) -> CheckReport:
    """Both typed hexagons over universe triples (capped by budget), as sides
    out of (XY)Z and X(YZ).  The walk builds each prefix's tensor once and
    reads from a per-check table which sigma(A, B) is the identity of
    A (x) B; its whiskering, and every identity associator, is left out of
    the composites (``compose_links``).  The other whiskerings are built
    once over both hexagons (``id_tensor``, ``tensor_id``)."""
    field, sigma = ds.field, ds.sigma
    flips: dict = {}  # (a, b) -> whether sigma(a, b) is the identity of A (x) B

    def trivial(a, b):
        if (a, b) not in flips:
            flips[a, b] = sigma.at(field, a, b) is tensor_obj(a, b)._identities.get(field)
        return flips[a, b]

    def triples():
        for x in ds.universe:
            for y in ds.universe:
                xy, xy_trivial = tensor_obj(x, y), trivial(x, y)
                for z in ds.universe:
                    xz_trivial, yz_trivial = trivial(x, z), trivial(y, z)
                    hex1 = compose_links(
                        associator(field, z, x, y),
                        None if xz_trivial else tensor_id(sigma, field, x, z, y),
                        associator_inv(field, x, z, y),
                        None if yz_trivial else id_tensor(sigma, field, x, y, z),
                        associator(field, x, y, z))
                    hex2 = compose_links(
                        associator_inv(field, y, z, x),
                        None if xz_trivial else id_tensor(sigma, field, y, x, z),
                        associator(field, y, x, z),
                        None if xy_trivial else tensor_id(sigma, field, x, y, z),
                        associator_inv(field, x, y, z))
                    yield (x, y, z), [
                        Side(sigma.at(field, xy, z), hex1, ((x, y), z)),
                        Side(sigma.at(field, x, tensor_obj(y, z)), hex2, (x, (y, z)))]

    note = agrees = None
    if sigma.structural:
        note = STRUCTURAL_NOTE
        agrees = scalar_route(field, ds.monoid, None,
                              lambda i, j: sigma.coefficient(field, i, j), ("H1", "H2"))
    return decide("D3", Phase(triples(), budget.max_object_tuples),
                  note=note, agrees=agrees)


def check_D4(ds: DistortedStructure, budget: CheckBudget) -> CheckReport:
    """Multiplicativity of Lambda over universe pairs."""
    pairs = (((x, y), [Side(ds.lambda_map(tensor_obj(x, y)),
                            tensor_map(ds.lambda_map(x), ds.lambda_map(y)),
                            (x, y))])
             for x, y in product(ds.universe, repeat=2))
    return decide("D4", Phase(pairs, budget.max_object_tuples))


def check_lambda_sigma_commute(ds: DistortedStructure,
                               budget: CheckBudget) -> CheckReport:
    """Regression guard for the law derived from binaturality:
    (Lambda_Y (x) Lambda_X) o sigma = sigma o (Lambda_X (x) Lambda_Y)."""
    def pairs():
        for x, y in product(ds.universe, repeat=2):
            s = ds.sigma_map(x, y)
            lhs = compose(tensor_map(ds.lambda_map(y), ds.lambda_map(x)), s)
            rhs = compose(s, tensor_map(ds.lambda_map(x), ds.lambda_map(y)))
            yield (x, y), [Side(lhs, rhs, (x, y))]

    return decide("lambda_sigma", Phase(pairs(), budget.max_object_tuples))


def classify_scalar_unit_families(field) -> list:
    """Constant unit families on the trivially graded model that satisfy both
    multiplicativity (c^2 = c) and the unit condition (c = 1).

    The candidates are 0 and 1, the only roots of c^2 = c in any field, and
    each is decided by D4 and the unit condition.  The result is always
    exactly [1]: the two conditions leave only the identity family.
    """
    candidates = [field.zero, field.one]
    universe = [GradedObject.of(TRIVIAL, {0: 1}), GradedObject.of(TRIVIAL, {0: 2})]
    budget = CheckBudget(max_object_tuples=16)
    unit = unit_object(TRIVIAL)
    out = []
    for c in candidates:
        lam = StructuralFamily(degree_scaling, lambda f, m, _c=c: _c,
                               f"const={field.fmt(c)}")
        ds = DistortedStructure(field, TRIVIAL, universe, symmetric_braiding(), lam)
        if not check_D4(ds, budget).passed:
            continue
        if equality_witness("", (unit,), lam.at(field, unit),
                            identity(field, unit)) is not None:
            continue
        out.append(c)
    return sorted(out)
