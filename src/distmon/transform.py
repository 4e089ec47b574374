"""Monoidal natural transformations and their 2-categorical calculus.

Components are produced by a rule, so a transformation is defined on
every object the checks reach (tensor composites included).  Vertical
composition stacks components; horizontal composition whiskers through
the functors and is verified well-defined (both classical formulas must
agree on the universe) at construction time.  The interchange law and
strict associativity/unitality of horizontal composition are decided on
explicit catalogs by exact componentwise equality.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, NamedTuple, Sequence

from .errors import StructureMismatch
from .exactlin import (
    GradedMap, GradedObject, block_map, compose, degree_scaling, identity,
    tensor_map, tensor_obj,
)
from .laxfun import LaxFunctor, compose_lax, identity_functor
from .reports import (
    CheckBudget, CheckReport, Phase, Side, decide, equality_witness,
)


class MonNatTrans(NamedTuple):
    """A 2-cell's data; compared and hashed by reference."""

    name: str
    source_functor: LaxFunctor
    target_functor: LaxFunctor
    component: Callable[[GradedObject], GradedMap]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def identity_transformation(func: LaxFunctor) -> MonNatTrans:
    field = func.target.field
    return MonNatTrans(
        name=f"id[{func.name}]",
        source_functor=func,
        target_functor=func,
        component=lambda x: identity(field, func.obj(x)),
    )


def projection_transformation(f_from: LaxFunctor, f_to: LaxFunctor) -> MonNatTrans:
    """The degree projection between two truncations tau_large => tau_small;
    its component at X is the interned identity when both agree on X."""
    for func in (f_from, f_to):
        if not func.info or func.info[0] != "truncation":
            raise StructureMismatch("projection cells connect truncation functors")
    if f_from.source is not f_to.source:
        raise StructureMismatch("projection cells need a shared structure")
    large, small = f_from.info[1], f_to.info[1]
    if small > large:
        raise StructureMismatch(
            f"projection must lower the bound ({large} -> {small})"
        )
    field = f_from.target.field

    def component(x: GradedObject) -> GradedMap:
        tgt = f_to.obj(x)
        return block_map(field, f_from.obj(x), tgt, dict(identity(field, tgt).blocks))

    return MonNatTrans(
        name=f"pi[{large}->{small}]",
        source_functor=f_from,
        target_functor=f_to,
        component=component,
    )


def scalar_transformation(func: LaxFunctor, c) -> MonNatTrans:
    """c times the identity on every component (a test family: monoidal
    exactly when c = 1)."""
    field = func.target.field

    def component(x: GradedObject) -> GradedMap:
        return degree_scaling(field, func.obj(x), lambda m: c)

    return MonNatTrans(f"scalar[{field.fmt(c)}]", func, func, component)


def vertical(phi: MonNatTrans, theta: MonNatTrans) -> MonNatTrans:
    """phi after theta: F => G => H."""
    if theta.target_functor is not phi.source_functor:
        raise StructureMismatch(
            f"vertical composite {phi.name} o {theta.name}: functors differ"
        )
    return MonNatTrans(
        name=f"({phi.name}.{theta.name})",
        source_functor=theta.source_functor,
        target_functor=phi.target_functor,
        component=lambda x: compose(phi.component(x), theta.component(x)),
    )


def _whisker(phi: MonNatTrans, theta: MonNatTrans) -> MonNatTrans:
    """Horizontal composite without the well-definedness gate."""
    f1, f2 = theta.source_functor, theta.target_functor
    g1, g2 = phi.source_functor, phi.target_functor
    if f1.target is not g1.source:
        raise StructureMismatch(
            f"horizontal composite {phi.name} * {theta.name}: structures differ"
        )
    return MonNatTrans(
        name=f"({phi.name}*{theta.name})",
        source_functor=compose_lax(g1, f1),
        target_functor=compose_lax(g2, f2),
        component=lambda x: compose(
            phi.component(f2.obj(x)), g1.mor(theta.component(x))
        ),
    )


def horizontal(phi: MonNatTrans, theta: MonNatTrans) -> MonNatTrans:
    """phi * theta for theta : F1 => F2 (C -> D), phi : G1 => G2 (D -> E).

    Components are phi_{F2 X} o G1(theta_X); construction verifies the
    alternative formula G2(theta_X) o phi_{F1 X} agrees on the universe.
    """
    out = _whisker(phi, theta)
    f1, f2 = theta.source_functor, theta.target_functor
    g2 = phi.target_functor
    for x in f1.source.universe:
        alt = compose(g2.mor(theta.component(x)), phi.component(f1.obj(x)))
        if equality_witness("", (x,), out.component(x), alt) is not None:
            raise StructureMismatch(
                f"horizontal composite {phi.name} * {theta.name} is ill-defined "
                f"at {x}: the two whiskering formulas disagree"
            )
    return out


# ---------------------------------------------------------------------------
# checkers


def check_monoidal(theta: MonNatTrans, budget: CheckBudget) -> CheckReport:
    """The tensor and unit compatibility squares of a 2-cell."""
    f, g = theta.source_functor, theta.target_functor
    base = f.source

    def pairs():
        for x, y in product(base.universe, repeat=2):
            lhs = compose(g.mu(x, y),
                          tensor_map(theta.component(x), theta.component(y)))
            rhs = compose(theta.component(tensor_obj(x, y)), f.mu(x, y))
            yield (x, y), [Side(lhs, rhs, (f.obj(x), f.obj(y)))]

    def unit_square():
        unit = base.unit
        yield (unit,), [Side(g.mu0, compose(theta.component(unit), f.mu0))]

    return decide("monoidal", Phase(pairs(), budget.max_object_tuples),
                  Phase(unit_square(), note="unit"))


def check_lambda_conjugation(theta: MonNatTrans, budget: CheckBudget) -> CheckReport:
    """theta_Z o F(Lambda_Z) = G(Lambda_Z) o theta_Z for universe Z."""
    f, g = theta.source_functor, theta.target_functor

    def objects():
        for z in f.source.universe:
            lam = f.source.lambda_map(z)
            yield (z,), [Side(compose(theta.component(z), f.mor(lam)),
                              compose(g.mor(lam), theta.component(z)))]

    return decide("lambda_conjugation", Phase(objects()))


def _componentwise(a: MonNatTrans, b: MonNatTrans, universe):
    """One instance per object: the components of two parallel cells agree."""
    return (((x,), [Side(a.component(x), b.component(x))]) for x in universe)


def check_interchange(eta: MonNatTrans, theta: MonNatTrans, phi: MonNatTrans,
                      psi: MonNatTrans, budget: CheckBudget) -> CheckReport:
    """(psi o phi) * (theta o eta) = (psi * theta) o (phi * eta).

    Both sides are assembled through the raw whiskering formula, so a
    corrupted component surfaces as a fail verdict with a witness.
    """
    lhs = _whisker(vertical(psi, phi), vertical(theta, eta))
    rhs = vertical(_whisker(psi, theta), _whisker(phi, eta))
    return decide("interchange", Phase(
        _componentwise(lhs, rhs, eta.source_functor.source.universe)))


def check_horizontal_strictness(chains: Sequence[Sequence[MonNatTrans]],
                                budget: CheckBudget,
                                horizontal_fn=None) -> CheckReport:
    """Associativity of * on 3-cell chains plus both unit laws per cell.

    Each chain lists composable 2-cells innermost first; non-composable
    chains raise StructureMismatch rather than producing a fail verdict.
    ``horizontal_fn`` is a test hook; the default is the real composition.
    """
    horizontal_fn = horizontal_fn or horizontal

    def associativity():
        for chain in chains:
            if len(chain) != 3:
                raise StructureMismatch("horizontal strictness chains have length 3")
            a, b, c = chain
            yield from _componentwise(horizontal_fn(c, horizontal_fn(b, a)),
                                      horizontal_fn(horizontal_fn(c, b), a),
                                      a.source_functor.source.universe)

    def unit_laws():
        # each distinct cell once, in order of first use; cells hash by reference
        for cell in dict.fromkeys(c for chain in chains for c in chain):
            func = cell.source_functor
            universe = func.source.universe
            id_src = identity_transformation(identity_functor(func.source))
            yield from _componentwise(horizontal_fn(cell, id_src), cell, universe)
            id_tgt = identity_transformation(identity_functor(func.target))
            yield from _componentwise(horizontal_fn(id_tgt, cell), cell, universe)

    return decide("horizontal_strictness",
                  Phase(associativity(), note="associativity"),
                  Phase(unit_laws(), note="unit law"))
