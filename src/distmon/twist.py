"""Idempotent families, twisted distortions, and their axiom table.

A structural idempotent is a ``StructuralFamily`` that acts on the
summand X_i (x) Y_j by a coefficient rule c(i, j) with values 0 or 1; the
twist of a structural braiding by it keeps the braiding's builder and
multiplies the two rules, producing coherent but generally
non-invertible interchanges.  Eight axiom ids are checked here:

* ``E0``  idempotency plus binaturality,
* ``E1``  normalization against the unit object,
* ``E2L`` / ``E2R``  typed multiplicativity, literal single-factor form,
* ``E2L_cocycle`` / ``E2R_cocycle``  the two-factor composite form
  ``e_{XY,Z} o (e_{X,Y} (x) Id)`` versus ``(Id (x) e_{Y,Z}) o e_{X,YZ}``
  conjugated by the associator,
* ``BL`` / ``BR``  braiding-equivariant sliding.

The literal and cocycle readings of multiplicativity genuinely disagree
on the parity projector; both are first-class axiom ids and never share
a verdict.  For structural data every axiom also reduces to per-degree-
triple scalar identities (``scalar_axiom_sides``, shared with D3); the
checkers evaluate that independent route on every tuple and refuse to
return if the two disagree.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Optional

from .errors import MonoidMismatch
from .exactlin import (
    GradedMap, GradedObject, associator, associator_inv, compose,
    identity, mat_rank, sort_universe, summand_scaling, tensor_map,
    tensor_obj, unit_object,
)
# scalar_axiom_sides is re-exported beside the axiom table it evaluates
from .distortion import (
    STRUCTURAL_NOTE, StructuralFamily, binaturality_phase, compose_links,
    scalar_axiom_sides, scalar_route, shared,
)
from .reports import CheckBudget, CheckReport, Phase, Side, decide

AXIOMS = ("E0", "E1", "E2L", "E2R", "E2L_cocycle", "E2R_cocycle", "BL", "BR")


# ---------------------------------------------------------------------------
# idempotent families


def _parity_normalized(c11: int, label: str) -> StructuralFamily:
    """The idempotent acting by c11 on X_1 (x) Y_1 and by 1 elsewhere."""
    return StructuralFamily(
        summand_scaling,
        lambda f, i, j: (f.zero, f.one)[c11] if (i, j) == (1, 1) else f.one,
        label)


def identity_idempotent() -> StructuralFamily:
    return StructuralFamily(summand_scaling, lambda f, i, j: f.one, "identity")


def parity_projector() -> StructuralFamily:
    """Kills the odd-odd summand, identity on the other three."""
    return _parity_normalized(0, "parity_projector")


# ---------------------------------------------------------------------------
# the twist construction


class ComposedBinary:
    """beta o e for families that are not both structural."""

    structural = False

    def __init__(self, beta, e, label: str = ""):
        self.beta = beta
        self.e = e
        self.label = label

    def at(self, field, x: GradedObject, y: GradedObject) -> GradedMap:
        return compose(self.beta.at(field, x, y), self.e.at(field, x, y))


def twist(beta, e):
    """The family beta o e.  When both inputs are structural it is beta's
    builder applied to the product of the two coefficient rules."""
    if beta.structural and e.structural:
        return StructuralFamily(
            beta.build,
            lambda f, i, j: f.mul(beta.coefficient(f, i, j), e.coefficient(f, i, j)),
            f"twist({beta.label},{e.label})",
        )
    return ComposedBinary(beta, e, "twist")


# ---------------------------------------------------------------------------
# matrix-level axiom sides


def _axiom_sides(field, e, beta, axiom: str, x, y, z):
    """(lhs, rhs, factors) for one instance of E2L, E2R, BL or BR."""
    xy = tensor_obj(x, y)
    yz = tensor_obj(y, z)
    idx = identity(field, x)
    idy = identity(field, y)
    idz = identity(field, z)
    al = associator(field, x, y, z)
    alinv = associator_inv(field, x, y, z)

    if axiom == "E2L":
        lhs = compose(al, e.at(field, xy, z))
        rhs = compose(tensor_map(idx, e.at(field, y, z)),
                      compose(e.at(field, x, yz), al))
        return lhs, rhs, ((x, y), z)
    if axiom == "E2R":
        lhs = compose(alinv, e.at(field, x, yz))
        rhs = compose(tensor_map(e.at(field, x, y), idz),
                      compose(e.at(field, xy, z), alinv))
        return lhs, rhs, (x, (y, z))
    if axiom == "BL":
        front = compose(tensor_map(idx, beta.at(field, y, z)),
                        tensor_map(idx, e.at(field, y, z)))
        lhs = compose(associator_inv(field, x, z, y),
                      compose(front, e.at(field, x, yz)))
        rhs = compose(tensor_map(e.at(field, x, z), idy),
                      compose(associator_inv(field, x, z, y), front))
        return lhs, rhs, (x, (y, z))
    if axiom == "BR":
        front = compose(tensor_map(beta.at(field, x, y), idz),
                        tensor_map(e.at(field, x, y), idz))
        lhs = compose(associator(field, y, x, z),
                      compose(front, e.at(field, xy, z)))
        rhs = compose(tensor_map(idy, e.at(field, x, z)),
                      compose(associator(field, y, x, z), front))
        return lhs, rhs, ((x, y), z)
    raise ValueError(f"unknown axiom {axiom!r}")


def _cocycles(field, e, left: bool, objs):
    """E2L_cocycle's (``left``) or E2R_cocycle's instances: the pair form
    ``e_{XY,Z} o (e_{X,Y} (x) Id)`` and the split form ``(Id (x) e_{Y,Z}) o
    e_{X,YZ}``, each built once for both axioms (``shared``), conjugated by
    the associator.  The walk takes each prefix's tensor and e(X, Y) once,
    and no interned identity enters a composite (``compose_links``)."""
    for x in objs:
        idx = identity(field, x)
        for y in objs:
            xy, exy = tensor_obj(x, y), e.at(field, x, y)
            for z in objs:
                pair = shared(e, ("pair", field, x, y, z), lambda: compose_links(
                    e.at(field, xy, z), tensor_map(exy, identity(field, z))))
                split = shared(e, ("split", field, x, y, z), lambda: compose_links(
                    tensor_map(idx, e.at(field, y, z)), e.at(field, x, tensor_obj(y, z))))
                if left:
                    a = associator(field, x, y, z)
                    yield (x, y, z), [Side(compose_links(a, pair),
                                           compose_links(split, a), ((x, y), z))]
                else:
                    a = associator_inv(field, x, y, z)
                    yield (x, y, z), [Side(compose_links(pair, a),
                                           compose_links(a, split), (x, (y, z)))]


# ---------------------------------------------------------------------------
# the axiom checker


def check_idempotent_axiom(field, e, axiom: str, universe, budget: CheckBudget,
                           beta=None) -> CheckReport:
    """Decide one axiom of the twist construction by exact matrix equality;
    E2L_cocycle and E2R_cocycle walk their triples in ``_cocycles``."""
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}")
    if axiom in ("BL", "BR") and beta is None:
        raise ValueError(f"axiom {axiom} needs a braiding")
    objs = sort_universe(universe)
    monoid = objs[0].monoid
    unit = unit_object(monoid)

    if axiom == "E0":
        def idempotency():
            for x, y in product(objs, repeat=2):
                m = e.at(field, x, y)
                yield (x, y), [Side(compose(m, m), m, (x, y))]

        naturality = binaturality_phase(
            field, lambda a, b: e.at(field, a, b), objs, budget, flips=False)
        return decide("E0", Phase(idempotency()), naturality,
                      note=STRUCTURAL_NOTE if e.structural else None)

    if axiom == "E1":
        def normalizations():
            for x in objs:
                yield (x,), (Side(e.at(field, *pair),
                                  identity(field, tensor_obj(*pair)),
                                  pair, pair)
                             for pair in ((x, unit), (unit, x)))

        return decide("E1", Phase(normalizations()))

    triples = (_cocycles(field, e, axiom == "E2L_cocycle", objs) if "cocycle" in axiom
               else (((x, y, z), [Side(*_axiom_sides(field, e, beta, axiom, x, y, z))])
                     for x, y, z in product(objs, repeat=3)))
    note = agrees = None
    if e.structural and (beta is None or beta.structural):
        note = "structural scalar route cross-checked"
        agrees = scalar_route(
            field, monoid, lambda i, j: e.coefficient(field, i, j),
            lambda i, j: beta.coefficient(field, i, j) if beta is not None else field.one,
            (axiom,))
    return decide(axiom, Phase(triples, budget.max_object_tuples),
                  note=note, agrees=agrees)


# ---------------------------------------------------------------------------
# invertibility


class PairInvertibility(NamedTuple):
    pair: tuple
    invertible: bool
    defect_degree: Optional[int] = None  # first degree with a rank defect


class InvertibilityReport(NamedTuple):
    pairs: tuple[PairInvertibility, ...]
    invertible_everywhere: bool
    first_witness: Optional[tuple] = None

    def verdict_for(self, x, y) -> bool:
        for entry in self.pairs:
            if entry.pair == (x, y):
                return entry.invertible
        raise KeyError((x, y))


def invertibility_test(field, family, universe) -> InvertibilityReport:
    """Exact per-degree rank decision for every universe pair.

    Works for binary families (X (x) Y -> Y (x) X, blockwise square) and
    idempotent families (endomorphisms).
    """
    objs = sort_universe(universe)
    entries = []
    first = None
    for x, y in product(objs, repeat=2):
        m = family.at(field, x, y)
        defect = None
        for d in m.source.degrees:
            n_src = m.source.dim(d)
            n_tgt = m.target.dim(d)
            block = m.block(d)
            if n_src != n_tgt:
                defect = d
                break
            rank = mat_rank(field, block) if block is not None else 0
            if rank < n_src:
                defect = d
                break
        ok = defect is None
        entries.append(PairInvertibility((x, y), ok, defect))
        if not ok and first is None:
            first = (x, y)
    return InvertibilityReport(tuple(entries), first is None, first)


# ---------------------------------------------------------------------------
# exhaustive structural search (parity grading)


class SearchRow(NamedTuple):
    odd_odd_coefficient: int  # the only free normalized entry
    reports: tuple[CheckReport, ...]

    def verdicts(self) -> dict:
        return {r.axiom: r.verdict for r in self.reports}

    def satisfies(self, axioms) -> bool:
        v = self.verdicts()
        return all(v[a] == "pass" for a in axioms)


class SearchReport(NamedTuple):
    rows: tuple[SearchRow, ...]

    def satisfying(self, axioms) -> list[int]:
        return [row.odd_odd_coefficient for row in self.rows if row.satisfies(axioms)]


def search_structural_idempotents(field, beta, universe,
                                  budget: CheckBudget) -> SearchReport:
    """Run every axiom on each normalized parity idempotent.

    Normalization pins c(i, 0) = c(0, j) = 1, so over the parity grading
    the only free entry is c(1, 1) in {0, 1}: exactly two candidates.
    """
    objs = sort_universe(universe)
    if objs[0].monoid.kind != "parity":
        raise MonoidMismatch("the structural idempotent search is parity-only")
    rows = []
    for c11 in (0, 1):
        e = _parity_normalized(c11, f"c11={c11}")
        reports = tuple(
            check_idempotent_axiom(field, e, axiom, objs, budget, beta=beta)
            for axiom in AXIOMS
        )
        rows.append(SearchRow(c11, reports))
    return SearchReport(tuple(rows))
