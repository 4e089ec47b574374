"""Check verdicts, quantifier coverage, and failure witnesses.

A checker states each quantifier as a ``Phase`` of lazy instances (an
object tuple and its ``Side`` identities); ``decide`` is the one loop that
runs them.  It takes at most a phase's ``cap`` instances, counts every
instance decided (``object_tuples``, the failing one included) and, in a
``sampled`` phase, every side (``sampled_maps``: the pairs of elementary
basis maps on which naturality was decided), and builds the verdict.

A failing check always carries a complete witness: the object tuple, the
degree indices of the first differing basis column, and both offending
maps.  Re-running the same check over a universe containing just the
witness objects reproduces the failure.

The records here are NamedTuples: immutable, compared and hashed by
value, and derived with ``._replace``.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

from .exactlin import factor_degrees


class CheckBudget(NamedTuple):
    """The cap on the instances of each check's largest quantifier."""

    max_object_tuples: int = 4096


class Coverage(NamedTuple):
    """Instances decided and, for the naturality checks, the pairs of
    elementary basis maps decided (``sampled_maps``, kept under the name the
    reports use)."""

    object_tuples: int
    sampled_maps: int = 0
    note: Optional[str] = None


class Witness(NamedTuple):
    axiom: str
    objects: tuple  # GradedObject tuple
    factor_degrees: tuple[int, ...]  # per-factor degrees at the first difference
    block_degree: int
    row: int
    col: int
    left_value: object
    right_value: object
    left_map: object  # GradedMap
    right_map: object  # GradedMap


class CheckReport(NamedTuple):
    axiom: str
    verdict: str  # "pass" | "fail"
    coverage: Coverage
    witness: Optional[Witness] = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def relabel(self, axiom: str) -> "CheckReport":
        w = self.witness
        if w is not None:
            w = w._replace(axiom=axiom)
        return self._replace(axiom=axiom, witness=w)


def first_difference(left, right):
    """First entry where two parallel maps disagree.

    Returns ``(degree, row, col, left_value, right_value)`` or ``None``;
    absent blocks are compared as all-zero.  Block forms are canonical, so
    equal blocks mean equal maps; only maps that differ are scanned, densely
    and row-major.
    """
    if left.source is not right.source or left.target is not right.target:
        raise AssertionError("first_difference on non-parallel maps")
    if left.blocks == right.blocks:
        return None
    zero = left.field.zero
    degrees = sorted({d for d, _ in left.blocks} | {d for d, _ in right.blocks})
    for d in degrees:
        lb, rb = left.block(d), right.block(d)
        nrows = left.target.dim(d)
        ncols = left.source.dim(d)
        for r in range(nrows):
            lrow = lb[r] if lb is not None else None
            rrow = rb[r] if rb is not None else None
            for c in range(ncols):
                lv = lrow[c] if lrow is not None else zero
                rv = rrow[c] if rrow is not None else zero
                if lv != rv:
                    return (d, r, c, lv, rv)
    return None


def equality_witness(axiom: str, objects, left, right,
                     factors=None) -> Optional[Witness]:
    """Witness for ``left != right``, or ``None`` when the maps agree.

    ``factors`` names the factors of the maps' source as a tuple tree of
    objects (``exactlin.factor_degrees``), which gives the per-factor degrees
    of the first differing column.
    """
    diff = first_difference(left, right)
    if diff is None:
        return None
    degree, row, col, lv, rv = diff
    return Witness(axiom, tuple(objects), factor_degrees(factors, degree, col),
                   degree, row, col, lv, rv, left, right)


class Side(NamedTuple):
    """One identity ``lhs == rhs`` of an instance; ``factors`` names the
    factors of its source, as ``(x, y)``, ``((x, y), z)`` or ``(x, (y, z))``;
    ``objects`` and ``note``, when given, replace the instance's objects and
    the phase's note.

    ``equal=False`` marks a side that a route building neither map
    (``exactlin.RankOne``) found unequal: its maps must differ."""

    lhs: object  # GradedMap
    rhs: object  # GradedMap
    factors: Optional[tuple] = None
    objects: Optional[tuple] = None
    note: Optional[str] = None
    equal: Optional[bool] = None


class Phase(NamedTuple):
    """One quantifier: at most ``cap`` of its lazy ``(objects, sides)``
    instances are taken; ``note`` labels a failure in the phase.  An int k
    among the instances stands for a run of k instances that hold without a
    scan: vacuous ones, with no side, or ones whose two sides are one
    interned map.  An int k among an instance's sides stands for k sides
    that hold.  A ``sampled`` phase ranges over pairs of basis maps: its
    sides count in ``sampled_maps``."""

    instances: Iterable
    cap: Optional[int] = None
    note: Optional[str] = None
    sampled: bool = False


def decide(axiom: str, *phases: Phase, note: Optional[str] = None,
           agrees: Optional[Callable[..., bool]] = None) -> CheckReport:
    """Decide the phases in order; the first failing side ends the check.

    The cap is tested before each instance is pulled, and an instance's
    sides are consumed before the next one, so they may be built lazily
    from the generator's state.  A side whose two maps are one object holds
    without a scan, and so does each instance of a run (an int among the
    instances: vacuous instances, or instances whose two sides are one
    interned map), which counts whole up to the cap.  An independent route
    must agree: ``agrees(*objects)`` with every instance, so a run, which
    has no objects, is an internal error when ``agrees`` is given; and a
    side's ``equal`` with its maps.  A pass note is ``note`` formatted with
    the per-phase counts.
    """
    maps = 0
    counts = []
    for phase in phases:
        count, cap, witness = 0, phase.cap, None
        unit = 1 if phase.sampled else 0  # what a side adds to ``maps``
        instances = iter(phase.instances)
        while witness is None and count != cap:
            item = next(instances, None)
            if item is None:
                break
            if item.__class__ is int:  # a run of instances that hold unscanned
                if agrees is not None:
                    raise AssertionError(
                        f"internal: a run of instances skips the scalar route for {axiom}")
                count = item + count if cap is None else min(item + count, cap)
                continue
            count += 1
            objects, sides = item
            for side in sides:
                if side.__class__ is int:  # sides that hold
                    maps += side * unit
                    continue
                maps += unit
                if side.lhs is not side.rhs:
                    witness = equality_witness(axiom, side.objects or objects,
                                               side.lhs, side.rhs, side.factors)
                    if witness is not None:
                        break
                if side.equal is not None:
                    raise AssertionError(
                        f"internal: rank-one route disagrees with matrices for {axiom}")
            if agrees is not None and agrees(*objects) != (witness is None):
                raise AssertionError(
                    f"internal: scalar route disagrees with matrices for {axiom}")
        if witness is not None:
            coverage = Coverage(sum(counts) + count, maps, side.note or phase.note)
            return CheckReport(axiom, "fail", coverage, witness)
        counts.append(count)
    return CheckReport(axiom, "pass", Coverage(
        sum(counts), maps, note.format(*counts) if note is not None else None))
