"""Check verdicts, quantifier coverage, and failure witnesses.

A failing check always carries a complete witness: the object tuple, the
degree indices of the first differing basis column, and both offending
maps.  Re-running the same check over a universe containing just the
witness objects reproduces the failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional


@dataclass(frozen=True)
class CheckBudget:
    """Caps for quantifier enumeration and morphism sampling."""

    max_object_tuples: int = 4096
    sample_maps: int = 3
    seed: int = 0


@dataclass(frozen=True)
class Coverage:
    object_tuples: int
    sampled_maps: int = 0
    note: Optional[str] = None


@dataclass(frozen=True)
class Witness:
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


@dataclass(frozen=True)
class CheckReport:
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
            w = replace(w, axiom=axiom)
        return CheckReport(axiom, self.verdict, self.coverage, w)


def first_difference(left, right):
    """First entry where two parallel maps disagree.

    Returns ``(degree, row, col, left_value, right_value)`` or ``None``;
    absent blocks are compared as all-zero.  Block forms are canonical, so
    equal blocks mean equal maps; only maps that differ are scanned, densely
    and row-major.
    """
    if (left.source is not right.source and left.source != right.source) or \
            (left.target is not right.target and left.target != right.target):
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


Decoder = Callable[[int, int], tuple]


def equality_witness(axiom: str, objects, left, right,
                     decode: Optional[Decoder] = None) -> Optional[Witness]:
    """Witness for ``left != right``, or ``None`` when the maps agree.

    ``decode(block_degree, col)`` maps the first differing source basis
    column back to its per-factor degrees.
    """
    diff = first_difference(left, right)
    if diff is None:
        return None
    degree, row, col, lv, rv = diff
    factor = decode(degree, col) if decode is not None else (degree,)
    return Witness(axiom, tuple(objects), tuple(factor), degree, row, col,
                   lv, rv, left, right)


def passed(axiom: str, coverage: Coverage) -> CheckReport:
    return CheckReport(axiom, "pass", coverage)


def failed(axiom: str, coverage: Coverage, witness: Witness) -> CheckReport:
    return CheckReport(axiom, "fail", coverage, witness)
