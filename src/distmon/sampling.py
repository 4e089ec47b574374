"""Deterministic, platform-independent morphism sampling.

The stream is a pure function of ``(seed, stream id, index)`` built from
the 64-bit splitmix finalizer; the constants are fixed here so machine
reports are reproducible everywhere:

* increment gamma ``0x9E3779B97F4A7C15``
* mix multipliers ``0xBF58476D1CE4E5B9`` and ``0x94D049BB133111EB``
* stream ids hashed with FNV-1a (offset ``0xCBF29CE484222325``,
  prime ``0x100000001B3``)

Sampled scalar entries come from the field's palette ({0, 1, -1, 2, 1/2}
over the rationals, all residues over a prime field).  Every sampled
batch also contains three structured maps -- zero, a partial identity,
and an index-reversing partial permutation -- so degenerate failures are
found without luck.
"""

from __future__ import annotations

from .exactlin import GradedMap, GradedObject, graded_map, monomial_map, zero_map
from .reports import CheckBudget

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def stream_value(seed: int, stream_id: str, index: int) -> int:
    """The ``index``-th 64-bit value of the named stream."""
    base = (seed ^ fnv1a64(stream_id.encode("utf-8"))) & _MASK
    return mix64((base + (index + 1) * _GAMMA) & _MASK)


def sampled_map(field, source: GradedObject, target: GradedObject,
                seed: int, stream_id: str) -> GradedMap:
    """Degree-preserving map with palette entries drawn from the stream."""
    blocks = {}
    idx = 0
    for d in source.degrees:
        m, n = target.dim(d), source.dim(d)
        if m == 0:
            continue
        rows = []
        for _ in range(m):
            row = []
            for _ in range(n):
                row.append(field.sample_scalar(stream_value(seed, stream_id, idx)))
                idx += 1
            rows.append(row)
        blocks[d] = rows
    return graded_map(field, source, target, blocks)


def structured_maps(field, source: GradedObject, target: GradedObject) -> list[GradedMap]:
    """Zero, partial identity, and reversed partial permutation."""
    zero, one = field.zero, field.one
    diag = {}
    rev = {}
    for d in source.degrees:
        m, n = target.dim(d), source.dim(d)
        if m == 0:
            continue
        diag[d] = [(c, one if c < m else zero) for c in range(n)]
        rev[d] = [(n - 1 - c, one if n - 1 - c < m else zero) for c in range(n)]
    return [
        zero_map(field, source, target),
        monomial_map(field, source, target, diag),
        monomial_map(field, source, target, rev),
    ]


def map_batch(field, source: GradedObject, target: GradedObject,
              budget: CheckBudget, stream_id: str) -> list[GradedMap]:
    """Structured maps plus ``budget.sample_maps`` sampled ones."""
    if budget.sample_maps < 1:
        raise ValueError("sample_maps must be >= 1 for morphism-quantified checks")
    out = structured_maps(field, source, target)
    for k in range(budget.sample_maps):
        out.append(sampled_map(field, source, target, budget.seed, f"{stream_id}:{k}"))
    return out
