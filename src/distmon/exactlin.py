"""Graded vector spaces over an exact field.

Objects are finitely supported degree -> dimension tables over a grading
monoid; maps are degree-preserving and stored as one exact block per
degree (absent blocks are zero).  Tensor products fix the basis layout
once and for all:

* at total degree ``n`` the summands ``X_i (x) Y_j`` are concatenated in
  ascending order of the first-factor degree ``i``;
* inside one summand indices are row-major (X index outer, Y index inner).

This module is the only one that knows that layout: as the offset of each
summand in its degree, or, for flips and summand scalings, as one walk
that also places each summand in Y (x) X.  Every map whose entries depend
on it is built here: the associators and unitors, the flips
X (x) Y -> Y (x) X, the summand scalings of X (x) Y, the collapse
functor's laxator, and ``factor_degrees``, which names the factor
degrees of a witness column; the degree scalings of X sit beside them.
They are concrete monomial matrices, and every identity in this package
is decided by entrywise scalar equality.  The elementary maps, one entry 1
each, are the basis over which naturality is decided.  The tensor of two
elementary maps is elementary, so each side of a naturality square on a
basis pair is one row or one column of a map the check already holds;
``RankOne.settle`` compares them for all pairs of a quadruple at once, from
the summand offsets and the basis entries alone, and builds no map.

The module builds maps and reads layouts; it decides no axiom (the
checkers live in ``distortion``, ``twist``, ``laxfun`` and ``transform``),
and it imports no other module of the package but ``errors``.

Every block has one form: a tuple of columns, each a flat tuple
``(r1, v1, r2, v2, ...)`` of its nonzero entries in ascending row order.
The structural maps (associators, unitors, flips, Koszul signs,
idempotents, characters) are monomial, with at most one entry per
column, so ``compose``, ``tensor_map`` and map equality cost time in the
number of nonzero entries.  ``graded_map`` is the constructor that takes
dense rows; dense rows are made again only by ``GradedMap.block`` and
``GradedMap.dense_blocks``, for witnesses, reports and ``mat_rank``.

Objects are interned: constructing a ``GradedObject`` returns the one live
object with that degree table, so equal objects are the same object, and
objects compare and hash by reference.  The intern table holds them
weakly; an object is freed once nothing else refers to it.

A ``GradedMap`` is a NamedTuple, compared and hashed by value.  Fields
are interned too (``fields``), so every field check is an ``is`` test and
each object keeps one interned identity map per field (``identity``).
Every constructor here returns that map when its result is the identity
between equal objects, and the structure maps decide that before they
build anything: ``associator``/``associator_inv`` from the order of the
summands, before any offset is computed, and ``flip_map`` and
``summand_scaling`` in their walk, from each summand's offsets,
dimensions and coefficient; otherwise they write canonical columns.  The
unitors are identities, and ``monomial_map`` with everything built on it
(degree scalings, the collapse laxator, elementary maps) returns the
identity when every column is a unit; ``block_map`` does the same for the
truncation functor and the projection cells, and ``collapse_map`` for the
collapse functor's image of an identity.  After their checks, ``compose``
and ``tensor_map`` apply the unit laws to it by reference.  ``graded_map``
never interns, so a value-equal copy takes the generic path.
"""

from __future__ import annotations

from functools import cache
from math import inf
from operator import add, is_
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence
from weakref import WeakValueDictionary

from .errors import MonoidMismatch, ObjectMismatch


# ---------------------------------------------------------------------------
# grading monoids


# kind -> (degree sum, number of degrees)
_KINDS = {
    "trivial": (lambda a, b: 0, 1),
    "parity": (lambda a, b: (a + b) & 1, 2),
    "nat": (add, inf),
}


class GradingMonoid:
    """A commutative monoid of degrees: {0}, Z/2 or N.

    ``add`` is the degree sum of the kind and ``degrees`` its number of
    degrees, 0 up (``inf`` for N), both bound once when the monoid is
    built; equality, hashing, ``repr`` and pickling go by ``kind`` alone.
    """

    __slots__ = ("kind", "add", "degrees")

    zero = 0

    def __init__(self, kind: str):  # "trivial" | "parity" | "nat"
        object.__setattr__(self, "kind", kind)
        add_, degrees = _KINDS[kind]
        object.__setattr__(self, "add", add_)
        object.__setattr__(self, "degrees", degrees)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return isinstance(other, GradingMonoid) and other.kind == self.kind

    def __hash__(self):
        return hash(self.kind)

    def __reduce__(self):
        return GradingMonoid, (self.kind,)

    def __repr__(self) -> str:
        return f"GradingMonoid(kind={self.kind!r})"

    def valid_degree(self, d: int) -> bool:
        return (isinstance(d, int) and not isinstance(d, bool)
                and 0 <= d < self.degrees)


TRIVIAL = GradingMonoid("trivial")
PARITY = GradingMonoid("parity")
NAT = GradingMonoid("nat")

MONOIDS = {"trivial": TRIVIAL, "parity": PARITY, "nat": NAT}


# ---------------------------------------------------------------------------
# objects


_INTERNED: WeakValueDictionary = WeakValueDictionary()


class GradedObject:
    """Finitely supported degree -> dimension table (dimensions >= 1).

    Objects are interned: ``GradedObject(monoid, dims)`` returns the one
    live object with that grading and ``dims`` (sorted by degree), so
    objects compare and hash by reference.  The intern table holds its
    objects weakly, and an object no one references is freed.  ``degrees``,
    ``total_dim`` and ``starts`` (degree -> first flat position of that
    degree's basis, the degrees following one another in ascending order)
    are computed once, when the object is first built; ``_identities``
    keeps ``identity``'s map per field.  Attributes cannot be set, and
    ``copy``, ``deepcopy`` and ``pickle`` return the interned object.
    """

    __slots__ = ("monoid", "dims", "degrees", "total_dim", "starts",
                 "_identities", "__weakref__")

    def __new__(cls, monoid: GradingMonoid, dims: tuple[tuple[int, int], ...]):
        key = (monoid.kind, dims)
        obj = _INTERNED.get(key)
        if obj is None:
            obj = object.__new__(cls)
            init = object.__setattr__
            init(obj, "monoid", monoid)
            init(obj, "dims", dims)
            starts, off = {}, 0
            for d, k in dims:
                starts[d] = off
                off += k
            init(obj, "degrees", tuple([d for d, _ in dims]))
            init(obj, "total_dim", off)
            init(obj, "starts", starts)
            init(obj, "_identities", {})
            _INTERNED[key] = obj
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return GradedObject, (self.monoid, self.dims)

    def __repr__(self) -> str:
        return f"GradedObject(monoid={self.monoid!r}, dims={self.dims!r})"

    @staticmethod
    def of(monoid: GradingMonoid, dims: Mapping[int, int]) -> "GradedObject":
        items = []
        for d, k in dims.items():
            if not monoid.valid_degree(d):
                raise MonoidMismatch(f"degree {d} invalid for {monoid.kind} grading")
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ObjectMismatch(f"dimension at degree {d} must be >= 1, got {k!r}")
            items.append((d, k))
        return GradedObject(monoid, tuple(sorted(items)))

    def dim(self, degree: int) -> int:
        for d, k in self.dims:
            if d == degree:
                return k
        return 0

    def __str__(self) -> str:
        inner = ", ".join(f"{d}:{k}" for d, k in self.dims)
        return "{" + inner + "}"


def unit_object(monoid: GradingMonoid) -> GradedObject:
    return GradedObject.of(monoid, {0: 1})


def canonical_key(obj: GradedObject):
    """Sort key for universes: smaller supports first, then lexicographic."""
    return (len(obj.dims), obj.dims)


def sort_universe(objs: Iterable[GradedObject]) -> tuple[GradedObject, ...]:
    return tuple(sorted(set(objs), key=canonical_key))


@cache
def tensor_obj(x: GradedObject, y: GradedObject) -> GradedObject:
    if x.monoid is not y.monoid and x.monoid != y.monoid:
        raise MonoidMismatch(f"cannot tensor {x.monoid.kind} with {y.monoid.kind}")
    add = x.monoid.add
    dims: dict[int, int] = {}
    for i, ki in x.dims:
        for j, kj in y.dims:
            n = add(i, j)
            dims[n] = dims.get(n, 0) + ki * kj
    return GradedObject(x.monoid, tuple(sorted(dims.items())))


# ---------------------------------------------------------------------------
# column blocks
#
# A block is a tuple of columns.  Column c is a flat tuple
# ``(r1, v1, r2, v2, ...)`` of its nonzero entries in ascending row order,
# so a monomial column is ``(r, v)`` and a zero column is ``()``.  Each
# nonzero scalar is truthy, which is how the kernels test for zero.


def _units(field, n: int) -> tuple:
    """The shared columns ``(r, field.one)``, for at least every ``r < n``;
    the field keeps them (``field.units``) and frees them with itself."""
    cols = field.units
    if len(cols) < n:
        one = field.one
        cols += tuple((r, one) for r in range(len(cols), n))
        field.units = cols
    return cols


def _from_rows(field, rows, units) -> tuple:
    """Column block of a dense tuple-of-rows matrix; ``units`` from ``_units``."""
    one = field.one
    block = []
    for values in zip(*rows):
        col = tuple(x for r, v in enumerate(values) if v for x in (r, v))
        block.append(units[col[0]] if len(col) == 2 and col[1] is one else col)
    return tuple(block)


def _to_rows(field, block, nrows: int) -> tuple:
    """Dense tuple-of-rows view of a column block with ``nrows`` rows."""
    rows = [[field.zero] * len(block) for _ in range(nrows)]
    for c, col in enumerate(block):
        it = iter(col)
        for r, v in zip(it, it):
            rows[r][c] = v
    return tuple(tuple(row) for row in rows)


def mat_mul(field, a, b):
    """The block product ``a . b``, one column at a time (Gustavson).

    A zero column of ``b`` is passed through, a column with one entry
    ``(t, v)`` reuses column ``t`` of ``a`` when ``v`` is one and scales it
    otherwise, and longer columns accumulate.
    """
    one = field.one
    add, mul = field.add, field.mul
    out = []
    for col in b:
        if not col:  # a zero column needs no accumulator
            out.append(col)
            continue
        if len(col) == 2:
            t, v = col
            acol = a[t]
            if v is one or not acol:
                out.append(acol)
            elif len(acol) == 2:
                w = acol[1]
                out.append((acol[0], v if w is one else mul(w, v)))
            else:
                out.append(tuple(mul(x, v) if k & 1 else x
                                 for k, x in enumerate(acol)))
            continue
        acc: dict = {}
        it = iter(col)
        for t, v in zip(it, it):
            at = iter(a[t])
            for r, w in zip(at, at):
                p = w if v is one else mul(w, v)
                acc[r] = add(acc[r], p) if r in acc else p
        out.append(tuple(x for r in sorted(acc) if acc[r] for x in (r, acc[r])))
    return tuple(out)


def mat_rank(field, m) -> int:
    """Rank of a dense tuple-of-rows matrix."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    zero = field.zero
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if rows[r][col] != zero:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col] != zero:
                f = rows[r][col]
                rows[r] = [
                    field.sub(v, field.mul(f, w)) for v, w in zip(rows[r], rows[rank])
                ]
        rank += 1
        if rank == nrows:
            break
    return rank


# ---------------------------------------------------------------------------
# maps


class GradedMap(NamedTuple):
    """Degree-preserving linear map, one column block per shared degree.

    ``blocks`` is sorted by degree and holds no block without a nonzero
    entry, so the form is canonical: two maps are equal exactly when their
    fields, objects and blocks are.  ``block`` and ``dense_blocks`` give
    dense tuple-of-rows views.
    """

    field: object
    source: GradedObject
    target: GradedObject
    blocks: tuple[tuple[int, tuple], ...]

    def block(self, degree: int):
        """Dense rows of the block at ``degree``, or None when it is zero."""
        for d, m in self.blocks:
            if d == degree:
                return _to_rows(self.field, m, self.target.dim(d))
        return None

    def dense_blocks(self) -> tuple:
        return tuple((d, _to_rows(self.field, m, self.target.dim(d)))
                     for d, m in self.blocks)

    def __str__(self) -> str:
        parts = ", ".join(f"{d}: {m}" for d, m in self.dense_blocks())
        return f"{self.source} -> {self.target} [{parts}]"


def graded_map(field, source: GradedObject, target: GradedObject,
               blocks: Mapping[int, Sequence[Sequence]]) -> GradedMap:
    """Validating constructor from dense rows; drops all-zero blocks."""
    if source.monoid != target.monoid:
        raise MonoidMismatch("map endpoints use different grading monoids")
    units = _units(field, target.total_dim)
    clean = {}
    for d, rows in blocks.items():
        m, n = target.dim(d), source.dim(d)
        if m == 0 or n == 0:
            raise ObjectMismatch(f"block at degree {d} absent from source or target")
        mat = tuple(tuple(row) for row in rows)
        if len(mat) != m or any(len(row) != n for row in mat):
            raise ObjectMismatch(
                f"block at degree {d} must have shape {m}x{n}"
            )
        clean[d] = _from_rows(field, mat, units)
    return _raw_map(field, source, target, clean)


def monomial_map(field, source: GradedObject, target: GradedObject,
                 columns: Mapping[int, Iterable[tuple[int, object]]]) -> GradedMap:
    """Map whose block at degree ``d`` has the single entry ``(row, value)``
    of ``columns[d]`` in each column; a zero value leaves the column empty.
    The identity between equal objects is the interned one."""
    one = field.one
    units = _units(field, target.total_dim)
    blocks = {}
    for d, entries in columns.items():
        blocks[d] = tuple(units[r] if v is one or v == one else (r, v) if v else ()
                          for r, v in entries)
    return block_map(field, source, target, blocks)


def _raw_map(field, source, target, blocks: dict) -> GradedMap:
    """Internal constructor from canonical column blocks; drops empty ones."""
    return GradedMap(field, source, target,
                     tuple(sorted((d, m) for d, m in blocks.items() if any(m))))


def block_map(field, source: GradedObject, target: GradedObject,
              blocks: Mapping[int, tuple]) -> GradedMap:
    """The map with these canonical column blocks, or the interned identity
    when source is target and every column ``c`` of every degree's
    block is the shared unit column ``(c, one)`` of ``_units``, compared by
    reference.  ``monomial_map`` writes every unit entry as that column; a
    block holding a value-equal fresh column is kept as built."""
    if source is target:
        units = _units(field, source.total_dim)
        if all(d in blocks and all(map(is_, blocks[d], units))
               for d in source.degrees):
            return identity(field, source)
    return _raw_map(field, source, target, blocks)


def zero_map(field, source: GradedObject, target: GradedObject) -> GradedMap:
    if source.monoid != target.monoid:
        raise MonoidMismatch("map endpoints use different grading monoids")
    return GradedMap(field, source, target, ())


def elementary(field, source: GradedObject, target: GradedObject, e) -> GradedMap:
    """The map ``source -> target`` with the one nonzero entry ``e``, a tuple
    ``(degree, row, col, value)``; the zero map for ``e = ()``."""
    if not e:
        return zero_map(field, source, target)
    d, r, c, v = e
    return monomial_map(field, source, target, {
        d: [(r, v if k == c else field.zero) for k in range(source.dim(d))]})


def elementary_maps(field, source: GradedObject,
                    target: GradedObject) -> list[GradedMap]:
    """The basis of the degree-preserving maps ``source -> target``: one map
    per (degree d, row r, column c) with the single entry 1 there, in
    ascending (d, r, c) order; ``[]`` when the Hom space is zero."""
    one = field.one
    return [elementary(field, source, target, (d, r, c, one))
            for d, n in source.dims
            for r in range(target.dim(d))
            for c in range(n)]


def identity(field, x: GradedObject) -> GradedMap:
    """The interned identity: the same map for the same object and field."""
    got = x._identities.get(field)
    if got is None:
        units = _units(field, max((k for _, k in x.dims), default=0))
        got = x._identities[field] = GradedMap(
            field, x, x, tuple((d, units[:k]) for d, k in x.dims))
    return got


def _is_identity(m: GradedMap) -> bool:
    return m.source is m.target and m is m.source._identities.get(m.field)


def compose(g: GradedMap, f: GradedMap) -> GradedMap:
    """g after f; an interned identity on either side returns the other map.

    Only the inner object's identity can be a unit here, so one lookup
    settles both sides.  Both block tuples are sorted by degree, so the
    products are met in ascending degree and only the nonzero ones kept:
    the block tuple is canonical as built.
    """
    field = g.field
    if f.field is not field:
        raise ObjectMismatch("cannot compose maps over different fields")
    mid = f.target
    if mid is not g.source:
        raise ObjectMismatch(
            f"compose: inner objects differ ({mid} vs {g.source})"
        )
    unit = mid._identities.get(field)
    if f is unit:
        return g
    if g is unit:
        return f
    fb = f.blocks
    k, nf = 0, len(fb)
    out = []
    for d, gb in g.blocks:
        while k < nf and fb[k][0] < d:
            k += 1
        if k == nf:
            break
        if fb[k][0] == d:
            m = mat_mul(field, gb, fb[k][1])
            if any(m):
                out.append((d, m))
    return GradedMap(field, f.source, g.target, tuple(out))


# ---------------------------------------------------------------------------
# tensor layout (see the module docstring); with the grading forgotten, an
# object's degrees follow one another in ascending order (``starts``)


def _summand_offsets(x: GradedObject, y: GradedObject) -> dict:
    """(i, j) -> (i + j, offset of the summand X_i (x) Y_j in its degree).

    Walking i, then j, in ascending order visits the summands of each degree
    in ascending i, and each starts where the one before it in that degree
    ends.
    """
    add = x.monoid.add
    ends: dict = {}
    out = {}
    for i, a in x.dims:
        for j, b in y.dims:
            n = add(i, j)
            off = ends.get(n, 0)
            out[(i, j)] = (n, off)
            ends[n] = off + a * b
    return out


def _summand_at(x: GradedObject, y: GradedObject, n: int, pos: int) -> tuple:
    """(i, j, position inside X_i (x) Y_j) of position ``pos`` of (X (x) Y)_n."""
    for (i, j), (m, off) in _summand_offsets(x, y).items():
        if m == n and off <= pos < off + x.dim(i) * y.dim(j):
            return i, j, pos - off
    raise IndexError(f"position {pos} lies outside degree {n} of {x} (x) {y}")


def collapse_map(f: GradedMap, source: GradedObject, target: GradedObject) -> GradedMap:
    """``f`` with its grading forgotten: its blocks laid along the diagonal of
    one degree-0 block ``source -> target``, in ascending degree order.

    ``source`` and ``target`` carry the total dimensions of ``f``'s objects;
    the image of an interned identity is the interned identity of ``source``.
    """
    if source is target and _is_identity(f):
        return identity(f.field, source)
    fb = dict(f.blocks)
    starts = f.target.starts
    cols: list = []
    for d, k in f.source.dims:
        block = fb.get(d)
        if block is None:
            cols += [()] * k
            continue
        r0 = starts[d]
        cols += [tuple(v if p & 1 else v + r0 for p, v in enumerate(col))
                 for col in block]
    return _raw_map(f.field, source, target, {0: tuple(cols)})


def tensor_map(f: GradedMap, g: GradedMap) -> GradedMap:
    """f (x) g, built summand by summand from products of columns.

    When both factors are endomorphisms, as every whiskered flip or
    scaling is, rows and columns share one table of summand offsets."""
    if f.field is not g.field:
        raise ObjectMismatch("cannot tensor maps over different fields")
    if f.source.monoid is not g.source.monoid and f.source.monoid != g.source.monoid:
        raise MonoidMismatch("cannot tensor maps over different grading monoids")
    field = f.field
    one, mul = field.one, field.mul
    src = tensor_obj(f.source, g.source)
    if f is f.source._identities.get(field) and g is g.source._identities.get(field):
        return identity(field, src)
    col_off = _summand_offsets(f.source, g.source)
    if f.source is f.target and g.source is g.target:
        tgt, row_off = src, col_off
    else:
        tgt = tensor_obj(f.target, g.target)
        row_off = _summand_offsets(f.target, g.target)
    units = _units(field, tgt.total_dim)
    out: dict = {}
    for i, a in f.blocks:
        for j, b in g.blocks:
            n, c = col_off[(i, j)]
            r0 = row_off[(i, j)][1]
            height = g.target.dim(j)
            cols = out.get(n)
            if cols is None:
                cols = out[n] = [()] * src.dim(n)
            for acol in a:
                if not acol:
                    c += len(b)
                    continue
                for bcol in b:
                    if len(acol) == 2 and len(bcol) == 2:
                        row = r0 + acol[0] * height + bcol[0]
                        v, w = acol[1], bcol[1]
                        if v is one:
                            cols[c] = units[row] if w is one else (row, w)
                        else:
                            cols[c] = (row, v if w is one else mul(v, w))
                    elif bcol:
                        col = []
                        ai = iter(acol)
                        for r, v in zip(ai, ai):
                            r = r0 + r * height
                            bi = iter(bcol)
                            for s, w in zip(bi, bi):
                                col += (r + s, mul(v, w))
                        cols[c] = tuple(col)
                    c += 1
    return _raw_map(field, src, tgt, {n: tuple(cols) for n, cols in out.items()})


def _ordered(x: GradedObject, y: GradedObject, z: GradedObject) -> bool:
    """Whether the walk over (i, j, k), ascending, meets the summands of
    each degree of (X (x) Y) (x) Z in ascending (i + j, i), and meets an
    X_i twice in one degree only when dim X_i = 1: ``associator``'s two
    conditions for the identity.  It stops at the first summand that
    breaks one."""
    add = x.monoid.add
    last: dict = {}  # degree -> (i + j, i) of the summand last met there
    for i, dx in x.dims:
        for j, _ in y.dims:
            s = (add(i, j), i)
            for k, _ in z.dims:
                n = add(s[0], k)
                t = last.get(n)
                if t is not None and (t >= s or (t[1] == i and dx != 1)):
                    return False
                last[n] = s
    return True


@cache
def associator(field, x: GradedObject, y: GradedObject, z: GradedObject) -> GradedMap:
    """(X (x) Y) (x) Z -> X (x) (Y (x) Z), a permutation at each degree.

    In degree n the basis vector (i, j, k, a, b, c) of X_i (x) Y_j (x) Z_k
    sits at the place of the key (i + j, i, a, b, c) among the source keys
    and at the place of (i, a, j, b, c) among the target keys: the layout
    orders summands by first-factor degree, and indices row-major inside a
    summand.  Within one degree (i + j, i) names the summand, since j and
    k follow from it and n.  So the source keeps each summand contiguous, in
    (i + j, i) order.  The target keeps it contiguous, in (i, j) order,
    when dim X_i = 1 or no other summand of that degree has the same i;
    otherwise the a-slices of those summands interleave.  The map is
    therefore the identity exactly when, in every degree, sorting the
    summands by (i + j, i) gives their (i, j) order and no X_i with
    dim X_i > 1 appears in two summands.

    A walk over (i, j, k), ascending, meets each degree's summands in
    (i, j) order, where both conditions compare neighbours (``_ordered``).
    When they hold, the interned identity is returned and no offset is
    computed; otherwise a second walk lists each degree's summands and the
    permutation is laid out from those lists.
    """
    src = tensor_obj(tensor_obj(x, y), z)
    if _ordered(x, y, z):
        return identity(field, src)
    add = x.monoid.add
    walk: dict = {}  # n -> [(i + j, i, dim X_i, dim Y_j, dim Z_k, j + k)]
    for i, dx in x.dims:
        for j, dy in y.dims:
            m = add(i, j)
            for k, dz in z.dims:
                walk.setdefault(add(m, k), []).append((m, i, dx, dy, dz, add(j, k)))
    yz = tensor_obj(y, z)
    tgt = tensor_obj(x, yz)
    units = _units(field, tgt.total_dim)
    blocks = []
    for n, seq in sorted(walk.items()):
        # source: each summand contiguous, in (i + j, i) order
        cols, size = {}, 0
        for s in sorted(seq):
            cols[s] = size
            size += s[2] * s[3] * s[4]
        # target: X_i (x) (Y (x) Z)_(j+k) in ascending i; Y_j (x) Z_k starts
        # q0 rows into each of its dim X_i slices
        perm = [None] * size
        end = t0 = q0 = 0
        last = None
        for s in seq:
            m, i, dx, dy, dz, mr = s
            if i != last:
                t0, q0, last = end, 0, i
            dyz = yz.dim(mr)
            col = cols[s]
            for a in range(dx):
                for b in range(dy):
                    row = t0 + a * dyz + q0 + b * dz
                    for c in range(dz):
                        perm[col] = units[row + c]
                        col += 1
            q0 += dy * dz
            end += dx * dy * dz
        blocks.append((n, tuple(perm)))
    return GradedMap(field, src, tgt, tuple(blocks))


@cache
def associator_inv(field, x: GradedObject, y: GradedObject, z: GradedObject) -> GradedMap:
    """The inverse permutation, i.e. the transpose of ``associator``."""
    a = associator(field, x, y, z)
    if _is_identity(a):
        return a
    units = _units(field, a.source.total_dim)
    blocks = []
    for n, block in a.blocks:
        inv = [None] * len(block)
        for c, (r, _) in enumerate(block):
            inv[r] = units[c]
        blocks.append((n, tuple(inv)))
    return GradedMap(field, a.target, a.source, tuple(blocks))


# I (x) X and X (x) I equal X in this layout, so every unitor is the identity.
left_unitor = left_unitor_inv = right_unitor = right_unitor_inv = identity


# ---------------------------------------------------------------------------
# maps between tensor products that act summand by summand


def _summandwise(field, x: GradedObject, y: GradedObject, coeff, flip: bool) -> GradedMap:
    """``summand_scaling``, or with ``flip`` ``flip_map``, from one walk over
    the summands of X (x) Y (= Y (x) X, as the degree sum commutes), which
    gives each its offset and its coefficient, tested by reference before
    ``==``.  Y (x) X orders a degree's summands by j, which there rises or
    falls with i in each grading ({0}, Z/2, N), as its first two summands
    show; where it falls, an image starts where its mirror ends.  The map
    is the interned identity exactly when every coefficient is one and, for
    a flip, no degree is reversed and no summand has dim X_i > 1 and
    dim Y_j > 1."""
    xy = tensor_obj(x, y)
    add, one = x.monoid.add, field.one
    # degree -> end of the summands walked there, and -> j of its first one;
    # the degrees whose summands Y (x) X lists in reverse
    ends, firsts, down, walk, ident = {}, {}, set(), [], True
    for i, dx in x.dims:
        for j, dy in y.dims:
            n = add(i, j)
            s0 = ends.get(n, 0)
            if not s0:
                firsts[n] = j
            elif flip and j < firsts[n]:
                down.add(n)
            ends[n] = s0 + dx * dy
            v = coeff(i, j)
            if v is not one and v == one:
                v = one
            ident = ident and v is one and (not flip or dx == 1 or dy == 1)
            walk.append((n, s0, dx, dy, v))
    if ident and not down:
        return identity(field, xy)
    units = _units(field, xy.total_dim)
    cols = {n: [()] * k for n, k in sorted(ends.items())}
    for n, s0, dx, dy, v in walk:
        if not v:
            continue
        col, size = cols[n], dx * dy
        t0 = ends[n] - s0 - size if n in down else s0
        if size == 1:
            col[s0] = units[t0] if v is one else (t0, v)
            continue
        # a flip sends (a, b) at s0 + a dy + b to row t0 + b dx + a: for each
        # a, rows of step dx (one run of rows when dx or dy is 1)
        step = dx if flip and dy > 1 else 1
        width = size // step
        for a in range(step):
            c = s0 + a * width
            col[c:c + width] = (units[t0 + a:t0 + size:step] if v is one
                                else [(r, v) for r in range(t0 + a, t0 + size, step)])
    return GradedMap(field, xy, xy, tuple((n, tuple(c)) for n, c in cols.items() if any(c)))


def flip_map(field, x: GradedObject, y: GradedObject,
             coeff: Callable[[int, int], object]) -> GradedMap:
    """X (x) Y -> Y (x) X sending (i, j, a, b) to coeff(i, j) (j, i, b, a),
    written in one walk over the summands (``_summandwise``)."""
    return _summandwise(field, x, y, coeff, True)


def summand_scaling(field, x: GradedObject, y: GradedObject,
                    coeff: Callable[[int, int], object]) -> GradedMap:
    """The endomorphism of X (x) Y acting on X_i (x) Y_j by coeff(i, j),
    written in one walk over the summands (``_summandwise``)."""
    return _summandwise(field, x, y, coeff, False)


def degree_scaling(field, x: GradedObject,
                   coeff: Callable[[int], object]) -> GradedMap:
    """The endomorphism of X acting on X_m by coeff(m) times the identity."""
    columns = {}
    for d, k in x.dims:
        v = coeff(d)
        columns[d] = [(r, v) for r in range(k)]
    return monomial_map(field, x, x, columns)


def collapse_laxator(field, x: GradedObject, y: GradedObject,
                     source: GradedObject, target: GradedObject) -> GradedMap:
    """The collapse functor's laxator FX (x) FY -> F(X (x) Y): the permutation
    sending (i, a) (x) (j, b) to (i, j, a, b).

    ``source`` and ``target`` are the one-degree images of the tensor of the
    collapsed factors and of the collapsed tensor.
    """
    xs, ys, ts = x.starts, y.starts, tensor_obj(x, y).starts
    width = y.total_dim
    rows = [0] * (x.total_dim * width)
    for (i, j), (n, s0) in _summand_offsets(x, y).items():
        t0 = ts[n] + s0
        dx, dy = x.dim(i), y.dim(j)
        for a in range(dx):
            c0 = (xs[i] + a) * width + ys[j]
            for b in range(dy):
                rows[c0 + b] = t0 + a * dy + b
    one = field.one
    return monomial_map(field, source, target, {0: [(r, one) for r in rows]})


# ---------------------------------------------------------------------------
# the rank-one route: identities between elementary pairs, decided without
# building a map


class RankOne:
    """The squares ``E o M == N o E'`` with E and E' elementary or zero.

    With ``a`` at (n; R, C) in E, ``E o M`` is row C of M's degree-n block
    moved to row R and scaled by ``a``; with ``b`` at (n'; R', C') in E',
    ``N o E'`` is column R' of N's degree-n' block moved to column C' and
    scaled by ``b``.  The two are equal exactly when both are zero, or when
    both are the single entry (R, C') with ``a M[C, C'] == N[R, R'] b``.
    That holds for any M and N, monomial or dense.  ``settle`` decides all
    pairs of a quadruple in one call, from the ``half`` of (X, Y) and of
    (X', Y'); the summand layouts live as long as the instance, kept for
    one check.
    """

    def __init__(self, field):
        self.one, self.mul = field.one, field.mul
        self._layouts: dict = {}  # (x, y) -> (X (x) Y, i -> j -> (n, offset, dim Y_j))

    def _layout(self, x: GradedObject, y: GradedObject) -> tuple:
        """X (x) Y and its summand layout: i -> j -> (n, offset, dim Y_j)."""
        got = self._layouts.get((x, y))
        if got is None:
            table: dict = {}
            for (i, j), (n, off) in _summand_offsets(x, y).items():
                table.setdefault(i, {})[j] = (n, off, y.dim(j))
            got = self._layouts[(x, y)] = (tensor_obj(x, y), table)
        return got

    def half(self, m: GradedMap, objects: tuple, images: tuple,
             flip: bool = False) -> tuple:
        """What ``settle`` reads of the pair (A, B) = ``objects`` and its map
        ``m : FA (x) FB -> ...``, (FA, FB) = ``images``: ``(m, objects,
        images, flip, T, layout of T, layout of FA (x) FB, rows, cols)``,
        where T, the side of E, is A (x) B (B (x) A when ``flip``), and
        ``rows`` and ``cols`` map a degree to m's rows and columns.  They are
        ``None`` when m's source is not FA (x) FB or a row lies beyond its
        target, so such a map is never read."""
        tensor, layout = self._layout(*(objects[::-1] if flip else objects))
        source, image_layout = self._layout(*images)
        rows = cols = None
        dim = m.target.dim
        if m.source is source and all(not col or col[-2] < dim(d)
                                      for d, block in m.blocks for col in block):
            rows, cols = {}, dict(m.blocks)
            for d, block in m.blocks:
                rows[d] = out = [[] for _ in range(dim(d))]
                for c, col in enumerate(block):
                    it = iter(col)
                    for r, v in zip(it, it):
                        out[r] += (c, v)
        return m, objects, images, flip, tensor, layout, image_layout, rows, cols

    def settle(self, source: tuple, target: tuple, us: tuple, vs: tuple,
               unsettled: Callable, mover: Callable = None):
        """Decide ``E o M == N o E'`` for each pair (u, v) of ``product(us[0],
        vs[0])`` in order, building no map: yield the number of consecutive
        pairs that hold, and ``unsettled(source, target, u, v, unequal)``
        for any other.  M, N are the maps of the halves ``source`` of
        (X, Y) and ``target`` of (X', Y'); ``us``, ``vs`` are the bases
        ``distortion.basis_quadruples`` gives for Hom(X, X') and Hom(Y, Y').
        E' is F(u) (x) F(v), from the bases' image entries; E is u (x) v
        (v (x) u when flipped), moved by ``move`` when ``mover(X (x) Y,
        X' (x) Y')`` gives ``(FA, FB, move)``.  A pair is off the route, not
        ``unequal``, when an image entry is ``None`` or M : FX (x) FY ->
        source of E or N : FX' (x) FY' -> target of E does not hold."""
        m, _, _, flip, src, lcols, rcols, mrows, _ = source
        n, _, _, _, tgt, lrows, rrows, _, ncols = target
        fa, fb, move = (src, tgt, None) if mover is None else mover(src, tgt)
        fits = (mrows is not None and ncols is not None
                and m.target is fa and n.target is fb)
        one, mul = self.one, self.mul
        held = 0
        for u, fu in zip(*us):
            for v, fv in zip(*vs):
                on = fits and fu is not None and fv is not None
                # E, at (d; R, C) with value a: E o M is row C of M
                i, r1, c1, v1 = v if flip else u
                j, r2, c2, v2 = u if flip else v
                d, c0, w = lcols[i][j]
                _, r0, h = lrows[i][j]
                e = d, r0 + r1 * h + r2, c0 + c1 * w + c2, v1 if v2 is one else mul(v1, v2)
                if on and move is not None:
                    e = move(e)
                    on = e is not None
                row = col = ()
                if on and e:
                    d, R, C, a = e
                    if d in mrows:
                        row = mrows[d][C]
                # E', at (d2; R2, C2) with value b: N o E' is column R2 of N
                if on and fu and fv:
                    i, r1, c1, v1 = fu
                    j, r2, c2, v2 = fv
                    d2, c0, w = rcols[i][j]
                    _, r0, h = rrows[i][j]
                    if d2 in ncols:
                        col = ncols[d2][r0 + r1 * h + r2]
                    C2, b = c0 + c1 * w + c2, v1 if v2 is one else mul(v1, v2)
                # both sides zero, or both the one entry (R, C2) with equal values
                if on and (not (row or col) or row and col and d == d2
                           and len(row) == len(col) == 2 and row[0] == C2 and col[0] == R
                           and ((lv := row[1] if a is one else mul(a, row[1]))
                                is (rv := col[1] if b is one else mul(col[1], b))
                                or lv == rv)):
                    held += 1
                    continue
                if held:
                    yield held
                    held = 0
                yield unsettled(source, target, u, v, on)
        if held:
            yield held


# ---------------------------------------------------------------------------
# witness decoder


def _bracketed(factors) -> GradedObject:
    """The tensor product that a tuple tree of objects names."""
    if factors.__class__ is not tuple:
        return factors
    return tensor_obj(_bracketed(factors[0]), _bracketed(factors[1]))


def factor_degrees(factors, degree: int, col: int) -> tuple:
    """Per-factor degrees of basis column ``col`` of degree ``degree`` of a
    tensor product named by its factors as a tuple tree: ``(x, y)``,
    ``((x, y), z)`` or ``(x, (y, z))``.  A single object, or ``None``, is
    one factor of degree ``degree``."""
    if factors.__class__ is not tuple:
        return (degree,)
    left, right = factors
    y = _bracketed(right)
    i, j, pos = _summand_at(_bracketed(left), y, degree, col)
    k = y.dim(j)
    return factor_degrees(left, i, pos // k) + factor_degrees(right, j, pos % k)
