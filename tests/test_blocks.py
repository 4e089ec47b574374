"""The column-block kernels and the tensor layout against a dense
reference kept here.

Maps are drawn dense, monomial (at most one entry per column) or with
explicit all-zero blocks, over Q and over F_2147483647.  Every kernel
result must equal the dense reference and must be stored canonically:
columns list their nonzero entries in ascending row order, and no block
without a nonzero entry is kept.  The reference spells the tensor layout
out as lists of basis labels; the package itself knows it only as
summand offsets.  The elementary maps must be the entry basis of every
Hom space, since naturality is decided on them.
"""

from fractions import Fraction
from itertools import product

from hypothesis import assume, given, settings
import hypothesis.strategies as st
import pytest

from distmon import (
    NAT, PARITY, TRIVIAL, DistortedStructure, GradedMap, GradedObject,
    PrimeField, associator, associator_inv, collapse_map,
    compose, graded_map, identity, identity_unit, left_unitor,
    left_unitor_inv, monomial_map, projection_transformation, right_unitor,
    right_unitor_inv, symmetric_braiding, tensor_map, tensor_obj,
    truncation_functor, unit_object,
)
from distmon.errors import MonoidMismatch, ObjectMismatch
from distmon.exactlin import (
    collapse_laxator, degree_scaling, elementary_maps, factor_degrees, flip_map,
    mat_mul, summand_scaling,
)
from distmon.fields import RATIONAL
from distmon.reports import first_difference

from conftest import object_strategy

FP = PrimeField(2147483647)
FIELDS = [RATIONAL, FP]


def palette(field):
    """Scalars drawn for entries; ``one`` also appears as an equal but
    distinct object, so both the shared and the computed one are seen."""
    if field is RATIONAL:
        return [Fraction(0), Fraction(1), Fraction(3, 3), Fraction(-1),
                Fraction(2), Fraction(1, 2)]
    return [0, 1, field.p - 1, 2, (field.p + 1) // 2]


# ---------------------------------------------------------------------------
# the tensor layout as label lists


def pair_summands(x, y, n):
    """Degree pairs (i, j) with i + j = n, ascending in i."""
    return sorted((i, j) for i in x.degrees for j in y.degrees
                  if x.monoid.add(i, j) == n)


def pair_basis(x, y, n):
    """Basis labels (i, j, a, b) of (X (x) Y)_n in layout order."""
    return [(i, j, a, b)
            for i, j in pair_summands(x, y, n)
            for a in range(x.dim(i))
            for b in range(y.dim(j))]


def triple_basis_left(x, y, z, n):
    """Basis labels (i, j, k, a, b, c) of ((X (x) Y) (x) Z)_n in layout order."""
    xy = tensor_obj(x, y)
    return [(i, j, k, a, b, c)
            for m, k in pair_summands(xy, z, n)
            for i, j in pair_summands(x, y, m)
            for a in range(x.dim(i))
            for b in range(y.dim(j))
            for c in range(z.dim(k))]


def triple_basis_right(x, y, z, n):
    """Basis labels (i, j, k, a, b, c) of (X (x) (Y (x) Z))_n in layout order."""
    yz = tensor_obj(y, z)
    return [(i, j, k, a, b, c)
            for i, m in pair_summands(x, yz, n)
            for a in range(x.dim(i))
            for j, k in pair_summands(y, z, m)
            for b in range(y.dim(j))
            for c in range(z.dim(k))]


# ---------------------------------------------------------------------------
# dense reference (dicts degree -> list of rows; absent means zero)


def dense(m):
    return {d: [list(row) for row in rows] for d, rows in m.dense_blocks()}


def zero_rows(field, nrows, ncols):
    return [[field.zero] * ncols for _ in range(nrows)]


def drop_zero(field, blocks):
    return {d: rows for d, rows in blocks.items()
            if any(v != field.zero for row in rows for v in row)}


def ref_mul(field, a, b):
    return [[sum_(field, [field.mul(a[r][t], b[t][c]) for t in range(len(b))])
             for c in range(len(b[0]))] for r in range(len(a))]


def sum_(field, values):
    total = field.zero
    for v in values:
        total = field.add(total, v)
    return total


def ref_compose(field, g, f):
    gd, fd = dense(g), dense(f)
    return drop_zero(field, {d: ref_mul(field, gd[d], fd[d]) for d in gd if d in fd})


def ref_tensor(field, f, g):
    """Entry (i, j, a', b') x (i, j, a, b) of f (x) g is f_i[a'][a] g_j[b'][b]."""
    fd, gd = dense(f), dense(g)
    out = {}
    for n in tensor_obj(f.source, g.source).degrees:
        cols = pair_basis(f.source, g.source, n)
        rows = pair_basis(f.target, g.target, n)
        block = zero_rows(field, len(rows), len(cols))
        for r, (i, j, ap, bp) in enumerate(rows):
            for c, (ic, jc, a, b) in enumerate(cols):
                if (i, j) == (ic, jc) and i in fd and j in gd:
                    block[r][c] = field.mul(fd[i][ap][a], gd[j][bp][b])
        out[n] = block
    return drop_zero(field, out)


def ref_associator(field, x, y, z):
    out = {}
    for n in tensor_obj(tensor_obj(x, y), z).degrees:
        cols = triple_basis_left(x, y, z, n)
        rows = triple_basis_right(x, y, z, n)
        out[n] = [[field.one if lab == col else field.zero for col in cols]
                  for lab in rows]
    return out


def ref_summand_map(field, x, y, target_basis, relabel, coeff):
    """X (x) Y -> the tensor whose degree-n labels ``target_basis(n)`` lists,
    sending label (i, j, a, b) to coeff(i, j) times ``relabel`` of it."""
    out = {}
    for n in tensor_obj(x, y).degrees:
        cols = pair_basis(x, y, n)
        rows = target_basis(n)
        block = zero_rows(field, len(rows), len(cols))
        for c, lab in enumerate(cols):
            block[rows.index(relabel(lab))][c] = coeff(*lab[:2])
        out[n] = block
    return drop_zero(field, out)


def ref_collapse_laxator(field, x, y):
    """(i, a) (x) (j, b) -> (i, j, a, b), both sides with degrees forgotten."""
    xs = [(i, a) for i, k in x.dims for a in range(k)]
    ys = [(j, b) for j, k in y.dims for b in range(k)]
    rows = [lab for n in tensor_obj(x, y).degrees for lab in pair_basis(x, y, n)]
    block = [[field.one if lab == (i, j, a, b) else field.zero
              for (i, a), (j, b) in product(xs, ys)] for lab in rows]
    return drop_zero(field, {0: block})


def ref_monomial(field, src, tgt, columns):
    """The dense map whose column c at degree d has ``columns[d][c]``."""
    out = {}
    for d, entries in columns.items():
        block = zero_rows(field, tgt.dim(d), src.dim(d))
        for c, (r, v) in enumerate(entries):
            block[r][c] = v
        out[d] = block
    return drop_zero(field, out)


def ref_identity_blocks(field, x, bound=None):
    """The identity blocks of X at its degrees up to ``bound``."""
    return {d: [[field.one if r == c else field.zero for c in range(k)]
                for r in range(k)]
            for d, k in x.dims if bound is None or d <= bound}


def ref_first_difference(field, left, right):
    ld, rd = dense(left), dense(right)
    for d in sorted(set(ld) | set(rd)):
        nrows, ncols = left.target.dim(d), left.source.dim(d)
        lb = ld.get(d, zero_rows(field, nrows, ncols))
        rb = rd.get(d, zero_rows(field, nrows, ncols))
        for r in range(nrows):
            for c in range(ncols):
                if lb[r][c] != rb[r][c]:
                    return (d, r, c, lb[r][c], rb[r][c])
    return None


def assert_canonical(m):
    degrees = [d for d, _ in m.blocks]
    assert degrees == sorted(set(degrees))
    for d, block in m.blocks:
        assert len(block) == m.source.dim(d) and m.target.dim(d) > 0
        assert any(block), "an empty block is stored"
        for col in block:
            assert len(col) % 2 == 0
            rows, values = col[0::2], col[1::2]
            assert list(rows) == sorted(set(rows))
            assert all(0 <= r < m.target.dim(d) for r in rows)
            assert all(v != m.field.zero for v in values)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def graded_maps(draw, field, src, tgt):
    """A map src -> tgt drawn dense, monomial or with explicit zero blocks."""
    kind = draw(st.sampled_from(["dense", "monomial", "zero_blocks"]))
    values = palette(field)
    nonzero = [v for v in values if v != field.zero]
    blocks = {}
    for d in src.degrees:
        m, n = tgt.dim(d), src.dim(d)
        if m == 0:
            continue
        if kind == "zero_blocks" and draw(st.booleans()):
            blocks[d] = zero_rows(field, m, n)
        elif kind == "dense":
            blocks[d] = [[draw(st.sampled_from(values)) for _ in range(n)]
                         for _ in range(m)]
        else:
            rows = zero_rows(field, m, n)
            for c in range(n):
                r = draw(st.one_of(st.none(), st.integers(0, m - 1)))
                if r is not None:
                    rows[r][c] = draw(st.sampled_from(nonzero))
            blocks[d] = rows
    return graded_map(field, src, tgt, blocks)


monoids = st.sampled_from([NAT, PARITY])


def objects(draw, monoid, count):
    return [draw(object_strategy(monoid, max_degree=2, max_dim=2, max_support=2))
            for _ in range(count)]


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), monoids)
def test_compose_matches_dense_product(data, field, monoid):
    x, y, z = objects(data.draw, monoid, 3)
    f = data.draw(graded_maps(field, x, y))
    g = data.draw(graded_maps(field, y, z))
    got = compose(g, f)
    assert_canonical(f)
    assert_canonical(got)
    assert dense(got) == ref_compose(field, g, f)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), monoids)
def test_tensor_map_matches_dense_layout(data, field, monoid):
    x, xp, y, yp = objects(data.draw, monoid, 4)
    f = data.draw(graded_maps(field, x, xp))
    g = data.draw(graded_maps(field, y, yp))
    got = tensor_map(f, g)
    assert_canonical(got)
    assert dense(got) == ref_tensor(field, f, g)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), monoids)
def test_structural_maps_match_dense_reference(data, field, monoid):
    x, y, z = objects(data.draw, monoid, 3)
    ident = identity(field, x)
    assert_canonical(ident)
    assert dense(ident) == {d: [[field.one if r == c else field.zero
                                 for c in range(k)] for r in range(k)]
                            for d, k in x.dims}
    a, a_inv = associator(field, x, y, z), associator_inv(field, x, y, z)
    assert_canonical(a)
    assert_canonical(a_inv)
    ref = ref_associator(field, x, y, z)
    assert dense(a) == ref
    assert dense(a_inv) == {d: [list(col) for col in zip(*rows)]
                            for d, rows in ref.items()}
    trivial = a.source == a.target and dense(a) == dense(identity(field, a.source))
    assert (a is identity(field, a.source)) == trivial
    assert (a_inv is a) == trivial
    unit = unit_object(monoid)
    assert tensor_obj(unit, x) == x == tensor_obj(x, unit)
    for unitor in (left_unitor, left_unitor_inv, right_unitor, right_unitor_inv):
        assert unitor(field, x) is ident


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), monoids)
def test_unit_laws_by_reference_match_the_dense_reference(data, field, monoid):
    """The interned identity, a fresh value-equal copy of it and the dense
    reference agree; only the interned one is returned by reference."""
    x, y = objects(data.draw, monoid, 2)
    f = data.draw(graded_maps(field, x, y))
    idx, idy = identity(field, x), identity(field, y)
    assert idx is identity(field, x)
    for ix, iy in ((idx, idy), (GradedMap(field, x, x, idx.blocks),
                                GradedMap(field, y, y, idy.blocks))):
        for got, ref in ((compose(f, ix), ref_compose(field, f, ix)),
                         (compose(iy, f), ref_compose(field, iy, f)),
                         (tensor_map(ix, f), ref_tensor(field, ix, f)),
                         (tensor_map(f, iy), ref_tensor(field, f, iy)),
                         (tensor_map(ix, iy), ref_tensor(field, ix, iy))):
            assert_canonical(got)
            assert dense(got) == ref
        assert compose(f, ix) == f == compose(iy, f)
        assert tensor_map(ix, iy) == identity(field, tensor_obj(x, y))
    assert compose(f, idx) is f and compose(idy, f) is f
    assert tensor_map(idx, idy) is identity(field, tensor_obj(x, y))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), monoids)
def test_a_mismatched_identity_still_raises(data, field, monoid):
    x, y = objects(data.draw, monoid, 2)
    assume(x != y)
    f = data.draw(graded_maps(field, x, y))
    other = FP if field is RATIONAL else RATIONAL
    for bad in (lambda: compose(f, identity(field, y)),
                lambda: compose(identity(field, x), f),
                lambda: compose(identity(field, y), identity(field, x)),
                lambda: compose(identity(other, y), f),
                lambda: compose(f, identity(other, x)),
                lambda: tensor_map(identity(field, x), identity(other, y))):
        with pytest.raises(ObjectMismatch):
            bad()
    lone = TRIVIAL if monoid is NAT else NAT
    with pytest.raises(MonoidMismatch):
        tensor_map(identity(field, x), identity(field, unit_object(lone)))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), monoids)
def test_first_difference_matches_dense_scan(data, field, monoid):
    x, y = objects(data.draw, monoid, 2)
    left = data.draw(graded_maps(field, x, y))
    how = data.draw(st.sampled_from(["rebuilt", "perturbed", "drawn"]))
    if how == "drawn":
        right = data.draw(graded_maps(field, x, y))
    else:
        blocks = {d: [list(row) for row in rows]
                  for d, rows in dense(left).items()}
        if how == "perturbed" and blocks:
            d = data.draw(st.sampled_from(sorted(blocks)))
            r = data.draw(st.integers(0, len(blocks[d]) - 1))
            c = data.draw(st.integers(0, len(blocks[d][0]) - 1))
            blocks[d][r][c] = field.add(blocks[d][r][c], field.one)
        right = graded_map(field, x, y, blocks)
    assert first_difference(left, right) == ref_first_difference(field, left, right)
    assert first_difference(right, right) is None


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), monoids)
def test_collapse_map_lays_blocks_along_the_diagonal(data, field, monoid):
    x, y = objects(data.draw, monoid, 2)
    f = data.draw(graded_maps(field, x, y))
    src = GradedObject(TRIVIAL, ((0, x.total_dim),))
    tgt = GradedObject(TRIVIAL, ((0, y.total_dim),))
    got = collapse_map(f, src, tgt)
    assert_canonical(got)
    block = zero_rows(field, y.total_dim, x.total_dim)
    fd = dense(f)
    r0 = c0 = 0
    for d in sorted(set(x.degrees) | set(y.degrees)):
        for r, row in enumerate(fd.get(d, [])):
            for c, v in enumerate(row):
                block[r0 + r][c0 + c] = v
        r0, c0 = r0 + y.dim(d), c0 + x.dim(d)
    assert dense(got) == drop_zero(field, {0: block})


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), st.sampled_from([NAT, PARITY, TRIVIAL]))
def test_elementary_maps_are_the_entry_basis(data, field, monoid):
    x, y = objects(data.draw, monoid, 2)
    basis = elementary_maps(field, x, y)
    assert len(basis) == sum(k * y.dim(d) for d, k in x.dims)
    spots = []
    for e in basis:
        assert_canonical(e)
        entries = [(d, r, c, v) for d, rows in dense(e).items()
                   for r, row in enumerate(rows) for c, v in enumerate(row)
                   if v != field.zero]
        assert len(entries) == 1 and entries[0][3] == field.one
        spots.append(entries[0][:3])
    assert spots == sorted(set(spots))
    f = data.draw(graded_maps(field, x, y))
    fd = dense(f)
    rebuilt = {d: zero_rows(field, y.dim(d), k) for d, k in x.dims if y.dim(d)}
    for e, (d, r, c) in zip(basis, spots):
        coeff = fd[d][r][c] if d in fd else field.zero
        for dd, rows in dense(e).items():
            for rr, row in enumerate(rows):
                for cc, v in enumerate(row):
                    rebuilt[dd][rr][cc] = field.add(rebuilt[dd][rr][cc],
                                                    field.mul(coeff, v))
    assert drop_zero(field, rebuilt) == fd


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), monoids)
def test_layout_maps_match_label_lists(data, field, monoid):
    x, y, z = objects(data.draw, monoid, 3)
    table = {(i, j): data.draw(st.sampled_from(palette(field)))
             for i in x.degrees for j in y.degrees}

    def coeff(i, j):
        return table[(i, j)]

    flip = flip_map(field, x, y, coeff)
    assert_canonical(flip)
    assert dense(flip) == ref_summand_map(
        field, x, y, lambda n: pair_basis(y, x, n),
        lambda lab: (lab[1], lab[0], lab[3], lab[2]), coeff)
    scaling = summand_scaling(field, x, y, coeff)
    assert_canonical(scaling)
    assert dense(scaling) == ref_summand_map(
        field, x, y, lambda n: pair_basis(x, y, n), lambda lab: lab, coeff)

    xy = tensor_obj(x, y)
    fx = GradedObject(TRIVIAL, ((0, x.total_dim),))
    fy = GradedObject(TRIVIAL, ((0, y.total_dim),))
    mu = collapse_laxator(field, x, y, tensor_obj(fx, fy),
                          GradedObject(TRIVIAL, ((0, xy.total_dim),)))
    assert_canonical(mu)
    assert dense(mu) == ref_collapse_laxator(field, x, y)

    for n in xy.degrees:
        for c, lab in enumerate(pair_basis(x, y, n)):
            assert factor_degrees((x, y), n, c) == lab[:2]
    for factors, labels in ((((x, y), z), triple_basis_left),
                            ((x, (y, z)), triple_basis_right)):
        for n in tensor_obj(xy, z).degrees:
            for c, lab in enumerate(labels(x, y, z, n)):
                assert factor_degrees(factors, n, c) == lab[:3]


# ---------------------------------------------------------------------------
# constructors that return the interned identity


def interned_exactly_for_identities(got, ref):
    """``got`` equals the dense reference ``ref``, and is the interned
    identity exactly when ``ref`` is the identity between equal objects."""
    assert_canonical(got)
    assert dense(got) == ref
    field, x = got.field, got.source
    trivial = x == got.target and ref == ref_identity_blocks(field, x)
    assert (got is identity(field, x)) == trivial
    return trivial


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), monoids)
def test_constructors_return_the_interned_identity_exactly_for_identities(
        data, field, monoid):
    draw = data.draw
    x, y, z = [draw(object_strategy(monoid, max_degree=2, max_dim=3, max_support=2))
               for _ in range(3)]
    values = palette(field)
    ones = [v for v in values if v == field.one]

    def scalars(keys):
        """All one (the identity's case) or drawn from the palette."""
        pool = ones if draw(st.booleans()) else values
        return {key: draw(st.sampled_from(pool)) for key in keys}

    assert GradedObject(x.monoid, x.dims) is x
    tgt = draw(st.sampled_from([x, y]))
    diagonal = draw(st.booleans())
    entry = scalars([(d, c) for d, k in x.dims for c in range(k)])
    columns = {d: [(c if diagonal and c < tgt.dim(d)
                    else draw(st.integers(0, tgt.dim(d) - 1)), entry[(d, c)])
                   for c in range(k)]
               for d, k in x.dims if tgt.dim(d)}
    f = monomial_map(field, x, tgt, columns)
    interned_exactly_for_identities(f, ref_monomial(field, x, tgt, columns))

    table = scalars(list(product(x.degrees, y.degrees)))

    def coeff(i, j):
        return table[(i, j)]

    interned_exactly_for_identities(flip_map(field, x, y, coeff), ref_summand_map(
        field, x, y, lambda n: pair_basis(y, x, n),
        lambda lab: (lab[1], lab[0], lab[3], lab[2]), coeff))
    interned_exactly_for_identities(summand_scaling(field, x, y, coeff), ref_summand_map(
        field, x, y, lambda n: pair_basis(x, y, n), lambda lab: lab, coeff))
    fx = GradedObject(TRIVIAL, ((0, x.total_dim),))
    fy = GradedObject(TRIVIAL, ((0, y.total_dim),))
    interned_exactly_for_identities(
        collapse_laxator(field, x, y, tensor_obj(fx, fy),
                         GradedObject(TRIVIAL, ((0, tensor_obj(x, y).total_dim),))),
        ref_collapse_laxator(field, x, y))
    ft = GradedObject(TRIVIAL, ((0, tgt.total_dim),))
    assert (collapse_map(f, fx, ft) is identity(field, fx)) == (f is identity(field, x))

    scale = scalars(x.degrees)
    lam = degree_scaling(field, x, lambda m: scale[m])
    interned_exactly_for_identities(lam, drop_zero(field, {
        d: [[scale[d] if r == c else field.zero for c in range(k)]
            for r in range(k)] for d, k in x.dims}))

    ref = ref_associator(field, x, y, z)
    trivial = interned_exactly_for_identities(associator(field, x, y, z), ref)
    a_inv = associator_inv(field, x, y, z)
    assert interned_exactly_for_identities(a_inv, {
        d: [list(col) for col in zip(*rows)] for d, rows in ref.items()}) == trivial

    if monoid is not NAT:
        return
    ds = DistortedStructure(field, NAT, [x, y], symmetric_braiding(), identity_unit())
    large = draw(st.integers(0, 3))
    small = draw(st.integers(0, large))
    tau, tau_small = truncation_functor(ds, large), truncation_functor(ds, small)
    got = tau.mor(f)
    interned_exactly_for_identities(got, {
        d: rows for d, rows in dense(f).items() if d <= large})
    if tau.obj(x) is x and tau.obj(tgt) is tgt:
        assert got is f
    src = tensor_obj(tau.obj(x), tau.obj(y))
    interned_exactly_for_identities(tau.mu(x, y),
                                    ref_identity_blocks(field, src, large))
    pi = projection_transformation(tau, tau_small)
    interned_exactly_for_identities(pi.component(x),
                                    ref_identity_blocks(field, tau_small.obj(x)))


def associator_objects(monoid, tables, products):
    """The objects with these degree tables, then the tensor products of the
    listed index pairs: degrees with several summands, and summands whose
    X_i has dimension above 1."""
    objs = [GradedObject.of(monoid, t) for t in tables]
    return objs + [tensor_obj(objs[a], objs[b]) for a, b in products]


ASSOCIATOR_OBJECTS = [
    associator_objects(NAT, [{0: 1}, {1: 1}, {0: 2}, {2: 1}, {0: 1, 1: 1},
                             {0: 1, 2: 2}, {1: 3}, {0: 2, 1: 1}, {1: 2, 2: 1},
                             {0: 3, 2: 1}],
                       [(4, 4), (7, 4), (1, 8)]),
    associator_objects(PARITY, [{0: 1}, {1: 1}, {0: 2}, {0: 1, 1: 1},
                                {0: 1, 1: 2}, {0: 3, 1: 1}],
                       [(3, 4)]),
]


@pytest.mark.parametrize("universe", ASSOCIATOR_OBJECTS, ids=["nat", "parity"])
def test_associator_matches_the_label_reference_on_every_triple(universe):
    """Every triple of a fixed list: ``associator`` and ``associator_inv``
    equal the reference built from basis label lists, and are the interned
    identity exactly when the reference is the identity."""
    field = RATIONAL
    trivial = 0
    for x, y, z in product(universe, repeat=3):
        ref = ref_associator(field, x, y, z)
        a, a_inv = associator(field, x, y, z), associator_inv(field, x, y, z)
        assert dense(a) == ref
        assert dense(a_inv) == {d: [list(col) for col in zip(*rows)]
                                for d, rows in ref.items()}
        src = a.source
        is_ref_identity = src is a.target and ref == ref_identity_blocks(field, src)
        assert (a is identity(field, src)) == is_ref_identity
        assert (a_inv is a) == is_ref_identity
        trivial += is_ref_identity
    assert 0 < trivial < len(universe) ** 3


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), monoids)
def test_a_near_identity_monomial_map_is_never_interned(data, field, monoid):
    x = data.draw(object_strategy(monoid, max_degree=2, max_dim=3, max_support=2))
    columns = {d: [(c, field.one) for c in range(k)] for d, k in x.dims}
    assert monomial_map(field, x, x, columns) is identity(field, x)
    how = data.draw(st.sampled_from(["two", "zero", "swap"]))
    spots = [(d, c) for d, k in x.dims for c in range(k - (how == "swap"))]
    assume(spots)
    d, c = data.draw(st.sampled_from(spots))
    near = {e: list(entries) for e, entries in columns.items()}
    if how == "two":
        near[d][c] = (c, field.add(field.one, field.one))
    elif how == "zero":
        near[d][c] = (c, field.zero)
    else:
        near[d][c], near[d][c + 1] = (c + 1, field.one), (c, field.one)
    got = monomial_map(field, x, x, near)
    assert got is not identity(field, x) and got != identity(field, x)
    assert_canonical(got)
    assert dense(got) == ref_monomial(field, x, x, near)


# ---------------------------------------------------------------------------
# flips and summand scalings decide the identity per summand; the reference
# writes one entry per column from the label lists and hands every column
# to ``monomial_map``, which interns a map whose columns are all units


def ref_flip(field, x, y, coeff):
    src, tgt = tensor_obj(x, y), tensor_obj(y, x)
    columns = {}
    for n in src.degrees:
        rows = pair_basis(y, x, n)
        columns[n] = [(rows.index((j, i, b, a)), coeff(i, j))
                      for i, j, a, b in pair_basis(x, y, n)]
    return monomial_map(field, src, tgt, columns)


def ref_scaling(field, x, y, coeff):
    xy = tensor_obj(x, y)
    return monomial_map(field, xy, xy, {
        n: [(r, coeff(i, j)) for r, (i, j, _, _) in enumerate(pair_basis(x, y, n))]
        for n in xy.degrees})


def coefficient_rules(field):
    """Rules named by what they return: the shared one, an equal but
    distinct one (over Q; every int 1 is one object), zero on a summand or
    everywhere, and a sign or a scalar off the identity."""
    one, zero = field.one, field.zero
    other_one = Fraction(3, 3) if field is RATIONAL else field.from_int(field.p + 1)
    odd = {(1, 1)}
    return {
        "one": lambda i, j: one,
        "equal-one": lambda i, j: other_one,
        "mixed-ones": lambda i, j: other_one if (i + j) % 2 else one,
        "zero": lambda i, j: zero,
        "zero-odd": lambda i, j: zero if (i, j) in odd else one,
        "zero-off-unit": lambda i, j: one if (i, j) == (0, 0) else zero,
        "sign-odd": lambda i, j: field.neg(one) if (i, j) in odd else one,
        "two-at-0-1": lambda i, j: field.from_int(2) if (i, j) == (0, 1) else one,
    }


SUMMAND_OBJECTS = [
    associator_objects(NAT, [{0: 1}, {1: 1}, {0: 3}, {2: 2}, {0: 1, 1: 1},
                             {0: 2, 1: 3}, {1: 1, 2: 1}, {0: 1, 2: 3}],
                       [(4, 4), (1, 5), (2, 6)]),
    associator_objects(PARITY, [{0: 1}, {1: 1}, {0: 2}, {1: 3}, {0: 1, 1: 1},
                                {0: 3, 1: 2}, {0: 1, 1: 3}],
                       [(4, 4), (1, 5), (6, 2)]),
]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Fp"])
@pytest.mark.parametrize("universe", SUMMAND_OBJECTS, ids=["nat", "parity"])
def test_flips_and_scalings_match_the_column_reference(universe, field):
    """On every pair of a fixed list, under each rule: the same blocks as
    the reference, and the interned identity exactly when the reference is
    the interned identity."""
    identities = dict.fromkeys(("flip", "scaling"), 0)
    for name, coeff in coefficient_rules(field).items():
        for x, y in product(universe, repeat=2):
            for kind, build, ref_build in (("flip", flip_map, ref_flip),
                                           ("scaling", summand_scaling, ref_scaling)):
                got, ref = build(field, x, y, coeff), ref_build(field, x, y, coeff)
                assert got == ref, (kind, name, x, y)
                assert_canonical(got)
                trivial = ref is identity(field, ref.source)
                assert (got is identity(field, got.source)) == trivial, \
                    (kind, name, x, y)
                identities[kind] += trivial
    # both outcomes occur for both constructors
    pairs = len(universe) ** 2
    assert 0 < identities["flip"] < pairs * len(coefficient_rules(field))
    assert 0 < identities["scaling"] < pairs * len(coefficient_rules(field))


# ---------------------------------------------------------------------------
# whiskering by an interned identity, the one-walk flips and scalings, and
# zero columns in ``mat_mul``


def patterned_map(field, src, tgt, kind):
    """A fixed map src -> tgt: ``dense`` fills every entry from the palette
    (zeros included), ``sparse`` puts one entry in two of every three
    columns and leaves the third zero."""
    values = palette(field)
    blocks = {}
    for d, n in src.dims:
        m = tgt.dim(d)
        if not m:
            continue
        rows = zero_rows(field, m, n)
        for c in range(n):
            if kind == "dense":
                for r in range(m):
                    rows[r][c] = values[(d + 3 * r + 5 * c) % len(values)]
            elif c % 3 != 1:
                rows[(c + d) % m][c] = values[(1 + c + 2 * d) % len(values)] or field.one
        blocks[d] = rows
    return graded_map(field, src, tgt, blocks)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Fp"])
@pytest.mark.parametrize("universe", SUMMAND_OBJECTS, ids=["nat", "parity"])
def test_whiskering_by_the_interned_identity_matches_a_value_equal_copy(universe, field):
    """``id_W (x) m`` and ``m (x) id_W`` with the interned identity give the
    map that a value-equal copy of it gives, and the dense reference: mixed
    dimensions, zero and dense columns, targets other than the source."""
    objs = universe[:6]
    for w, x, y in product(objs, repeat=3):
        ident = identity(field, w)
        copy = graded_map(field, w, w, dict(ident.dense_blocks()))
        assert copy == ident and copy is not ident
        for kind in ("dense", "sparse"):
            m = patterned_map(field, x, y, kind)
            for f, g, f_copy, g_copy in ((ident, m, copy, m), (m, ident, m, copy)):
                got = tensor_map(f, g)
                assert got == tensor_map(f_copy, g_copy), (kind, w, x, y)
                assert_canonical(got)
                assert dense(got) == ref_tensor(field, f, g)


def layout_offsets(first, second, n):
    """Offset in degree n of each summand (i, j) of ``first (x) second``,
    from the layout rule: the summands of a degree by ascending i."""
    add = first.monoid.add
    out, off = {}, 0
    for i, di in first.dims:
        for j, dj in second.dims:
            if add(i, j) == n:
                out[(i, j)] = off
                off += di * dj
    return out


def layout_summand_map(field, x, y, coeff, flip):
    """Dense blocks of ``flip_map`` (``flip``) or ``summand_scaling``: the
    basis vector (a, b) of X_i (x) Y_j, at s0 + a dim Y_j + b, goes to
    coeff(i, j) times row t0 + b dim X_i + a of Y_j (x) X_i for a flip,
    and to its own row for a scaling."""
    out = {}
    for n, size in tensor_obj(x, y).dims:
        block = zero_rows(field, size, size)
        src, back = layout_offsets(x, y, n), layout_offsets(y, x, n)
        for (i, j), s0 in src.items():
            dx, dy = x.dim(i), y.dim(j)
            for a in range(dx):
                for b in range(dy):
                    col = s0 + a * dy + b
                    row = back[(j, i)] + b * dx + a if flip else col
                    block[row][col] = coeff(i, j)
        out[n] = block
    return drop_zero(field, out)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Fp"])
@pytest.mark.parametrize("universe", SUMMAND_OBJECTS, ids=["nat", "parity"])
def test_one_walk_flips_and_scalings_match_the_layout_rule(universe, field):
    """Every pair of a fixed list, under rules with zero and non-one
    coefficients: the dense blocks of the layout rule, and the interned
    identity exactly when those blocks are the identity."""
    reversed_degrees = 0
    for name, coeff in coefficient_rules(field).items():
        for x, y in product(universe, repeat=2):
            for flip, build in ((True, flip_map), (False, summand_scaling)):
                got = build(field, x, y, coeff)
                ref = layout_summand_map(field, x, y, coeff, flip)
                assert_canonical(got)
                assert dense(got) == ref, (name, flip, x, y)
                xy = tensor_obj(x, y)
                trivial = ref == ref_identity_blocks(field, xy)
                assert (got is identity(field, xy)) == trivial
            offsets = [layout_offsets(x, y, n) for n in tensor_obj(x, y).degrees]
            reversed_degrees += any(list(o) != sorted(o, key=lambda p: p[1])
                                    for o in offsets)
    assert reversed_degrees  # Y (x) X lists some degree's summands in reverse


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Fp"])
def test_mat_mul_keeps_zero_columns_zero(field):
    """Zero columns of ``b`` come out as zero columns, whatever ``a`` holds,
    and every other column is the dense product."""
    two, one, zero = field.from_int(2), field.one, field.zero
    a = ((0, two), (), (0, one, 2, two), (1, one))  # a 3 x 4 block
    a_rows = [[two, zero, one, zero], [zero, zero, zero, one], [zero, zero, two, zero]]
    for b in (((),), ((), ()), ((), (0, one), (), (1, two, 2, one), ()),
              ((2, one), (), (0, two, 3, one))):
        b_rows = zero_rows(field, 4, len(b))
        for c, col in enumerate(b):
            for r, v in zip(col[0::2], col[1::2]):
                b_rows[r][c] = v
        got, ref = mat_mul(field, a, b), ref_mul(field, a_rows, b_rows)
        assert len(got) == len(b)
        for c, col in enumerate(got):
            assert list(col) == [x for r, row in enumerate(ref) if row[c] != zero
                                 for x in (r, row[c])]
            if not b[c]:
                assert col == ()
