import operator
import pickle
from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from distmon import (
    GradedObject, GradingMonoid, MONOIDS, NAT, PARITY, TRIVIAL, associator,
    associator_inv,
    check_base, compose, generate_universe, graded_map, identity,
    left_unitor, left_unitor_inv, right_unitor,
    right_unitor_inv, tensor_map, tensor_obj, unit_object, zero_map,
)
from distmon.errors import MonoidMismatch, ObjectMismatch
from distmon.exactlin import factor_degrees
from distmon.reports import CheckBudget

from conftest import Q, map_strategy, obj, object_strategy, qmap


# ---------------------------------------------------------------------------
# identity and composition


def test_identity_on_unit():
    x = obj(NAT, {0: 1})
    assert identity(Q, x).dense_blocks() == ((0, ((Fraction(1),),)),)


def test_identity_shapes():
    x = obj(NAT, {0: 2, 1: 1})
    m = identity(Q, x)
    assert len(m.block(0)) == 2 and len(m.block(0)[0]) == 2
    assert m.block(1) == ((1,),)


def test_compose_unit_laws():
    x, y = obj(NAT, {0: 1, 1: 2}), obj(NAT, {0: 2, 1: 1})
    f = qmap(x, y, {0: [[1], [2]], 1: [[3, "1/2"]]})
    assert compose(identity(Q, y), f) == f
    assert compose(f, identity(Q, x)) == f


def test_compose_one_by_one():
    x = obj(NAT, {1: 1})
    f = qmap(x, x, {1: [[3]]})
    g = qmap(x, x, {1: [[2]]})
    assert compose(g, f).block(1) == ((Fraction(6),),)


def test_compose_mismatch():
    x, y = obj(NAT, {0: 1}), obj(NAT, {1: 1})
    with pytest.raises(ObjectMismatch):
        compose(identity(Q, y), identity(Q, x))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_compose_associative(data):
    a = data.draw(object_strategy(NAT))
    b = data.draw(object_strategy(NAT))
    c = data.draw(object_strategy(NAT))
    d = data.draw(object_strategy(NAT))
    f = map_strategy(data.draw, a, b)
    g = map_strategy(data.draw, b, c)
    h = map_strategy(data.draw, c, d)
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


# ---------------------------------------------------------------------------
# tensor product of objects


def test_tensor_obj_concentrated():
    # both factors in degree 1: the product sits in degree 2
    x = obj(NAT, {1: 1})
    assert tensor_obj(x, x) == obj(NAT, {2: 1})


def test_tensor_obj_unit():
    y = obj(NAT, {0: 2, 2: 3})
    assert tensor_obj(unit_object(NAT), y).dims == y.dims
    assert tensor_obj(y, unit_object(NAT)).dims == y.dims


def _oracle_dims(x, y):
    # independent enumeration of degree pairs (i, j), i + j = n
    out = {}
    for i, ki in x.dims:
        for j, kj in y.dims:
            out[i + j] = out.get(i + j, 0) + ki * kj
    return tuple(sorted(out.items()))


def test_tensor_obj_enumerated():
    x = obj(NAT, {0: 1, 1: 1})
    got = tensor_obj(x, x)
    assert got == obj(NAT, {0: 1, 1: 2, 2: 1})  # frozen from the oracle
    assert got.dims == _oracle_dims(x, x)


@settings(max_examples=40, deadline=None)
@given(object_strategy(NAT), object_strategy(NAT))
def test_tensor_obj_matches_oracle(x, y):
    assert tensor_obj(x, y).dims == _oracle_dims(x, y)


def test_tensor_obj_monoid_mismatch():
    with pytest.raises(MonoidMismatch):
        tensor_obj(obj(NAT, {0: 1}), obj(PARITY, {0: 1}))


def test_parity_pair_summands():
    x = obj(PARITY, {0: 1, 1: 1})
    assert [factor_degrees((x, x), 0, c) for c in range(2)] == [(0, 0), (1, 1)]
    assert [factor_degrees((x, x), 1, c) for c in range(2)] == [(0, 1), (1, 0)]


# ---------------------------------------------------------------------------
# tensor product of maps


def test_tensor_map_identities():
    x, y = obj(NAT, {0: 2, 1: 1}), obj(NAT, {0: 1, 2: 2})
    assert tensor_map(identity(Q, x), identity(Q, y)) == \
        identity(Q, tensor_obj(x, y))


def test_tensor_map_one_by_one():
    x = obj(NAT, {1: 1})
    f = qmap(x, x, {1: [[2]]})
    g = qmap(x, x, {1: [[3]]})
    assert tensor_map(f, g).block(2) == ((Fraction(6),),)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_tensor_map_functorial(data):
    a = data.draw(object_strategy(PARITY))
    b = data.draw(object_strategy(PARITY))
    c = data.draw(object_strategy(PARITY))
    ap = data.draw(object_strategy(PARITY))
    bp = data.draw(object_strategy(PARITY))
    cp = data.draw(object_strategy(PARITY))
    f = map_strategy(data.draw, a, b)
    g = map_strategy(data.draw, b, c)
    fp = map_strategy(data.draw, ap, bp)
    gp = map_strategy(data.draw, bp, cp)
    lhs = tensor_map(compose(g, f), compose(gp, fp))
    rhs = compose(tensor_map(g, gp), tensor_map(f, fp))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# associator


def test_associator_single_basis_triple():
    x = obj(NAT, {1: 1})
    a = associator(Q, x, x, x)
    assert a.dense_blocks() == ((3, ((Fraction(1),),)),)


def _oracle_degree2_permutation():
    # brute-force sort of the six degree triples under both key orders
    triples = [
        (i, j, k)
        for i in (0, 1, 2) for j in (0, 1, 2) for k in (0, 1, 2)
        if i + j + k == 2
    ]
    left = sorted(triples, key=lambda t: (t[0] + t[1], t[0]))
    right = sorted(triples, key=lambda t: (t[0], t[1]))
    n = len(triples)
    return tuple(
        tuple(Fraction(1) if right[r] == left[c] else Fraction(0)
              for c in range(n))
        for r in range(n)
    )


def test_associator_degree2_permutation():
    x = obj(NAT, {0: 1, 1: 1, 2: 1})
    block = associator(Q, x, x, x).block(2)
    expected = _oracle_degree2_permutation()
    assert block == expected
    # frozen: the permutation exchanges positions 2 and 3 (0-based)
    eye = [[1 if r == c else 0 for c in range(6)] for r in range(6)]
    eye[2], eye[3] = eye[3], eye[2]
    assert block == tuple(tuple(Fraction(v) for v in row) for row in eye)


def test_associator_inverse_laws():
    objs = [obj(PARITY, {0: 2, 1: 1}), obj(PARITY, {1: 2}), obj(PARITY, {0: 1, 1: 1})]
    for x, y, z in product(objs, repeat=3):
        a = associator(Q, x, y, z)
        ainv = associator_inv(Q, x, y, z)
        assert compose(a, ainv) == identity(Q, a.target)
        assert compose(ainv, a) == identity(Q, a.source)


def test_pentagon_on_mixed_dims():
    objs = [obj(NAT, {0: 1, 1: 2}), obj(NAT, {1: 1, 2: 1}), obj(NAT, {0: 2})]
    for w, x, y, z in product(objs, repeat=4):
        p1 = compose(associator(Q, w, x, tensor_obj(y, z)),
                     associator(Q, tensor_obj(w, x), y, z))
        p2 = compose(tensor_map(identity(Q, w), associator(Q, x, y, z)),
                     compose(associator(Q, w, tensor_obj(x, y), z),
                             tensor_map(associator(Q, w, x, y), identity(Q, z))))
        assert p1 == p2


# ---------------------------------------------------------------------------
# unitors


def test_unitors_on_unit():
    i = unit_object(NAT)
    assert left_unitor(Q, i).block(0) == ((1,),)
    assert right_unitor(Q, i).block(0) == ((1,),)


def test_unitor_inverse_laws():
    for table in ({0: 1}, {0: 2, 1: 1}, {1: 1, 2: 2}):
        x = obj(NAT, table)
        assert compose(left_unitor(Q, x), left_unitor_inv(Q, x)) == identity(Q, x)
        assert compose(right_unitor(Q, x), right_unitor_inv(Q, x)) == identity(Q, x)


def test_triangle_identity():
    objs = [obj(NAT, {0: 1, 1: 1}), obj(NAT, {2: 2}), obj(NAT, {0: 2})]
    i = unit_object(NAT)
    for x, y in product(objs, repeat=2):
        lhs = compose(tensor_map(identity(Q, x), left_unitor(Q, y)),
                      associator(Q, x, i, y))
        rhs = tensor_map(right_unitor(Q, x), identity(Q, y))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# zero blocks, empty objects, equality


def test_zero_block_equals_absent():
    x = obj(NAT, {0: 1, 1: 1})
    explicit = qmap(x, x, {0: [[1]], 1: [[0]]})
    sparse = qmap(x, x, {0: [[1]]})
    assert explicit == sparse
    assert explicit.block(1) is None


def test_empty_object():
    empty = GradedObject(NAT, ())
    x = obj(NAT, {1: 1})
    assert tensor_obj(empty, x) == empty
    assert identity(Q, empty).blocks == ()
    assert zero_map(Q, empty, x).blocks == ()


def test_graded_map_shape_validation():
    x = obj(NAT, {0: 2})
    with pytest.raises(ObjectMismatch):
        qmap(x, x, {0: [[1]]})
    with pytest.raises(ObjectMismatch):
        qmap(x, x, {1: [[1]]})


def test_object_dim_validation():
    with pytest.raises(ObjectMismatch):
        obj(NAT, {0: 0})
    with pytest.raises(MonoidMismatch):
        obj(PARITY, {2: 1})
    with pytest.raises(MonoidMismatch):
        obj(NAT, {-1: 1})


def test_object_rejects_bool_degrees_and_dimensions():
    """True equals and hashes like 1, but would print as ``{True:True}``."""
    for monoid in (NAT, PARITY):
        with pytest.raises(MonoidMismatch, match="degree True invalid"):
            obj(monoid, {True: 1})
        with pytest.raises(MonoidMismatch, match="degree False invalid"):
            obj(monoid, {False: 1})
        with pytest.raises(ObjectMismatch, match="got True"):
            obj(monoid, {1: True})
        with pytest.raises(MonoidMismatch):
            obj(monoid, {True: True})
        assert not monoid.valid_degree(True)
    assert str(obj(NAT, {1: 1})) == "{1:1}"


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_grading_monoid_laws(a, b, c):
    from distmon import MONOIDS
    for monoid in MONOIDS.values():
        if monoid.kind == "trivial":
            a_, b_, c_ = 0, 0, 0
        elif monoid.kind == "parity":
            a_, b_, c_ = a & 1, b & 1, c & 1
        else:
            a_, b_, c_ = a, b, c
        assert monoid.add(a_, b_) == monoid.add(b_, a_)
        assert monoid.add(monoid.add(a_, b_), c_) == \
            monoid.add(a_, monoid.add(b_, c_))
        assert monoid.add(a_, monoid.zero) == a_


def test_grading_monoid_binds_its_sum_and_compares_by_kind():
    assert NAT.add is operator.add
    for kind, monoid in MONOIDS.items():
        again = GradingMonoid(kind)
        assert again == monoid and hash(again) == hash(monoid)
        assert repr(again) == f"GradingMonoid(kind={kind!r})"
        back = pickle.loads(pickle.dumps(monoid))
        assert back == monoid and back.add is monoid.add
    assert PARITY.add(1, 1) == 0 and TRIVIAL.add(0, 0) == 0


# ---------------------------------------------------------------------------
# base coherence check


def test_check_base_unit_universe():
    rep = check_base(Q, [unit_object(NAT)], CheckBudget())
    assert rep.passed
    assert "quadruples=1" in rep.coverage.note


def test_check_base_parity_exhaustive():
    universe = generate_universe(PARITY, 1, 2, 1)  # 4 objects, dims up to 2
    rep = check_base(Q, universe, CheckBudget())
    assert rep.passed
    assert "quadruples=256" in rep.coverage.note


def test_check_base_capped_on_rich_universe():
    universe = generate_universe(PARITY, 1, 2, 2)  # 8 objects incl. mixed dims
    rep = check_base(Q, universe, CheckBudget(max_object_tuples=300))
    assert rep.passed
    assert "quadruples=300" in rep.coverage.note


def test_check_base_corrupted_associator():
    universe = generate_universe(NAT, 1, 1, 2)
    bad_at = (universe[1], universe[1], universe[1])

    def corrupt(field, x, y, z):
        a = associator(field, x, y, z)
        if (x, y, z) != bad_at:
            return a
        blocks = {
            d: [[field.mul(Fraction(2), v) for v in row] for row in m]
            for d, m in a.dense_blocks()
        }
        return graded_map(field, a.source, a.target, blocks)

    rep = check_base(Q, universe, CheckBudget(), assoc=corrupt)
    assert rep.verdict == "fail"
    assert rep.witness is not None
    assert bad_at[0] in rep.witness.objects


def test_check_base_requires_universe():
    with pytest.raises(ObjectMismatch):
        check_base(Q, [], CheckBudget())
