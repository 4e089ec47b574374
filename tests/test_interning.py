"""Graded objects are interned: one live object per degree table.

Equal tables give the same object whatever order their entries were
given in, copies and pickles come back as that object, it cannot be
changed, and the intern table lets an object go once nothing refers to
it.
"""

import copy
import gc
import pickle

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from distmon import NAT, PARITY, GradedObject, generate_universe, identity, tensor_obj
from distmon.exactlin import _INTERNED
from distmon.fields import RATIONAL
from distmon.harness import run_examples

from conftest import degrees_for

monoids = st.sampled_from([NAT, PARITY])


def tables(monoid):
    return st.dictionaries(st.sampled_from(degrees_for(monoid, 2)),
                           st.integers(1, 3), min_size=0, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.data(), monoids)
def test_equal_tables_give_the_same_object_in_any_order(data, monoid):
    a = data.draw(tables(monoid))
    if data.draw(st.booleans()):
        b = data.draw(tables(monoid))
    else:
        b = dict(data.draw(st.permutations(list(a.items()))))
    x, y = GradedObject.of(monoid, a), GradedObject.of(monoid, b)
    assert (x is y) == (a == b)
    assert (x == y) == (a == b)
    assert GradedObject(monoid, x.dims) is x


@settings(max_examples=50, deadline=None)
@given(monoids.flatmap(lambda m: tables(m).map(lambda t: GradedObject.of(m, t))))
def test_copies_and_pickles_are_the_interned_object(x):
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    assert copy.deepcopy([x, x])[1] is x
    assert pickle.loads(pickle.dumps(x)) is x


def test_objects_are_immutable():
    x = GradedObject.of(NAT, {0: 2, 1: 1})
    for name in ("monoid", "dims", "degrees", "total_dim", "_identities", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    with pytest.raises(AttributeError):
        del x.dims
    assert x.dims == ((0, 2), (1, 1)) and x.total_dim == 3
    assert repr(x) == "GradedObject(monoid=GradingMonoid(kind='nat'), dims=((0, 2), (1, 1)))"


@settings(max_examples=100, deadline=None)
@given(st.data(), monoids)
def test_tensor_obj_is_the_universe_object_with_its_table(data, monoid):
    universe = generate_universe(monoid, 2, 3, 2)
    x, y = data.draw(st.sampled_from(universe)), data.draw(st.sampled_from(universe))
    table: dict = {}
    for i, a in x.dims:
        for j, b in y.dims:
            n = monoid.add(i, j)
            table[n] = table.get(n, 0) + a * b
    xy = tensor_obj(x, y)
    assert xy is GradedObject.of(monoid, table)
    assert [z for z in universe if z.dims == xy.dims] in ([], [xy])


def test_an_unreferenced_object_leaves_the_intern_table():
    key = ("nat", ((7, 3), (9, 1)))  # a table nothing else builds

    def build():
        x = GradedObject.of(NAT, {9: 1, 7: 3})
        identity(RATIONAL, x)  # the identity refers back to x: a cycle
        assert _INTERNED[key] is x

    build()
    gc.collect()
    assert key not in _INTERNED


def test_the_intern_table_stops_growing_over_catalog_passes():
    sizes = []
    for _ in range(3):
        run_examples("text")
        run_examples("json")
        gc.collect()
        sizes.append(len(_INTERNED))
    assert sizes[1] == sizes[2]
