"""Graded objects and fields are interned, and records are immutable.

Equal tables give the same object whatever order their entries were
given in, copies and pickles come back as that object, it cannot be
changed, and the intern table lets an object go once nothing refers to
it.  Fields behave the same way: one ``Rationals``, one ``PrimeField``
per live modulus.  The records (NamedTuples) reject attribute assignment,
and a functor derived with ``_replace`` is a functor of its own.
"""

import copy
import gc
import pickle

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from distmon import (
    NAT, PARITY, TRIVIAL, CheckBudget, GradedObject, check_D1, compose_lax,
    generate_universe, identity, identity_functor, identity_transformation,
    invertibility_test, scenario_from_dict, search_structural_idempotents,
    symmetric_braiding, tensor_obj, truncation_functor, zero_map,
)
from distmon.exactlin import _INTERNED
from distmon.fields import _PRIME_FIELDS, FieldError, PrimeField, RATIONAL, Rationals
from distmon.harness import CHECKS, run_examples
from distmon.reports import Phase, Side, equality_witness

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


def test_there_is_one_rational_field():
    assert Rationals() is RATIONAL
    assert repr(Rationals()) == "Rationals()"


def test_a_prime_field_is_interned_per_modulus():
    f7 = PrimeField(7)
    assert PrimeField(7) is f7 and _PRIME_FIELDS[7] is f7
    assert PrimeField(5) is not f7 and PrimeField(5) != f7
    assert f7 != RATIONAL and repr(f7) == "PrimeField(7)"


@pytest.mark.parametrize("field", [RATIONAL, PrimeField(7), PrimeField(2147483647)])
def test_copies_and_pickles_are_the_interned_field(field):
    assert copy.copy(field) is field
    assert copy.deepcopy(field) is field
    assert copy.deepcopy([field, field])[1] is field
    assert pickle.loads(pickle.dumps(field)) is field


@pytest.mark.parametrize("bad", [0, 1, 4, 9, -7, 2 ** 31 + 11, 7.0, "7", True, None])
def test_an_invalid_modulus_interns_nothing(bad):
    before = set(_PRIME_FIELDS)
    with pytest.raises(FieldError):
        PrimeField(bad)
    assert set(_PRIME_FIELDS) == before


def test_an_unreferenced_prime_field_leaves_the_intern_table():
    p = 1000003  # a modulus nothing else uses
    assert PrimeField(p).p == p
    gc.collect()
    assert p not in _PRIME_FIELDS


def test_a_prime_field_that_built_a_map_leaves_the_intern_table():
    p = 1000033  # a modulus nothing else uses
    key = ("nat", ((5, 2), (8, 3)))  # a table nothing else builds

    def build():
        x = GradedObject.of(NAT, {5: 2, 8: 3})
        assert identity(PrimeField(p), x).field.p == p
        assert _INTERNED[key] is x

    build()
    gc.collect()
    assert key not in _INTERNED
    assert p not in _PRIME_FIELDS


def _records():
    """One instance of every record type, built by the public constructors."""
    ds = scenario_from_dict({
        "field": "rational", "grading": "nat",
        "universe": {"max_degree": 1, "max_dim": 1, "max_support": 1},
        "sigma": {"kind": "symmetric"}, "checks": ["D1"], "seed": 0,
    })
    struct = ds.variants[0].ds
    func = identity_functor(struct)
    x = ds.universe[0]
    search = search_structural_idempotents(
        RATIONAL, symmetric_braiding(),
        [GradedObject.of(PARITY, {0: 1}), GradedObject.of(PARITY, {1: 1})],
        CheckBudget(4))
    inv = invertibility_test(RATIONAL, struct.sigma, ds.universe)
    witness = equality_witness("x", (x,), identity(RATIONAL, x),
                               zero_map(RATIONAL, x, x))
    return [identity(RATIONAL, x), ds, ds.variants[0], CHECKS["D1"], func,
            identity_transformation(func), check_D1(struct, ds.budget),
            ds.budget, check_D1(struct, ds.budget).coverage, witness, Side(None, None),
            Phase(()), search, search.rows[0], inv, inv.pairs[0], TRIVIAL]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    name = getattr(record, "_fields", ("kind",))[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.other = None


def test_objects_know_where_each_degree_starts():
    x = GradedObject.of(NAT, {3: 1, 0: 2, 1: 4})
    assert x.starts == {0: 0, 1: 2, 3: 6}
    with pytest.raises(AttributeError):
        x.starts = {}


def test_a_replaced_functor_is_a_functor_of_its_own():
    ds = scenario_from_dict({
        "field": "rational", "grading": "nat",
        "universe": {"max_degree": 2, "max_dim": 1, "max_support": 1},
        "sigma": {"kind": "symmetric"}, "checks": ["D1"], "seed": 0,
    }).variants[0].ds
    func, outer = truncation_functor(ds, 1), identity_functor(ds)
    other = func._replace(mu=lambda x, y, _mu=func.mu: _mu(x, y))
    assert other != func and other == other and len({func, other}) == 2
    assert other.name == func.name and other.mu is not func.mu
    composite = compose_lax(outer, func)
    size = compose_lax.cache_info().currsize
    assert compose_lax(outer, other) is not composite
    assert compose_lax.cache_info().currsize == size + 1
    assert compose_lax(outer, other) is compose_lax(outer, other)
    assert compose_lax(outer, func) is composite
