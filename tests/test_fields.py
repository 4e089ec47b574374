from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from distmon.fields import FieldError, PrimeField, RATIONAL


def test_rational_parse_and_format():
    assert RATIONAL.parse("1/2") == Fraction(1, 2)
    assert RATIONAL.parse("-1") == Fraction(-1)
    assert RATIONAL.fmt(Fraction(1, 2)) == "1/2"
    assert RATIONAL.fmt(Fraction(-3)) == "-3"
    with pytest.raises(FieldError):
        RATIONAL.parse("x")
    with pytest.raises(FieldError):
        RATIONAL.parse("1/0")


def test_rational_canonical_form():
    # Fraction keeps gcd 1 and a positive denominator
    v = RATIONAL.mul(RATIONAL.parse("6"), RATIONAL.inv(RATIONAL.parse("-4")))
    assert (v.numerator, v.denominator) == (-3, 2)


def test_prime_field_basics():
    f5 = PrimeField(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.neg(1) == 4
    assert f5.inv(2) == 3
    assert f5.parse("1/2") == 3
    assert f5.parse("-1") == 4
    assert f5.fmt(7) == "2"
    assert f5.pow(2, 3) == 3


def test_prime_field_rejects_nonprime():
    for bad in (0, 1, 4, 9, 2 ** 31):
        with pytest.raises(FieldError):
            PrimeField(bad)


def test_prime_field_two():
    f2 = PrimeField(2)
    assert f2.one == 1
    assert f2.add(1, 1) == 0
    with pytest.raises(FieldError):
        f2.inv(0)


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert RATIONAL != PrimeField(5)
    assert hash(PrimeField(3)) == hash(PrimeField(3))


PALETTE = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


@given(st.sampled_from(PALETTE), st.sampled_from(PALETTE),
       st.sampled_from(PALETTE))
def test_rational_field_laws(a, b, c):
    f = RATIONAL
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a != f.zero:
        assert f.mul(a, f.inv(a)) == f.one


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_prime_field_laws(a, b, c):
    f = PrimeField(7)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a % 7:
        assert f.mul(a, f.inv(a)) == f.one

