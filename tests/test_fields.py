from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from distmon.fields import FieldError, PrimeField, RATIONAL, _is_prime


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



def test_primality_is_exact_below_the_first_strong_pseudoprime():
    # a sieve as the reference for every n below 200,000
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(limit) if _is_prime(n)] == \
        [n for n in range(limit) if sieve[n]]
    # strong pseudoprimes to 2, to 2 and 3, and to 2, 3 and 5
    for n in (2047, 1373653, 25326001):
        assert not _is_prime(n)
    for p in (2147483647, 2147483629):
        assert _is_prime(p)
        assert PrimeField(p).p == p
    # the least strong pseudoprime to 2, 3, 5 and 7 lies above 2**31
    assert _is_prime(3215031751)
    with pytest.raises(FieldError):
        PrimeField(3215031751)
