"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Every scalar in the package is either a canonical ``fractions.Fraction``
(reduced, positive denominator -- the class maintains this itself) or a
canonical residue ``0 <= r < p`` of a prime field.  There is no floating
point anywhere and equality of scalars is always exact.

Fields are interned: ``Rationals()`` returns ``RATIONAL`` and
``PrimeField(p)`` the one live field for ``p``, held weakly, so equal
fields are the same object and fields compare and hash by reference.
``copy``, ``deepcopy`` and ``pickle`` return the interned field.  Each
field keeps ``units``, the shared unit columns ``(r, one)`` of
``exactlin``'s blocks, so that they are freed with the field.
"""

from __future__ import annotations

from fractions import Fraction
from weakref import WeakValueDictionary


class FieldError(ValueError):
    """Invalid field construction, parse failure, or division by zero."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the bases 2, 3, 5 and 7: exact for
    every n below 3215031751, the least strong pseudoprime to all four."""
    if n < 2 or any(n % a == 0 for a in (2, 3, 5, 7)):
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in (2, 3, 5, 7):  # a strong witness proves n composite
        if pow(a, d, n) != 1 and all(pow(a, d << r, n) != n - 1 for r in range(s)):
            return False
    return True


class Rationals:
    """The field of rational numbers; there is one, ``RATIONAL``."""

    __slots__ = ("units",)

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def __new__(cls):  # copies and pickles come back through here too
        return RATIONAL

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / a

    def pow(self, a, n: int):
        return a ** n

    def from_int(self, n: int):
        return Fraction(n)

    def parse(self, text: str):
        # Fraction writes out 10 ** e; past 4300 digits Python prints no int
        mantissa, _, exponent = str(text).lower().partition("e")
        try:
            if exponent and len(mantissa) + abs(int(exponent)) > 4300:
                raise ValueError("exponent too large")
            return Fraction(str(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"not a rational scalar: {text!r}") from exc

    def fmt(self, a) -> str:
        return str(a)

    def __reduce__(self):
        return Rationals, ()

    def __repr__(self):
        return "Rationals()"


_PRIME_FIELDS: WeakValueDictionary = WeakValueDictionary()


class PrimeField:
    """Integers modulo a prime ``p``, with canonical residues ``0 <= r < p``.

    ``PrimeField(p)`` returns the one live field for ``p``.
    """

    __slots__ = ("p", "name", "zero", "one", "units", "__weakref__")

    def __new__(cls, p: int):
        # 7.0 hashes like 7 and must not find its field
        field = _PRIME_FIELDS.get(p) if isinstance(p, int) else None
        if field is None:
            if not isinstance(p, int) or not 2 <= p < 2 ** 31 or not _is_prime(p):
                raise FieldError(f"modulus must be a prime below 2**31, got {p!r}")
            field = object.__new__(cls)
            field.p = p
            field.name = f"F{p}"
            field.zero = 0
            field.one = 1 % p
            field.units = ()
            _PRIME_FIELDS[p] = field
        return field

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, n: int):
        return pow(a, n, self.p)

    def from_int(self, n: int):
        return n % self.p

    def parse(self, text: str):
        text = str(text).strip()
        if "/" in text:
            num, _, den = text.partition("/")
            try:
                return self.mul(int(num), self.inv(int(den)))
            except ValueError as exc:
                raise FieldError(f"not a scalar over F{self.p}: {text!r}") from exc
        try:
            return int(text) % self.p
        except ValueError as exc:
            raise FieldError(f"not a scalar over F{self.p}: {text!r}") from exc

    def fmt(self, a) -> str:
        return str(a % self.p)

    def __reduce__(self):
        return PrimeField, (self.p,)

    def __repr__(self):
        return f"PrimeField({self.p})"


RATIONAL = object.__new__(Rationals)
RATIONAL.units = ()
