"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Every scalar in the package is either a canonical ``fractions.Fraction``
(reduced, positive denominator -- the class maintains this itself) or a
canonical residue ``0 <= r < p`` of a prime field.  There is no floating
point anywhere and equality of scalars is always exact.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    """Invalid field construction, parse failure, or division by zero."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """The field of rational numbers."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

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
        try:
            return Fraction(str(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"not a rational scalar: {text!r}") from exc

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """Integers modulo a prime ``p``, with canonical residues ``0 <= r < p``."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < 2 ** 31 or not _is_prime(p):
            raise FieldError(f"modulus must be a prime below 2**31, got {p!r}")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

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

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


RATIONAL = Rationals()
