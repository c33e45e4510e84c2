"""Exact coefficient rings (integers, rationals, prime fields) and
``Combination``, the one container type over them.

Schubert vectors, tensors and polynomials are combinations: dicts from keys
to elements of one ring.  Elements are plain Python values: ``int`` for Z
and F_p (reduced to ``0..p-1``), ``fractions.Fraction`` for Q, combined
with Python's ``+``, ``-`` and ``*``.  A coefficient is read and reduced in
one place, ``promote``, which every constructor applies through
``_reduced``; so a stored coefficient is always reduced and nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def _fraction(x) -> Fraction:
    """``Fraction(x)``, with a zero denominator reported as a ValueError."""
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None


@dataclass(frozen=True)
class IntegerRing:
    name = "Z"
    char = 0
    is_field = False
    zero = 0
    one = 1

    def promote(self, x):
        if isinstance(x, bool):
            raise TypeError("booleans are not ring elements")
        if isinstance(x, int):
            return x
        if isinstance(x, (Fraction, str)):
            q = _fraction(x)
            if q.denominator != 1:
                raise ValueError(f"{x!r} is not an integer")
            return q.numerator
        raise TypeError(f"cannot coerce {x!r} into Z")

    def to_json(self, a):
        return a


@dataclass(frozen=True)
class RationalRing:
    name = "Q"
    char = 0
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def promote(self, x):
        if isinstance(x, bool):
            raise TypeError("booleans are not ring elements")
        if isinstance(x, (int, Fraction, str)):
            return _fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def to_json(self, a):
        return a.numerator if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self):
        return f"F{self.p}"

    @property
    def char(self):
        return self.p

    is_field = True
    zero = 0
    one = 1

    def promote(self, x):
        if isinstance(x, bool):
            raise TypeError("booleans are not ring elements")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, (Fraction, str)):
            q = _fraction(x)
            if q.denominator % self.p == 0:
                raise ValueError(f"{x!r} has no image in F_{self.p}: "
                                 f"its denominator is divisible by {self.p}")
            return q.numerator * pow(q.denominator, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def to_json(self, a):
        return a


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


ZZ = IntegerRing()
QQ = RationalRing()


# capped: a PrimeField compares by value, so an evicted field's elements
# still meet a fresh GF(p) on equal terms
@lru_cache(maxsize=64)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def _reduced(ring, coeffs) -> dict:
    """``coeffs`` (a dict, or None for no terms) with every value read by
    ``ring.promote`` and the zeros dropped: the stored form of a container's
    coefficients."""
    out = {}
    for key, c in (coeffs or {}).items():
        c = ring.promote(c)
        if c:
            out[key] = c
    return out


class Combination:
    """A finite linear combination of keys, stored as ``coeffs``.

    A subclass supplies its key order, ``support``, and the text of one
    term, ``_term``.  ``_space`` is what two combinations of one class must
    share to add or be equal (the ring, and a polynomial's number of
    variables), and the constructor's arguments before the terms.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs=None):
        self.ring = ring
        self.coeffs = _reduced(ring, coeffs)

    def _space(self) -> tuple:
        return (self.ring,)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, key):
        return self.coeffs.get(key, self.ring.zero)

    def items(self):
        return [(key, self.coeffs[key]) for key in self.support()]

    def scale(self, c):
        c = self.ring.promote(c)
        return type(self)(*self._space(), {k: c * x for k, x in self.coeffs.items()})

    def _check(self, other):
        if type(other) is not type(self) or other._space() != self._space():
            raise ValueError(f"cannot combine a {type(self).__name__} with a "
                             f"{type(other).__name__}: their classes or rings differ")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return type(self)(*self._space(), out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and other._space() == self._space()
                and other.coeffs == self.coeffs)

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def __repr__(self) -> str:
        return " + ".join(self._term(k, c) for k, c in self.items()) or "0"


def parse_ring(name: str):
    """Parse a ring name: "Z", "Q" or "F<p>", with p in ASCII digits."""
    name = name.strip()
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    digits = name[1:]
    if name.startswith("F") and digits.isascii() and digits.isdigit():
        return GF(int(digits))
    raise ValueError(f"unknown coefficient ring {name!r} (expected Z, Q or F<p>)")
