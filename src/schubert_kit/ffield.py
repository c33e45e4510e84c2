"""Exact arithmetic in quadratic extensions of prime fields.

The field with p^2 elements is modeled as F_p[theta] with theta^2 = u*theta
+ v for a fixed irreducible choice: for odd p, theta^2 = s with s the least
positive quadratic non-residue; for p = 2, theta^2 = theta + 1.  The model
is deterministic, so printed elements are stable across runs.

Primes are expected at desk scale (p <= 10^4 or so); multiplicative orders
factor p - 1, p + 1 or p^2 - 1 by trial division.  The Frobenius map
e -> e^p fixes F_p and sends theta to its conjugate u - theta, so e^p is the
conjugate of e and e^(p+1) = e * e^p is the norm x^2 + u*x*y - v*y^2 of
e = x + y*theta, an element of F_p.  So an element of F_p has order
dividing p - 1, and one of norm 1 has order dividing p + 1.  A root of
x^2 - t*x + 1 is one or the other: either both roots lie in F_p, or they
are conjugate and the norm is their product, 1.  This is Lucas's law of
apparition for U(t, 1) with p not dividing t^2 - 4 (Lucas, "Theorie des
fonctions numeriques simplement periodiques", Amer. J. Math. 1, 1878).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import OddPrimeRequired, ZeroElement
from .rings import _is_prime


@dataclass(frozen=True)
class QuadraticField:
    """Descriptor of F_{p^2} = F_p[theta], theta^2 = u*theta + v."""

    p: int
    u: int
    v: int

    def modulus_tag(self) -> str:
        if self.u == 0:
            return f"theta^2={self.v}"
        return f"theta^2={self.u}*theta+{self.v}"


# unbounded on purpose: it interns one descriptor per prime, and
# ``Fp2Element._check`` compares fields by identity
@lru_cache(maxsize=None)
def quadratic_field(p: int) -> QuadraticField:
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return QuadraticField(2, 1, 1)
    s = next(s for s in range(2, p) if pow(s, (p - 1) // 2, p) == p - 1)
    return QuadraticField(p, 0, s)


class Fp2Element:
    """x + y*theta with components reduced modulo p, by ``__init__`` only.

    An immutable value: equality, hash and ``repr`` are those of a frozen
    dataclass with the fields ``field``, ``x`` and ``y``.
    """

    __slots__ = ("field", "x", "y")

    def __init__(self, field: QuadraticField, x: int, y: int):
        p = field.p
        _set_field(self, field)
        _set_x(self, x % p)
        _set_y(self, y % p)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Fp2Element, (self.field, self.x, self.y)

    def __eq__(self, other):
        if other.__class__ is not Fp2Element:
            return NotImplemented
        return (self.field, self.x, self.y) == (other.field, other.x, other.y)

    def __hash__(self):
        return hash((self.field, self.x, self.y))

    def __repr__(self) -> str:
        return f"Fp2Element(field={self.field!r}, x={self.x!r}, y={self.y!r})"

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __add__(self, other: "Fp2Element") -> "Fp2Element":
        self._check(other)
        return Fp2Element(self.field, self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Fp2Element") -> "Fp2Element":
        self._check(other)
        return Fp2Element(self.field, self.x - other.x, self.y - other.y)

    def __mul__(self, other: "Fp2Element") -> "Fp2Element":
        self._check(other)
        return Fp2Element(self.field, *_product(self.field, self.x, self.y, other.x, other.y))

    def inverse(self) -> "Fp2Element":
        """``self ** (p^2 - 2)``: the multiplicative group has order p^2 - 1."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        p = self.field.p
        return self ** (p * p - 2)

    def __pow__(self, n: int) -> "Fp2Element":
        """The element of ``_power``'s pair; a negative ``n`` raises the
        inverse to ``-n``.  One element is built."""
        if n < 0:
            return self.inverse() ** -n
        return Fp2Element(self.field, *_power(self.field, self.x, self.y, n))

    def _check(self, other):
        # ``quadratic_field`` interns one descriptor per prime
        if self.field is not other.field:
            raise ValueError("elements from different fields")

    def __str__(self) -> str:
        f = self.field
        return f"{self.x} + {self.y}*theta (mod {f.p}, {f.modulus_tag()})"


def _product(field: QuadraticField, x1: int, y1: int, x2: int, y2: int) -> tuple[int, int]:
    """The reduced components of (x1 + y1*theta)(x2 + y2*theta)."""
    p = field.p
    sq = y1 * y2  # coefficient of theta^2 = u*theta + v
    return (x1 * x2 + sq * field.v) % p, (x1 * y2 + x2 * y1 + sq * field.u) % p


def _power(field: QuadraticField, x: int, y: int, n: int) -> tuple[int, int]:
    """The components of (x + y*theta)^n for n >= 0, by square-and-multiply
    on pairs: one ``_product`` per set bit of n and one square per bit
    after the first, none after the last; n = 0 gives (1, 0)."""
    rx, ry = 1, 0
    while n:
        if n & 1:
            rx, ry = _product(field, rx, ry, x, y)
        n >>= 1
        if n:  # square only while bits remain
            x, y = _product(field, x, y, x, y)
    return rx, ry


# the slot setters, which bypass the refusing ``__setattr__``
_set_field = Fp2Element.field.__set__
_set_x = Fp2Element.x.__set__
_set_y = Fp2Element.y.__set__


def embed(field: QuadraticField, x: int) -> Fp2Element:
    return Fp2Element(field, x, 0)


def _sqrt_in_prime_field(value: int, p: int):
    """Smallest square root of a residue mod p, or None (p at desk scale)."""
    value %= p
    for r in range(p):
        if r * r % p == value:
            return r
    return None


def sqrt_fp2(value: int, p: int) -> Fp2Element:
    """A square root of a prime-field value, inside F_p if possible.

    Odd p only.  For a non-residue the root is a pure theta multiple, since
    theta^2 is itself a non-residue.
    """
    if p == 2:
        raise OddPrimeRequired("square roots here are defined for odd p")
    field = quadratic_field(p)
    value %= p
    r = _sqrt_in_prime_field(value, p)
    if r is not None:
        return Fp2Element(field, r, 0)
    y = _sqrt_in_prime_field(value * pow(field.v, -1, p) % p, p)
    assert y is not None
    return Fp2Element(field, 0, y)


def quadratic_roots(b: int, c: int, p: int):
    """Both roots of the monic polynomial x^2 + b x + c over F_{p^2}.

    Completing the square for odd p; exhaustive search over the four
    elements for p = 2.  The sum and product are verified against the
    coefficients before returning.
    """
    field = quadratic_field(p)
    if p == 2:
        roots = [
            e
            for x in range(2)
            for y in range(2)
            for e in [Fp2Element(field, x, y)]
            if (e * e + embed(field, b) * e + embed(field, c)).is_zero()
        ]
        if len(roots) == 1:
            roots = roots * 2
        assert len(roots) == 2
        r1, r2 = roots
    else:
        # (-b +- root) / 2, component by component
        root = sqrt_fp2((b * b - 4 * c) % p, p)
        inv2 = pow(2, -1, p)
        r1 = Fp2Element(field, (root.x - b) * inv2, root.y * inv2)
        r2 = Fp2Element(field, (-root.x - b) * inv2, -root.y * inv2)
    assert ((r1.x + r2.x) % p, (r1.y + r2.y) % p) == (-b % p, 0)
    assert _product(field, r1.x, r1.y, r2.x, r2.y) == (c % p, 0)
    return r1, r2


def _trial_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(e: Fp2Element) -> int:
    """Least n >= 1 with e^n = 1, by divisor descent through a multiple of it.

    The order divides the group order p^2 - 1.  It divides p - 1 when e
    lies in F_p (y = 0), and p + 1 when the norm x^2 + u*x*y - v*y^2 is 1,
    as e^(p+1) is the norm (module docstring; Lucas, Amer. J. Math. 1,
    1878); the descent starts from the first of p - 1, p + 1 and p^2 - 1
    that applies.  For each prime q of the start, the candidate is divided
    by q while e to the quotient is still 1 (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 1.4.3).  The powers are
    ``_power`` pairs compared with (1, 0), so no element is built; the
    result is checked by one more power.
    """
    if e.is_zero():
        raise ZeroElement("zero has no multiplicative order")
    field, x, y = e.field, e.x, e.y
    p = field.p
    if y == 0:
        order = p - 1
    elif (x * x + field.u * x * y - field.v * y * y) % p == 1:
        order = p + 1
    else:
        order = p * p - 1
    for q in _trial_factor(order):
        while order % q == 0 and _power(field, x, y, order // q) == (1, 0):
            order //= q
    assert _power(field, x, y, order) == (1, 0)
    return order
