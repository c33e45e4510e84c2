"""Exception hierarchy.

Two families matter to callers: ordinary precondition failures (bad input,
out-of-range indices, non-spherical subsets) and ``TheoremViolation``, which
is reserved for assertions that are mathematically guaranteed to hold.  A
``TheoremViolation`` firing means a bug, never bad input, and the command
line maps it to its own exit code so CI can tell the two apart.
"""

from __future__ import annotations


class SchubertKitError(Exception):
    """Base class for all library errors."""


class GCMValidationError(SchubertKitError):
    """A candidate matrix violates one of the Cartan matrix axioms."""

    def __init__(self, i: int, j: int, value: int, message: str):
        self.i = i
        self.j = j
        self.value = value
        super().__init__(f"{message} (entry a[{i},{j}] = {value})")


class DiagonalNotTwo(GCMValidationError):
    def __init__(self, i: int, value: int):
        super().__init__(i, i, value, "diagonal entries must equal 2")


class PositiveOffDiagonal(GCMValidationError):
    def __init__(self, i: int, j: int, value: int):
        super().__init__(i, j, value, "off-diagonal entries must be <= 0")


class ZeroAsymmetry(GCMValidationError):
    def __init__(self, i: int, j: int, value: int):
        super().__init__(i, j, value, f"a[{i},{j}] is nonzero but a[{j},{i}] = 0")


class NotInGroup(SchubertKitError):
    """A matrix is not an element of the reflection group."""


class NotSpherical(SchubertKitError):
    """The requested parabolic subgroup is infinite."""


class NotReduced(SchubertKitError):
    """A word is not a reduced expression."""


class NotHomogeneous(SchubertKitError):
    """An operation requiring a homogeneous polynomial got a mixed one."""


class NotHyperbolicOrAffine(SchubertKitError):
    """Rank-two routines require ab >= 4."""


class OddPrimeRequired(SchubertKitError):
    """The matrix-power method is only defined for odd primes."""


class ZeroElement(SchubertKitError):
    """Multiplicative order of zero requested."""


class TheoremViolation(SchubertKitError):
    """An identity that is a theorem failed; this always indicates a bug."""


class UnderdeterminedSystem(TheoremViolation):
    """The degree-by-degree product solver hit an inconsistent system."""
