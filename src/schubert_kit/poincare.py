"""Truncated Poincare series of graded modules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PoincareSeries:
    """Dimension counts by topological degree, truncated.

    ``coeffs[d]`` is the dimension in degree ``d``; the series is only known
    up to ``len(coeffs) - 1``.
    """

    coeffs: tuple[int, ...]

    @classmethod
    def from_even_dims(cls, dims) -> "PoincareSeries":
        coeffs = []
        for d in dims:
            coeffs.append(d)
            coeffs.append(0)
        return cls(tuple(coeffs[:-1]) if coeffs else ())

    def coefficient(self, degree: int) -> int:
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        raise IndexError(f"series truncated below degree {degree}")

    def __str__(self) -> str:
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"t^{d}")
            else:
                parts.append(f"{c}*t^{d}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{len(self.coeffs)})"
