"""Small exact integer-matrix helpers (tuples of tuples, row major)."""

from __future__ import annotations

Matrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    k = len(b)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[t] * cb[t] for t in range(k)) for cb in bt) for ra in a
    )


def _eliminate(rows: list[list[int]], n: int) -> int:
    """Fraction-free Gauss-Jordan on the first ``n`` columns, in place.

    Returns the determinant of the leading n x n block ``M``.  Each step
    replaces every non-pivot row by ``(pivot * row - f * pivot_row) /
    previous_pivot``, a division that is always exact (Bareiss 1968), and a
    row swap negates one of the two rows so that no step changes the
    determinant.  When ``d = det(M)`` is nonzero the leading block ends as
    ``d * I`` and every further column ``c`` as ``d * M^-1 c``.
    """
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return 0
        if p != k:
            rows[k], rows[p] = rows[p], [-x for x in rows[k]]
        pivot_row = rows[k]
        piv = pivot_row[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(rows[i], pivot_row)]
        prev = piv
    return prev


def det(m) -> int:
    """Exact determinant of a square integer matrix."""
    return _eliminate([list(row) for row in m], len(m))


def integer_inverse(m: Matrix):
    """Inverse of a unimodular integer matrix, or None."""
    n = len(m)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    d = _eliminate(rows, n)
    if d not in (1, -1):
        return None
    return tuple(tuple(d * x for x in row[n:]) for row in rows)
