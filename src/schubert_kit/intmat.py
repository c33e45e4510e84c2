"""Small exact integer-matrix helpers (tuples of tuples, row major), the
rank-one update that applies a simple reflection, the one elimination routine
behind ``det``, ``integer_inverse`` and ``linalg``, and ``as_int`` and
``parse_int``, the readers of integers that come from outside."""

from __future__ import annotations

import operator

Matrix = tuple[tuple[int, ...], ...]


def as_int(x, what: str = "matrix entry") -> int:
    """``x`` as an ``int``: an ``int`` or an ``__index__`` value, never a bool.

    Every integer from outside the package (matrix entries, words,
    exponents) is read here; anything else, a float or a string included,
    raises ValueError naming ``what``.
    """
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise ValueError(f"{what} {x!r} is not an integer")
    return operator.index(x)


def parse_int(text: str, what: str = "integer") -> int:
    """The integer written in ``text``: ``[+-]?[0-9]+`` after ``strip()``.

    Every integer read from text (matrix entries, letters of words, CLI
    options) goes through this one ASCII rule, so digit-group underscores
    and non-ASCII digits, which ``int()`` accepts, raise ValueError naming
    ``what``.
    """
    s = text.strip()
    digits = s[1:] if s[:1] in ("+", "-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} {text!r} is not an integer")
    return int(s)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    k = len(b)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[t] * cb[t] for t in range(k)) for cb in bt) for ra in a
    )


def right_reflect(m: Matrix, i: int, cartan_row) -> Matrix:
    """``m r_i``, for ``cartan_row`` row ``i`` of the Cartan matrix.

    ``r_i`` is the identity outside row ``i``, which holds ``e_i`` minus that
    row, so row ``k`` of the product is ``m_k - m[k][i] a_i``: O(n^2) work,
    and a row with a zero in column ``i`` is reused as it is.
    """
    c = i - 1
    return tuple([
        tuple([x - f * a for x, a in zip(row, cartan_row)]) if (f := row[c]) else row
        for row in m
    ])


def _eliminate(rows: list[list[int]], ncols: int, p: int = 0):
    """Fraction-free Gauss-Jordan on the first ``ncols`` columns, in place.

    Returns the pivot columns and the last pivot ``d`` (1 if none); a column
    with no pivot is skipped.  Each step replaces every other row by
    ``(pivot * row - f * pivot_row) / previous_pivot``, a division that is
    exact over Z (Bareiss 1968) and a product by the inverse over F_p, for
    rows reduced mod ``p``.  A row swap negates one row, so a square matrix
    with a full set of pivots has determinant ``d``.  Every pivot ends equal
    to ``d``: a row divided by ``d`` is that row of the reduced row echelon
    form, and a further column ``c`` of an invertible block ``M`` ends as
    ``d * M^-1 c``.
    """
    pivots, prev = [], 1
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], [-x for x in rows[r]]
        pivot_row = rows[r]
        piv = pivot_row[c]
        inv = pow(prev, -1, p) if p else 0
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                if p:
                    rows[i] = [(piv * x - f * y) * inv % p for x, y in zip(row, pivot_row)]
                else:
                    rows[i] = [(piv * x - f * y) // prev for x, y in zip(row, pivot_row)]
        pivots.append(c)
        prev = piv
    return pivots, prev


def det(m) -> int:
    """Exact determinant of a square integer matrix."""
    pivots, d = _eliminate([list(row) for row in m], len(m))
    return d if len(pivots) == len(m) else 0


def integer_inverse(m: Matrix):
    """Inverse of a unimodular integer matrix, or None."""
    n = len(m)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    pivots, d = _eliminate(rows, n)
    if len(pivots) < n or d not in (1, -1):
        return None
    return tuple(tuple(d * x for x in row[n:]) for row in rows)
