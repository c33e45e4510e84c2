"""Rank and kernel bases of integer matrices over Q or a prime field.

Both are read off ``intmat._eliminate``: over Q on the integers, over F_p on
residues.  Entries must be integers (``operator.index``); a ``Fraction`` or
any other entry raises ``TypeError``.  Only ``ring.char`` selects the field.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .intmat import _eliminate


def _integer_rows(matrix, p, ncols=None):
    """The rows as integers (residues when p > 0) and their width, ``ncols``
    or, when it is None, that of the first row; a row of another width
    raises ValueError."""
    if p:
        rows = [[index(x) % p for x in row] for row in matrix]
    else:
        rows = [[index(x) for x in row] for row in matrix]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"every row must have {ncols} entries")
    return rows, ncols


def rank(matrix, ring) -> int:
    """Rank of M given as rows; rows of unequal length raise ValueError."""
    rows, ncols = _integer_rows(matrix, ring.char)
    return len(_eliminate(rows, ncols, ring.char)[0])


def kernel_basis(matrix, ncols, ring):
    """Basis of {v : M v = 0} for M given as rows, read off the reduced row
    echelon form: one vector per non-pivot column, in increasing order, with
    ``Fraction`` entries over Q and ``int`` entries in ``0..p-1`` over F_p.
    A row that does not have ``ncols`` entries raises ValueError."""
    p = ring.char
    rows, _ = _integer_rows(matrix, p, ncols)
    pivots, d = _eliminate(rows, ncols, p)
    inv = pow(d, -1, p) if p else 0
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        v = [ring.zero] * ncols
        v[fc] = ring.one
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc] * inv % p if p else Fraction(-row[fc], d)
        basis.append(tuple(v))
    return basis
