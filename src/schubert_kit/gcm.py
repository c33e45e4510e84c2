"""Generalized Cartan matrices and the combinatorics derived from them.

A generalized Cartan matrix is an integer matrix with 2 on the diagonal,
non-positive entries off it, and symmetric vanishing (``a[i,j] = 0`` exactly
when ``a[j,i] = 0``).  From a validated matrix this module derives the
pairwise reflection orders, the finite-type test for subsets of the index
set, the poset of spherical subsets, and an explicit integral lattice
realization of the ambient torus on which the polynomial modules act.

Generator indices are 1-based throughout the public API, and every one
given from outside is read by ``GeneralizedCartanMatrix.generator``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from . import intmat
from .errors import DiagonalNotTwo, PositiveOffDiagonal, ZeroAsymmetry

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    labels: tuple[str, ...]
    entries: Matrix

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def index_set(self) -> tuple[int, ...]:
        return tuple(range(1, self.size + 1))

    def generator(self, i) -> int:
        """``i`` as a generator index 1..n, read by ``intmat.as_int``; ValueError otherwise."""
        i = intmat.as_int(i, "generator index")
        if not 1 <= i <= self.size:
            raise ValueError(f"generator index {i} out of range 1..{self.size}")
        return i

    def a(self, i: int, j: int) -> int:
        """Entry a[i,j], 1-based."""
        return self.entries[i - 1][j - 1]

    def submatrix(self, subset) -> Matrix:
        idx = sorted(subset)
        return tuple(tuple(self.entries[i - 1][j - 1] for j in idx) for i in idx)

    def to_dict(self) -> dict:
        """Interchange form, read back by ``gcm_from_dict``."""
        return {"labels": list(self.labels), "rows": [list(r) for r in self.entries]}

    def __repr__(self) -> str:
        rows = ";".join(",".join(str(x) for x in row) for row in self.entries)
        return f"GCM({rows})"


@dataclass(frozen=True)
class Realization:
    """An integral model of the torus character lattice.

    ``coroots[i]`` and ``root_functionals[j]`` are coordinate vectors of
    length ``torus_rank`` satisfying ``root_functionals[j] . coroots[i] =
    a[i,j]``, and ``dual_basis[i] . coroots[j]`` is the Kronecker delta.  The
    dual basis is one fixed deterministic choice among many valid ones, so
    downstream results are reproducible.
    """

    gcm: GeneralizedCartanMatrix
    torus_rank: int
    coroots: tuple[tuple[int, ...], ...]
    root_functionals: tuple[tuple[int, ...], ...]
    dual_basis: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SphericalPoset:
    """All subsets of the index set whose parabolic subgroup is finite."""

    subsets: tuple[tuple[int, ...], ...]
    covers: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __contains__(self, subset) -> bool:
        return tuple(sorted(subset)) in self.subsets


def validate_gcm(matrix, labels=None) -> GeneralizedCartanMatrix:
    """Validate the three Cartan axioms and freeze the matrix.

    Raises DiagonalNotTwo, PositiveOffDiagonal or ZeroAsymmetry naming the
    first offending entry, and ValueError for an entry that is not an
    integer (a float or a boolean is not).
    """
    rows = [tuple(intmat.as_int(x) for x in row) for row in matrix]
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i in range(n):
        if rows[i][i] != 2:
            raise DiagonalNotTwo(i + 1, rows[i][i])
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rows[i][j] > 0:
                raise PositiveOffDiagonal(i + 1, j + 1, rows[i][j])
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                i0, j0 = (i, j) if rows[i][j] != 0 else (j, i)
                raise ZeroAsymmetry(i0 + 1, j0 + 1, rows[i0][j0])
    if labels is None:
        labels = tuple(str(i + 1) for i in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValueError("label count does not match matrix size")
    return GeneralizedCartanMatrix(labels, tuple(rows))


def parse_gcm(text: str) -> GeneralizedCartanMatrix:
    """Parse the inline form "2,-a;-b,2" (rows separated by semicolons).

    Entries are read by ``intmat.parse_int``, after U+2212 minus signs become
    ASCII ones; anything else raises ValueError.
    """
    text = text.replace("−", "-").strip()
    rows = [[intmat.parse_int(x, "matrix entry") for x in row.split(",")]
            for row in text.split(";") if row.strip()]
    return validate_gcm(rows)


def gcm_from_dict(data: dict) -> GeneralizedCartanMatrix:
    """Build from the structured form {"labels": [...], "rows": [[...]]}.

    Raises ValueError for any other shape: the rows must be a list of lists
    of integers and the labels, when given, a list.
    """
    rows = data.get("rows") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError('expected {"labels": [...], "rows": [[...], ...]} with a list of rows')
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValueError("labels must be a list")
    return validate_gcm(rows, labels)


def gcm_from_file(path) -> GeneralizedCartanMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return gcm_from_dict(json.load(fh))


def rank_two(a: int, b: int) -> GeneralizedCartanMatrix:
    """The rank-two matrix with off-diagonal entries -a, -b."""
    if a < 0 or b < 0:
        raise ValueError("rank-two parameters must be non-negative")
    return validate_gcm([[2, -a], [-b, 2]])


_EXPONENT_TABLE = {0: 2, 1: 3, 2: 4, 3: 6}


def coxeter_exponent(gcm: GeneralizedCartanMatrix, i: int, j: int):
    """Order of r_i r_j: 2, 3, 4, 6 for a[i,j]*a[j,i] = 0, 1, 2, 3; None if infinite."""
    i, j = gcm.generator(i), gcm.generator(j)
    if i == j:
        raise ValueError("coxeter_exponent requires i != j")
    return _EXPONENT_TABLE.get(gcm.a(i, j) * gcm.a(j, i))


def _connected(gcm: GeneralizedCartanMatrix, subset) -> bool:
    """True iff the sorted, nonempty ``subset`` is connected in the Dynkin
    graph, where ``i`` and ``j`` are joined when ``a[i,j] != 0``."""
    entries = gcm.entries
    rest = set(subset[1:])
    stack = [subset[0]]
    while stack and rest:
        row = entries[stack.pop() - 1]
        linked = [j for j in rest if row[j - 1]]
        rest.difference_update(linked)
        stack += linked
    return not rest


def is_finite_type(gcm: GeneralizedCartanMatrix, subset) -> bool:
    """True iff the parabolic subgroup on ``subset`` is finite.

    Criterion (Kac, ch. 4): every principal minor of the submatrix is
    strictly positive.  Only the connected subsets ``T`` need a determinant:
    if ``T`` splits into parts with no edges between them, ``A_T`` is
    block-diagonal after reordering, so ``det A_T`` is the product of the
    determinants of its components, which are connected subsets themselves.
    All determinants are exact integers.
    """
    idx = sorted({gcm.generator(i) for i in subset})
    for r in range(1, len(idx) + 1):
        for sub in combinations(idx, r):
            if _connected(gcm, sub) and intmat.det(gcm.submatrix(sub)) <= 0:
                return False
    return True


def spherical_poset(gcm: GeneralizedCartanMatrix) -> SphericalPoset:
    """All finite-type subsets with their inclusion covers.

    The result always contains the empty set and every singleton, and is
    downward closed.  Built by size: a subset ``S`` is spherical iff every
    facet ``S - {x}`` is spherical and ``det(A_S) > 0`` (its smaller
    principal minors are those of its facets), and its covers are exactly
    those facets.  The determinant is needed only when ``S`` is connected
    in the Dynkin graph: otherwise ``A_S`` is block-diagonal after
    reordering, and ``det(A_S)``, the product of the determinants of its
    components, is a product of minors of proper subsets, all positive once
    the facets are spherical.
    """
    members = [()]
    member_set = {()}
    covers = []
    for r in range(1, gcm.size + 1):
        for sub in combinations(gcm.index_set, r):
            facets = [sub[:t] + sub[t + 1:] for t in range(r)]
            if all(f in member_set for f in facets) and (
                    not _connected(gcm, sub) or intmat.det(gcm.submatrix(sub)) > 0):
                members.append(sub)
                member_set.add(sub)
                covers.extend((f, sub) for f in facets)
    covers.sort()
    return SphericalPoset(tuple(members), tuple(covers))


def standard_realization(gcm: GeneralizedCartanMatrix) -> Realization:
    """Torus lattice of rank ``2n - rank(A)`` with independent roots.

    The coroots are the first ``n`` standard basis vectors.  The j-th root
    functional starts as column j of the matrix; when the matrix is singular
    the rows are completed to full row rank by standard basis covectors
    chosen greedily by lowest index, which appends the missing coordinates.
    Those covectors ``e_k`` are the pivot columns ``n + k`` of one
    elimination of ``[A^T | I]``, whose first ``n`` columns are the rows.
    The dual basis is fixed as the first ``n`` standard dual covectors.
    """
    n = gcm.size
    pivots, _ = intmat._eliminate(
        [[row[i] for row in gcm.entries] + [int(i == k) for k in range(n)]
         for i in range(n)], 2 * n)
    assert len(pivots) == n  # the stacked rows below have rank n
    stacked = [list(row) for row in gcm.entries]
    stacked += [[int(t == c - n) for t in range(n)] for c in pivots if c >= n]
    torus_rank = len(stacked)
    coroots = tuple(
        tuple(1 if t == i else 0 for t in range(torus_rank)) for i in range(n)
    )
    roots = tuple(
        tuple(stacked[k][j] for k in range(torus_rank)) for j in range(n)
    )
    dual = tuple(
        tuple(1 if t == i else 0 for t in range(torus_rank)) for i in range(n)
    )
    return Realization(gcm, torus_rank, coroots, roots, dual)


def derived_realization(gcm: GeneralizedCartanMatrix) -> Realization:
    """Rank-``n`` lattice spanned by the coroots (the semisimple subtorus).

    Unlike ``standard_realization`` the root functionals may become linearly
    dependent when the matrix is singular; the pairing identities still hold
    and all operators remain well defined.
    """
    n = gcm.size
    coroots = tuple(tuple(1 if t == i else 0 for t in range(n)) for i in range(n))
    roots = tuple(tuple(gcm.entries[k][j] for k in range(n)) for j in range(n))
    dual = coroots
    return Realization(gcm, n, coroots, roots, dual)
