"""The Weyl group of a generalized Cartan matrix, as integer matrices.

Elements act on the lattice spanned by the simple roots; column j of an
element's matrix holds the coordinates of the image of the j-th simple root.
This representation is faithful and crystallographic, so deduplication is
exact matrix equality and no word-problem solving is ever needed.  Every
column of a group element is a real root: its entries are all >= 0 or all
<= 0, which gives the integer-exact descent test used everywhere below.

Convention: ``i`` is a right descent of ``w`` iff ``w`` maps the i-th simple
root to a negative root.  Coset routines return minimal-length
representatives for that convention.  Infinite groups are only ever
materialized up to an explicit length bound, and a negative bound raises
ValueError.  Matrix entries given from outside are read by
``intmat.as_int``, an ``int`` or ``__index__`` value and never a bool, and
generator indices by ``GeneralizedCartanMatrix.generator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intmat
from .errors import NotInGroup, NotSpherical
from .gcm import GeneralizedCartanMatrix, is_finite_type

Matrix = intmat.Matrix

_DEFAULT_STRIP_BOUND = 10_000


@dataclass(frozen=True)
class WeylElement:
    """A group element with its canonical reduced word.

    Equality compares the matrix and the group, never the word, which is
    derived data; the hash reads the matrix alone, as equal elements have
    equal matrices.  ``word`` is the lexicographically least reduced word
    for the element, so its length is the element's length.
    """

    gcm: GeneralizedCartanMatrix
    matrix: Matrix
    word: tuple[int, ...] = field(compare=False)

    def __hash__(self) -> int:
        return hash(self.matrix)

    @property
    def length(self) -> int:
        return len(self.word)

    def __repr__(self) -> str:
        return f"W({','.join(map(str, self.word)) or 'e'})"


def reflection_matrix(gcm: GeneralizedCartanMatrix, i: int) -> Matrix:
    """Matrix of r_i: the j-th simple root maps to alpha_j - a[i,j] alpha_i."""
    n = gcm.size
    rows = []
    for k in range(n):
        if k == i - 1:
            rows.append(tuple((1 if j == k else 0) - gcm.a(i, j + 1) for j in range(n)))
        else:
            rows.append(tuple(1 if j == k else 0 for j in range(n)))
    return tuple(rows)


def identity_element(gcm: GeneralizedCartanMatrix) -> WeylElement:
    return WeylElement(gcm, intmat.identity(gcm.size), ())


def simple_reflection(gcm: GeneralizedCartanMatrix, i: int) -> WeylElement:
    i = gcm.generator(i)
    return WeylElement(gcm, reflection_matrix(gcm, i), (i,))


def _is_negative_column(matrix: Matrix, i: int) -> bool:
    """True iff every entry of column ``i`` is <= 0; stops at the first
    positive one.  For a group element the first nonzero entry would decide,
    but ``length_and_word`` also tests the inverses of user matrices, and a
    mixed-sign column, which no group element has, must not read as a
    descent: stripping stops there and raises NotInGroup at once."""
    c = i - 1
    for row in matrix:
        if row[c] > 0:
            return False
    return True


def right_descent(w: WeylElement, i: int) -> bool:
    """True iff multiplying by r_i on the right shortens ``w``."""
    return _is_negative_column(w.matrix, i)


def length_and_word(gcm: GeneralizedCartanMatrix, matrix,
                    max_steps: int = _DEFAULT_STRIP_BOUND):
    """Length and lexicographically least reduced word of a group matrix.

    Strips the least left descent repeatedly (equivalently, the least right
    descent of the inverse), which yields the lex-least word.  Raises
    NotInGroup if the matrix is not unimodular or stripping fails to reach
    the identity within ``max_steps``, and ValueError for an entry that is
    not an integer.
    """
    n = gcm.size
    matrix = _read_matrix(matrix)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise NotInGroup("matrix size does not match the index set")
    inv = intmat.integer_inverse(matrix)
    if inv is None:
        raise NotInGroup("matrix is not invertible over the integers")
    ident = intmat.identity(n)
    word = []
    steps = 0
    while inv != ident:
        i = next((i for i in range(1, n + 1) if _is_negative_column(inv, i)), None)
        if i is None:
            raise NotInGroup("matrix is not a product of simple reflections")
        word.append(i)
        inv = intmat.right_reflect(inv, i, gcm.entries[i - 1])
        steps += 1
        if steps > max_steps:
            raise NotInGroup(f"did not reach the identity within {max_steps} steps")
    return len(word), tuple(word)


def _read_matrix(matrix) -> Matrix:
    return tuple(tuple(intmat.as_int(x) for x in row) for row in matrix)


def element_from_matrix(gcm: GeneralizedCartanMatrix, matrix) -> WeylElement:
    matrix = _read_matrix(matrix)
    return WeylElement(gcm, matrix, length_and_word(gcm, matrix)[1])


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    if u.gcm != v.gcm:
        raise ValueError("elements belong to different groups")
    return element_from_matrix(u.gcm, intmat.mat_mul(u.matrix, v.matrix))


def inverse(w: WeylElement) -> WeylElement:
    inv = intmat.integer_inverse(w.matrix)
    assert inv is not None
    return element_from_matrix(w.gcm, inv)


def from_word(gcm: GeneralizedCartanMatrix, word) -> WeylElement:
    """Product of simple reflections; the word need not be reduced.

    Raises ValueError for a letter that is not an integer or lies outside
    the index set.
    """
    m = intmat.identity(gcm.size)
    for i in word:
        i = gcm.generator(i)
        m = intmat.right_reflect(m, i, gcm.entries[i - 1])
    return element_from_matrix(gcm, m)


# Per-session enumeration memo, keyed by matrix.  Confined to one process;
# rebuild per session rather than sharing across threads without a lock.
_LEVELS: dict[GeneralizedCartanMatrix, list[list[WeylElement]]] = {}


def enumerate_by_length(gcm: GeneralizedCartanMatrix, max_len: int):
    """Lists W_0, ..., W_max_len of all elements of each exact length.

    Breadth-first closure under right multiplication by generators,
    deduplicated by matrix.  An ascent ``w r_i`` of ``w`` in W_l lies in
    W_(l+1), and its parents are the ``(w r_j, j)`` over its right descents
    ``j``, so the least candidate word ``w.word + (i,)`` is its lex-least
    reduced word.  Candidates arrive in lex order (W_l is sorted and ``i``
    ascends), so the first one is kept and the level comes out sorted.
    Levels past the end of a finite group are empty lists.  Raises
    ValueError for a negative ``max_len``.
    """
    if max_len < 0:
        raise ValueError(f"length bound {max_len} is negative")
    levels = _LEVELS.setdefault(gcm, [[identity_element(gcm)]])
    while len(levels) <= max_len:
        words: dict[Matrix, tuple[int, ...]] = {}
        for w in levels[-1]:
            for i, row in enumerate(gcm.entries, 1):
                if not right_descent(w, i):
                    words.setdefault(intmat.right_reflect(w.matrix, i, row), w.word + (i,))
        levels.append([WeylElement(gcm, m, word) for m, word in words.items()])
    return [list(level) for level in levels[: max_len + 1]]


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Bruhat order test by the descent recursion, unrolled into a loop.

    For a right descent ``i`` of ``w``: ``v <= w`` iff ``v r_i <= w r_i``
    when ``i`` is also a descent of ``v``, and iff ``v <= w r_i`` otherwise.
    The last letter of a reduced word is a right descent, and dropping it
    leaves a reduced word of ``w r_i`` (Bjorner-Brenti, Prop. 2.2.7), so the
    descents of ``w`` are read off ``reversed(w.word)`` and only ``v``'s
    matrix is multiplied, once per descent it shares.
    """
    if v.gcm != w.gcm:
        raise ValueError("elements belong to different groups")
    if v.length > w.length:
        return False
    vm, vl = v.matrix, v.length
    for i in reversed(w.word):
        if _is_negative_column(vm, i):
            vm, vl = intmat.right_reflect(vm, i, w.gcm.entries[i - 1]), vl - 1
    return vl == 0


def min_coset_reps(gcm: GeneralizedCartanMatrix, subset, max_len: int):
    """All enumerated w with no right descent in ``subset``; ValueError for a
    negative ``max_len``."""
    subset = sorted({gcm.generator(j) for j in subset})
    reps = []
    for level in enumerate_by_length(gcm, max_len):
        for w in level:
            if all(not right_descent(w, j) for j in subset):
                reps.append(w)
    return reps


def longest_element(gcm: GeneralizedCartanMatrix, subset) -> WeylElement:
    """The unique maximal-length element of a finite parabolic subgroup.

    Climbs from ``e`` by the least ascent in ``subset`` until every
    generator of ``subset`` is a right descent, which in a finite parabolic
    subgroup only its longest element satisfies.
    """
    subset = sorted({gcm.generator(i) for i in subset})
    if not is_finite_type(gcm, subset):
        raise NotSpherical(f"subset {subset} generates an infinite group")
    m = intmat.identity(gcm.size)
    while (i := next((i for i in subset if not _is_negative_column(m, i)), None)) is not None:
        m = intmat.right_reflect(m, i, gcm.entries[i - 1])
    return element_from_matrix(gcm, m)


def to_dict(w: WeylElement) -> dict:
    """Interchange form; matrices are derived data and never serialized."""
    return {"word": list(w.word)}
