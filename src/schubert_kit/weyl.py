"""The Weyl group of a generalized Cartan matrix, each element held as a key
of ``n`` integers and its lexicographically least reduced word.

``r_i`` maps a coweight ``h`` to ``h - <alpha_i, h> alpha_i^vee``, which on
the pairings ``v_j = <alpha_j, h>`` is the fold step ``v <- v - v_i * (row i
of the Cartan matrix)``, the numbers game (Bjorner-Brenti, *Combinatorics of
Coxeter Groups*, ch. 4).  Let ``rho^vee`` pair to 1 with every simple root.

- Key: ``key[i-1] = <alpha_i, w^-1 rho^vee>``, the height of ``w(alpha_i)``
  (column ``i``'s sum in the matrix of ``w``): a word of ``w`` folded in
  order from ``(1, ..., 1)``.
- Descents: ``i`` is a right descent iff ``w(alpha_i)`` is a negative root
  (Kac, *Infinite-dimensional Lie algebras*, Lemma 3.11), iff ``key[i-1] <
  0``, as a real root has nonzero height; a left descent iff ``<alpha_i, w
  rho^vee> < 0``, these pairings being the reversed word folded.
- Faithful: if ``u`` and ``v`` have equal keys, ``z = u^-1 rho^vee - v^-1
  rho^vee`` pairs to 0 with every simple root, so lies in the centre, which
  ``W`` fixes.  So ``x = v u^-1`` maps ``rho^vee`` to ``rho^vee + z``, every
  ``<alpha_i, x rho^vee>`` is 1, and ``x``, with no left descent, is 1 (Kac,
  Prop. 3.12).

So the lex-least word of any word is read by stripping the least left
descent until none is left, ``O(n)`` small-integer steps a letter and no
matrix.  Coset routines return minimal-length representatives for right
descents.  Infinite groups are materialized only up to an explicit length
bound; a negative bound raises ValueError.  Matrix entries from outside are
read by ``intmat.as_int``, generator indices by
``GeneralizedCartanMatrix.generator``.
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
    """A group element: its key and its lex-least reduced word.  Equality
    compares the group and the key, never the word, which is derived data;
    the hash reads the key alone, as equal elements have equal keys."""

    gcm: GeneralizedCartanMatrix
    key: tuple[int, ...]
    word: tuple[int, ...] = field(compare=False)

    def __hash__(self) -> int:
        return hash(self.key)

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def matrix(self) -> Matrix:
        """The action on the simple-root lattice, built from the word: column
        ``j`` is the image of the j-th simple root, of height ``key[j-1]``."""
        m = intmat.identity(self.gcm.size)
        for i in self.word:
            m = intmat.right_reflect(m, i, self.gcm.entries[i - 1])
        return m

    def __repr__(self) -> str:
        return f"W({','.join(map(str, self.word)) or 'e'})"


def _fold(gcm: GeneralizedCartanMatrix, v, letters) -> tuple[int, ...]:
    """The pairings ``v`` after ``r_i`` for each letter ``i`` in order."""
    rows = gcm.entries
    for i in letters:
        f = v[i - 1]
        v = tuple([x - f * a for x, a in zip(v, rows[i - 1])])
    return v


def _least_word(gcm: GeneralizedCartanMatrix, letters) -> tuple[int, ...]:
    """The lex-least reduced word of the product ``w`` of valid ``letters``:
    strip the least negative pairing of ``w rho^vee`` until none is left."""
    y, word = _fold(gcm, (1,) * gcm.size, reversed(letters)), []
    while True:
        for i, x in enumerate(y, 1):
            if x < 0:
                break
        else:
            return tuple(word)
        word.append(i)
        y = _fold(gcm, y, (i,))


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
    return from_word(gcm, ())


def simple_reflection(gcm: GeneralizedCartanMatrix, i: int) -> WeylElement:
    return from_word(gcm, (i,))


def _is_negative_column(matrix: Matrix, i: int) -> bool:
    """True iff every entry of column ``i`` is <= 0; stops at the first
    positive one.  For a group element the first nonzero entry would decide,
    but ``length_and_word`` tests the inverses of user matrices, and a
    mixed-sign column, which no group element has, must not read as a
    descent: stripping stops there and raises NotInGroup at once."""
    c = i - 1
    for row in matrix:
        if row[c] > 0:
            return False
    return True


def right_descent(w: WeylElement, i: int) -> bool:
    """True iff multiplying by r_i on the right shortens ``w``."""
    return w.key[i - 1] < 0


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
    matrix = tuple(tuple(intmat.as_int(x) for x in row) for row in matrix)
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


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    if u.gcm != v.gcm:
        raise ValueError("elements belong to different groups")
    return from_word(u.gcm, u.word + v.word)


def from_word(gcm: GeneralizedCartanMatrix, word) -> WeylElement:
    """Product of simple reflections, the one constructor of an element from
    a word, reduced or not.  Raises ValueError for a letter that is not an
    integer or lies outside the index set."""
    word = [gcm.generator(i) for i in word]
    return WeylElement(gcm, _fold(gcm, (1,) * gcm.size, word), _least_word(gcm, word))


# Per-session enumeration memo, keyed by matrix.  Confined to one process;
# rebuild per session rather than sharing across threads without a lock.
_LEVELS: dict[GeneralizedCartanMatrix, list[list[WeylElement]]] = {}


def enumerate_by_length(gcm: GeneralizedCartanMatrix, max_len: int):
    """Lists W_0, ..., W_max_len of all elements of each exact length.

    Breadth-first closure under right multiplication by generators,
    deduplicated by key.  An ascent ``w r_i`` of ``w`` in W_l lies in
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
        words: dict[tuple[int, ...], tuple[int, ...]] = {}
        for w in levels[-1]:
            for i, x in enumerate(w.key, 1):
                if x > 0:
                    words.setdefault(_fold(gcm, w.key, (i,)), w.word + (i,))
        levels.append([WeylElement(gcm, key, word) for key, word in words.items()])
    return [list(level) for level in levels[: max_len + 1]]


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Bruhat order test by the descent recursion, unrolled into a loop.

    For a right descent ``i`` of ``w``: ``v <= w`` iff ``v r_i <= w r_i``
    when ``i`` is also a descent of ``v``, and iff ``v <= w r_i`` otherwise.
    The last letter of a reduced word is a right descent, and dropping it
    leaves a reduced word of ``w r_i`` (Bjorner-Brenti, Prop. 2.2.7), so the
    descents of ``w`` are read off ``reversed(w.word)`` and only ``v``'s
    key is stepped, once per descent it shares.
    """
    if v.gcm != w.gcm:
        raise ValueError("elements belong to different groups")
    if v.length > w.length:
        return False
    vk, vl = v.key, v.length
    for i in reversed(w.word):
        if vk[i - 1] < 0:
            vk, vl = _fold(w.gcm, vk, (i,)), vl - 1
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
    subgroup only its longest element satisfies.  Every reduced word in
    ``subset``'s letters is a prefix of one of the longest element, so the
    least ascent at each step spells its lex-least reduced word.
    """
    subset = sorted({gcm.generator(i) for i in subset})
    if not is_finite_type(gcm, subset):
        raise NotSpherical(f"subset {subset} generates an infinite group")
    key, word = (1,) * gcm.size, []
    while (i := next((i for i in subset if key[i - 1] > 0), None)) is not None:
        key = _fold(gcm, key, (i,))
        word.append(i)
    return WeylElement(gcm, key, tuple(word))


def to_dict(w: WeylElement) -> dict:
    """Interchange form; keys and matrices are derived, never serialized."""
    return {"word": list(w.word)}
