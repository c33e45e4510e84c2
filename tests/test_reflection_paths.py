"""Every step that multiplies by a simple reflection, against full products.

The references below build each result from ``intmat.mat_mul`` and
``weyl.reflection_matrix`` alone, read the inverse of an element as the
product of its word reversed, read every word by stripping least left
descents from that inverse, and read every key as the column sums of the
product, the heights of the images of the simple roots.  So they share no
code with the folds of the ``weyl`` and ``schubert`` paths they check, nor
with the integer inverse that ``weyl.length_and_word`` runs on a matrix
given from outside.

Each reference compares what an element is: its word with the lex-least
strip of its full product, and its key with that product's column sums.
``WeylElement.matrix`` is read only where a matrix is the interface: the
enumeration and strip references compare it with the full product, and the
strip reference calls ``length_and_word`` on that product.  The Bruhat
reference multiplies out each element's word, and the coproduct reference
walks the ball of full products, so neither reads ``.matrix``.  The last
test keeps matrices off the library's simple-reflection paths.
"""

import random

import pytest

from schubert_kit import intmat, weyl
from schubert_kit.gcm import rank_two, spherical_poset, validate_gcm
from schubert_kit.intmat import identity, mat_mul
from schubert_kit.rings import ZZ
from schubert_kit.schubert import SchubertVector, nil_aw, peterson_coproduct
from schubert_kit.weyl import (
    bruhat_leq,
    enumerate_by_length,
    from_word,
    length_and_word,
    longest_element,
    reflection_matrix,
)

from conftest import AFFINE_A2, B4, HYPERBOLIC_RANK3

# not symmetrizable: a12 a23 a31 != a21 a32 a13
NON_SYMMETRIZABLE = [[2, -1, -3], [-2, 2, -1], [-1, -5, 2]]

GROUPS = [
    (validate_gcm(AFFINE_A2), 6),
    (validate_gcm(HYPERBOLIC_RANK3), 5),
    (rank_two(2, 3), 16),
    (validate_gcm(B4), 16),  # every element
    (validate_gcm(NON_SYMMETRIZABLE), 5),
    (rank_two(1, 1), 3),  # every element
    (rank_two(2, 1), 4),  # every element
]
IDS = ["affine-A2", "hyperbolic-rank-3", "2-3", "B4", "non-symmetrizable", "A2", "B2"]
# the coproduct check is cheap on (2,3), two elements per length, so it goes further
COPRODUCT_GROUPS = [*GROUPS[:2], (rank_two(2, 3), 30), *GROUPS[3:]]


def _negative_column(m, i):
    return all(row[i - 1] <= 0 for row in m)


def _product(g, word):
    m = identity(g.size)
    for i in word:
        m = mat_mul(m, reflection_matrix(g, i))
    return m


def _heights(m):
    return tuple(map(sum, zip(*m)))


def _word(g, word):
    """Lex-least reduced word of the element that ``word`` spells, by full
    products from its inverse, the product of the reversed word."""
    inv, reduced = _product(g, reversed(word)), []
    while inv != identity(g.size):
        i = next(i for i in g.index_set if _negative_column(inv, i))
        reduced.append(i)
        inv = mat_mul(inv, reflection_matrix(g, i))
    return tuple(reduced)


def _ball(g, max_len):
    """Matrix -> word for every element of length at most ``max_len``."""
    ball, frontier = {identity(g.size): ()}, [identity(g.size)]
    for _ in range(max_len):
        nxt = []
        for m in frontier:
            for i in g.index_set:
                child = mat_mul(m, reflection_matrix(g, i))
                if child not in ball:
                    ball[child] = _word(g, ball[m] + (i,))
                    nxt.append(child)
        frontier = nxt
    return ball


@pytest.mark.parametrize("g,max_len", GROUPS, ids=IDS)
def test_enumeration_matches_full_products(g, max_len):
    ball = _ball(g, max_len)
    levels = enumerate_by_length(g, max_len)
    for length, level in enumerate(levels):
        expected = sorted((word, _heights(m), m)
                          for m, word in ball.items() if len(word) == length)
        assert [(w.word, w.key, w.matrix) for w in level] == expected


@pytest.mark.parametrize("g,max_len", GROUPS, ids=IDS)
def test_strip_and_words_match_full_products(g, max_len):
    rng = random.Random(20261018)
    for _ in range(60):
        word = [rng.randint(1, g.size) for _ in range(rng.randint(0, 2 * max_len))]
        m = _product(g, word)
        expected = _word(g, word)
        assert length_and_word(g, m) == (len(expected), expected)
        w = from_word(g, word)
        assert (w.word, w.key, w.matrix) == (expected, _heights(m), m)


@pytest.mark.parametrize("g,max_len", GROUPS, ids=IDS)
def test_bruhat_matches_full_products(g, max_len):
    elements = [w for level in enumerate_by_length(g, max_len) for w in level]
    rng = random.Random(20261019)
    for _ in range(400):
        v, w = rng.choice(elements), rng.choice(elements)
        vm = _product(g, v.word)
        for i in reversed(w.word):
            if _negative_column(vm, i):
                vm = mat_mul(vm, reflection_matrix(g, i))
        assert bruhat_leq(v, w) == (vm == identity(g.size)), (v, w)


@pytest.mark.parametrize("g,max_len", COPRODUCT_GROUPS, ids=IDS)
def test_coproduct_matches_full_products(g, max_len):
    # every w of the ball: the terms are u (x) u^-1 w over the u no longer
    # than w with l(u) + l(u^-1 w) = l(w), in support order (l(u), u, v words)
    ball = _ball(g, max_len)
    inverses = {m: _product(g, reversed(word)) for m, word in ball.items()}
    for wm, wword in ball.items():
        expected = []
        for um, uword in ball.items():
            if len(uword) <= len(wword):
                vm = mat_mul(inverses[um], wm)
                vword = ball.get(vm)
                if vword is not None and len(uword) + len(vword) == len(wword):
                    expected.append((len(uword), uword, _heights(um), vword, _heights(vm)))
        cop = peterson_coproduct(from_word(g, wword))
        assert set(cop.coeffs.values()) == {1}
        got = [(u.length, u.word, u.key, v.word, v.key) for u, v in cop.support()]
        assert got == sorted(expected), wword


@pytest.mark.parametrize("g,max_len", GROUPS, ids=IDS)
def test_longest_element_matches_full_products(g, max_len):
    for subset in spherical_poset(g).subsets:
        m, climbed = identity(g.size), ()
        while (i := next((i for i in subset if not _negative_column(m, i)), None)) is not None:
            m, climbed = mat_mul(m, reflection_matrix(g, i)), climbed + (i,)
        w = longest_element(g, subset)
        assert (w.word, w.key) == (_word(g, climbed), _heights(m))


def _refuse(*args):
    raise AssertionError("a matrix on a simple-reflection path")


@pytest.mark.parametrize("g,max_len", [(validate_gcm(AFFINE_A2), 6), (rank_two(2, 3), 30)],
                         ids=["affine-A2", "2-3"])
def test_hot_paths_make_no_full_products(g, max_len, monkeypatch):
    for name in ("mat_mul", "right_reflect", "integer_inverse"):
        monkeypatch.setattr(intmat, name, _refuse)
    monkeypatch.setattr(weyl, "reflection_matrix", _refuse)
    monkeypatch.setattr(weyl, "_LEVELS", {})
    levels = enumerate_by_length(g, max_len)
    w = levels[max_len][-1]
    assert bruhat_leq(w, w) and bruhat_leq(levels[1][0], w) == (1 in w.word)
    assert len(peterson_coproduct(w).coeffs) > max_len
    assert from_word(g, w.word) == w and from_word(g, w.word * 2).length <= 2 * max_len
    for subset in spherical_poset(g).subsets:
        assert set(longest_element(g, subset).word) == set(subset)
    assert nil_aw(w.word, SchubertVector.basis(ZZ, w)) == SchubertVector.basis(ZZ, levels[0][0])
