import sys

import pytest

from schubert_kit import intmat
from schubert_kit.errors import NotInGroup, NotSpherical
from schubert_kit.gcm import rank_two, validate_gcm
from schubert_kit.selftests import (
    bruhat_matches_subword,
    length_changes_by_one,
    reflections_are_involutions,
)
from schubert_kit.weyl import (
    _is_negative_column,
    bruhat_leq,
    enumerate_by_length,
    from_word,
    identity_element,
    length_and_word,
    longest_element,
    min_coset_reps,
    multiply,
    simple_reflection,
    to_dict,
)

from conftest import AFFINE_A2, B2_INSIDE_RANK3, HYPERBOLIC_RANK3, stack_depth


def test_simple_reflection_matrix(gcm_a22):
    s1 = simple_reflection(gcm_a22, 1)
    # alpha_1 -> -alpha_1, alpha_2 -> alpha_2 + 2 alpha_1 (columns)
    assert s1.matrix == ((-1, 2), (0, 1))
    assert s1.length == 1 and s1.word == (1,)


def test_reflections_are_involutions(gcm_a23, gcm_affine_a2):
    assert reflections_are_involutions((gcm_a23, gcm_affine_a2)) == []


def test_braid_order_three(gcm_a11):
    s1 = simple_reflection(gcm_a11, 1)
    s2 = simple_reflection(gcm_a11, 2)
    prod = multiply(s1, s2)
    cubed = multiply(prod, multiply(prod, prod))
    assert cubed == identity_element(gcm_a11)


def test_multiply_lengths(gcm_a22, gcm_a11):
    w = from_word(gcm_a22, (1, 2, 1))
    assert w.length == 3
    braid = from_word(gcm_a11, (1, 2, 1, 2))
    assert braid.length == 2  # r1 r2 r1 r2 = r2 r1 in the order-3 braid group
    u = from_word(gcm_a22, (2, 1))
    assert multiply(u, identity_element(gcm_a22)) == u


def test_length_and_word_rejects_outsiders(gcm_a22):
    with pytest.raises(NotInGroup):
        length_and_word(gcm_a22, ((2, 0), (0, 2)))  # not unimodular
    with pytest.raises(NotInGroup):
        length_and_word(gcm_a22, ((1, 1), (0, 1)))  # unimodular, not in the group


def test_descent_test_asks_the_whole_column(rng):
    mixed = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        for i in range(1, n + 1):
            column = [row[i - 1] for row in m]
            mixed += min(column) < 0 < max(column)
            assert _is_negative_column(m, i) == all(x <= 0 for x in column), (m, i)
    assert mixed > 100


def _unimodular(rng, n, steps):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
    return tuple(map(tuple, rows))


def test_mixed_sign_column_is_not_a_descent(rng, gcm_affine_a2):
    # the inverse has no column <= 0, but one whose first nonzero entry is
    # negative: stripping must stop before its first step
    tried = 0
    while tried < 40:
        m = _unimodular(rng, 3, 6)
        inv = intmat.integer_inverse(m)
        columns = list(zip(*inv))
        if any(max(c) <= 0 for c in columns):
            continue
        if not any(next(x for x in c if x) < 0 for c in columns):
            continue
        tried += 1
        with pytest.raises(NotInGroup, match="not a product of simple reflections"):
            length_and_word(gcm_affine_a2, m, max_steps=0)


def test_length_and_word_respects_step_bound(gcm_a22):
    deep = from_word(gcm_a22, (1, 2, 1, 2, 1))
    with pytest.raises(NotInGroup):
        length_and_word(gcm_a22, deep.matrix, max_steps=2)
    assert length_and_word(gcm_a22, deep.matrix, max_steps=5)[0] == 5


@pytest.mark.parametrize("rows,max_len", [
    (HYPERBOLIC_RANK3, 9),
    (AFFINE_A2, 10),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 7),
    (B2_INSIDE_RANK3, 10),
    ([[2, -1], [-3, 2]], 7),
    ([[2, -2], [-3, 2]], 60),
    ([[2, -2], [-2, 2]], 300),
], ids=["hyperbolic-rank-3", "affine-A2", "A3", "B2-in-rank-3", "G2", "2-3", "affine-A1"])
def test_enumeration_round_trips_through_length_and_word(rows, max_len):
    # the breadth-first search builds words from its parents; stripping
    # each element's matrix from scratch must give the same length and
    # word, and each level stays sorted by word
    for level in enumerate_by_length(validate_gcm(rows), max_len):
        assert [w.word for w in level] == sorted(w.word for w in level)
        for w in level:
            assert length_and_word(w.gcm, w.matrix) == (w.length, w.word)


def test_enumerate_counts(gcm_a11, gcm_a22, gcm_affine_a2):
    assert [len(l) for l in enumerate_by_length(gcm_a11, 5)] == [1, 2, 2, 1, 0, 0]
    assert [len(l) for l in enumerate_by_length(gcm_a22, 6)] == [1, 2, 2, 2, 2, 2, 2]
    assert len(enumerate_by_length(gcm_affine_a2, 1)[1]) == 3


@pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (1, 5)])
def test_noncompact_growth_is_two_per_length(a, b):
    levels = enumerate_by_length(rank_two(a, b), 10)
    assert [len(l) for l in levels] == [1] + [2] * 10


def test_exactly_one_length_change(gcm_affine_a2):
    assert length_changes_by_one([gcm_affine_a2], 5) == []


def test_bruhat_trivial_cases(gcm_a22):
    e = identity_element(gcm_a22)
    w = from_word(gcm_a22, (1, 2, 1))
    assert bruhat_leq(e, w)
    assert not bruhat_leq(
        simple_reflection(gcm_a22, 1), simple_reflection(gcm_a22, 2)
    )
    for word in [(1, 2), (2, 1)]:
        assert bruhat_leq(from_word(gcm_a22, word), w)


@pytest.mark.parametrize("rows,max_len", [
    ([[2, -1], [-1, 2]], 3),
    ([[2, -2], [-2, 2]], 6),
    ([[2, -2], [-1, 2]], 4),
    ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 6),
])
def test_bruhat_matches_subword_oracle(rows, max_len):
    assert bruhat_matches_subword([validate_gcm(rows)], max_len) == []


def test_bruhat_independent_of_recursion_limit(gcm_a22):
    # infinite dihedral group: v <= w iff l(v) < l(w) or v == w
    def alternating(first, length):
        return from_word(gcm_a22, [first if t % 2 == 0 else 3 - first for t in range(length)])

    long_1, long_2 = alternating(1, 300), alternating(2, 300)
    shorter = alternating(2, 299)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        assert bruhat_leq(shorter, long_1)
        assert bruhat_leq(long_1, long_1)
        assert not bruhat_leq(long_2, long_1)
        assert not bruhat_leq(long_1, shorter)
    finally:
        sys.setrecursionlimit(saved)


def test_bruhat_infinite_dihedral_closed_form(gcm_a22):
    # Bjorner-Brenti (GTM 231): in the infinite dihedral group u <= v iff
    # u == v or l(u) < l(v); words of up to 600 letters
    elems = [from_word(gcm_a22, [first if t % 2 == 0 else 3 - first for t in range(length)])
             for length in (1, 2, 3, 299, 300, 301, 599, 600) for first in (1, 2)]
    elems.append(identity_element(gcm_a22))
    for u in elems:
        for v in elems:
            assert bruhat_leq(u, v) == (u == v or u.length < v.length), (u.length, v.length)


def test_min_coset_reps(gcm_a22, gcm_a11):
    full = min_coset_reps(gcm_a22, (), 4)
    assert len(full) == 1 + 2 * 4
    reps = min_coset_reps(gcm_a22, (1,), 4)
    assert [w.length for w in reps] == [0, 1, 2, 3, 4]
    assert all(w.word[-1] == 2 for w in reps if w.length)
    assert len(min_coset_reps(gcm_a11, (1,), 3)) == 3  # |W| / |W_J| = 6 / 2


def test_longest_elements(gcm_a11, gcm_a22):
    assert longest_element(gcm_a11, (1,)) == simple_reflection(gcm_a11, 1)
    w0 = longest_element(gcm_a11, (1, 2))
    assert w0.length == 3
    b2 = validate_gcm(B2_INSIDE_RANK3)
    assert longest_element(b2, (1, 2)).length == 4
    # F4, D5 and A4: the number of positive roots
    for rows, length in (
        ([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]], 24),
        ([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1], [0, 0, -1, 2, 0],
          [0, 0, -1, 0, 2]], 20),
        ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]], 10),
    ):
        g = validate_gcm(rows)
        assert longest_element(g, g.index_set).length == length
    with pytest.raises(NotSpherical):
        longest_element(gcm_a22, (1, 2))


def test_inverse_and_serialization(gcm_a23):
    w = from_word(gcm_a23, (1, 2, 1))
    inverse = from_word(gcm_a23, w.word[::-1])
    assert multiply(w, inverse) == identity_element(gcm_a23)
    assert inverse.length == w.length
    assert to_dict(w) == {"word": [1, 2, 1]}
    assert from_word(gcm_a23, to_dict(w)["word"]) == w
