"""The integer kernel against oracles that share no code with it."""

import random

import pytest

from schubert_kit.gcm import rank_two, validate_gcm
from schubert_kit.intmat import (
    det,
    identity,
    integer_inverse,
    left_reflect,
    mat_mul,
    right_reflect,
)
from schubert_kit.weyl import enumerate_by_length, reflection_matrix

from conftest import AFFINE_A2, HYPERBOLIC_RANK3, leibniz_det


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _is_identity(m):
    return all(m[i][j] == (i == j) for i in range(len(m)) for j in range(len(m)))


def test_det_matches_permutation_expansion():
    rng = random.Random(20261018)
    for trial in range(300):
        n = rng.randint(0, 6)
        bound = 10 ** 12 if trial % 5 == 0 else 4
        m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 4 == 0:
            m[rng.randrange(n)] = list(m[rng.randrange(n)])  # often singular
        if trial % 7 == 0:
            for row in m:
                row[0] = 0  # no pivot in the first column
        assert det(m) == leibniz_det(m), m


@pytest.mark.parametrize("rows,max_len", [
    (AFFINE_A2, 6),
    (HYPERBOLIC_RANK3, 5),
    ([[2, -2], [-3, 2]], 20),
])
def test_integer_inverse_on_group_elements(rows, max_len):
    g = validate_gcm(rows)
    for level in enumerate_by_length(g, max_len):
        for w in level:
            inv = integer_inverse(w.matrix)
            assert _is_identity(_product(w.matrix, inv))
            assert _is_identity(_product(inv, w.matrix))


def test_integer_inverse_rejects_non_unimodular():
    rng = random.Random(7)
    assert integer_inverse(((2, 0), (0, 1))) is None
    assert integer_inverse(((1, 1), (1, 1))) is None
    assert integer_inverse(rank_two(1, 1).entries) is None  # det 3
    tried = 0
    while tried < 200:
        n = rng.randint(1, 5)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        if leibniz_det(m) in (1, -1):
            continue
        tried += 1
        assert integer_inverse(m) is None, m


def _random_gcm(rng, n):
    """A random GCM of rank ``n`` with off-diagonal entries down to -5; for
    rank 3 and above almost every one is not symmetrizable."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                rows[i][j], rows[j][i] = rng.randint(-5, -1), rng.randint(-5, -1)
    return validate_gcm(rows)


def test_reflection_updates_match_full_products():
    rng = random.Random(20261018)
    for trial in range(60):
        g = _random_gcm(rng, rng.randint(1, 6))
        n = g.size
        group = identity(n)
        for _ in range(rng.randint(0, 8)):
            group = mat_mul(group, reflection_matrix(g, rng.randint(1, n)))
        bound = 10 ** 12 if trial % 5 == 0 else 9
        arbitrary = tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n))
        for m in (group, arbitrary):
            for i in g.index_set:
                r, row = reflection_matrix(g, i), g.entries[i - 1]
                assert right_reflect(m, i, row) == mat_mul(m, r), (g, m, i)
                assert left_reflect(m, i, row) == mat_mul(r, m), (g, m, i)
