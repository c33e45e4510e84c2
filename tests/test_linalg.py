"""Rank and kernel bases against a reduced row echelon form oracle.

The oracle (``conftest.oracle_rref``) shares no code with the package: it
is the textbook Gauss-Jordan elimination, scaling each pivot row to 1 and
clearing its column, over ``Fraction`` for Q and over ``int`` mod p for
F_p.  Kernel vectors are read off the unique reduced form, one per free
column in increasing order, so they are compared with the package's
element by element, including whether each entry is a ``Fraction`` or an
``int``.
"""

import random
from fractions import Fraction

import pytest

from schubert_kit.gcm import validate_gcm
from schubert_kit.linalg import kernel_basis, rank
from schubert_kit.polyring import WeightRing
from schubert_kit.rings import GF, QQ

from conftest import AFFINE_A2, REALIZATIONS, oracle_rref

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F7": GF(7)}


def oracle_kernel(matrix, ncols, p):
    pivots, rows = oracle_rref(matrix, ncols, p)
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc] % p if p else -rows[r][fc]
        basis.append(v)
    return basis


def _typed(vectors):
    return [[(type(x), x) for x in v] for v in vectors]


def _check(matrix, ncols, ring):
    p = ring.char
    pivots, _ = oracle_rref(matrix, ncols, p)
    assert rank(matrix, ring) == len(pivots), matrix
    basis = kernel_basis(matrix, ncols, ring)
    assert _typed(basis) == _typed(oracle_kernel(matrix, ncols, p)), matrix
    for v in basis:
        for row in matrix:
            total = sum(Fraction(a) * b for a, b in zip(row, v))
            assert (total % p if p else total) == 0, (matrix, v)


def _seeded_matrices():
    """300 integer matrices up to 7 x 7: zero, rank-deficient, 10^12 entries."""
    rng = random.Random(20261018)
    out = [([], 3), ([[]], 0), ([[0, 0, 0]], 3), ([[0] * 4 for _ in range(5)], 4)]
    while len(out) < 300:
        trial = len(out)
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        bound = 10 ** 12 if trial % 5 == 0 else 3
        m = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and trial % 3 == 0:
            m[rng.randrange(nrows)] = list(m[rng.randrange(nrows)])
        if nrows > 2 and trial % 4 == 0:
            a, b = rng.sample(range(nrows), 2)
            m[rng.randrange(nrows)] = [x - 2 * y for x, y in zip(m[a], m[b])]
        if trial % 7 == 0:
            for row in m:
                row[rng.randrange(ncols)] = 0
        out.append((m, ncols))
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_seeded_matrices_match_oracle(field):
    for matrix, ncols in _seeded_matrices():
        _check(matrix, ncols, FIELDS[field])


# (name, rows, top topological degree of s_poincare)
MATRICES = [
    ("hyperbolic-2-3", [[2, -2], [-3, 2]], 20),
    ("affine-A2", AFFINE_A2, 10),
]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("realization", REALIZATIONS)
@pytest.mark.parametrize("name,rows,max_degree", MATRICES, ids=[m[0] for m in MATRICES])
def test_evaluation_matrices_match_oracle(name, rows, max_degree, realization, field):
    g = validate_gcm(rows)
    model = WeightRing(g, FIELDS[field], REALIZATIONS[realization](g))
    report = model.s_poincare(max_degree)
    for d, (_, kernel_dim, image_dim) in enumerate(report.per_degree):
        monos, matrix = model._evaluation_matrix(d)
        _check(matrix, len(monos), model.ring)
        assert image_dim == len(oracle_rref(matrix, len(monos), model.ring.char)[0])
        assert kernel_dim == len(monos) - image_dim


@pytest.mark.parametrize("field", FIELDS)
def test_non_integer_entries_rejected(field):
    matrix = [[1, 2], [3, Fraction(1, 2)]]
    with pytest.raises(TypeError):
        rank(matrix, FIELDS[field])
    with pytest.raises(TypeError):
        kernel_basis(matrix, 2, FIELDS[field])
