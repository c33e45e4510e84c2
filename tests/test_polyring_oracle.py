"""The operators and the characteristic map against a substitution oracle.

The oracle below shares no code with ``polyring``: it applies r_i by
substituting t_k -> t_k - p_k alpha_i and expanding, divides f - r_i f by
alpha_i with long division over ``Fraction``, and reads psi(t^e)[w] off the
composite divided difference along the stored reduced word of w.  Over F_p
it lifts coefficients to their representatives in 0..p-1, works over Q, and
reduces at the end.
"""

from fractions import Fraction

import pytest

from schubert_kit.gcm import validate_gcm
from schubert_kit.polyring import WeightRing, monomial_exponents
from schubert_kit.rings import GF, QQ, ZZ
from schubert_kit.selftests import characteristic_map_commutes, random_poly
from schubert_kit.weyl import enumerate_by_length

from conftest import AFFINE_A2, HYPERBOLIC_RANK3, REALIZATIONS, SEED

# (name, rows, top degree of the monomial images checked)
MATRICES = [
    ("A2", [[2, -1], [-1, 2]], 5),
    ("affine-A1", [[2, -2], [-2, 2]], 5),
    ("hyperbolic-2-3", [[2, -2], [-3, 2]], 5),
    ("affine-A2", AFFINE_A2, 3),
    ("hyperbolic-rank-3", HYPERBOLIC_RANK3, 3),
]
FIELDS = (QQ, GF(2), GF(3))


def _unit(n, k):
    return tuple(1 if t == k else 0 for t in range(n))


def _add_into(acc, e, c):
    c = acc.get(e, 0) + c
    if c:
        acc[e] = c
    else:
        acc.pop(e, None)


def _times(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            _add_into(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return out


def oracle_reflect(real, i, terms):
    """r_i f by substitution and term-by-term expansion."""
    n = real.torus_rank
    pairing, alpha = real.coroots[i - 1], real.root_functionals[i - 1]
    images = []
    for k in range(n):
        img = {_unit(n, k): Fraction(1)}
        for t, a in enumerate(alpha):
            if a and pairing[k]:
                _add_into(img, _unit(n, t), -pairing[k] * a)
        images.append(img)
    out = {}
    for e, c in terms.items():
        term = {(0,) * n: Fraction(c)}
        for k, ek in enumerate(e):
            for _ in range(ek):
                term = _times(term, images[k])
        for e2, c2 in term.items():
            _add_into(out, e2, c2)
    return out


def oracle_divide(terms, alpha):
    """Long division by a linear form; a remainder fails the test."""
    pivot = next(k for k, a in enumerate(alpha) if a)
    work = {e: Fraction(c) for e, c in terms.items() if c}
    quot = {}
    while work:
        e = max(work, key=lambda e: (e[pivot], e))
        assert e[pivot] > 0, f"remainder {work} after division by {alpha}"
        c = work.pop(e) / alpha[pivot]
        q = tuple(x - 1 if k == pivot else x for k, x in enumerate(e))
        _add_into(quot, q, c)
        for k, a in enumerate(alpha):
            if a and k != pivot:
                _add_into(work, tuple(x + 1 if t == k else x for t, x in enumerate(q)), -c * a)
    return quot


def oracle_divided_difference(real, i, terms):
    numerator = dict(terms)
    for e, c in oracle_reflect(real, i, terms).items():
        _add_into(numerator, e, -c)
    return oracle_divide(numerator, real.root_functionals[i - 1])


def oracle_psi(gcm, real, exps):
    """{word: integer} image of one monomial, over Q (all values are integers)."""
    d = sum(exps)
    zero = (0,) * real.torus_rank
    out = {}
    for w in enumerate_by_length(gcm, d)[d]:
        f = {tuple(exps): Fraction(1)}
        for i in reversed(w.word):
            f = oracle_divided_difference(real, i, f)
            if not f:
                break
        c = f.get(zero, 0)
        assert c.denominator == 1
        if c:
            out[w.word] = c.numerator
    return out


def _reduce(values, ring):
    p = ring.char
    return {k: c % p if p else c for k, c in values.items() if (c % p if p else c)}


def _lift(f):
    """Coefficients of a polynomial as Fractions (F_p: the representative in 0..p-1)."""
    return {e: Fraction(c) for e, c in f.terms.items()}


@pytest.mark.parametrize("real_name", sorted(REALIZATIONS))
@pytest.mark.parametrize("name,rows,top", MATRICES, ids=[m[0] for m in MATRICES])
def test_monomial_images_match_oracle(name, rows, top, real_name):
    g = validate_gcm(rows)
    real = REALIZATIONS[real_name](g)
    models = [WeightRing(g, ring, real) for ring in FIELDS]
    for d in range(top + 1):
        for exps in monomial_exponents(real.torus_rank, d):
            want = oracle_psi(g, real, exps)
            for model in models:
                image = model.characteristic_map(model.monomial(exps))
                got = {w.word: c for w, c in image.coeffs.items()}
                assert got == _reduce(want, model.ring), (name, real_name, model.ring.name, exps)


@pytest.mark.parametrize("real_name", sorted(REALIZATIONS))
@pytest.mark.parametrize("name,rows,top", MATRICES, ids=[m[0] for m in MATRICES])
def test_operators_match_oracle(name, rows, top, real_name, rng):
    g = validate_gcm(rows)
    real = REALIZATIONS[real_name](g)
    for ring in (ZZ, QQ, GF(2), GF(3)):
        model = WeightRing(g, ring, real)
        for _ in range(3):
            f = random_poly(model, rng, range(5), bound=9, denominators=5 if ring is QQ else 1)
            for i in range(1, g.size + 1):
                want = model.from_terms(oracle_reflect(real, i, _lift(f)).items())
                assert model.weyl_act(i, f) == want, (name, ring.name, i)
                want = model.from_terms(oracle_divided_difference(real, i, _lift(f)).items())
                assert model.divided_difference(i, f) == want, (name, ring.name, i)


@pytest.mark.parametrize("real_name", sorted(REALIZATIONS))
@pytest.mark.parametrize("name,rows,top", MATRICES, ids=[m[0] for m in MATRICES])
def test_characteristic_map_commutes_with_every_operator(name, rows, top, real_name):
    # psi(A_i f) = a_i psi(f) for every generator i, whichever descent
    # the characteristic map itself reads its coefficients through
    assert characteristic_map_commutes([validate_gcm(rows)], FIELDS, range(1, top + 1), trials=1,
                                       seed=SEED, realizations=[REALIZATIONS[real_name]]) == []
