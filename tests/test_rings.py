"""Coefficient reduction: a container stores its coefficients reduced, so
computing over Z and then reducing into GF(p) equals computing over GF(p),
and computing over Z and then reading into Q equals computing over Q."""

import random
from fractions import Fraction

import pytest

from schubert_kit.gcm import parse_gcm
from schubert_kit.polyring import GradedPolynomial, WeightRing
from schubert_kit.rings import GF, QQ, ZZ
from schubert_kit.schubert import SchubertVector, nil_a, nil_aw
from schubert_kit.weyl import enumerate_by_length

SEED = 20261019
G = parse_gcm("2,-2;-3,2")
LEVELS = enumerate_by_length(G, 4)
ELEMENTS = [w for level in LEVELS for w in level]
WORDS = [w.word for level in LEVELS[1:3] for w in level]
TARGETS = [GF(2), GF(3), GF(5), QQ]


def read_vector(v, ring):
    return SchubertVector(ring, v.coeffs)


def read_poly(f, ring):
    return GradedPolynomial(ring, f.nvars, f.terms)


def assert_stored_reduced(coeffs, ring):
    for c in coeffs.values():
        if ring.char:
            assert type(c) is int and c in range(1, ring.char), (ring, c)
        else:
            assert type(c) is Fraction and c != 0, (ring, c)


def random_vector(rng):
    picks = rng.sample(ELEMENTS, rng.randint(0, 6))
    return SchubertVector(ZZ, {w: rng.randint(-12, 12) for w in picks})


def random_poly(rng, max_degree=3):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        d = rng.randint(0, max_degree)
        e = rng.randint(0, d)
        terms[(e, d - e)] = rng.randint(-12, 12)
    return GradedPolynomial(ZZ, 2, terms)


def draws(make, count=12):
    rng = random.Random(SEED)
    return [(make(rng), make(rng), rng.randint(-9, 9)) for _ in range(count)]


@pytest.mark.parametrize("ring", TARGETS, ids=lambda r: r.name)
def test_vector_arithmetic_commutes_with_reduction(ring):
    for u, v, c in draws(random_vector):
        ru, rv = read_vector(u, ring), read_vector(v, ring)
        pairs = [
            (u + v, ru + rv),
            (u - v, ru - rv),
            (-u, -ru),
            (u.scale(c), ru.scale(c)),
        ]
        pairs += [(nil_a(i, u), nil_a(i, ru)) for i in (1, 2)]
        pairs += [(nil_aw(word, u), nil_aw(word, ru)) for word in WORDS]
        for over_z, over_ring in pairs:
            assert read_vector(over_z, ring) == over_ring
            assert_stored_reduced(over_ring.coeffs, ring)


@pytest.mark.parametrize("ring", TARGETS, ids=lambda r: r.name)
def test_polynomial_arithmetic_commutes_with_reduction(ring):
    model_z, model = WeightRing(G, ZZ), WeightRing(G, ring)
    for f, g, c in draws(random_poly):
        rf, rg = read_poly(f, ring), read_poly(g, ring)
        pairs = [
            (f + g, rf + rg),
            (f - g, rf - rg),
            (-f, -rf),
            (f.scale(c), rf.scale(c)),
            (f * g, rf * rg),
            (c * f, c * rf),
        ]
        pairs += [(f ** n, rf ** n) for n in range(4)]
        pairs += [(model_z.divided_difference(i, f), model.divided_difference(i, rf))
                  for i in (1, 2)]
        for over_z, over_ring in pairs:
            assert read_poly(over_z, ring) == over_ring
            assert_stored_reduced(over_ring.terms, ring)


@pytest.mark.parametrize("ring", TARGETS, ids=lambda r: r.name)
def test_from_terms_sums_repeated_exponents_then_reduces(ring):
    rng = random.Random(SEED)
    model_z, model = WeightRing(G, ZZ), WeightRing(G, ring)
    for _ in range(12):
        exps = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(3)]
        pairs = [(rng.choice(exps), rng.choice((rng.randint(-12, 12), str(rng.randint(-9, 9)))))
                 for _ in range(8)]
        f = model.from_terms(pairs)
        assert read_poly(model_z.from_terms(pairs), ring) == f
        assert_stored_reduced(f.terms, ring)


def test_repeated_exponents_cancelling_mod_p_are_dropped():
    model = WeightRing(G, GF(3))
    assert model.from_terms([((1, 0), 1), ((1, 0), 2), ((0, 1), 4)]).terms == {(0, 1): 1}


def test_half_scalar_is_an_element_of_f3_but_not_of_z():
    v = SchubertVector(ZZ, {ELEMENTS[3]: 1})
    f = GradedPolynomial(ZZ, 2, {(1, 0): 1})
    for x in (v, f):
        with pytest.raises(ValueError):
            x.scale(Fraction(1, 2))
    rv, rf = read_vector(v, GF(3)), read_poly(f, GF(3))
    assert rv.scale(Fraction(1, 2)) == rv.scale(2)
    assert rf.scale(Fraction(1, 2)) == rf.scale(2)
