"""Reduced-bound invariant suites, one per module, for the CLI selftest flag.

Each function returns a list of (check name, passed) pairs.  These are
smaller mirrors of the pytest suite meant to run in seconds; the full
bounds live in the test tree.
"""

from __future__ import annotations

import random

from . import ranktwo
from .ffield import Fp2Element, multiplicative_order, quadratic_field, quadratic_roots
from .gcm import (
    coxeter_exponent,
    derived_realization,
    is_finite_type,
    rank_two,
    spherical_poset,
    standard_realization,
    validate_gcm,
)
from .intmat import identity, mat_mul
from .polyring import WeightRing
from .rings import GF, QQ, ZZ
from .schubert import SchubertVector, nil_a, nil_aw, peterson_coproduct
from .weyl import (
    bruhat_leq,
    enumerate_by_length,
    identity_element,
    multiply,
    reflection_matrix,
    simple_reflection,
)

SAMPLE_GCMS = {
    "A(1,1)": rank_two(1, 1),
    "B2-type": rank_two(2, 1),
    "A(2,2)": rank_two(2, 2),
    "affine-A2": validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]),
}


def gcm_selftest():
    checks = []
    ok = True
    for g in SAMPLE_GCMS.values():
        poset = spherical_poset(g)
        members = set(poset.subsets)
        for sub in members:
            ok &= all(
                tuple(sorted(set(sub) - {x})) in members for x in sub
            )
    checks.append(("spherical poset downward closed", ok))
    ok = True
    pairs = [(0, 0)] + [(a, b) for a in range(1, 4) for b in range(1, 4)]
    for a, b in pairs:
        g = rank_two(a, b)
        finite = is_finite_type(g, (1, 2))
        ok &= finite == (a * b < 4)
        ok &= (coxeter_exponent(g, 1, 2) is not None) == finite
        order = _dihedral_order(g, bound=60)
        ok &= (order is not None) == finite
    checks.append(("rank-two calibration (minors, exponent, closure)", ok))
    ok = True
    for g in SAMPLE_GCMS.values():
        for real in (standard_realization(g), derived_realization(g)):
            for i in range(g.size):
                for j in range(g.size):
                    pair = sum(
                        x * y
                        for x, y in zip(real.root_functionals[j], real.coroots[i])
                    )
                    ok &= pair == g.a(i + 1, j + 1)
                    dual = sum(
                        x * y for x, y in zip(real.dual_basis[i], real.coroots[j])
                    )
                    ok &= dual == (1 if i == j else 0)
    checks.append(("realization pairings", ok))
    return checks


def _dihedral_order(g, bound):
    m = mat_mul(reflection_matrix(g, 1), reflection_matrix(g, 2))
    cur = m
    for k in range(1, bound + 1):
        if cur == identity(g.size):
            return k
        cur = mat_mul(cur, m)
    return None


def weyl_selftest(max_len: int = 5):
    checks = []
    ok = True
    for g in SAMPLE_GCMS.values():
        for i in range(1, g.size + 1):
            s = simple_reflection(g, i)
            ok &= multiply(s, s) == identity_element(g)
    checks.append(("involutions", ok))
    ok = True
    for g in SAMPLE_GCMS.values():
        for level in enumerate_by_length(g, max_len):
            for w in level:
                for i in range(1, g.size + 1):
                    ok &= multiply(w, simple_reflection(g, i)).length in (
                        w.length - 1,
                        w.length + 1,
                    )
    checks.append(("length changes by one", ok))
    ok = True
    for g in (SAMPLE_GCMS["A(1,1)"], SAMPLE_GCMS["A(2,2)"]):
        elems = [w for level in enumerate_by_length(g, 4) for w in level]
        for v in elems:
            for w in elems:
                ok &= bruhat_leq(v, w) == _bruhat_subword_oracle(v, w)
    checks.append(("bruhat order matches subword oracle", ok))
    return checks


def _bruhat_subword_oracle(v, w):
    reachable = {identity_element(w.gcm)}
    for i in w.word:
        s = simple_reflection(w.gcm, i)
        extra = set()
        for u in reachable:
            u2 = multiply(u, s)
            if u2.length > u.length:
                extra.add(u2)
        reachable |= extra
    return v in reachable


def schubert_selftest(max_len: int = 4):
    checks = []
    ok = True
    for g in SAMPLE_GCMS.values():
        basis = [w for level in enumerate_by_length(g, max_len) for w in level]
        for w in basis:
            vec = SchubertVector.basis(ZZ, w)
            for i in range(1, g.size + 1):
                ok &= nil_a(i, nil_a(i, vec)).is_zero()
    checks.append(("square-zero operators", ok))
    ok = True
    for name, g in SAMPLE_GCMS.items():
        for i in range(1, g.size + 1):
            for j in range(i + 1, g.size + 1):
                m = coxeter_exponent(g, i, j)
                if m is None:
                    continue
                w1 = _alternating(i, j, m)
                w2 = _alternating(j, i, m)
                for level in enumerate_by_length(g, max_len):
                    for w in level:
                        vec = SchubertVector.basis(ZZ, w)
                        ok &= nil_aw(w1, vec) == nil_aw(w2, vec)
    checks.append(("braid independence on the basis", ok))
    ok = True
    for g in (SAMPLE_GCMS["A(1,1)"], rank_two(2, 3)):
        for level in enumerate_by_length(g, 3):
            for w in level:
                cop = peterson_coproduct(w)
                ok &= all(
                    u.length + v.length == w.length for (u, v) in cop.coeffs
                )
    checks.append(("coproduct grading", ok))
    return checks


def _alternating(i, j, count):
    return tuple(i if t % 2 == 0 else j for t in range(count))


def polyring_selftest():
    rng = random.Random(11)
    checks = []
    ok = True
    for g in (rank_two(2, 3), SAMPLE_GCMS["A(2,2)"]):
        model = WeightRing(g, QQ)
        for _ in range(6):
            f = _random_poly(model, rng, 3)
            h = _random_poly(model, rng, 2)
            for i in range(1, g.size + 1):
                ok &= model.weyl_act(i, model.weyl_act(i, f)) == f
                lhs = model.divided_difference(i, f * h)
                rhs = model.divided_difference(i, f) * model.weyl_act(i, h) + (
                    f * model.divided_difference(i, h)
                )
                ok &= lhs == rhs
                ok &= model.divided_difference(
                    i, model.divided_difference(i, f)
                ).is_zero()
    checks.append(("involution, twisted Leibniz, square zero", ok))
    ok = True
    for g in (rank_two(2, 3), SAMPLE_GCMS["A(1,1)"]):
        model = WeightRing(g, QQ)
        for i in range(1, g.size + 1):
            ok &= model.characteristic_map(model.coroot_dual(i)) == (
                SchubertVector.basis(QQ, simple_reflection(g, i))
            )
        for _ in range(4):
            f = _random_homogeneous(model, rng, 3)
            for i in range(1, g.size + 1):
                ok &= model.characteristic_map(
                    model.divided_difference(i, f)
                ) == nil_a(i, model.characteristic_map(f))
    checks.append(("characteristic map and operator commutation", ok))
    ok = True
    for p in (2, 3):
        model = WeightRing(rank_two(2, 3), GF(p))
        for _ in range(4):
            f = _random_poly(model, rng, 3)
            for i in (1, 2):
                ok &= model.steenrod_commutation_check(i, f)
    checks.append(("total Steenrod commutation", ok))
    return checks


def _random_poly(model, rng, deg):
    pairs = []
    from .polyring import monomial_exponents

    for d in range(deg + 1):
        for exps in monomial_exponents(model.nvars, d):
            if rng.random() < 0.4:
                pairs.append((exps, rng.randint(-3, 3)))
    return model.from_terms(pairs)


def _random_homogeneous(model, rng, deg):
    from .polyring import monomial_exponents

    pairs = [
        (exps, rng.randint(-3, 3))
        for exps in monomial_exponents(model.nvars, deg)
        if rng.random() < 0.7
    ]
    if not pairs:
        pairs = [(monomial_exponents(model.nvars, deg)[0], 1)]
    return model.from_terms(pairs)


def ffield_selftest():
    rng = random.Random(7)
    checks = []
    ok = True
    for p in (2, 3, 7):
        field = quadratic_field(p)
        elems = [
            Fp2Element(field, rng.randrange(p), rng.randrange(p)) for _ in range(8)
        ]
        for x in elems:
            for y in elems:
                for z in elems:
                    ok &= (x * y) * z == x * (y * z)
                    ok &= x * (y + z) == x * y + x * z
        for x in elems:
            for y in elems:
                ok &= (x + y) ** p == x ** p + y ** p
            ok &= (x ** p == x) == x.in_prime_field()
    checks.append(("field axioms and Frobenius", ok))
    ok = True
    for p in (3, 5, 13):
        for _ in range(10):
            b, c = rng.randrange(p), rng.randrange(p)
            r1, r2 = quadratic_roots(b, c, p)
            ok &= (r1 * r2).x == c % p and (r1 * r2).y == 0
        r1, r2 = quadratic_roots((-(2 * 3 - 2)) % p, 1, p)
        if not r1.is_zero():
            ok &= multiplicative_order(r1) == multiplicative_order(r2)
    checks.append(("quadratic roots and paired orders", ok))
    return checks


def ranktwo_selftest():
    checks = []
    ok = True
    rng = random.Random(3)
    for _ in range(8):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        if a * b < 4:
            continue
        t = ranktwo.cd_sequences(a, b, 4)
        ok &= t.c[2] == a and t.d[2] == b
        ok &= t.c[3] == t.d[3] == a * b - 1
        ok &= t.c[4] == a * (a * b - 2) and t.d[4] == b * (a * b - 2)
    checks.append(("symbolic low rows", ok))
    ok = True
    for a, b in ((2, 2), (2, 3), (1, 5)):
        t = ranktwo.cd_sequences(a, b, 16)
        table = ranktwo.leibniz_cup_solver(a, b, 8)
        for n in range(1, 8):
            for kind in (ranktwo.DELTA, ranktwo.TAU):
                for gen in (ranktwo.DELTA, ranktwo.TAU):
                    ok &= table.constants(gen, 1, kind, n) == (
                        ranktwo.closed_generator_product(t, gen, kind, n)
                    )
    checks.append(("solver matches closed products", ok))
    grid = [
        (a, b, p)
        for a in range(1, 6)
        for b in range(1, 6)
        if a * b >= 4
        for p in (2, 3, 5, 7)
    ]

    def agree(item):
        a, b, p = item
        closed = ranktwo.prime_order_closed(a, b, p).k
        scan = ranktwo.prime_order_scan(a, b, p, 60)
        good = scan.k == closed and scan.pattern_consistent
        if p != 2:
            good &= ranktwo.matrix_order_method(a, b, p) == closed
        return good

    checks.append(("prime order methods agree", all([agree(item) for item in grid])))
    ok = True
    for a, b, p in ((2, 2, 2), (2, 3, 3), (1, 5, 2)):
        ok &= ranktwo.bockstein_valuation_check(a, b, p, 10)
        ok &= ranktwo.hk_modp_crosscheck(a, b, p, 30)
        ok &= ranktwo.dual_polynomial_check(a, b, p, 5)
    checks.append(("valuations, homology series, dual generator", ok))
    return checks


SUITES = {
    "gcm": gcm_selftest,
    "weyl": weyl_selftest,
    "schubert": schubert_selftest,
    "poly": polyring_selftest,
    "ffield": ffield_selftest,
    "rank2": ranktwo_selftest,
}
