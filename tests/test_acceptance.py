"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance here is exact (integer equality); the runtime ceilings are part
of the criteria and asserted.  Each criterion but 5 collects the inputs on
which it fails: through the ``selftests`` check that states what it
asserts, where there is one, and through a comprehension otherwise.  A
failed criterion prints its first failing inputs on its line and in the
assertion message.
"""

import random
import time
from itertools import combinations, product

from schubert_kit import ranktwo
from schubert_kit.gcm import coxeter_exponent, rank_two, validate_gcm
from schubert_kit.polyring import WeightRing, monomial_exponents
from schubert_kit.ranktwo import DELTA, TAU
from schubert_kit.rings import GF, QQ
from schubert_kit.schubert import SchubertVector, counit_collapse, nil_a, peterson_coproduct
from schubert_kit.selftests import (
    binomials_match_prefix_quotients,
    braid_relations_on_basis,
    coproduct_grading,
    mod_p_identities,
    nil_a_square_zero,
    prime_order_methods_agree,
    random_poly,
    solver_matches_closed_products,
    symbolic_low_rows,
)
from schubert_kit.weyl import enumerate_by_length, simple_reflection

from conftest import coassociator

AFFINE_A2 = validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
KINDS = (DELTA, TAU)


def _report(num, description, failures, started, limit):
    elapsed = time.monotonic() - started
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    first = f"; first failing inputs {failures[:3]}" if failures else ""
    print(f"ACCEPTANCE {num:2d} {status} ({elapsed:6.2f}s < {limit:.0f}s) {description}{first}")
    assert failures == [], f"criterion {num} failed: {description}{first}"
    assert elapsed < limit, f"criterion {num} exceeded its runtime bound"


def test_criterion_01_symbolic_table():
    started = time.monotonic()
    failures = symbolic_low_rows(trials=20, max_entry=40, seed=1)
    _report(1, "symbolic reproduction of the low table rows", failures, started, 1.0)


def test_criterion_02_binomial_integrality():
    started = time.monotonic()
    pairs = [(a, b) for a in range(2, 11) for b in range(2, 11)]
    failures = binomials_match_prefix_quotients(pairs, 40)
    _report(2, "generalized binomials integral, n+m <= 40, a,b <= 10",
            failures, started, 30.0)


def test_criterion_03_cup_product_oracle():
    started = time.monotonic()
    pairs = ((2, 2), (2, 3), (1, 5), (3, 3))
    failures = solver_matches_closed_products(pairs, 20)
    for a, b in pairs:
        table = ranktwo.leibniz_cup_solver(a, b, 20)
        failures += [(a, b, k1, m, k2, n)
                     for m in range(1, 20) for n in range(1, 21 - m)
                     for k1, k2 in product(KINDS, repeat=2)
                     if table.constants(k1, m, k2, n) != table.constants(k2, n, k1, m)]
        failures += [(a, b, k1, l, k2, m, k3, n)
                     for l in range(1, 19) for m in range(1, 20 - l) for n in range(1, 21 - l - m)
                     for k1, k2, k3 in product(KINDS, repeat=3)
                     if table.cup(table.product((k1, l), (k2, m)), {(k3, n): 1})
                     != table.cup({(k1, l): 1}, table.product((k2, m), (k3, n)))]
    _report(3, "solver equals closed forms; commutative and associative",
            failures, started, 60.0)


def _prime_grid():
    return [
        (a, b, p)
        for a in range(1, 9)
        for b in range(1, 9)
        if a * b >= 4
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
    ]


def test_criterion_04_prime_order_three_ways():
    started = time.monotonic()
    failures = prime_order_methods_agree(range(1, 9), (2, 3, 5, 7, 11, 13, 17, 19, 23), 200)
    for a, b, p in _prime_grid():
        k = ranktwo.prime_order_closed(a, b, p).k
        g = ranktwo.cd_sequences(a, b, 60).g
        failures += [(a, b, p, n) for n in range(1, 61) if (g[n] % p == 0) != (n % k == 0)]
    _report(4, "prime-order theorem by three methods, pattern to n = 60",
            failures, started, 60.0)


def test_criterion_05_bockstein_valuations():
    started = time.monotonic()
    counterexamples = [
        (a, b, p)
        for a, b, p in _prime_grid()
        if not ranktwo.bockstein_valuation_check(a, b, p, 30)
    ]
    elapsed = time.monotonic() - started
    ok = not counterexamples
    status = "PASS" if ok and elapsed < 30.0 else "FAIL"
    print(f"ACCEPTANCE  5 {status} ({elapsed:6.2f}s < 30s) "
          "valuation identity for g along multiples of k, s <= 30")
    if counterexamples:
        print(
            "             known genuine failures at p = 2 (ab odd, "
            f"v_2(ab-1) = 1, k = 3): {counterexamples}"
        )
    assert elapsed < 30.0
    assert ok, (
        "the valuation identity is arithmetically false on part of this "
        f"grid; counterexamples {counterexamples} (e.g. (1,7): g_3 = 6, "
        "g_6 = 24, so v_2(g_6) = 3 != v_2(2) + v_2(g_3) = 2). All odd-prime "
        "cases pass; see notes in bockstein_valuation_check and the "
        "exceptional-case unit tests."
    )


def test_criterion_06_nil_hecke_relations():
    started = time.monotonic()
    rng = random.Random(6)
    sample = [rank_two(1, 1), rank_two(2, 1), rank_two(2, 2), AFFINE_A2]
    failures = nil_a_square_zero(sample, 8) + braid_relations_on_basis(sample, 8)
    for g in sample:
        model = WeightRing(g, QQ)
        dd, op = model.divided_difference, model.operator_word
        braids = [(i, j, m) for i, j in combinations(g.index_set, 2)
                  if (m := coxeter_exponent(g, i, j)) is not None]
        for _ in range(5):
            f = random_poly(model, rng, range(6), density=0.4)
            failures += [(g, f, i) for i in g.index_set if not dd(i, dd(i, f)).is_zero()]
            failures += [(g, f, i, j) for i, j, m in braids
                         if op(tuple((i, j)[t % 2] for t in range(m)), f)
                         != op(tuple((j, i)[t % 2] for t in range(m)), f)]
    _report(6, "square-zero and braid relations, basis and polynomial sides",
            failures, started, 120.0)


def test_criterion_07_characteristic_homomorphism():
    started = time.monotonic()
    rng = random.Random(7)
    sample = [rank_two(1, 1), rank_two(2, 2), rank_two(2, 3)]
    failures = []
    for g in sample:
        model = WeightRing(g, QQ)
        psi = model.characteristic_map
        failures += [(g, "coroot dual", i) for i in g.index_set
                     if psi(model.coroot_dual(i))
                     != SchubertVector.basis(QQ, simple_reflection(g, i))]
        failures += [(g, "root", i) for i in g.index_set
                     if psi(model.root(i)) != SchubertVector(
                         QQ, {simple_reflection(g, j): g.a(j, i) for j in g.index_set})]
    # operator commutation on 100 random homogeneous polynomials
    models = [WeightRing(g, ring) for g in sample for ring in (QQ, GF(2))]
    for check in range(100):
        model = models[check % len(models)]
        psi = model.characteristic_map
        f = random_poly(model, rng, (1 + check % 4,), density=0.7)
        failures += [(model.gcm, model.ring.name, f, i) for i in model.gcm.index_set
                     if psi(model.divided_difference(i, f)) != nil_a(i, psi(f))]
    # rank-two multiplicativity on all monomial pairs, product degree <= 12
    g = rank_two(2, 3)
    table = ranktwo.leibniz_cup_solver(2, 3, 12)
    monomials = [e for d in range(13) for e in monomial_exponents(2, d)]
    for ring in (QQ, GF(2), GF(3)):
        model = WeightRing(g, ring)
        images = {e: model.characteristic_map(model.monomial(e)) for e in monomials}
        failures += [(ring.name, e1, e2) for e1, e2 in product(monomials, repeat=2)
                     if sum(e1) + sum(e2) <= 12
                     and images[(e1[0] + e2[0], e1[1] + e2[1])]
                     != ranktwo.cup_schubert(table, g, images[e1], images[e2])]
    _report(7, "characteristic map: values, commutation, multiplicativity",
            failures, started, 120.0)


def test_criterion_08_coproduct():
    started = time.monotonic()
    sample = (rank_two(2, 3), rank_two(1, 1))
    failures = coproduct_grading(sample, 7)
    for g in sample:
        for w in (w for level in enumerate_by_length(g, 7) for w in level):
            cop = peterson_coproduct(w)
            unit = SchubertVector.basis(cop.ring, w)
            failures += [(g, w.word, side) for side in ("left", "right")
                         if counit_collapse(cop, side) != unit]
            if coassociator(cop, 0) != coassociator(cop, 1):
                failures.append((g, w.word, "coassociative"))
    g = rank_two(2, 3)
    for n, kind in product(range(8), KINDS):
        w = ranktwo.basis_element(g, kind, n)
        cop = peterson_coproduct(w)
        if w.length != n or len(cop.coeffs) != n + 1 or any(c != 1 for c in cop.coeffs.values()):
            failures.append((g, kind, n))
    _report(8, "coproduct coassociative with counit; rank-two term count",
            failures, started, 60.0)


def test_criterion_09_mod_p_homology():
    started = time.monotonic()
    cases = ((2, 2, 2), (2, 2, 3), (2, 3, 3), (1, 5, 2))
    failures = mod_p_identities(hk_modp=[(a, b, p, 40) for a, b, p in cases],
                                dual_polynomial=[(a, b, p, 10) for a, b, p in cases])
    for a, b, p in cases:
        k = ranktwo.prime_order_closed(a, b, p).k
        series = ranktwo.hopf_afp_series(a, b, p, 30)
        failures += [(a, b, p, 2 * n) for n in range(31)
                     if series.coefficient(2 * n) != int(n % k == 0)]
    _report(9, "mod-p homology series, Hopf series, polynomial dual",
            failures, started, 60.0)


def test_criterion_10_generalized_invariants():
    started = time.monotonic()
    failures = []
    for a, b in ((2, 2), (2, 3), (1, 5), (1, 1)):
        g = rank_two(a, b)
        for ring in (QQ, GF(2), GF(3)):
            model = WeightRing(g, ring)
            rows = model.s_poincare(16).per_degree
            failures += [(a, b, ring.name, deg) for deg, dim_j, dim_s in rows
                         if dim_j + dim_s != len(monomial_exponents(model.nvars, deg // 2))]
            failures += [(a, b, ring.name, deg) for deg in (2, 8)
                         if model.generalized_invariants(deg)[0] != rows[deg // 2][1]]
            if ring is QQ and a * b >= 4 and [row[2] for row in rows] != [1] + [2] * 8:
                failures.append((a, b, ring.name, "image series"))
    _report(10, "kernel/image dimension split; rational image series",
            failures, started, 180.0)
