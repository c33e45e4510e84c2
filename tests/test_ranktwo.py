from math import comb, gcd

import pytest

from schubert_kit import ffield, ranktwo
from schubert_kit.errors import NotHyperbolicOrAffine, OddPrimeRequired, TheoremViolation
from schubert_kit.ranktwo import DELTA, TAU, UNIT
from schubert_kit.rings import ZZ
from schubert_kit.schubert import SchubertVector, peterson_coproduct
from schubert_kit.selftests import (
    binomials_match_prefix_quotients,
    cd_by_recursion,
    cd_matches_lehmer,
    cup_powers_divided,
    mod_p_identities,
    solver_matches_closed_products,
    symbolic_low_rows,
)

from conftest import SEED

PAIRS = [(2, 2), (2, 3), (1, 5), (3, 3), (1, 4), (4, 1)]


def test_sequences_symbolic_rows():
    assert symbolic_low_rows(trials=20, max_entry=30, seed=SEED) == []


def test_sequences_special_values():
    t = ranktwo.cd_sequences(2, 2, 12)
    assert t.c == t.d == t.g == tuple(range(13))
    t = ranktwo.cd_sequences(2, 3, 6)
    assert t.g[4] == 4 and t.g[6] == 15
    assert t.c[6] == 30 and t.d[6] == 45


def test_sequences_positive(rng):
    for a, b in PAIRS:
        t = ranktwo.cd_sequences(a, b, 30)
        assert all(x > 0 for x in t.c[1:])
        assert all(x > 0 for x in t.d[1:])


def test_sequences_match_lehmer_form():
    pairs = [(a, b) for a in range(1, 13) for b in range(1, 13) if a * b >= 4]
    assert cd_matches_lehmer(pairs, 60) == []


def test_sequences_reject_compact():
    with pytest.raises(NotHyperbolicOrAffine):
        ranktwo.cd_sequences(1, 3, 5)


def test_binomial_base_cases():
    t = ranktwo.cd_sequences(2, 3, 10)
    for n in range(5):
        assert ranktwo.generalized_binomial_C(t, n, 0) == 1
        assert ranktwo.generalized_binomial_D(t, 0, n) == 1
    assert ranktwo.generalized_binomial_D(t, 2, 2) == 20


def test_binomial_reduces_to_binomial_for_22():
    t = ranktwo.cd_sequences(2, 2, 16)
    for n in range(7):
        for m in range(7):
            expected = comb(n + m, n)
            assert ranktwo.generalized_binomial_C(t, n, m) == expected
            assert ranktwo.generalized_binomial_D(t, n, m) == expected


@pytest.mark.parametrize("a", range(1, 13))
def test_binomials_equal_quotient_of_prefix_products(a):
    # the definition: C(n, m) = (c_{n+m} ... c_1) / ((c_n ... c_1)(c_m ... c_1)),
    # each division exact, and D(n, m) the same from d; criterion 02 checks
    # it on 2 <= a, b <= 10, so here only the pairs with a or b in {1, 11, 12}
    n_max = 40
    pairs = [(a, b) for b in range(1, 13) if a * b >= 4]
    outside = [(a, b) for a, b in pairs if {a, b} & {1, 11, 12}]
    assert binomials_match_prefix_quotients(outside, n_max) == []
    for _, b in pairs:
        t = ranktwo.cd_sequences(a, b, n_max)
        for binomial in (ranktwo.generalized_binomial_C, ranktwo.generalized_binomial_D):
            for n, m in ((0, n_max + 1), (n_max, 1), (-1, 0), (0, -1)):
                with pytest.raises(ValueError):
                    binomial(t, n, m)


def test_binomials_do_not_depend_on_the_order_of_reads():
    up, down = ranktwo.cd_sequences(3, 5, 30), ranktwo.cd_sequences(3, 5, 30)
    cells = [(n, m) for n in range(31) for m in range(31 - n)]
    for binomial in (ranktwo.generalized_binomial_C, ranktwo.generalized_binomial_D):
        want = [binomial(up, n, m) for n, m in cells]
        assert [binomial(down, n, m) for n, m in reversed(cells)] == want[::-1]


class _Index:
    """An integer-like index: an ``__index__`` value, not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_binomials_read_index_values_as_integers():
    t = ranktwo.cd_sequences(2, 3, 12)
    for n, m in ((3, 3), (3, 4), (1, 5), (0, 0)):
        for binomial in (ranktwo.generalized_binomial_C, ranktwo.generalized_binomial_D):
            assert binomial(t, _Index(n), _Index(m)) == binomial(t, n, m)


def test_a_binomial_read_grows_the_rows_only_to_its_level():
    # one low read on a long table must not build the whole triangle:
    # about N^2 / 2 entries of up to order N^2 bits each
    t = ranktwo.cd_sequences(2, 3, 5000)
    assert ranktwo.generalized_binomial_D(t, 2, 2) == 20
    assert len(t._c_binomials) == 5


def test_grown_levels_share_each_mirrored_cell():
    # C(n, m) = C(m, n), so every cell past the middle of a level is the int
    # computed for its mirror, not a second product; D reads the same levels
    for a, b in PAIRS:
        for binomial in (ranktwo.generalized_binomial_C, ranktwo.generalized_binomial_D):
            t = ranktwo.cd_sequences(a, b, 30)
            levels = t._c_binomials
            for level in (1, 2, 7, 30):
                binomial(t, level, 0)
                assert len(levels) == level + 1
                for L, cells in enumerate(levels):
                    assert len(cells) == L + 1, (a, b, L)
                    for k in range(L + 1):
                        assert cells[k] is cells[L - k], (a, b, L, k)


def test_basis_words():
    assert ranktwo.basis_word(DELTA, 3) == (1, 2, 1)
    assert ranktwo.basis_word(TAU, 4) == (1, 2, 1, 2)
    assert ranktwo.basis_word(TAU, 1) == (2,)
    assert ranktwo.basis_word(DELTA, 0) == ()


def test_classify_roundtrip(gcm_a23):
    for kind in (DELTA, TAU):
        for n in range(1, 7):
            w = ranktwo.basis_element(gcm_a23, kind, n)
            assert w.length == n
            assert ranktwo.classify_element(w) == (kind, n)


def test_solver_unit_and_closed_forms():
    grid = [(a, b) for a in range(1, 8) for b in range(1, 8) if a * b >= 4]
    assert solver_matches_closed_products(grid, 24) == []


def _associativity_table(a, b, n_max):
    """x_m y_n from the four generator products and associativity alone.

    delta_m = delta delta_{m-1} / d_m and tau_m = tau tau_{m-1} / c_m, so
    x_m y_n is the generator times x_{m-1} y_n, divided exactly.
    """
    c, d = cd_by_recursion(a, b, n_max + 1)

    def gen_times(gen, pq, k):
        # gen cup (P delta_k + Q tau_k) in degree k + 1
        p, q = pq
        if gen == DELTA:
            return (p * d[k + 1] + q, q * d[k])
        return (p * c[k], p + q * c[k + 1])

    table = {}
    for s in range(2, n_max + 1):
        for m in range(1, s):
            n = s - m
            for k1 in (DELTA, TAU):
                for k2 in (DELTA, TAU):
                    if m == 1:
                        pq = (1, 0) if k2 == DELTA else (0, 1)
                    else:
                        pq = table[(k1, m - 1, k2, n)]
                    p, q = gen_times(k1, pq, s - 1)
                    div = d[m] if k1 == DELTA else c[m]
                    assert p % div == 0 and q % div == 0
                    table[(k1, m, k2, n)] = (p // div, q // div)
    return table


@pytest.mark.parametrize("a, b, n_max", [
    (2, 3, 60), (2, 3, 40), (3, 2, 40), (1, 5, 30), (5, 1, 30), (3, 3, 30),
    (2, 2, 30), (1, 4, 25), (4, 1, 25), (7, 9, 20),
    # every constant of these sits on or next to the unit border
    (2, 3, 2), (2, 3, 3), (1, 4, 3),
])
def test_solver_matches_associativity_oracle(a, b, n_max):
    table = ranktwo.leibniz_cup_solver(a, b, n_max)
    want = _associativity_table(a, b, n_max)
    assert len(want) == 2 * n_max * (n_max - 1)
    for (k1, m, k2, n), pq in want.items():
        assert table.constants(k1, m, k2, n) == pq, (k1, m, k2, n)


@pytest.mark.parametrize("n_max", [0, 1, 2, 12])
def test_product_table_contracts(n_max):
    table = ranktwo.leibniz_cup_solver(2, 3, n_max)
    for m, n in ((0, 1), (1, 0), (0, 0), (1, n_max), (n_max, 1)):
        for k1 in (DELTA, TAU, "x"):
            with pytest.raises(ValueError):
                table.constants(k1, m, TAU, n)
    if n_max >= 2:
        with pytest.raises(KeyError):
            table.constants("x", 1, DELTA, 1)
        with pytest.raises(KeyError):
            table.constants(TAU, 1, "x", n_max - 1)
        assert table.product((DELTA, 1), (TAU, 1)) == {(DELTA, 2): 1, (TAU, 2): 1}
    assert table.product(UNIT, (DELTA, 4)) == {(DELTA, 4): 1}
    assert table.product((TAU, 7), UNIT) == {(TAU, 7): 1}
    assert table.product(UNIT, UNIT) == {UNIT: 1}


def test_quadratic_relation_degree_four():
    for a, b in ((2, 2), (2, 3), (1, 5)):
        table = ranktwo.leibniz_cup_solver(a, b, 4)
        acc = {}
        for vec, coef in (
            (table.product((DELTA, 1), (DELTA, 1)), a),
            (table.product((TAU, 1), (TAU, 1)), b),
            (table.product((DELTA, 1), (TAU, 1)), -a * b),
        ):
            for key, c in vec.items():
                acc[key] = acc.get(key, 0) + coef * c
        assert all(v == 0 for v in acc.values())


def test_degreewise_span_is_full_over_q():
    # products of degree-2 classes with one lower degree span every degree:
    # the ring is generated in degree 2 with dimensions 1, 2, 2, 2, ...
    for a, b in ((2, 3), (2, 2), (1, 5)):
        table = ranktwo.leibniz_cup_solver(a, b, 12)
        for s in range(2, 12):
            vectors = [
                table.constants(gen, 1, kind, s - 1)
                for gen in (DELTA, TAU)
                for kind in (DELTA, TAU)
            ]
            assert any(
                v[0] * w[1] - v[1] * w[0] != 0
                for v in vectors
                for w in vectors
            )


def test_cup_schubert_wrapper(gcm_a23):
    table = ranktwo.leibniz_cup_solver(2, 3, 6)
    t = ranktwo.cd_sequences(2, 3, 8)
    delta = SchubertVector.basis(ZZ, ranktwo.basis_element(gcm_a23, DELTA, 1))
    delta_2 = SchubertVector.basis(ZZ, ranktwo.basis_element(gcm_a23, DELTA, 2))
    prod = ranktwo.cup_schubert(table, gcm_a23, delta, delta_2)
    expected = SchubertVector.basis(
        ZZ, ranktwo.basis_element(gcm_a23, DELTA, 3)
    ).scale(t.d[3])
    assert prod == expected
    assert ranktwo.schubert_to_pairs(prod) == {(DELTA, 3): t.d[3]}


def test_hk_integral_tables():
    rows = dict(ranktwo.hk_integral(2, 2, 6))
    assert rows[0] == 0 and rows[3] == 0  # infinite cyclic
    assert rows[1] == 1 and rows[2] == 1
    for n in range(1, 7):
        assert rows[2 * n] == n
        assert rows[2 * n + 3] == n
    rows = dict(ranktwo.hk_integral(2, 3, 5))
    assert rows[8] == 4  # g_4 = 4
    assert rows[2] == 1  # g_1 = 1 in every case


def test_prime_order_closed_cases():
    r = ranktwo.prime_order_closed(2, 3, 3)
    assert (r.k, r.case_tag) == (6, "DividesOneOf")
    r = ranktwo.prime_order_closed(2, 2, 5)
    assert (r.k, r.case_tag) == (5, "ABCongruent4")
    r = ranktwo.prime_order_closed(1, 5, 2)
    assert (r.k, r.case_tag) == (3, "RootOrder")
    assert r.detail is not None and r.detail.order == 3
    # p dividing both entries lands in the double-root case with k = 2
    r = ranktwo.prime_order_closed(3, 3, 3)
    assert (r.k, r.case_tag) == (2, "RootOrder")


@pytest.mark.parametrize("a,b,p,case_tag", [(1, 5, 2, "RootOrder"), (3, 3, 3, "RootOrder"),
                                             (2, 3, 3, "DividesOneOf"), (2, 2, 5, "ABCongruent4")])
def test_prime_order_closed_takes_at_most_one_order(a, b, p, case_tag, monkeypatch):
    # the two roots are inverses, so the order of the second one is not taken
    calls = []

    def counted(e, _f=ranktwo.multiplicative_order):
        calls.append(e)
        return _f(e)

    monkeypatch.setattr(ranktwo, "multiplicative_order", counted)
    r = ranktwo.prime_order_closed(a, b, p)
    assert r.case_tag == case_tag
    assert len(calls) == (case_tag == "RootOrder")


def test_prime_order_scan():
    s = ranktwo.prime_order_scan(2, 2, 3, 30)
    assert s.k == 3 and s.pattern_consistent
    s = ranktwo.prime_order_scan(2, 3, 3, 30)
    assert s.k == 6 and s.pattern_consistent
    s = ranktwo.prime_order_scan(2, 3, 3, 5)
    assert s.k is None and not s.found
    # only the stop at the period can finish this bound
    assert ranktwo.prime_order_scan(2, 3, 3, 10**12) == ranktwo.ScanResult(6, True, 10**12)


def _gcd_scan(a, b, p, n_max):
    """(k, pattern) from the big-integer g_n = gcd(c_n, d_n) of the recursion."""
    c, d = cd_by_recursion(a, b, n_max)
    hits = [gcd(c[n], d[n]) % p == 0 for n in range(1, n_max + 1)]
    k = next((n for n, hit in enumerate(hits, 1) if hit), None)
    return k, k is None or all(hit == (n % k == 0) for n, hit in enumerate(hits, 1))


def _period(c, d, p):
    """Least n >= 1 with (c_{n-1}, c_n, d_{n-1}, d_n) = (-1, 0, -1, 0) mod p."""
    return next(n for n in range(1, len(c))
                if c[n] % p == d[n] % p == 0 and (c[n - 1] + 1) % p == (d[n - 1] + 1) % p == 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
def test_prime_order_scan_matches_gcd_scan(p):
    for a in range(1, 7):
        for b in range(1, 7):
            if a * b < 4:
                continue
            period = _period(*cd_by_recursion(a, b, 200), p)
            for n_max in (0, 1, 5, period - 1, period, 200):
                s = ranktwo.prime_order_scan(a, b, p, n_max)
                k, consistent = _gcd_scan(a, b, p, n_max)
                assert (s.k, s.pattern_consistent, s.scanned_to) == (k, consistent, n_max)
                assert s.found == (k is not None)


def test_no_module_level_memo_but_the_field_interner():
    # a process-wide memo outlives the calls that fill it; quadratic_field
    # interns one descriptor per prime, which Fp2Element compares by identity
    caches = {
        f"{module.__name__}.{name}"
        for module in (ranktwo, ffield)
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
    }
    assert caches == {"schubert_kit.ffield.quadratic_field"}


def test_matrix_method():
    assert ranktwo.matrix_order_method(2, 2, 7) == 7  # ab = 4 branch
    assert ranktwo.matrix_order_method(2, 3, 3) == 6
    assert ranktwo.matrix_order_method(3, 3, 5) == 5
    with pytest.raises(OddPrimeRequired):
        ranktwo.matrix_order_method(2, 2, 2)


def test_matrix_method_multiplies_no_elements(monkeypatch):
    grid = [(1, 5, 3), (2, 3, 7), (3, 3, 5), (2, 2, 7), (4, 7, 23), (8, 8, 19)]
    expected = [ranktwo.prime_order_closed(a, b, p).k for a, b, p in grid]

    def refuse(*args):
        raise AssertionError("the matrix method multiplied two elements")

    monkeypatch.setattr(ffield.Fp2Element, "__mul__", refuse)
    assert [ranktwo.matrix_order_method(a, b, p) for a, b, p in grid] == expected


def test_valuation():
    assert ranktwo.p_adic_valuation(45, 3) == 2
    assert ranktwo.p_adic_valuation(-8, 2) == 3
    assert ranktwo.p_adic_valuation(7, 3) == 0
    with pytest.raises(ValueError):
        ranktwo.p_adic_valuation(0, 3)


def _own_valuation(n, p):
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


# criterion 5's p = 2 counterexamples: ab odd with v_2(ab - 1) = 1
P2_EXCEPTIONS = [(1, 7), (3, 5), (5, 3), (5, 7), (7, 1), (7, 5)]
# with p^2 | a or p^2 | b, so that v_p(gcd(a, b)) - v_p(a), the shift from
# v_p(c_n) to v_p(g_n) at even n, runs through -3 .. 0
P_SQUARED = [(9, 1, 3), (9, 3, 3), (1, 9, 3), (9, 9, 3), (8, 2, 2), (8, 1, 2), (2, 8, 2)]
VALUATION_GRID = [(a, b, p) for a in range(1, 7) for b in range(1, 7) if a * b >= 4
                  for p in (2, 3, 5, 7)] + [(a, b, 2) for a, b in P2_EXCEPTIONS] + P_SQUARED


@pytest.mark.parametrize("s_max", [1, 2, 3, 12])
def test_valuation_rows_match_the_full_recursion(s_max):
    # the rows read c_{sk}, d_{sk} from the recursion run through every index
    parities, shifts = set(), set()
    for a, b, p in VALUATION_GRID:
        k = ranktwo.prime_order_closed(a, b, p).k
        parities.add(k % 2)
        if any(s * k % 2 == 0 for s in range(1, s_max + 1)):
            shifts.add(_own_valuation(gcd(a, b), p) - _own_valuation(a, p))
        c, d = cd_by_recursion(a, b, s_max * k)
        base = _own_valuation(gcd(c[k], d[k]), p)
        want = [(s, _own_valuation(gcd(c[s * k], d[s * k]), p), _own_valuation(s, p) + base)
                for s in range(1, s_max + 1)]
        assert ranktwo._valuation_rows(a, b, p, s_max) == want, (a, b, p)
    assert parities == {0, 1}
    assert shifts == {-3, -2, -1, 0}


def test_valuation_check_builds_the_sequences_to_2k_only(monkeypatch):
    asked = []
    cd_lists = ranktwo._cd_lists

    def recorded(a, b, n_max):
        asked.append(n_max)
        return cd_lists(a, b, n_max)

    monkeypatch.setattr(ranktwo, "_cd_lists", recorded)
    for a, b, p in [(2, 3, 3), (1, 7, 2), (3, 3, 5), (4, 5, 7), (2, 2, 2), (6, 1, 11)]:
        asked.clear()
        k = ranktwo.prime_order_closed(a, b, p).k
        ranktwo.bockstein_valuation_check(a, b, p, 30)
        assert asked and max(asked) <= 2 * k, (a, b, p, k, asked)


def test_bockstein_identity():
    # s = 1 reduces to a tautology but must still pass through the machinery
    cases = [(2, 2, 3, 30), (2, 3, 3, 30), (1, 5, 2, 20), (3, 3, 5, 1)]
    assert mod_p_identities(bockstein=cases) == []


def test_bockstein_identity_odd_primes_on_grid():
    cases = [(a, b, p, 12) for a in range(1, 9) for b in range(1, 9) if a * b >= 4
             for p in (3, 5, 7, 11, 13, 17, 19, 23)]
    assert mod_p_identities(bockstein=cases) == []


def test_bockstein_p2_exceptional_cases():
    # hand-checked boundary: for (1, 7) the recursion gives g_3 = 6 and
    # g_6 = gcd(24, 168) = 24, so v_2 jumps by 2 at s = 2 instead of 1.
    c, d = ranktwo._cd_lists(1, 7, 6)
    assert (c[3], d[3]) == (6, 6)
    assert (c[6], d[6]) == (24, 168)
    for a, b in ((1, 7), (3, 5), (5, 7)):
        assert not ranktwo.bockstein_valuation_check(a, b, 2, 2)
        # ... exactly when ab is odd with v_2(ab - 1) = 1
        assert a * b % 4 == 3
    for a, b in ((1, 5), (3, 3), (7, 7), (1, 9)):
        assert ranktwo.bockstein_valuation_check(a, b, 2, 30)


def test_hopf_series():
    s = ranktwo.hopf_afp_series(2, 2, 2, 8)
    assert [s.coefficient(2 * n) for n in range(9)] == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    s = ranktwo.hopf_afp_series(1, 5, 2, 9)
    assert [s.coefficient(2 * n) for n in range(10)] == [
        1, 0, 0, 1, 0, 0, 1, 0, 0, 1,
    ]
    assert ranktwo.hopf_afp_series(2, 3, 3, 6).coefficient(12) == 1


# (2, 2, p = 2) has k = 2: a closed k of 4, or of 3 beyond n_max = 2, and a
# scan whose pattern breaks, each disagree with the divisibility scan
@pytest.mark.parametrize("target, fake, n_max", [
    ("prime_order_closed", lambda a, b, p: ranktwo.PrimeOrderResult(p, 4, "fake"), 8),
    ("prime_order_closed", lambda a, b, p: ranktwo.PrimeOrderResult(p, 3, "fake"), 2),
    ("prime_order_scan", lambda a, b, p, n: ranktwo.ScanResult(2, False, n), 8),
], ids=["closed-k-differs", "closed-k-beyond-bound", "pattern-inconsistent"])
def test_hopf_series_raises_when_scan_and_closed_form_disagree(target, fake, n_max,
                                                                monkeypatch):
    monkeypatch.setattr(ranktwo, target, fake)
    with pytest.raises(TheoremViolation, match=r"\(2, 2, 2, \d\)"):
        ranktwo.hopf_afp_series(2, 2, 2, n_max)


def test_quotient_functional_normalization():
    t = ranktwo.cd_sequences(2, 2, 10)
    phi = ranktwo.quotient_functional(t, 3, 3)  # p = 3, degree 6
    assert phi is not None
    phi_d, phi_t = phi
    # kernel condition against all four product columns
    cols = [(t.d[3] % 3, 0), (1, t.d[2] % 3), (0, t.c[3] % 3), (t.c[2] % 3, 1)]
    assert all((phi_d * u + phi_t * v) % 3 == 0 for u, v in cols)
    assert phi_t != 0


def _brute_force_functional(c, d, p, m):
    """The first nonzero (x, y) in F_p^2, in lex order, that kills the four
    product columns of degree 2m, scaled so its first nonzero entry is 1."""
    cols = [(d[m] % p, 0), (1, d[m - 1] % p), (0, c[m] % p), (c[m - 1] % p, 1)]
    for x in range(p):
        for y in range(p):
            if (x, y) != (0, 0) and all((x * u + y * v) % p == 0 for u, v in cols):
                inv = pow(x or y, -1, p)
                return (x * inv % p, y * inv % p)
    return None


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_quotient_functional_matches_brute_force(p):
    found = 0
    for a in range(1, 6):
        for b in range(1, 6):
            if a * b < 4:
                continue
            t = ranktwo.cd_sequences(a, b, 40)
            for m in range(1, 40):
                phi = ranktwo.quotient_functional(t, p, m)
                assert phi == _brute_force_functional(t.c, t.d, p, m), (a, b, p, m)
                found += phi is not None
    assert 0 < found < 20 * 39


def test_cup_powers_divided():
    # in 130 of the 176 cases the powers reach j = p within n_max
    pairs = [(a, b) for a in range(1, 8) for b in range(1, 8) if a * b >= 4]
    assert cup_powers_divided(pairs, (2, 3, 5, 7), 40) == []


@pytest.mark.parametrize("n_max,message", [(-1, "n_max must be at least 0, got -1"),
                                           (2.0, "n_max 2.0 is not an integer")])
def test_dual_polynomial_check_reads_its_own_bound(n_max, message):
    with pytest.raises(ValueError, match=message):
        ranktwo.dual_polynomial_check(2, 3, 3, n_max)


def test_hk_modp_crosscheck_reads_the_integral_table(monkeypatch):
    k = ranktwo.prime_order_closed(2, 3, 3).k
    assert ranktwo.hk_modp_crosscheck(2, 3, 3, 40)
    table = ranktwo.hk_integral

    def changed(a, b, n_max):  # the order in degree 2k becomes trivial
        return [(deg, 1 if deg == 2 * k else order) for deg, order in table(a, b, n_max)]

    monkeypatch.setattr(ranktwo, "hk_integral", changed)
    assert not ranktwo.hk_modp_crosscheck(2, 3, 3, 40)


def test_modp_structure_survives_valuation_anomaly():
    # the p = 2 cases where the valuation law fails still have the expected
    # additive mod-p structure: both dimension-series computations agree and
    # the dual stays polynomial on one generator
    pairs = ((1, 7), (3, 5), (5, 7))
    assert mod_p_identities(hk_modp=[(a, b, 2, 40) for a, b in pairs],
                            dual_polynomial=[(a, b, 2, 8) for a, b in pairs]) == []
    for a, b in pairs:
        ranktwo.hopf_afp_series(a, b, 2, 30)  # internal theorem assert


def test_coproduct_closed_form_alternates_on_left(gcm_a23):
    # the type swap sits in the LEFT tensor factor of the enumeration
    for kind, n in ((DELTA, 5), (TAU, 4)):
        w = ranktwo.basis_element(gcm_a23, kind, n)
        cop = peterson_coproduct(w)
        assert len(cop.coeffs) == n + 1
        for (u, v), c in cop.coeffs.items():
            assert c == 1
            if v.length:
                assert ranktwo.classify_element(v) == (kind, v.length)
            if u.length:
                expected_kind = kind if (n - u.length) % 2 == 0 else (
                    TAU if kind == DELTA else DELTA
                )
                assert ranktwo.classify_element(u) == (expected_kind, u.length)
