"""The invariant checks of the package, shared by the tests and ``--selftest``.

Each check is a function whose grid and bounds are parameters.  It returns
the inputs on which its invariant fails, so an empty list means it holds.
The tests call each check by name, at bounds above those of ``--selftest``,
and assert ``== []``:

- ``tests/test_gcm.py``: ``rank_two_calibration`` for a, b <= 4 (orders
  searched to 100), ``poset_downward_closed`` and ``realization_pairings``
  on three matrices;
- ``tests/test_weyl.py``: ``reflections_are_involutions`` on two matrices,
  ``length_changes_by_one`` on affine A2 to length 5 and
  ``bruhat_matches_subword`` on four matrices to lengths 3 to 6;
- ``tests/test_polyring.py``: ``operator_identities`` and
  ``steenrod_commutation`` on four matrices; ``tests/test_polyring_oracle.py``:
  ``characteristic_map_commutes`` on five matrices in both realizations;
- ``tests/test_ranktwo.py``: ``symbolic_low_rows`` (20 draws, entries <=
  30), ``cd_matches_lehmer`` (a, b <= 12, to index 60),
  ``binomials_match_prefix_quotients`` (a, b <= 12 with a or b in {1, 11,
  12} and ab >= 4, n + m <= 40: the pairs criterion 02 leaves out),
  ``solver_matches_closed_products`` (a, b <= 7, degree 24),
  ``cup_powers_divided`` (a, b <= 7, p <= 7, half degree 40) and
  ``mod_p_identities`` (valuations for odd p <= 23, both series at p = 2);
- the acceptance criteria of ``tests/test_acceptance.py``, each on its own
  grid: 01 ``symbolic_low_rows`` (20 draws, entries <= 40), 02
  ``binomials_match_prefix_quotients`` (2 <= a, b <= 10, n + m <= 40), 03
  ``solver_matches_closed_products`` (four pairs, degree 20), 04
  ``prime_order_methods_agree`` (a, b <= 8, p <= 23, scan to 200), 06
  ``nil_a_square_zero`` and ``braid_relations_on_basis`` (four matrices to
  length 8), 08 ``coproduct_grading`` ((2,3) and (1,1) to length 7) and
  09 ``mod_p_identities`` (homology series to 40, the dual to 10).

``SUITES`` lists, per command-line group, each check with the reduced bounds
that ``--selftest`` runs it at in seconds; the command prints one
``[PASS]``/``[FAIL]`` line per check and the first failing input of a
failed check on stderr.  The module holds only those checks and the oracles
they call, which (the order of ``r_1 r_2`` by matrix powers, Bruhat order
by the subword property) share no code path with what they check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from . import ranktwo
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
from .polyring import WeightRing, monomial_exponents
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


def _elements(g, max_len):
    return [w for level in enumerate_by_length(g, max_len) for w in level]


# -- oracles and random inputs ---------------------------------------------
# Oracles keep full products (mat_mul, reflection_matrix), not rank-one updates.


def dihedral_order(g, bound):
    """Order of r_1 r_2 by repeated matrix products, or None past ``bound``."""
    cur = m = mat_mul(reflection_matrix(g, 1), reflection_matrix(g, 2))
    for k in range(1, bound + 1):
        if cur == identity(g.size):
            return k
        cur = mat_mul(cur, m)
    return None


def subword_set(w):
    """Every element with a reduced word that is a subword of ``w.word``.

    By the subword property (Bjorner-Brenti, GTM 231) this is the Bruhat
    interval below ``w``; it is built letter by letter with ``multiply``.
    """
    reachable = {identity_element(w.gcm)}
    for i in w.word:
        s = simple_reflection(w.gcm, i)
        steps = [(u, multiply(u, s)) for u in reachable]
        reachable |= {u2 for u, u2 in steps if u2.length > u.length}
    return reachable


def cd_by_recursion(a, b, top):
    """c_0 .. c_top and d_0 .. d_top by the defining recursion, apart from ``ranktwo``."""
    c, d = [0, 1], [0, 1]
    for j in range(1, top):
        c.append(a * d[j] - c[j - 1])
        d.append(b * c[j] - d[j - 1])
    return c[: top + 1], d[: top + 1]


def random_poly(model, rng, degrees, density=0.5, bound=4, denominators=1):
    """A random polynomial of ``model`` with terms of the given degrees.

    Each monomial enters with probability ``density`` and a coefficient
    drawn from -bound..bound, divided by one drawn from 1..denominators when
    that exceeds 1.  A draw that is zero in the ring gives the first monomial
    of the last degree instead.
    """
    pairs = []
    for d in degrees:
        for exps in monomial_exponents(model.nvars, d):
            if rng.random() < density:
                c = rng.randint(-bound, bound)
                if denominators > 1:
                    c = Fraction(c, rng.randint(1, denominators))
                pairs.append((exps, c))
    f = model.from_terms(pairs)
    return model.monomial(monomial_exponents(model.nvars, degrees[-1])[0]) if f.is_zero() else f


# -- gcm -------------------------------------------------------------------


def poset_downward_closed(gcms):
    """Dropping one index keeps a subset spherical: [(g, subset, index)]."""
    failures = []
    for g in gcms:
        subsets = spherical_poset(g).subsets
        members = set(subsets)
        failures += [(g, sub, x) for sub in subsets for x in sub
                     if tuple(y for y in sub if y != x) not in members]
    return failures


def rank_two_calibration(pairs, bound):
    """For rank_two(a, b): finite type iff ab < 4 iff r_1 r_2 has finite
    order, and ``coxeter_exponent`` is that order (searched up to
    ``bound``): [(a, b)]."""
    failures = []
    for a, b in pairs:
        g = rank_two(a, b)
        order = dihedral_order(g, bound)
        if not (is_finite_type(g, (1, 2)) == (a * b < 4) == (order is not None)
                and coxeter_exponent(g, 1, 2) == order):
            failures.append((a, b))
    return failures


def realization_pairings(gcms):
    """In both realizations the roots pair with the coroots by the matrix and
    the dual basis is dual to the coroots: [(g, realization, i, j)]."""
    failures = []
    for g in gcms:
        for name, real in (("standard", standard_realization(g)),
                           ("derived", derived_realization(g))):
            for i in range(g.size):
                for j in range(g.size):
                    pair = sum(x * y for x, y in zip(real.root_functionals[j], real.coroots[i]))
                    dual = sum(x * y for x, y in zip(real.dual_basis[i], real.coroots[j]))
                    if pair != g.a(i + 1, j + 1) or dual != int(i == j):
                        failures.append((g, name, i + 1, j + 1))
    return failures


# -- weyl ------------------------------------------------------------------


def reflections_are_involutions(gcms):
    """r_i r_i = e: [(g, i)]."""
    return [(g, i) for g in gcms for i in g.index_set
            if multiply(simple_reflection(g, i), simple_reflection(g, i)) != identity_element(g)]


def length_changes_by_one(gcms, max_len):
    """l(w r_i) = l(w) +- 1 for every w up to ``max_len``: [(g, w.word, i)]."""
    return [(g, w.word, i) for g in gcms for w in _elements(g, max_len) for i in g.index_set
            if abs(multiply(w, simple_reflection(g, i)).length - w.length) != 1]


def bruhat_matches_subword(gcms, max_len):
    """``bruhat_leq`` agrees with the subword property on all pairs up to
    ``max_len``: [(g, v.word, w.word)]."""
    failures = []
    for g in gcms:
        elems = _elements(g, max_len)
        for w in elems:
            below = subword_set(w)
            failures += [(g, v.word, w.word) for v in elems if bruhat_leq(v, w) != (v in below)]
    return failures


# -- schubert --------------------------------------------------------------


def nil_a_square_zero(gcms, max_len):
    """A_i A_i = 0 on every basis class up to ``max_len``: [(g, w.word, i)]."""
    return [(g, w.word, i) for g in gcms for w in _elements(g, max_len) for i in g.index_set
            if not nil_a(i, nil_a(i, SchubertVector.basis(ZZ, w))).is_zero()]


def braid_relations_on_basis(gcms, max_len):
    """A_i A_j A_i ... = A_j A_i A_j ... (m_ij letters each) on every basis
    class up to ``max_len``: [(g, i, j, w.word)]."""
    failures = []
    for g in gcms:
        elems = _elements(g, max_len)
        for i, j in combinations(g.index_set, 2):
            m = coxeter_exponent(g, i, j)
            if m is None:
                continue
            w1 = tuple((i, j)[t % 2] for t in range(m))
            w2 = tuple((j, i)[t % 2] for t in range(m))
            for w in elems:
                vec = SchubertVector.basis(ZZ, w)
                if nil_aw(w1, vec) != nil_aw(w2, vec):
                    failures.append((g, i, j, w.word))
    return failures


def coproduct_grading(gcms, max_len):
    """Each term u (x) v of the coproduct of w has l(u) + l(v) = l(w), for
    every w up to ``max_len``: [(g, w.word, u.word, v.word)]."""
    return [(g, w.word, u.word, v.word) for g in gcms for w in _elements(g, max_len)
            for u, v in peterson_coproduct(w).coeffs if u.length + v.length != w.length]


# -- poly ------------------------------------------------------------------


def operator_identities(gcms, rings, trials, degree, seed):
    """r_i r_i f = f, A_i(f h) = A_i(f) r_i(h) + f A_i(h) and A_i A_i f = 0,
    for random f of degree <= ``degree`` and h of degree <= 2:
    [(g, ring, f, h, i)]."""
    rng = random.Random(seed)
    failures = []
    for g in gcms:
        for ring in rings:
            model = WeightRing(g, ring)
            act, dd = model.weyl_act, model.divided_difference
            for _ in range(trials):
                f = random_poly(model, rng, range(degree + 1))
                h = random_poly(model, rng, range(3))
                failures += [(g, ring.name, f, h, i) for i in g.index_set
                             if act(i, act(i, f)) != f
                             or dd(i, f * h) != dd(i, f) * act(i, h) + f * dd(i, h)
                             or not dd(i, dd(i, f)).is_zero()]
    return failures


def characteristic_map_commutes(gcms, rings, degrees, trials, seed,
                                realizations=(standard_realization,)):
    """psi(h_i*) is the class of r_i, and psi(A_i f) = A_i psi(f) for random
    homogeneous f of each degree, in each realization: [(g, ring, f, i)]."""
    rng = random.Random(seed)
    failures = []
    for g in gcms:
        for ring, realize in product(rings, realizations):
            model = WeightRing(g, ring, realize(g))
            psi = model.characteristic_map
            failures += [(g, ring.name, model.coroot_dual(i), i) for i in g.index_set
                         if psi(model.coroot_dual(i))
                         != SchubertVector.basis(ring, simple_reflection(g, i))]
            for _ in range(trials):
                for deg in degrees:
                    f = random_poly(model, rng, (deg,), density=0.7)
                    image = psi(f)
                    failures += [(g, ring.name, f, i) for i in g.index_set
                                 if psi(model.divided_difference(i, f)) != nil_a(i, image)]
    return failures


def steenrod_commutation(gcms, primes, trials, seed):
    """A_i P(f) = (1 + alpha_i^(p-1)) P(A_i f) over F_p, for f = h_1*, f = 1
    and random f of degree <= 3: [(g, p, f, i)]."""
    rng = random.Random(seed)
    failures = []
    for g in gcms:
        for p in primes:
            model = WeightRing(g, GF(p))
            polys = [model.coroot_dual(1), model.constant(1)]
            polys += [random_poly(model, rng, range(4)) for _ in range(trials)]
            failures += [(g, p, f, i) for f in polys for i in g.index_set
                         if not model.steenrod_commutation_check(i, f)]
    return failures


# -- rank2 -----------------------------------------------------------------


def symbolic_low_rows(trials, max_entry, seed):
    """Rows 0 to 4 of c, d and g_4 against their closed forms in a and b, for
    random 1 <= a, b <= ``max_entry`` with ab >= 4: [(a, b)]."""
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        a, b = rng.randint(1, max_entry), rng.randint(1, max_entry)
        if a * b < 4:
            continue
        t = ranktwo.cd_sequences(a, b, 4)
        if (t.c[:5] != (0, 1, a, a * b - 1, a * (a * b - 2))
                or t.d[:5] != (0, 1, b, a * b - 1, b * (a * b - 2))
                or t.g[4] != gcd(a, b) * (a * b - 2)):
            failures.append((a, b))
    return failures


def cd_matches_lehmer(pairs, n_max):
    """c, d and g up to ``n_max`` in their Lehmer form (see
    ``ranktwo.cd_sequences``): with U_0 = 0, U_1 = 1 and
    U_{j+1} = (ab - 2) U_j - U_{j-1}, c_{2j} = a U_j, d_{2j} = b U_j,
    g_{2j} = gcd(a, b) U_j and c_{2j+1} = d_{2j+1} = g_{2j+1} = U_j + U_{j+1}.
    U is run here, apart from the c, d recursion: [(a, b, index)]."""
    failures = []
    for a, b in pairs:
        t = ranktwo.cd_sequences(a, b, n_max)
        u = [0, 1]
        while len(u) < n_max // 2 + 2:
            u.append((a * b - 2) * u[-1] - u[-2])
        for i, (c, d, g) in enumerate(zip(t.c, t.d, t.g)):
            j = i // 2
            want = ((a * u[j], b * u[j], gcd(a, b) * u[j]) if i % 2 == 0
                    else (u[j] + u[j + 1],) * 3)
            if (c, d, g) != want:
                failures.append((a, b, i))
    return failures


def binomials_match_prefix_quotients(pairs, n_max):
    """``generalized_binomial_C`` and ``_D`` at every n + m <= ``n_max`` are
    the exact quotients of prefix products (c_1 ... c_{n+m}) / ((c_1 ... c_n)
    (c_1 ... c_m)), of c and of d, run here by the defining recursion:
    [(a, b, name, n, m)]."""
    failures = []
    for a, b in pairs:
        t = ranktwo.cd_sequences(a, b, n_max)
        c, d = cd_by_recursion(a, b, n_max)
        for name, seq, binomial in (("C", c, ranktwo.generalized_binomial_C),
                                    ("D", d, ranktwo.generalized_binomial_D)):
            prefix = [1]
            for x in seq[1:n_max + 1]:
                prefix.append(prefix[-1] * x)
            for n in range(n_max + 1):
                for m in range(n_max + 1 - n):
                    q, r = divmod(prefix[n + m], prefix[n] * prefix[m])
                    if r or binomial(t, n, m) != q:
                        failures.append((a, b, name, n, m))
    return failures


def solver_matches_closed_products(pairs, degree):
    """Every product of the Leibniz solver's table up to ``degree`` equals its
    closed form: a degree-2 generator times a class of degree 1..degree-1 by
    ``closed_generator_product``, and for every m, n >= 1 with
    m + n <= ``degree``, by the generalized binomials,
    delta_m delta_n = (D(m, n), 0), tau_m tau_n = (0, C(m, n)),
    delta_m tau_n = (C(m - 1, n), D(m, n - 1)) and
    tau_m delta_n = (C(m, n - 1), D(m - 1, n)):
    [(a, b, kind1, m, kind2, n)]."""
    DELTA, TAU = kinds = (ranktwo.DELTA, ranktwo.TAU)
    C, D = ranktwo.generalized_binomial_C, ranktwo.generalized_binomial_D
    failures = []
    for a, b in pairs:
        t = ranktwo.cd_sequences(a, b, degree)
        table = ranktwo.leibniz_cup_solver(a, b, degree)
        failures += [(a, b, k1, 1, k2, n) for n in range(1, degree)
                     for k1 in kinds for k2 in kinds
                     if table.constants(k1, 1, k2, n)
                     != ranktwo.closed_generator_product(t, k1, k2, n)]
        for m in range(1, degree):
            for n in range(1, degree + 1 - m):
                want = {(DELTA, DELTA): (D(t, m, n), 0),
                        (TAU, TAU): (0, C(t, m, n)),
                        (DELTA, TAU): (C(t, m - 1, n), D(t, m, n - 1)),
                        (TAU, DELTA): (C(t, m, n - 1), D(t, m - 1, n))}
                failures += [(a, b, k1, m, k2, n) for (k1, k2), pq in want.items()
                             if table.constants(k1, m, k2, n) != pq]
    return failures


def _annihilator(vectors, p):
    """A basis of the functionals mod p that vanish on the span of the pairs
    ``vectors``: two when they span nothing, one when they span a line,
    none when they span the plane."""
    vectors = [(u % p, v % p) for u, v in vectors]
    w = next((vec for vec in vectors if vec != (0, 0)), None)
    if w is None:
        return [(1, 0), (0, 1)]
    if any((w[0] * v - w[1] * u) % p for u, v in vectors):
        return []
    return [(w[1], -w[0] % p)]


def cup_powers_divided(pairs, primes, n_max):
    """The cohomology half of the paper's theorem in rank two.  In
    A = H^*(K/T; F_p) / (H^2), the quotient by the ideal that the degree-2
    classes generate, half degree n has dimension 1 when k | n and 0
    otherwise, with k from ``ranktwo.prime_order_closed``; and a class x of
    half degree k outside the ideal has x^j != 0 in A for j < p and x^j = 0
    for j >= p, for every jk <= ``n_max``.  So A is a divided-power algebra
    with a new generator in each half degree k p^e, and not finitely
    generated.  Products are read from ``ranktwo.leibniz_cup_solver``'s table
    alone, and the ideal in half degree n >= 2, spanned by delta_1 e and
    tau_1 e over the basis e of half degree n - 1, is reduced here mod p:
    [(a, b, p, n)], n the first half degree that breaks either pattern."""
    kinds = (ranktwo.DELTA, ranktwo.TAU)
    failures = []
    for a, b in pairs:
        table = ranktwo.leibniz_cup_solver(a, b, n_max)
        for p in primes:
            k = ranktwo.prime_order_closed(a, b, p).k
            # cut[n]: the functionals that cut A out of half degree n; in
            # half degree 1 the ideal is everything
            cut = [None, []] + [
                _annihilator([table.constants(k1, 1, k2, n - 1)
                              for k1 in kinds for k2 in kinds], p)
                for n in range(2, n_max + 1)]
            bad = [n for n in range(1, n_max + 1) if len(cut[n]) != (n % k == 0)]
            if bad:
                failures.append((a, b, p, bad[0]))
                continue
            if k > n_max:
                continue  # no class of degree 2k within the bound
            x = {(ranktwo.TAU if cut[k][0][1] else ranktwo.DELTA, k): 1}
            power = x
            for j in range(2, n_max // k + 1):
                power = {key: c % p for key, c in table.cup(power, x).items()}
                (f_delta, f_tau), = cut[j * k]
                value = (f_delta * power.get((ranktwo.DELTA, j * k), 0)
                         + f_tau * power.get((ranktwo.TAU, j * k), 0)) % p
                if (value != 0) != (j < p):
                    failures.append((a, b, p, j * k))
                    break
    return failures


def prime_order_methods_agree(entries, primes, scan_bound):
    """The closed form, the scan of g_n up to ``scan_bound`` (with its
    divisibility pattern consistent) and, for odd p, the matrix order give
    the same least k with p | g_k, for a, b in ``entries`` with ab >= 4:
    [(a, b, p)]."""
    failures = []
    for a in entries:
        for b in entries:
            if a * b < 4:
                continue
            for p in primes:
                closed = ranktwo.prime_order_closed(a, b, p).k
                scan = ranktwo.prime_order_scan(a, b, p, scan_bound)
                if (scan.k != closed or not scan.pattern_consistent
                        or p != 2 and ranktwo.matrix_order_method(a, b, p) != closed):
                    failures.append((a, b, p))
    return failures


def mod_p_identities(bockstein=(), hk_modp=(), dual_polynomial=()):
    """The ``ranktwo`` checks of the valuation identity for g along multiples
    of k, of the two mod-p homology series and of the polynomial dual, each
    on its own (a, b, p, bound) cases: [(check name, case)]."""
    checks = ((ranktwo.bockstein_valuation_check, bockstein),
              (ranktwo.hk_modp_crosscheck, hk_modp),
              (ranktwo.dual_polynomial_check, dual_polynomial))
    return [(check.__name__, case) for check, cases in checks for case in cases
            if not check(*case)]


# -- the command-line suites ----------------------------------------------

A11, B2, A22, A23 = rank_two(1, 1), rank_two(2, 1), rank_two(2, 2), rank_two(2, 3)
SAMPLE_GCMS = (A11, B2, A22, validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]))

SUITES = {
    "gcm": [
        ("spherical poset downward closed", poset_downward_closed, {"gcms": SAMPLE_GCMS}),
        ("rank-two calibration (minors, exponent, closure)", rank_two_calibration,
         {"pairs": [(0, 0)] + [(a, b) for a in range(1, 4) for b in range(1, 4)], "bound": 60}),
        ("realization pairings", realization_pairings, {"gcms": SAMPLE_GCMS}),
    ],
    "weyl": [
        ("involutions", reflections_are_involutions, {"gcms": SAMPLE_GCMS}),
        ("length changes by one", length_changes_by_one, {"gcms": SAMPLE_GCMS, "max_len": 5}),
        ("bruhat order matches subword oracle", bruhat_matches_subword,
         {"gcms": (A11, A22), "max_len": 4}),
    ],
    "schubert": [
        ("square-zero operators", nil_a_square_zero, {"gcms": SAMPLE_GCMS, "max_len": 4}),
        ("braid independence on the basis", braid_relations_on_basis,
         {"gcms": SAMPLE_GCMS, "max_len": 4}),
        ("coproduct grading", coproduct_grading, {"gcms": (A11, A23), "max_len": 3}),
    ],
    "poly": [
        ("involution, twisted Leibniz, square zero", operator_identities,
         {"gcms": (A23, A22), "rings": (QQ,), "trials": 6, "degree": 3, "seed": 11}),
        ("characteristic map and operator commutation", characteristic_map_commutes,
         {"gcms": (A23, A11), "rings": (QQ,), "degrees": (3,), "trials": 4, "seed": 11}),
        ("total Steenrod commutation", steenrod_commutation,
         {"gcms": (A23,), "primes": (2, 3), "trials": 4, "seed": 11}),
    ],
    "rank2": [
        ("symbolic low rows", symbolic_low_rows, {"trials": 8, "max_entry": 9, "seed": 3}),
        ("c, d and g in Lehmer form", cd_matches_lehmer,
         {"pairs": ((2, 2), (2, 3), (1, 5), (4, 1), (3, 7)), "n_max": 30}),
        ("binomials match prefix-product quotients", binomials_match_prefix_quotients,
         {"pairs": ((2, 3), (1, 5), (3, 7)), "n_max": 16}),
        ("solver matches closed products", solver_matches_closed_products,
         {"pairs": ((2, 2), (2, 3), (1, 5)), "degree": 8}),
        ("prime order methods agree", prime_order_methods_agree,
         {"entries": range(1, 6), "primes": (2, 3, 5, 7), "scan_bound": 60}),
        ("valuations, homology series, dual generator", mod_p_identities,
         {name: [(a, b, p, bound) for a, b, p in ((2, 2, 2), (2, 3, 3), (1, 5, 2))]
          for name, bound in (("bockstein", 10), ("hk_modp", 30), ("dual_polynomial", 5))}),
        ("cup powers in the quotient by H^2 die at p", cup_powers_divided,
         {"pairs": ((2, 2), (2, 3), (1, 5)), "primes": (2, 3), "n_max": 12}),
    ],
}
