"""Complete exact model of the rank-two non-compact case (ab >= 4).

The flag variety of the rank-two group with off-diagonal Cartan entries
-a, -b has two Schubert classes in every positive even degree: ``delta_n``
(the class whose alternating word ends in generator 1) and ``tau_n`` (ends
in generator 2).  Everything in this module is driven by the integer
sequences

    c_0 = d_0 = 0,  c_1 = d_1 = 1,
    c_{j+1} = a * d_j - c_{j-1},
    d_{j+1} = b * c_j - d_{j-1},

and g_n = gcd(c_n, d_n).  The cup-product structure constants are derived
here twice over: once as the unique solution of the twisted Leibniz
equations (the independent solver), and once from the closed forms

    delta * delta_n = d_{n+1} delta_{n+1},
    delta * tau_n   = delta_{n+1} + d_n tau_{n+1},
    tau * tau_n     = c_{n+1} tau_{n+1},
    tau * delta_n   = tau_{n+1} + c_n delta_{n+1},

which the test suite requires to agree.  The closed forms are assertions
about the solver, never inputs to it.

Coproduct note: the length-additive factorizations of the rigid
alternating words put the type alternation on the LEFT tensor factor:
the factorizations of delta_n are x_i (x) delta_{n-i} with x_i = delta_i
when i = n (mod 2) and x_i = tau_i otherwise (symmetrically for tau_n).
This module never uses that rule: ``peterson_coproduct`` computes the
factorizations in the group, by walking the weak-order interval below the
class, and its result is authoritative.

Degree bookkeeping is by half-degree n (topological degree 2n) except in
``hk_integral`` and the homology crosschecks, which speak in topological
degrees.  In integral cohomology tables, a cyclic order of 0 denotes an
infinite cyclic summand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from . import intmat
from .errors import (
    NotHyperbolicOrAffine,
    OddPrimeRequired,
    TheoremViolation,
    UnderdeterminedSystem,
)
from .ffield import (
    Fp2Element,
    _product,
    multiplicative_order,
    quadratic_field,
    quadratic_roots,
    sqrt_fp2,
)
from .linalg import kernel_basis
from .poincare import PoincareSeries
from .rings import GF, _is_prime

# gcm, schubert and weyl are imported inside the three functions that call
# them, so the sequence commands load none of them; annotations are strings

DELTA = "delta"
TAU = "tau"
UNIT = ("one", 0)


@dataclass(frozen=True)
class RankTwoTables:
    """The sequences c, d, g for one pair (a, b) with ab >= 4."""

    a: int
    b: int
    c: tuple[int, ...]
    d: tuple[int, ...]
    g: tuple[int, ...]
    # the levels C(k, L - k), k = 0 .. L, for L up to the largest n + m read
    # so far, L = n + m indexing the level (see ``_grown``; D is read from
    # them); a field, not a cached property, because an instance value
    # behind a class descriptor is found by a slower lookup
    _c_binomials: list[list[int]] = field(
        default_factory=lambda: [[1]], init=False, repr=False, compare=False)


# the entry points read a, b, p and bounds through these, by intmat.as_int,
# and pass the integers they return on to the inner loops
def _require_noncompact(a: int, b: int) -> tuple[int, int]:
    a, b = intmat.as_int(a, "a"), intmat.as_int(b, "b")
    if a < 1 or b < 1 or a * b < 4:
        raise NotHyperbolicOrAffine(
            f"(a, b) = ({a}, {b}) has ab < 4; the compact cases live in the "
            "general modules"
        )
    return a, b


def _require_at_least(low: int, bound: int, name: str) -> int:
    bound = intmat.as_int(bound, name)
    if bound < low:
        raise ValueError(f"{name} must be at least {low}, got {bound}")
    return bound


def _require_prime(p: int) -> int:
    p = intmat.as_int(p, "p")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _cd_lists(a: int, b: int, n_max: int):
    a, b = _require_noncompact(a, b)
    n_max = _require_at_least(0, n_max, "n_max")
    c = [0, 1]
    d = [0, 1]
    for j in range(1, n_max):
        c.append(a * d[j] - c[j - 1])
        d.append(b * c[j] - d[j - 1])
    return c[: n_max + 1], d[: n_max + 1]


def cd_sequences(a: int, b: int, n_max: int) -> RankTwoTables:
    """Run the defining recursion up to index ``n_max``; g = gcd(c, d).

    gcd(0, 0) is taken to be 0, so g_0 = 0 (the infinite cyclic marker used
    by ``hk_integral``).

    c and d are Lehmer sequences with parameters (ab, 1) (Lehmer, "An
    extended theory of Lucas' functions", Ann. Math. 31, 1930).  With U
    the Lucas sequence U(ab - 2, 1), U_0 = 0, U_1 = 1 and
    U_{j+1} = (ab - 2) U_j - U_{j-1},

        c_{2j} = a U_j,   d_{2j} = b U_j,   c_{2j+1} = d_{2j+1} = U_j + U_{j+1}.

    By induction on j: at j = 0 these read c_0 = d_0 = 0 and
    c_1 = d_1 = 1.  If they hold at j, the two recurrences give
    c_{2j+2} = a d_{2j+1} - c_{2j} = a (U_j + U_{j+1}) - a U_j = a U_{j+1},
    likewise d_{2j+2} = b U_{j+1}, and
    c_{2j+3} = a d_{2j+2} - c_{2j+1} = ab U_{j+1} - U_j - U_{j+1}
    = ((ab - 2) U_{j+1} - U_j) + U_{j+1} = U_{j+2} + U_{j+1}, and
    d_{2j+3} = b c_{2j+2} - d_{2j+1} is the same ab U_{j+1} - U_j - U_{j+1}.
    As ab - 2 >= 2, U never decreases, so U_j >= j, and
    g_{2j} = gcd(a, b) U_j, g_{2j+1} = c_{2j+1}.
    """
    c, d = _cd_lists(a, b, n_max)
    g = [gcd(x, y) for x, y in zip(c, d)]
    return RankTwoTables(a, b, tuple(c), tuple(d), tuple(g))


def _grown(tables: RankTwoTables, n: int, m: int) -> tuple[int, int]:
    """Grow the levels of ``tables`` until they hold C(n, m); return n, m.

    C(n, 0) = C(0, m) = 1 and C(n, m) = x_{n+1} C(n, m-1) - y_{m-1} C(n-1, m),
    where x = d when n is odd and m even, else c, and y = d when n is even
    and m odd, else c: the two-sequence form of the Lucasnomial Pascal rule.
    Every entry is an integer by construction; the test suite checks them
    against the quotient of prefix products.  Level L = n + m holds
    C(k, L - k) at index k, and the levels grow one at a time, each read
    from the one below, so the work is bounded by the largest n + m read,
    not by the length of the sequences.

    One sequence serves each level, by the Lehmer form (``cd_sequences``):
    c_i = d_i for odd i.  The x index n + 1 is even only when n is odd,
    and then x = d exactly when m is even, that is when L is odd; the y
    index m - 1 is even only when m is odd, and then y = d exactly when n
    is even, again when L is odd.  So an odd level reads only d and an even
    level only c, and with s that sequence,

        C(k, L - k) = s_{k+1} C(k, L-k-1) - s_{L-k-1} C(k-1, L-k).

    The quotient is symmetric, C(n, m) = C(m, n), so a level runs the rule
    for k = 1 .. L // 2 and mirrors the rest: index L - k holds the same
    int as index k.

    These are the only levels: by the Lehmer form the prefix products of c
    and d differ only in a^{n // 2} against b^{n // 2}, so D(n, m) is
    C(n, m) times (b / a)^e with e = (n + m) // 2 - n // 2 - m // 2, which
    is 1 when n and m are both odd and 0 otherwise
    (``generalized_binomial_D``).  The binomial readers call this for any
    read that is not of two ints inside the grown levels, so n and m are
    read here by ``intmat.as_int`` and returned as ints.
    """
    n, m = intmat.as_int(n, "binomial index"), intmat.as_int(m, "binomial index")
    c, d, levels = tables.c, tables.d, tables._c_binomials
    if n < 0 or m < 0 or n + m >= len(c):
        raise ValueError("indices out of table range")
    for level in range(len(levels), n + m + 1):
        s = d if level % 2 else c
        below = levels[-1]
        head = [1] + [s[k + 1] * below[k] - s[level - k - 1] * below[k - 1]
                      for k in range(1, level // 2 + 1)]
        levels.append(head + head[level - level // 2 - 1::-1])
    return n, m


def generalized_binomial_C(tables: RankTwoTables, n: int, m: int) -> int:
    """C(n, m) = (c_{n+m} ... c_1) / ((c_n ... c_1)(c_m ... c_1)), exactly."""
    levels = tables._c_binomials
    # two ints inside the grown levels are read at once ((n | m) < 0 when
    # either is negative); ``_grown`` reads and checks anything else
    if type(n) is not int or type(m) is not int or (n | m) < 0 or n + m >= len(levels):
        n, m = _grown(tables, n, m)
    return levels[n + m][n]


def generalized_binomial_D(tables: RankTwoTables, n: int, m: int) -> int:
    """D(n, m), the same ratio built from the d sequence, read from C(n, m).

    By the Lehmer form (``cd_sequences``), c_i = d_i for odd i while
    c_{2j} = a U_j and d_{2j} = b U_j, so c_1 ... c_n = a^{n // 2} L_n and
    d_1 ... d_n = b^{n // 2} L_n with the same L_n > 0.  Hence
    D(n, m) = C(n, m) (b / a)^e with e = (n + m) // 2 - n // 2 - m // 2.
    e is 1 when n and m are both odd, where D = C b / a (exact, as D is an
    integer), and 0 otherwise, where D = C.  The levels are read as in
    ``generalized_binomial_C``, with the same int fast path and the same
    reading of n and m by ``intmat.as_int``.
    """
    levels = tables._c_binomials
    if type(n) is not int or type(m) is not int or (n | m) < 0 or n + m >= len(levels):
        n, m = _grown(tables, n, m)
    value = levels[n + m][n]
    return value * tables.b // tables.a if n & m & 1 else value


# -- the basis bookkeeping ---------------------------------------------


def basis_word(kind: str, n: int) -> tuple[int, ...]:
    """Alternating word of length n ending in 1 (delta) or 2 (tau).

    The unit key ``UNIT`` gives the empty word; any other kind, or a
    negative n, raises ValueError.
    """
    n = intmat.as_int(n, "basis index")
    if n < 0 or (kind not in (DELTA, TAU) and (kind, n) != UNIT):
        raise ValueError(f"no basis class {(kind, n)!r}")
    last = 1 if kind == DELTA else 2
    return tuple(last if (n - pos) % 2 else 3 - last for pos in range(n))


def basis_element(gcm: GeneralizedCartanMatrix, kind: str, n: int) -> WeylElement:
    from .weyl import from_word

    if gcm.size != 2:
        raise ValueError("rank-two basis elements need a rank-two matrix")
    return from_word(gcm, basis_word(kind, n))


def classify_element(w: WeylElement):
    """(kind, n) of a rank-two element; the identity is the unit key."""
    if w.length == 0:
        return UNIT
    return (DELTA if w.word[-1] == 1 else TAU, w.length)


class RankTwoProductTable:
    """Structure constants of the cup product up to a half-degree bound.

    ``constants(kind1, m, kind2, n)`` is the pair (P, Q) with
    x_m cup y_n = P delta_{m+n} + Q tau_{m+n}, for 1 <= m, n, m+n <= N.
    ``cup`` extends bilinearly to sparse vectors keyed by basis keys.

    Only two integer tables are stored, both indexed one above the half
    degree: ``D[m + 1][n + 1]`` is P(delta_m delta_n) and
    ``T[m + 1][n + 1]`` is Q(tau_m tau_n); the other coefficient of
    these two products is 0.  Index 1 is the unit (every entry there is
    1) and index 0 a border of zeros standing for degree -1.  A mixed
    product is a copy of two lower-degree entries, by the Leibniz steps
    of ``leibniz_cup_solver``: delta_m tau_n is
    (Q(tau_{m-1} tau_n), P(delta_m delta_{n-1})) = (T[m][n + 1], D[m + 1][n])
    and tau_m delta_n is (Q(tau_m tau_{n-1}), P(delta_{m-1} delta_n)) =
    (T[m + 1][n], D[m][n + 1]); at m = 1 or n = 1 one of them is a unit
    entry.  ``m`` and ``n`` are read by ``intmat.as_int``, and an unknown
    kind raises KeyError.
    """

    def __init__(self, n_max: int, delta: list[list[int]], tau: list[list[int]]):
        self.max_half_degree = n_max
        self._delta = delta
        self._tau = tau

    def constants(self, kind1: str, m: int, kind2: str, n: int):
        m, n = intmat.as_int(m, "half degree"), intmat.as_int(n, "half degree")
        if m < 1 or n < 1 or m + n > self.max_half_degree:
            raise ValueError("product outside the table bound")
        D, T = self._delta, self._tau
        if kind1 == DELTA:
            if kind2 == DELTA:
                return (D[m + 1][n + 1], 0)
            if kind2 == TAU:
                return (T[m][n + 1], D[m + 1][n])
        elif kind1 == TAU:
            if kind2 == TAU:
                return (0, T[m + 1][n + 1])
            if kind2 == DELTA:
                return (T[m + 1][n], D[m][n + 1])
        raise KeyError((kind1, kind2))

    def product(self, key1, key2) -> dict:
        """Product of two basis keys as a sparse vector (unit-aware)."""
        if key1 == UNIT:
            return {key2: 1}
        if key2 == UNIT:
            return {key1: 1}
        (k1, m), (k2, n) = key1, key2
        p, q = self.constants(k1, m, k2, n)
        out = {}
        if p:
            out[(DELTA, m + n)] = p
        if q:
            out[(TAU, m + n)] = q
        return out

    def cup(self, v1: dict, v2: dict) -> dict:
        out: dict = {}
        for key1, c1 in v1.items():
            for key2, c2 in v2.items():
                for key, c in self.product(key1, key2).items():
                    val = out.get(key, 0) + c1 * c2 * c
                    if val:
                        out[key] = val
                    else:
                        out.pop(key, None)
        return out


def _unexpected(op: int, k1: str, m: int, k2: str, n: int, low: str):
    return UnderdeterminedSystem(
        f"operator {op} image of {(k1, m)} cup {(k2, n)} "
        f"has an unexpected component {(low, m + n - 1)}"
    )


def leibniz_cup_solver(a: int, b: int, n_max: int) -> RankTwoProductTable:
    """Determine all structure constants from the twisted Leibniz rule.

    Both annihilation operators act injectively on the span of a positive
    degree in the sense that the pair of their values pins down any class:
    A_1(P delta_s + Q tau_s) = P tau_{s-1} and A_2 of it is Q delta_{s-1}.
    So applying each operator to x cup y and expanding the right side of
    A_i(x y) = A_i(x) r_i(y) + x A_i(y) over degree s-1 yields the two
    coefficients of the product: A_1 gives P, A_2 gives Q.  A_1 lowers
    delta_m to tau_{m-1} and kills tau_m, A_2 lowers tau_m to delta_{m-1}
    and kills delta_m, so each of the four kind pairs has its own step:

        delta_m delta_n:  Q = 0, and P from A_1 (both terms);
        delta_m tau_n:    P = Q(tau_{m-1} tau_n), Q = P(delta_m delta_{n-1});
        tau_m delta_n:    P = Q(tau_m tau_{n-1}), Q = P(delta_{m-1} delta_n);
        tau_m tau_n:      P = 0, and Q from A_2 (both terms).

    The two mixed steps only copy products of degree s-1, so nothing is
    stored for them: the solver fills the two integer tables D and T of
    ``RankTwoProductTable`` (layout, unit and border there), and in their
    indices the A_1 step for delta_m delta_n is

        P = r_d D[m-1][n+1] + r_t T[m][n+1] + D[m+1][n-1],

    with (r_d, r_t) = r_1(delta_n); the A_2 step for tau_m tau_n mirrors it
    with r_2(tau_n).  Degrees are solved in increasing order, and within
    one the steps run for m = 1 .. s-1, delta-delta before tau-tau; every
    read is of degree s-1 or lower.  The two reflections r_1(delta_n) and
    r_2(tau_n) are pairs in degree n, kept in two lists and computed once
    as soon as degree n is complete (r_1(tau_n) = tau_n and
    r_2(delta_n) = delta_n).

    In the delta-delta and tau-tau steps the operator must also kill one
    coordinate (delta_{s-1} for A_1, tau_{s-1} for A_2), and a nonzero
    value raises UnderdeterminedSystem; in the two mixed steps that
    coordinate is a zero coefficient of a delta-delta or tau-tau product.
    At step (m, n) the A_1 coordinate is r_d T[m][n] + T[m][n] =
    (r_d + 1) T[m][n], with r_d the delta coefficient of r_1(delta_n).  At
    m = 1 it is r_d + 1, as T[1][n] = 1 is the unit row, and m = 1 is the
    first step that reads r_1(delta_n), in degree n + 1, right after it
    is computed.  So (r_d + 1) T[m][n] is nonzero at some step exactly
    when r_d != -1 for some n, and the first such step is (1, n): the
    check runs once per degree, on the pair just computed, and raises the
    same error.  The A_2 coordinate (r_t + 1) D[m][n] mirrors it, with r_t
    the tau coefficient of r_2(tau_n), checked second as at m = 1.

    Neither check can fire as the code stands: r_d = 1 - 2 P(delta_1
    tau_{n-1}) = 1 - 2 T[1][n] = -1, read from the unit row, and likewise
    r_t = 1 - 2 D[1][n] = -1.  A wrong step is caught instead by
    ``selftests.solver_matches_closed_products``, which checks every entry
    of both tables against the generalized binomials.

    This solver is the independent oracle for the closed-form product
    families; it never consults them.  Raises ValueError for a negative
    ``n_max``.
    """
    a, b = _require_noncompact(a, b)
    n_max = _require_at_least(0, n_max, "n_max")
    # row and column 0: the border; row and column 1: the unit
    D = [[0] * (n_max + 1), [0] + [1] * n_max]
    D += ([0, 1] + [None] * (n_max - 1) for _ in range(n_max - 1))
    T = [list(row) for row in D]
    # r_1(delta_n) and r_2(tau_n) as (delta_n, tau_n) pairs; index 0 unused
    r1_delta = [None]
    r2_tau = [None]

    for s in range(2, n_max + 1):
        # degree s - 1 is complete: r_i(y) = y - alpha_i A_i(y), with
        # alpha_1 = 2 delta - b tau and alpha_2 = -a delta + 2 tau; the
        # products read are delta_1 tau_{s-2}, tau_1 tau_{s-2},
        # tau_1 delta_{s-2} and delta_1 delta_{s-2}
        r1_delta.append((1 - 2 * T[1][s - 1], b * T[2][s - 1] - 2 * D[2][s - 2]))
        r2_tau.append((a * D[2][s - 1] - 2 * T[2][s - 2], 1 - 2 * D[1][s - 1]))
        # the kill coordinates, once per degree (see the docstring)
        if r1_delta[s - 1][0] != -1:
            raise _unexpected(1, DELTA, 1, DELTA, s - 1, DELTA)
        if r2_tau[s - 1][1] != -1:
            raise _unexpected(2, TAU, 1, TAU, s - 1, TAU)
        for m in range(1, s):
            n = s - m
            D_l, D_m, D_h = D[m - 1], D[m], D[m + 1]
            T_l, T_m, T_h = T[m - 1], T[m], T[m + 1]
            # delta delta: A_1 = A_1(delta_m) r_1(delta_n) + delta_m A_1(delta_n),
            # with A_1(delta_m) = tau_{m-1}, tau_{m-1} delta_n = (T_m[n], D_l[n+1])
            # and delta_m tau_{n-1} = (T_m[n], D_h[n-1])
            r_d, r_t = r1_delta[n]
            D_h[n + 1] = r_d * D_l[n + 1] + r_t * T_m[n + 1] + D_h[n - 1]
            # tau tau: A_2 = A_2(tau_m) r_2(tau_n) + tau_m A_2(tau_n),
            # with delta_{m-1} tau_n = (T_l[n+1], D_m[n])
            # and tau_m delta_{n-1} = (T_h[n-1], D_m[n])
            r_d, r_t = r2_tau[n]
            T_h[n + 1] = r_d * D_m[n + 1] + r_t * T_l[n + 1] + T_h[n - 1]
    return RankTwoProductTable(n_max, D, T)


def closed_generator_product(tables: RankTwoTables, gen_kind: str,
                             kind: str, n: int):
    """The closed-form product of a degree-2 generator with a basis class.

    ``n`` is read by ``intmat.as_int``; the product lies in half degree
    n + 1, so n must be in 0 .. len(tables.c) - 2, and an index outside
    that or an unknown kind raises ValueError.
    """
    c, d = tables.c, tables.d
    n = intmat.as_int(n, "half degree")
    if not 0 <= n < len(c) - 1:
        raise ValueError(f"half degree {n} outside the table 0..{len(c) - 2}")
    if gen_kind == DELTA and kind == DELTA:
        return (d[n + 1], 0)
    if gen_kind == DELTA and kind == TAU:
        return (1, d[n])
    if gen_kind == TAU and kind == TAU:
        return (0, c[n + 1])
    if gen_kind == TAU and kind == DELTA:
        return (c[n], 1)
    raise ValueError("kinds must be delta/tau")


def schubert_to_pairs(v: SchubertVector) -> dict:
    """Sparse basis-key form of a rank-two Schubert vector."""
    out = {}
    for w, c in v.coeffs.items():
        out[classify_element(w)] = c
    return out


def cup_schubert(table: RankTwoProductTable, gcm: GeneralizedCartanMatrix,
                 u: SchubertVector, v: SchubertVector) -> SchubertVector:
    """Cup product of two rank-two Schubert vectors through the table."""
    from .schubert import SchubertVector

    u._check(v)
    prod = table.cup(schubert_to_pairs(u), schubert_to_pairs(v))
    # UNIT = ("one", 0) maps to the identity: every word of length 0 is empty
    return SchubertVector(u.ring, {basis_element(gcm, *key): c for key, c in prod.items()})


# -- integral cohomology of the group ----------------------------------


def hk_integral(a: int, b: int, n_max: int):
    """Table of (degree, cyclic order) for the group's integral cohomology.

    Degrees 2n and 2n+3 carry a cyclic summand of order g_n; order 0 stands
    for an infinite cyclic summand (the n = 0 row produces the free classes
    in degrees 0 and 3), and order 1 for the trivial group.  Degrees not of
    either form (only degree 1) are trivial.  Raises ValueError for a
    negative ``n_max``.
    """
    n_max = _require_at_least(0, n_max, "n_max")
    tables = cd_sequences(a, b, max(n_max, 1))
    orders = {0: 0, 3: 0, 1: 1}
    for n in range(1, n_max + 1):
        orders[2 * n] = tables.g[n]
        orders[2 * n + 3] = tables.g[n]
    return [(deg, orders[deg]) for deg in sorted(orders)]


# -- the prime-order theorem, three ways --------------------------------


@dataclass(frozen=True)
class RootOrderDetail:
    """The quadratic x^2 - trace*x + 1 over F_{p^2}, one root, its order."""

    trace: int
    root: Fp2Element
    order: int


@dataclass(frozen=True)
class PrimeOrderResult:
    p: int
    k: int
    case_tag: str
    detail: RootOrderDetail | None = None


def prime_order_closed(a: int, b: int, p: int) -> PrimeOrderResult:
    """Case analysis for the least k with p | g_k.

    k = 2p when p divides exactly one of a, b; otherwise k = p when
    ab = 4 mod p; otherwise k is the multiplicative order of either root of
    x^2 - (ab - 2)x + 1 over F_{p^2} (the two roots are inverses, so the
    order does not depend on the choice).
    """
    a, b = _require_noncompact(a, b)
    p = _require_prime(p)
    div_a, div_b = a % p == 0, b % p == 0
    if div_a != div_b:
        return PrimeOrderResult(p, 2 * p, "DividesOneOf")
    if (a * b - 4) % p == 0:
        return PrimeOrderResult(p, p, "ABCongruent4")
    trace = (a * b - 2) % p
    r1, _ = quadratic_roots(-trace, 1, p)
    k = multiplicative_order(r1)
    return PrimeOrderResult(p, k, "RootOrder", RootOrderDetail(trace, r1, k))


@dataclass(frozen=True)
class ScanResult:
    """Outcome of the direct divisibility scan of the g sequence."""

    k: int | None
    pattern_consistent: bool
    scanned_to: int

    @property
    def found(self) -> bool:
        return self.k is not None


def prime_order_scan(a: int, b: int, p: int, n_max: int) -> ScanResult:
    """Smallest n <= n_max with p | g_n, plus the full divisibility pattern.

    p | g_n exactly when p divides both c_n and d_n, so the recursion runs
    modulo p.  When k is found the pattern check verifies p | g_n iff k | n
    for every n up to the bound.  A missing k just means the bound was too
    small.

    The step (c_{n-1}, c_n, d_{n-1}, d_n) -> (c_n, c_{n+1}, d_n, d_{n+1}) is
    invertible mod p (c_{n-1} = a d_n - c_{n+1}, and likewise for d), so the
    states are purely periodic: they return to the start state
    (c_{-1}, c_0, d_{-1}, d_0) = (-1, 0, -1, 0) at some n = P, which is a hit.
    From there the hits repeat with period P.  If the pattern holds up to P,
    then k divides P and it holds for every n; if not, it has already failed
    within the bound.  So the scan stops at P when P < n_max, and
    ``scanned_to`` is n_max all the same: the bound the result is decided up
    to.  Raises ValueError for a non-prime p or a negative ``n_max``.
    """
    a, b = _require_noncompact(a, b)
    n_max = _require_at_least(0, n_max, "n_max")
    p = _require_prime(p)
    k, ok = None, True
    c0, c1, d0, d1 = 0, 1, 0, 1
    for n in range(1, n_max + 1):
        hit = c1 == d1 == 0
        if k is None:
            if hit:
                k = n
        elif hit != (n % k == 0):
            ok = False
        if hit and c0 == d0 == p - 1:
            break  # the start state again: n is the period
        c0, c1, d0, d1 = c1, (a * d1 - c0) % p, d1, (b * c1 - d0) % p
    return ScanResult(k, ok, n_max)


def matrix_order_method(a: int, b: int, p: int) -> int:
    """k as the first return of the vector (1, 1) under the squared matrix.

    Uses M = (1/2) [[mu, a], [b, mu]] with mu = sqrt(ab - 4) in F_{p^2} and
    finds the least n >= 1 with M^{2n} (1,1)^T = (1,1)^T.  Odd primes only.
    When p divides ab - 4 the matrix squares to the identity and the
    criterion degenerates; that branch of the argument gives k = p
    directly.
    """
    a, b = _require_noncompact(a, b)
    p = _require_prime(p)
    if p == 2:
        raise OddPrimeRequired("the matrix method requires an odd prime")
    if (a * b - 4) % p == 0:
        return p
    field = quadratic_field(p)
    inv2 = pow(2, -1, p)
    mux, muy = sqrt_fp2((a * b - 4) % p, p)
    # M = [[m, e], [f, m]] with m = mu/2, e = a/2, f = b/2 (e, f in F_p), so
    # M^2 = [[m^2 + e f, 2 e m], [2 f m, m^2 + e f]]; elements are (x, y) pairs
    mx, my = mux * inv2 % p, muy * inv2 % p
    e, f = a * inv2 % p, b * inv2 % p
    sq_x, sq_y = _product(field, mx, my, mx, my)
    dx, dy = (sq_x + e * f) % p, sq_y
    ex, ey = 2 * e * mx % p, 2 * e * my % p
    fx, fy = 2 * f * mx % p, 2 * f * my % p
    # M^2, applied repeatedly to (1, 1)
    x1, y1, x2, y2 = 1, 0, 1, 0
    for n in range(1, p * p + 2):
        p1, q1 = _product(field, dx, dy, x1, y1)
        p2, q2 = _product(field, ex, ey, x2, y2)
        p3, q3 = _product(field, fx, fy, x1, y1)
        p4, q4 = _product(field, dx, dy, x2, y2)
        x1, y1, x2, y2 = (p1 + p2) % p, (q1 + q2) % p, (p3 + p4) % p, (q3 + q4) % p
        if x1 == x2 == 1 and y1 == y2 == 0:
            return n
    raise TheoremViolation("the vector (1,1) never returned; impossible")


# -- valuations and the mod-p Hopf algebra -------------------------------


def p_adic_valuation(n: int, p: int) -> int:
    """The exponent of ``p`` in ``n``; ``n`` and ``p`` are read by
    ``intmat.as_int``, and ``p < 2`` or ``n = 0`` raises ValueError."""
    n, p = intmat.as_int(n, "valuation argument"), intmat.as_int(p, "valuation base")
    if p < 2:
        raise ValueError(f"the valuation base must be at least 2, got {p}")
    if n == 0:
        raise ValueError("the valuation of 0 is infinite")
    return _valuation(n, p)


def _valuation(n: int, p: int) -> int:
    """``v_p(n)`` for integers ``n != 0`` and ``p >= 2``, unchecked."""
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def bockstein_valuation_check(a: int, b: int, p: int, s_max: int) -> bool:
    """Check the valuation identity v_p(g_{s k}) = v_p(s) + v_p(g_k).

    Reports the honest arithmetic comparison.  The identity holds for every
    odd prime we have tested, but genuinely fails for p = 2 when ab is odd
    with v_2(ab - 1) = 1 (then k = 3 and v_2(g_{2m k}) runs one above the
    predicted value; smallest instance: (a, b) = (1, 7), where g_3 = 6 and
    g_6 = 24).  That regime is exactly the degenerate one where the
    degree-6 mod-2 homology generator fails to be primitive, so the
    height-one Bockstein does not force the rest of the tower.  Raises
    ValueError for ``s_max < 1``.
    """
    return all(lhs == rhs for _, lhs, rhs in _valuation_rows(a, b, p, s_max))


def _valuation_rows(a: int, b: int, p: int, s_max: int) -> list[tuple[int, int, int]]:
    """The rows ``(s, v_p(g_{s k}), v_p(s) + v_p(g_k))`` for s = 1 .. s_max.

    With t = ab - 2, x = c and x = d obey x_{j+2} = t x_j - x_{j-2} (put the
    d step into the c step and use a d_{j-1} = c_j + c_{j-2}; likewise for
    d), and are odd: run back, the recursion gives c_{-1} = d_{-1} = -1, so
    -x_{-j} obeys it from the same start.  If V_0 = 2, V_1 = t and
    V_{h+1} = t V_h - V_{h-1}, then x_{j+2h} + x_{j-2h} = V_h x_j, as both
    sides obey V's recursion in h and agree at h = 0, 1.  So
    x_{(s+2)k} = V_k x_{sk} - x_{(s-2)k}: one step per s from x_{-k} = -x_k,
    x_0 = 0, x_k and x_{2k}, and c is built to index 2k only.

    Only c is stepped, and g is read from it by the Lehmer form
    (``cd_sequences``): g_n = c_n for odd n, and for even n = 2j,
    c_{2j} = a U_j and g_{2j} = gcd(a, b) U_j with U_j >= j > 0, so
    v_p(g_n) = v_p(c_n) + v_p(gcd(a, b)) - v_p(a).  That shift is the
    same for every even n, and no row takes a gcd of big integers.

    Each v_p(c_{sk}) is read from one remainder.  The row predicts
    v_p(g_{sk}) = v_p(s) + v_p(g_k), so v_p(c_{sk}) = e with e that value
    less the shift (when sk is even); as the shift is at most 0, e >= 0.
    With r = c_{sk} mod p^(e+1), p^e | r and r != 0 give v_p(c_{sk}) = e
    exactly: c_{sk} = r + q p^(e+1) is divisible by p^e, and not by
    p^(e+1) as r is not.  One division of the big integer decides the row,
    where ``_valuation`` divides by p once per unit of valuation and once
    more.  Any other remainder means the prediction failed (the p = 2
    cases of ``bockstein_valuation_check``), and ``_valuation`` counts the
    exponent instead.  c itself stays an exact integer: nothing is reduced
    modulo a power of p before it is stepped.  v_p(s) comes from a table
    for s = 1 .. s_max, v_p(s) = v_p(s / p) + 1 when p | s.

    k is the least n >= 1 with p | g_n, that is with c_n = d_n = 0 mod p, so
    it is found by running (c_n, d_n) modulo p up to the first such n; no
    root order over F_{p^2} is solved.  The scan stops at n = 2p.  By the
    cases of ``prime_order_closed``, k is 2p when p divides exactly one of
    a, b; p when ab = 4 mod p; and otherwise the order of a root of
    x^2 - (ab - 2)x + 1, which lies in F_p^* (an order dividing p - 1) or in
    the norm-one subgroup of F_{p^2}^* (an order dividing p + 1), and is -1,
    of order 2, when an odd p divides both a and b.  So k <= 2p, and a scan
    that passes 2p raises TheoremViolation naming (a, b, p).
    """
    s_max = _require_at_least(1, s_max, "s_max")
    a, b = _require_noncompact(a, b)
    p = _require_prime(p)
    c0, c1, d0, d1 = 0, 1, 0, 1
    for k in range(1, 2 * p + 1):
        if c1 == d1 == 0:
            break
        c0, c1, d0, d1 = c1, (a * d1 - c0) % p, d1, (b * c1 - d0) % p
    else:
        raise TheoremViolation(
            f"(a, b, p) = ({a}, {b}, {p}): p divides no g_n with 1 <= n <= 2p")
    c, _ = _cd_lists(a, b, 2 * k)
    t = a * b - 2
    v_prev, v = 2, t
    for _ in range(k - 1):
        v_prev, v = v, t * v - v_prev
    cs = [-c[k], 0, c[k], c[2 * k]]
    for _ in range(3, s_max + 1):
        cs.append(v * cs[-2] - cs[-4])
    shift = _valuation(gcd(a, b), p) - _valuation(a, p)
    base = _valuation(c[k], p) + (0 if k % 2 else shift)
    vs = [0] * (s_max + 1)
    for s in range(p, s_max + 1, p):
        vs[s] = vs[s // p] + 1
    rows = []
    for s in range(1, s_max + 1):
        even_shift = 0 if s * k % 2 else shift
        want = vs[s] + base
        e = want - even_shift
        pe = p ** e
        x = cs[s + 1]
        r = x % (pe * p)
        got = e if r and not r % pe else _valuation(x, p)
        rows.append((s, got + even_shift, want))
    return rows


def hopf_afp_series(a: int, b: int, p: int, n_max: int) -> PoincareSeries:
    """Dimensions of the mod-p image Hopf algebra, by topological degree.

    Degree 2n carries one dimension exactly when n = 0 or p | g_n, read
    from ``prime_order_scan``; the scan is checked against the closed form
    1/(1 - t^{2k}), so it must find the closed k (nothing when k > n_max)
    with p | g_n iff k | n, and a mismatch raises TheoremViolation.
    """
    scan = prime_order_scan(a, b, p, n_max)
    k = prime_order_closed(a, b, p).k
    if scan.k != (k if k <= n_max else None) or not scan.pattern_consistent:
        raise TheoremViolation(
            f"(a, b, p, n_max) = ({a}, {b}, {p}, {n_max}): the scan found "
            f"k={scan.k} (pattern consistent: {scan.pattern_consistent}), "
            f"the closed form k={k}"
        )
    return PoincareSeries.from_even_dims(int(n % k == 0) for n in range(n_max + 1))


def quotient_functional(tables: RankTwoTables, p: int, m: int):
    """Mod-p functional cutting out degree 2m of the image Hopf algebra.

    The quotient of the degree-2m span by products of positive-degree image
    classes is the cokernel of the four multiplication columns
    delta*delta_{m-1}, delta*tau_{m-1}, tau*tau_{m-1}, tau*delta_{m-1}.
    Returns (phi_delta, phi_tau), the left kernel read off
    ``linalg.kernel_basis`` and normalized to phi_delta = 1 or phi_tau = 1,
    or None when the quotient is zero.
    """
    c, d = tables.c, tables.d
    cols = [(d[m], 0), (1, d[m - 1]), (0, c[m]), (c[m - 1], 1)]
    basis = kernel_basis(cols, 2, GF(p))
    if not basis:
        return None
    x, y = basis[-1]  # the last vector is (0, 1) when every column is zero
    inv = pow(x or y, -1, p)
    return (x * inv % p, y * inv % p)


def dual_polynomial_check(a: int, b: int, p: int, n_max: int) -> bool:
    """Verify that the dual Hopf algebra is polynomial on one generator.

    Inductively the n-th power of a degree-2k dual generator must pair
    non-trivially with a generator in degree 2nk, which happens exactly
    when the coefficient of tau_k (x) tau_{(n-1)k} in the coproduct of
    tau_{nk}, rewritten through the quotient functionals, is nonzero
    mod p.  The coproduct comes from ``peterson_coproduct``, which walks the
    weak-order interval in the group, not from any closed form.  Raises
    ValueError for a negative ``n_max``.
    """
    from .gcm import rank_two
    from .schubert import peterson_coproduct

    n_max = _require_at_least(0, n_max, "n_max")
    k = prime_order_closed(a, b, p).k
    tables = cd_sequences(a, b, n_max * k + 1)
    gcm = rank_two(a, b)
    functionals = {}
    for n in range(1, n_max + 1):
        phi = quotient_functional(tables, p, n * k)
        if phi is None or phi[1] == 0:
            return False  # tau_{nk} fails to generate the quotient
        functionals[n] = phi
    for n in range(2, n_max + 1):
        w = basis_element(gcm, TAU, n * k)
        cop = peterson_coproduct(w)
        matches = [
            (u, v)
            for (u, v) in cop.coeffs
            if u.length == k and classify_element(v) == (TAU, (n - 1) * k)
        ]
        if len(matches) != 1:
            return False
        u, _ = matches[0]
        kind, _n = classify_element(u)
        if kind == TAU:
            lam = 1
        else:
            phi_d, phi_t = functionals[1]
            lam = phi_d * pow(phi_t, -1, p) % p
        if lam % p == 0:
            return False
    return True


def hk_modp_crosscheck(a: int, b: int, p: int, deg_max: int) -> bool:
    """Compare two computations of the mod-p homology dimension series.

    Side one expands the product of an exterior algebra on degrees 3 and
    2k-1 with a polynomial algebra on degree 2k.  Side two applies
    universal coefficients to the table of ``hk_integral``: an order in
    degree m that p divides (0, a free summand, included) gives one
    dimension in degree m, and a finite one also gives one in degree m-1.
    Raises ValueError for a negative ``deg_max``.
    """
    deg_max = _require_at_least(0, deg_max, "deg_max")
    k = prime_order_closed(a, b, p).k
    # side one: (1 + t^3)(1 + t^{2k-1}) / (1 - t^{2k})
    side1 = [0] * (deg_max + 1)
    side1[0] = 1
    for gen_deg in (3, 2 * k - 1):
        nxt = list(side1)
        for m in range(gen_deg, deg_max + 1):
            nxt[m] += side1[m - gen_deg]
        side1 = nxt
    for m in range(2 * k, deg_max + 1):
        side1[m] += side1[m - 2 * k]
    # side two: H^m(Z) (x) F_p plus Tor(H^{m+1}(Z), F_p), for m <= deg_max
    orders = dict(hk_integral(a, b, (deg_max + 1) // 2))
    side2 = [(orders[m] % p == 0) + (0 < orders[m + 1] and orders[m + 1] % p == 0)
             for m in range(deg_max + 1)]
    return side1 == side2
