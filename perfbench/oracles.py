"""Independent oracles for the benchmark's correctness checks.

Nothing here imports schubert_kit.  Every function is a computation made
apart from the program (its own recursion, its own group model, its own
elimination) or a closed formula the mathematics forces, so a check built
on it cannot pass merely because it shares a code path with what it checks.

Conventions follow the program's public contract: generator indices are
1-based, words act with the rightmost letter first, and the coefficient of
the class of ``w`` in the characteristic map is the constant term of the
composite divided difference along a reduced word of ``w``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd

# -- integer linear algebra (own elimination) ----------------------------


def det(rows) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(rows) -> int:
    """Rank over Q of an integer matrix given as rows."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


# -- Cartan matrices ------------------------------------------------------


def affine_a(n: int):
    """Rows of the affine A_{n-1} matrix on a cycle of n nodes (n >= 3)."""
    return [
        [2 if i == j else (-1 if (i - j) % n in (1, n - 1) else 0) for j in range(n)]
        for i in range(n)
    ]


def permuted(rows, perm):
    """The matrix with its index set relabelled: new i is old perm[i]."""
    return [[rows[perm[i]][perm[j]] for j in range(len(rows))] for i in range(len(rows))]


def spherical_subsets(rows):
    """Subsets (1-based, sorted) all of whose principal minors are positive."""
    n = len(rows)
    out = []
    for r in range(n + 1):
        for sub in combinations(range(n), r):
            if all(
                det([[rows[i][j] for j in s] for i in s]) > 0
                for k in range(1, r + 1)
                for s in combinations(sub, k)
            ):
                out.append(tuple(i + 1 for i in sub))
    return out


def affine_poset_counts(n: int):
    """Spherical subsets and covers of affine A_{n-1}: all proper subsets."""
    return 2 ** n - 1, n * 2 ** (n - 1) - n


def cyclic_components(subset, n: int):
    """Sizes of the connected components of a proper ``subset`` of the n-cycle."""
    s = set(subset)
    gap = next((i for i in range(1, n + 1) if i not in s), None)
    if gap is None:
        raise ValueError("the full cycle is not of finite type")
    sizes, run = [], 0
    for t in range(1, n + 1):
        if (gap + t - 1) % n + 1 in s:
            run += 1
        elif run:
            sizes.append(run)
            run = 0
    return sizes


def longest_length_type_a(component_sizes) -> int:
    """Length of the longest element of a product of A_k: sum k(k+1)/2."""
    return sum(k * (k + 1) // 2 for k in component_sizes)


# -- Coxeter groups with m = infinity everywhere ---------------------------


def free_reduced_words(gens: int, length: int):
    """Reduced words when every pair of generators has infinite order.

    These are exactly the words with no two equal adjacent letters, and each
    element has exactly one of them: 1, gens, gens*(gens-1), ... elements.
    """
    words = [()]
    for _ in range(length):
        words = [w + (i,) for w in words for i in range(1, gens + 1) if not w or w[-1] != i]
    return sorted(words)


def free_growth(gens: int, length: int) -> int:
    """Number of elements of each length: 1, then gens*(gens-1)^(n-1)."""
    return 1 if length == 0 else gens * (gens - 1) ** (length - 1)


def free_reduce(word):
    """Reduce a word in a group where all generator pairs have infinite order."""
    out = []
    for i in word:
        if out and out[-1] == i:
            out.pop()
        else:
            out.append(i)
    return tuple(out)


def dihedral_leq(u, v) -> bool:
    """Bruhat order of the infinite dihedral group on reduced words."""
    return u == v or len(u) < len(v)


# -- affine permutations: an independent model of affine A_{n-1} ---------


class AffinePerm:
    """Window notation of the affine symmetric group, a model of affine A_{n-1}.

    Program generator i (1-based) is the swap of positions i and i+1 for
    i < n, and generator n swaps positions n and n+1 (the affine node).  On
    the n-cycle Cartan matrix ``affine_a(n)`` generators i and i+1 (mod n)
    are adjacent, which matches these swaps.
    """

    def __init__(self, n: int):
        self.n = n

    def identity(self):
        return tuple(range(1, self.n + 1))

    def value(self, w, k: int) -> int:
        q, r = divmod(k - 1, self.n)
        return w[r] + q * self.n

    def right_mul(self, w, i: int):
        n = self.n
        w = list(w)
        if i < n:
            w[i - 1], w[i] = w[i], w[i - 1]
        else:
            w[0], w[n - 1] = w[n - 1] - n, w[0] + n
        return tuple(w)

    def from_word(self, word):
        w = self.identity()
        for i in word:
            w = self.right_mul(w, i)
        return w

    def compose(self, u, v):
        return tuple(self.value(u, x) for x in v)

    def length(self, w) -> int:
        n = self.n
        return sum(
            abs((w[j] - w[i]) // n) for i in range(n) for j in range(i + 1, n)
        )

    def is_right_descent(self, w, i: int) -> bool:
        return self.value(w, i) > self.value(w, i + 1)

    def levels(self, max_len: int):
        """Elements of each length up to ``max_len``, each with a reduced word."""
        levels = [{self.identity(): ()}]
        for _ in range(max_len):
            nxt = {}
            for w, word in levels[-1].items():
                for i in range(1, self.n + 1):
                    if not self.is_right_descent(w, i):
                        w2 = self.right_mul(w, i)
                        nxt.setdefault(w2, word + (i,))
            levels.append(nxt)
        return levels

    def subword_closure(self, word):
        """All elements given by subwords of a reduced word (its Bruhat ideal)."""
        out = {self.identity()}
        for i in word:
            out |= {self.right_mul(w, i) for w in out}
        return out

    def left_factors(self, w):
        """All u with l(u) + l(u^-1 w) = l(w): closure of w under right descents."""
        found = {w}
        frontier = [w]
        while frontier:
            nxt = []
            for x in frontier:
                for i in range(1, self.n + 1):
                    if self.is_right_descent(x, i):
                        y = self.right_mul(x, i)
                        if y not in found:
                            found.add(y)
                            nxt.append(y)
            frontier = nxt
        return found


# -- polynomials and the characteristic map (own divided differences) ----


def monomial_count(nvars: int, degree: int) -> int:
    """Number of monomials of the given total degree in ``nvars`` variables."""
    return comb(degree + nvars - 1, nvars - 1) if nvars else int(degree == 0)


def standard_roots(rows):
    """Root functionals of the documented standard realization.

    Rows of the matrix, completed greedily by standard covectors of lowest
    index until the stack has full column rank; root j is column j.
    """
    n = len(rows)
    stacked = [list(r) for r in rows]
    for k in range(n):
        if rank(stacked) == n:
            break
        cand = [int(t == k) for t in range(n)]
        if rank(stacked + [cand]) > rank(stacked):
            stacked.append(cand)
    return [tuple(stacked[k][j] for k in range(len(stacked))) for j in range(n)]


def derived_roots(rows):
    n = len(rows)
    return [tuple(rows[k][j] for k in range(n)) for j in range(n)]


def _poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_pow(f, k, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = _poly_mul(out, f)
    return out


def _substitute(f, slot, image, nvars):
    """Replace the variable in ``slot`` by the linear polynomial ``image``."""
    out = {}
    powers = {}
    for e, c in f.items():
        k = e[slot]
        if k not in powers:
            powers[k] = _poly_pow(image, k, nvars)
        rest = tuple(0 if t == slot else x for t, x in enumerate(e))
        for e2, c2 in powers[k].items():
            e3 = tuple(a + b for a, b in zip(rest, e2))
            out[e3] = out.get(e3, 0) + c * c2
    return {e: c for e, c in out.items() if c}


def divided_difference(f, i: int, root, nvars: int):
    """(f - r_i f) / alpha_i by a change of variables, not by long division.

    With coroot h_i the i-th basis vector and alpha_i[i] = 2, write
    u = alpha_i in place of t_i; r_i negates u and fixes the other
    variables, so f - r_i f is twice the odd part in u, and dividing by u
    lowers each odd power by one.  Substituting u = alpha_i back gives the
    result in the original coordinates.
    """
    slot = i - 1
    if root[slot] != 2:
        raise ValueError("this oracle needs alpha_i(h_i) = 2 in slot i")
    rest = {
        tuple(int(t == k) for t in range(nvars)): Fraction(-c, 2)
        for k, c in enumerate(root) if c and k != slot
    }
    # t_i = (u - sum_{k != i} alpha_i[k] t_k) / 2, u stored in slot i
    t_i = dict(rest)
    t_i[tuple(int(t == slot) for t in range(nvars))] = Fraction(1, 2)
    g = _substitute(f, slot, t_i, nvars)
    odd = {}
    for e, c in g.items():
        if e[slot] % 2:
            e2 = tuple(x - 1 if t == slot else x for t, x in enumerate(e))
            odd[e2] = odd.get(e2, 0) + 2 * c
    alpha = {
        tuple(int(t == k) for t in range(nvars)): Fraction(c)
        for k, c in enumerate(root) if c
    }
    return _substitute(odd, slot, alpha, nvars)


def psi_coefficient(f, word, roots, nvars: int) -> int:
    """Coefficient of the class with reduced word ``word`` in psi(f)."""
    g = {tuple(e): Fraction(c) for e, c in f.items()}
    for i in reversed(word):
        g = divided_difference(g, i, roots[i - 1], nvars)
        if not g:
            return 0
    c = g.get((0,) * nvars, Fraction(0))
    if c.denominator != 1:
        raise ArithmeticError(f"non-integral coefficient {c}")
    return c.numerator


def degree_two_values(rows, i: int):
    """psi(alpha_i) = sum_j a[j,i] sigma_{s_j}, as {(j,): a[j,i]} without zeros."""
    return {(j + 1,): rows[j][i - 1] for j in range(len(rows)) if rows[j][i - 1]}


# -- Poincare series ------------------------------------------------------


def peel_factors(image_dims, nvars: int):
    """Exponents d with S(q) (1-q)^n = prod (1 - q^d) in the truncation, or None."""
    bound = len(image_dims) - 1
    f = list(image_dims)
    for _ in range(nvars):
        f = [f[j] - (f[j - 1] if j else 0) for j in range(len(f))]
    if f[0] != 1:
        return None
    factors = []
    for k in range(1, bound + 1):
        while f[k] < 0:
            # divide by (1 - q^k)
            for j in range(k, bound + 1):
                f[j] += f[j - k]
            factors.append(k)
        if f[k] > 0:
            return None
    return tuple(factors)


def series_from_factors(factors, nvars: int, bound: int):
    """Coefficients of prod (1 - q^d) / (1 - q)^n up to q^bound."""
    f = [1] + [0] * bound
    for d in factors:
        f = [f[j] - (f[j - d] if j >= d else 0) for j in range(bound + 1)]
    for _ in range(nvars):
        for j in range(1, bound + 1):
            f[j] += f[j - 1]
    return f


# -- the rank-two sequences and everything built on them ------------------


def cd(a: int, b: int, n_max: int):
    """c_0 = d_0 = 0, c_1 = d_1 = 1, c_{j+1} = a d_j - c_{j-1}, d_{j+1} = b c_j - d_{j-1}."""
    c, d = [0, 1], [0, 1]
    while len(c) <= n_max:
        j = len(c) - 1
        c.append(a * d[j] - c[j - 1])
        d.append(b * c[j] - d[j - 1])
    return c[: n_max + 1], d[: n_max + 1]


def g_sequence(a: int, b: int, n_max: int):
    c, d = cd(a, b, n_max)
    return [gcd(x, y) for x, y in zip(c, d)]


def least_k(a: int, b: int, p: int) -> int:
    """Least k >= 1 with p | g_k, by a direct gcd scan of the recursion."""
    c0, c1, d0, d1 = 0, 1, 0, 1
    k = 1
    while gcd(c1, d1) % p:
        c0, c1, d0, d1 = c1, a * d1 - c0, d1, b * c1 - d0
        k += 1
    return k


def valuation(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def bockstein_identity(a: int, b: int, p: int, s_max: int) -> bool:
    """Whether v_p(g_{sk}) = v_p(s) + v_p(g_k) for all s <= s_max."""
    k = least_k(a, b, p)
    c, d = cd(a, b, s_max * k)
    base = valuation(gcd(c[k], d[k]), p)
    return all(
        valuation(gcd(c[s * k], d[s * k]), p) == valuation(s, p) + base
        for s in range(1, s_max + 1)
    )


def prefix_products(seq):
    """(1, s_1, s_1 s_2, ...): the products the generalized binomials divide."""
    out = [1]
    for x in seq[1:]:
        out.append(out[-1] * x)
    return out


def binomial(prefix, n: int, m: int) -> Fraction:
    """(s_{n+m} ... s_1) / ((s_n ... s_1)(s_m ... s_1)) as a reduced Fraction."""
    return Fraction(prefix[n + m], prefix[n] * prefix[m])


def hopf_dims(a: int, b: int, p: int, n_max: int):
    """Dimension of the mod-p image in degree 2n: 1 iff n = 0 or p | g_n."""
    g = g_sequence(a, b, n_max)
    return [1 if n == 0 or g[n] % p == 0 else 0 for n in range(n_max + 1)]


def product_table(a: int, b: int, n_max: int):
    """All cup-product constants x_m * y_n = P delta_{m+n} + Q tau_{m+n}.

    Built from the degree-2 generator products (delta * delta_k =
    d_{k+1} delta_{k+1}, delta * tau_k = delta_{k+1} + d_k tau_{k+1}, and
    the same with c for tau) and associativity: delta_m = delta *
    delta_{m-1} / d_m and tau_m = tau * tau_{m-1} / c_m.  Returns a dict
    keyed like the program's table: (kind1, m, kind2, n) -> (P, Q).
    """
    c, d = cd(a, b, n_max + 1)

    def gen(kind, vec, k):
        # vec = (P, Q) at degree k; multiply by the degree-2 generator
        p, q = vec
        if kind == "delta":
            return (p * d[k + 1] + q, q * d[k])
        return (p * c[k], q * c[k + 1] + p)

    out = {}
    for k2 in ("delta", "tau"):
        for n in range(1, n_max):
            y = (1, 0) if k2 == "delta" else (0, 1)
            for k1, seq in (("delta", d), ("tau", c)):
                vec = y
                for m in range(1, n_max - n + 1):
                    vec = gen(k1, vec, n + m - 1)
                    if m > 1:
                        if vec[0] % seq[m] or vec[1] % seq[m]:
                            raise ArithmeticError(f"non-integral product at {(k1, m, k2, n)}")
                        vec = (vec[0] // seq[m], vec[1] // seq[m])
                    out[(k1, m, k2, n)] = vec
    return out


def homology_series(a: int, b: int, p: int, deg_max: int):
    """Both sides of the mod-p homology crosscheck, computed independently.

    Side one: (1 + t^3)(1 + t^{2k-1}) / (1 - t^{2k}).  Side two: universal
    coefficients over the integral table, where degrees 2n and 2n+3 carry
    Z/g_n and degrees 0 and 3 carry Z.
    """
    k = least_k(a, b, p)
    side1 = [0] * (deg_max + 1)
    for m in range(deg_max + 1):
        for e1 in (0, 3):
            for e2 in (0, 2 * k - 1):
                rest = m - e1 - e2
                if rest >= 0 and rest % (2 * k) == 0:
                    side1[m] += 1
    g = g_sequence(a, b, deg_max // 2 + 2)

    def torsion(m):
        if m >= 2 and m % 2 == 0:
            return g[m // 2]
        if m >= 5 and m % 2 == 1:
            return g[(m - 3) // 2]
        return 1

    side2 = [
        (1 if m in (0, 3) else 0) + (torsion(m) % p == 0) + (torsion(m + 1) % p == 0)
        for m in range(deg_max + 1)
    ]
    return side1, side2
