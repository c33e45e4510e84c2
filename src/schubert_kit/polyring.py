"""Polynomials on the torus character lattice and the operators on them.

``GradedPolynomial`` is a ``rings.Combination`` of exponent vectors, with a
number of variables, a product and degrees of its own.
``WeightRing`` models the cohomology of the classifying space of the torus:
a polynomial ring on degree-2 generators, one per lattice coordinate of a
chosen realization.  It carries the reflection action ``r_i(t) = t -
t(h_i) * alpha_i`` on linear forms, the divided difference operators
``(f - r_i f) / alpha_i`` written in closed form from the binomial
expansion of ``f`` along the coroot (no division, integer coefficients),
the characteristic homomorphism into the Schubert basis, computed over the
integers by a recursion over right descents one degree at a time, the
ideal of generalized invariants computed degreewise as the kernel of the
integer evaluation matrix (and the image series as its rank, both by the
fraction-free elimination of ``intmat`` through ``linalg``), and the total
Steenrod operation over a prime field.

Internally everything is graded by polynomial degree; the topological
degree ``2d`` appears only at the interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from math import comb
from operator import add

from . import intmat, linalg
from .errors import NotHomogeneous
from .gcm import GeneralizedCartanMatrix, Realization, standard_realization
from .poincare import PoincareSeries
from .rings import Combination, _reduced
from .schubert import SchubertVector, jsonable_terms
from .weyl import enumerate_by_length


class GradedPolynomial(Combination):
    """Sparse polynomial in ``nvars`` variables with exact coefficients,
    keyed by exponent vectors; ``terms`` is the public name of ``coeffs``."""

    __slots__ = ("nvars",)

    def __init__(self, ring, nvars, terms=None):
        self.ring = ring
        self.nvars = nvars
        self.coeffs = {}
        for exps, c in _reduced(ring, terms).items():
            exps = tuple(intmat.as_int(e, "exponent") for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            self.coeffs[exps] = c

    @property
    def terms(self) -> dict:
        return self.coeffs

    def _space(self) -> tuple:
        return (self.ring, self.nvars)

    @classmethod
    def zero(cls, ring, nvars):
        return cls(ring, nvars)

    @classmethod
    def constant(cls, ring, nvars, c):
        return cls(ring, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, ring, nvars, k):
        exps = tuple(1 if t == k else 0 for t in range(nvars))
        return cls(ring, nvars, {exps: ring.one})

    def total_degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def homogeneous_degree(self) -> int:
        """Common degree of all terms; raises NotHomogeneous otherwise."""
        degrees = {sum(e) for e in self.coeffs}
        if len(degrees) > 1:
            raise NotHomogeneous(f"mixed degrees {sorted(degrees)}")
        return degrees.pop() if degrees else 0

    def coefficient(self, exps):
        return self.coeffs.get(tuple(exps), self.ring.zero)

    def support(self):
        return sorted(self.coeffs, key=lambda e: (sum(e), e))

    def _term(self, exps, c) -> str:
        mono = "*".join(f"t{k + 1}" if p == 1 else f"t{k + 1}^{p}"
                        for k, p in enumerate(exps) if p)
        return f"{c}*{mono}" if mono else f"{c}"

    def __mul__(self, other):
        if not isinstance(other, GradedPolynomial):
            return self.scale(other)
        self._check(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return GradedPolynomial(self.ring, self.nvars, out)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int):
        n = intmat.as_int(n, "exponent")
        if n < 0:
            raise ValueError("negative power")
        out = GradedPolynomial.constant(self.ring, self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out


def monomial_exponents(nvars: int, degree: int):
    """All exponent vectors of the given total degree, lexicographic."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    out.sort()
    return out


@dataclass(frozen=True)
class InvariantsReport:
    """Degreewise kernel/image dimensions of the characteristic map.

    ``per_degree`` rows are (topological degree 2d, dim of the kernel
    piece, dim of the image piece); the two always add up to the number of
    degree-d monomials.  ``factor_degrees`` lists the half-degrees d_i when
    the image series times (1 - t^2)^n factors as a product of terms
    (1 - t^{2 d_i}) within the truncation; ``factored`` is False when the
    greedy factorization fails (possibly because the series was truncated
    too early).
    """

    torus_rank: int
    per_degree: tuple[tuple[int, int, int], ...]
    series: PoincareSeries
    factor_degrees: tuple[int, ...] | None
    factored: bool


class WeightRing:
    """Polynomial model of the torus cohomology with its operator calculus.

    Holds a coefficient ring and a lattice realization.  Caches, for the
    life of the instance, two tables: the integer images of monomials degree
    by degree, which the characteristic map and the invariants both read,
    and the expansions behind the operators (confine one instance to one
    thread, or guard it externally).
    """

    def __init__(self, gcm: GeneralizedCartanMatrix, ring,
                 realization: Realization | None = None):
        self.gcm = gcm
        self.ring = ring
        self.realization = realization if realization is not None else standard_realization(gcm)
        self.nvars = self.realization.torus_rank
        self._moves = [[(k, p) for k, p in enumerate(c) if p]
                       for c in self.realization.coroots]
        self._neg_root = [[(k, -a) for k, a in enumerate(r) if a]
                          for r in self.realization.root_functionals]
        self._shifts: dict[tuple[int, ...], list] = {}
        self._images: list[tuple[list, dict[tuple[int, ...], list[int]]]] = []

    # -- constructors -------------------------------------------------

    def zero(self) -> GradedPolynomial:
        return GradedPolynomial.zero(self.ring, self.nvars)

    def one(self) -> GradedPolynomial:
        return GradedPolynomial.constant(self.ring, self.nvars, 1)

    def constant(self, c) -> GradedPolynomial:
        return GradedPolynomial.constant(self.ring, self.nvars, c)

    def gen(self, k: int) -> GradedPolynomial:
        """The k-th lattice coordinate as a degree-1 generator (1-based)."""
        k = intmat.as_int(k, "variable index")
        if not 1 <= k <= self.nvars:
            raise ValueError(f"variable index {k} out of range 1..{self.nvars}")
        return GradedPolynomial.variable(self.ring, self.nvars, k - 1)

    def from_covector(self, coords) -> GradedPolynomial:
        terms = {}
        for k, c in enumerate(coords):
            if c:
                exps = tuple(1 if t == k else 0 for t in range(self.nvars))
                terms[exps] = c
        return GradedPolynomial(self.ring, self.nvars, terms)

    def coroot_dual(self, i: int) -> GradedPolynomial:
        """The fixed dual of the i-th coroot, as a linear polynomial."""
        return self.from_covector(self.realization.dual_basis[self.gcm.generator(i) - 1])

    def root(self, i: int) -> GradedPolynomial:
        """The i-th simple root, as a linear polynomial."""
        return self.from_covector(self.realization.root_functionals[self.gcm.generator(i) - 1])

    def monomial(self, exps, c=1) -> GradedPolynomial:
        return GradedPolynomial(self.ring, self.nvars, {tuple(exps): c})

    def from_terms(self, pairs) -> GradedPolynomial:
        acc = {}
        for exps, c in pairs:
            exps = tuple(intmat.as_int(e, "exponent") for e in exps)
            acc[exps] = acc.get(exps, 0) + self.ring.promote(c)
        return GradedPolynomial(self.ring, self.nvars, acc)

    # -- the reflection action and divided differences ----------------

    def _shift_sum(self, i, terms, start):
        """Sum over j >= start of (-alpha_i)^(j - start) * D_j f.

        ``D_j f`` is the coefficient of s^j in f(t + s p), where p pairs the
        lattice coordinates with the i-th coroot, so r_i f = f(t - alpha_i p)
        is the sum from ``start`` = 0 and the divided difference is the sum
        from ``start`` = 1.  Coefficients only meet integers, so integral
        input gives integral output for any realization.  Coordinates with
        p_k = 0 do not move, so each monomial is its fixed part times the
        sum for its moved part, which is computed once per instance.
        """
        moves = self._moves[i - 1]
        out = {}
        for e, c in terms.items():
            key = (i, start) + tuple(e[k] for k, _ in moves)
            moved = self._shifts.get(key)
            if moved is None:
                moved = self._shifts[key] = self._expand_moved(i, key[2:], start)
            fixed = list(e)
            for k, _ in moves:
                fixed[k] = 0
            for e2, c2 in moved:
                e2 = tuple(map(add, fixed, e2))
                out[e2] = out.get(e2, 0) + c * c2
        return {e: c for e, c in out.items() if c}

    def _expand_moved(self, i, exps, start):
        """``_shift_sum`` of the monomial with exponents ``exps`` on the moved
        coordinates: the binomial expansions D_j, summed by Horner's rule."""
        shifted = [(0, (0,) * self.nvars, 1)]
        for (k, pk), ek in zip(self._moves[i - 1], exps):
            shifted = [
                (j + a, e[:k] + (ek - a,) + e[k + 1:], c * comb(ek, a) * pk ** a)
                for j, e, c in shifted
                for a in range(ek + 1)
            ]
        parts = [{} for _ in range(sum(exps) + 1 - start)]
        for j, e, c in shifted:
            if j >= start:
                parts[j - start][e] = c
        acc = {}
        for part in reversed(parts):
            for e, c in acc.items():
                for k, a in self._neg_root[i - 1]:
                    e2 = e[:k] + (e[k] + 1,) + e[k + 1:]
                    part[e2] = part.get(e2, 0) + a * c
            acc = part
        return [(e, c) for e, c in acc.items() if c]

    def weyl_act(self, i: int, f: GradedPolynomial) -> GradedPolynomial:
        """The ring involution induced by the i-th simple reflection.

        r_i moves each coordinate t_k to t_k - p_k alpha_i, where p_k is its
        pairing with the i-th coroot; the image is the sum over j of
        (-alpha_i)^j D_j f, with D_j f the coefficient of s^j in f(t + s p).
        """
        self._own(f)
        return GradedPolynomial(self.ring, self.nvars,
                                self._shift_sum(self.gcm.generator(i), f.coeffs, 0))

    def divided_difference(self, i: int, f: GradedPolynomial) -> GradedPolynomial:
        """(f - r_i f) / alpha_i, in closed form without division.

        With D_j f as in ``weyl_act``, the quotient is the sum over j >= 1 of
        (-1)^(j+1) alpha_i^(j-1) D_j f.  Every coefficient is an integer
        combination of the coefficients of f, so the operator commutes with
        reducing integer coefficients mod p and is the same over Z, Q and F_p.
        """
        self._own(f)
        return GradedPolynomial(self.ring, self.nvars,
                                self._shift_sum(self.gcm.generator(i), f.coeffs, 1))

    def operator_word(self, word, f: GradedPolynomial) -> GradedPolynomial:
        """Composite divided difference along a word (rightmost acts first).

        Every letter is checked, also those after the result becomes zero.
        """
        out = f
        for i in reversed([self.gcm.generator(i) for i in word]):
            out = self.divided_difference(i, out)
            if out.is_zero():
                break
        return out

    # -- the characteristic homomorphism ------------------------------

    def characteristic_map(self, f: GradedPolynomial) -> SchubertVector:
        """Image of a homogeneous polynomial in the Schubert basis.

        The coefficient of the class of ``w`` (length d = deg f) is the
        degree-0 part of the composite divided difference along a reduced
        word of ``w``.  So for any right descent ``i`` of ``w`` it is the
        coefficient of ``w r_i`` in the image of the divided difference
        A_i f, which has degree d - 1: the images of the monomials are one
        table over the integers (see ``_integer_images``), and f's rows are
        combined and reduced into the coefficient ring once.
        """
        self._own(f)
        if f.is_zero():
            return SchubertVector.zero(self.ring)
        elements, images = self._integer_images(f.homogeneous_degree())
        row = [0] * len(elements)
        for exps, c in f.coeffs.items():
            for k, x in enumerate(images[exps]):
                row[k] += c * x
        return SchubertVector(self.ring, dict(zip(elements, row)))

    def _integer_images(self, degree: int):
        """The length-``degree`` elements, and the integer images on them of
        every monomial of that degree.

        The images map each exponent vector to its coefficients on the
        elements, in order, and are computed degree by degree and kept for
        the life of the instance.  The last letter i of the lex-least word
        of ``w`` is a right descent, and ``w r_i`` is that word without its
        last letter (a prefix of a lex-least reduced word is lex-least), so
        each element records i and the index of ``w r_i`` one level down,
        and psi(m)[w] = sum over m' of coeff(A_i m, m') * psi(m')[w r_i].
        Over F_p the values are reduced at every degree.
        """
        images, p = self._images, self.ring.char
        if len(images) <= degree:
            levels = enumerate_by_length(self.gcm, degree)
            if not images:
                images.append((levels[0], {(0,) * self.nvars: [1]}))
            for d in range(len(images), degree + 1):
                prev = images[d - 1][1]
                index = {w.word: k for k, w in enumerate(levels[d - 1])}
                table = [(w.word[-1], index[w.word[:-1]]) for w in levels[d]]
                descents = {i for i, _ in table}
                level = {}
                for m in monomial_exponents(self.nvars, d):
                    diffs = {i: [(prev[e], c) for e, c in self._shift_sum(i, {m: 1}, 1).items()]
                             for i in descents}
                    row = [sum(c * vec[k] for vec, c in diffs[i]) for i, k in table]
                    level[m] = [x % p for x in row] if p else row
                images.append((levels[d], level))
        return images[degree]

    # -- generalized invariants ----------------------------------------

    def _evaluation_matrix(self, half_degree: int):
        """Rows indexed by length-d elements, columns by degree-d monomials.

        The entries are the integer images of ``_integer_images``, already
        reduced mod p over F_p, read straight into ``linalg``.
        """
        monos = monomial_exponents(self.nvars, half_degree)
        images = self._integer_images(half_degree)[1]
        return monos, list(zip(*(images[m] for m in monos)))

    def generalized_invariants(self, degree: int):
        """Kernel of the characteristic map in one topological degree.

        Returns (dimension, basis polynomials).  Requires a field.
        """
        half = self._half(degree)
        if not self.ring.is_field:
            raise ValueError("generalized invariants require field coefficients")
        monos, matrix = self._evaluation_matrix(half)
        basis = linalg.kernel_basis(matrix, len(monos), self.ring)
        polys = [
            GradedPolynomial(self.ring, self.nvars, dict(zip(monos, vec)))
            for vec in basis
        ]
        return len(polys), polys

    def s_poincare(self, max_degree: int) -> InvariantsReport:
        """Image dimensions of the characteristic map, degree by degree.

        Also attempts the greedy factorization of the image series times
        (1 - t^2)^n as a product of terms (1 - t^{2 d_i}), peeling from the
        lowest degree; failure sets ``factored`` to False (the series may
        simply be truncated too early).
        """
        if not self.ring.is_field:
            raise ValueError("the image series requires field coefficients")
        half_max = self._half(max_degree)
        per_degree = []
        image_dims = []
        for d in range(half_max + 1):
            monos, matrix = self._evaluation_matrix(d)
            r = linalg.rank(matrix, self.ring)
            per_degree.append((2 * d, len(monos) - r, r))
            image_dims.append(r)
        factors, factored = _peel_factors(image_dims, self.nvars)
        return InvariantsReport(
            torus_rank=self.nvars,
            per_degree=tuple(per_degree),
            series=PoincareSeries.from_even_dims(image_dims),
            factor_degrees=factors,
            factored=factored,
        )

    # -- Steenrod ------------------------------------------------------

    def total_steenrod(self, f: GradedPolynomial) -> GradedPolynomial:
        """The ring endomorphism sending every generator t to t + t^p."""
        self._own(f)
        p = self._prime()
        out = {}
        for exps, c in f.coeffs.items():
            options = []
            for e in exps:
                options.append(
                    [(e + j * (p - 1), comb(e, j) % p) for j in range(e + 1)
                     if comb(e, j) % p]
                )
            for combo in iter_product(*options):
                e2 = tuple(x[0] for x in combo)
                coef = c
                for x in combo:
                    coef = coef * x[1] % p
                out[e2] = out.get(e2, 0) + coef
        return GradedPolynomial(self.ring, self.nvars, out)

    def steenrod_commutation_check(self, i: int, f: GradedPolynomial) -> bool:
        """Exact check of A_i(P(f)) = (1 + alpha_i^(p-1)) * P(A_i(f))."""
        p = self._prime()
        i = self.gcm.generator(i)
        lhs = self.divided_difference(i, self.total_steenrod(f))
        factor = self.one() + self.root(i) ** (p - 1)
        rhs = factor * self.total_steenrod(self.divided_difference(i, f))
        return lhs == rhs

    # -- serialization ---------------------------------------------------

    def from_jsonable(self, data) -> GradedPolynomial:
        """The polynomial of a JSON list of ``{exponents, coefficient}``
        objects; raises ValueError for any other payload (see
        ``schubert.jsonable_terms``)."""
        return self.from_terms(jsonable_terms(data, "exponents"))

    # -- internals -------------------------------------------------------

    def _own(self, f: GradedPolynomial):
        if f.ring != self.ring or f.nvars != self.nvars:
            raise ValueError("polynomial does not belong to this ring")

    def _half(self, degree: int) -> int:
        if degree < 0 or degree % 2:
            raise ValueError("topological degree must be even and non-negative")
        return degree // 2

    def _prime(self) -> int:
        if self.ring.char == 0:
            raise ValueError("Steenrod operations require a prime field")
        return self.ring.char


def _peel_factors(image_dims, nvars):
    """Greedy factorization of S(q) * (1-q)^n as a product of (1 - q^k)."""
    bound = len(image_dims) - 1
    f = list(image_dims)
    for _ in range(nvars):
        f = [f[j] - (f[j - 1] if j else 0) for j in range(len(f))]
    factors = []
    for k in range(1, bound + 1):
        while f[k] < 0:
            for j in range(k, bound + 1):
                f[j] += f[j - k]
            factors.append(k)
        if f[k] > 0:
            return None, False
    return tuple(factors), True
