"""The in-process workloads: inputs from a seed, timed calls, oracle checks.

Each workload has three steps.  ``setup`` parses matrices and builds
realizations, models and the seeded inputs; it is part of ``setup_s``.
``run`` makes the timed calls into the program through a ``Round``, which
counts every call as one attempted operation and a call that raises as a
failed one.  ``check`` compares every result with ``oracles`` or with a
property the mathematics forces, and never calls the program.

The program is reached through module attributes at call time (for example
``sk.weyl.bruhat_leq``), so the timing wrappers of a traced run see every
call.  The seed changes which inputs are drawn, never how many, so every
round of a workload attempts the same number of operations.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import contextmanager
from itertools import combinations

import oracles as O
import speed

A2_TEXT = "2,-1,-1;-1,2,-1;-1,-1,2"
R23_TEXT = "2,-2;-3,2"
HYPERBOLIC_TEXT = "2,-2,-2;-2,2,-2;-2,-2,2"
DIHEDRAL_TEXT = "2,-2;-2,2"

FAILED = object()
PROBE_EVERY_S = 0.025  # speed probes between operations, at most this often


class Round:
    """Counts operations, times named groups of them, collects check failures.

    ``segments`` maps a group name to (wall s, cpu s, probe s): the group's
    time without the probes, and the mean of the speed probes run when it
    starts, when it ends and between its operations.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.segments: dict[str, tuple[float, float, float]] = {}
        self.first_probe_s = None
        self._probes = None
        self._probe_wall = self._probe_cpu = self._last_probe = 0.0

    def _probe(self):
        t0, c0 = time.perf_counter(), time.process_time()
        self._probes.append(speed.probe())
        self._last_probe = time.perf_counter()
        return self._last_probe - t0, time.process_time() - c0

    @contextmanager
    def segment(self, name):
        if name in self.segments:
            raise ValueError(f"segment {name!r} timed twice")
        self._probes = []
        self._probe_wall = self._probe_cpu = 0.0
        self._probe()
        if self.first_probe_s is None:
            self.first_probe_s = self._probes[0]
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0 - self._probe_wall
            cpu = time.process_time() - c0 - self._probe_cpu
            self._probe()
            self.segments[name] = (wall, cpu, statistics.fmean(self._probes))
            self._probes = None

    def call(self, fn, *args):
        if self._probes is not None and time.perf_counter() - self._last_probe > PROBE_EVERY_S:
            wall, cpu = self._probe()
            self._probe_wall += wall
            self._probe_cpu += cpu
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            self.failed += 1
            self.failures.append(f"{getattr(fn, '__name__', fn)}{args!r:.120}: {exc!r}")
            return FAILED

    def expect(self, ok, what):
        if not ok:
            self.errors.append(what)


def exponents(nvars: int, degree: int):
    """All exponent vectors of one total degree, in lexicographic order."""
    if nvars == 1:
        return [(degree,)]
    return sorted(
        (e,) + rest for e in range(degree + 1) for rest in exponents(nvars - 1, degree - e)
    )


def as_words(vec):
    """A Schubert vector as {word: coefficient}; Fractions compare equal to ints."""
    return {w.word: c for w, c in vec.coeffs.items()}


def matrix_rows(text):
    return [[int(x) for x in row.split(",")] for row in text.split(";")]


def random_coefficient(rng):
    return rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])


# -- invariants ---------------------------------------------------------------


class Invariants:
    """Image series of the characteristic map, with seeded identities.

    Rank two (2,3) over Q, F2, F3 and affine A2 in both realizations.  The
    seeded part draws polynomials for the nil_a commutation check, monomial
    pairs for multiplicativity against the Leibniz solver, and monomials
    whose images are compared with the oracle's own divided differences.
    """

    SERIES = (  # (matrix, ring, realization, topological degree bound)
        (R23_TEXT, "Q", "standard", 20),
        (R23_TEXT, "F2", "standard", 24),
        (R23_TEXT, "F3", "standard", 24),
        (A2_TEXT, "Q", "standard", 8),
        (A2_TEXT, "F2", "derived", 10),
    )
    COMMUTE = 8  # random homogeneous polynomials per model
    PAIRS = 12  # monomial pairs per ring for multiplicativity
    SAMPLES = 4  # monomials per model checked against the oracle's psi

    def setup(self, sk, rng):
        inp = {"models": []}
        for text, ring_name, real, bound in self.SERIES:
            g = sk.gcm.parse_gcm(text)
            ring = sk.rings.parse_ring(ring_name)
            realization = (sk.gcm.derived_realization(g) if real == "derived"
                           else sk.gcm.standard_realization(g))
            model = sk.polyring.WeightRing(g, ring, realization)
            polys = []
            for k in range(self.COMMUTE):
                deg = 1 + k % 4
                monos = exponents(model.nvars, deg)
                picked = rng.sample(monos, min(3, len(monos)))
                polys.append(model.from_terms((e, random_coefficient(rng)) for e in picked))
            samples = [rng.choice(exponents(model.nvars, 1 + k % 4)) for k in range(self.SAMPLES)]
            inp["models"].append({
                "text": text, "ring": ring, "real": real, "bound": bound, "model": model,
                "polys": polys, "samples": samples,
                "sample_polys": [model.monomial(e) for e in samples],
            })
        pairs = []
        while len(pairs) < self.PAIRS:
            d1, d2 = rng.randint(1, 6), rng.randint(1, 4)
            pairs.append((rng.choice(exponents(2, d1)), rng.choice(exponents(2, d2))))
        inp["pairs"] = pairs
        inp["mult_models"] = [m for m in inp["models"][:3] if m["ring"].name in ("Q", "F3")]
        for m in inp["mult_models"]:
            m["pair_polys"] = [
                (m["model"].monomial(e1), m["model"].monomial(e2),
                 m["model"].monomial(tuple(x + y for x, y in zip(e1, e2))))
                for e1, e2 in pairs
            ]
        inp["g23"] = inp["models"][0]["model"].gcm
        return inp

    def run(self, sk, inp, rnd):
        out = {"reports": [], "roots": [], "commute": [], "samples": [], "mult": []}
        for m in inp["models"]:
            with rnd.segment(f"s_poincare {m['text']} {m['ring'].name} {m['real']}"):
                out["reports"].append(rnd.call(m["model"].s_poincare, m["bound"]))
        with rnd.segment("identities"):
            for m in inp["models"]:
                model = m["model"]
                out["roots"].append([
                    rnd.call(model.characteristic_map, rnd.call(model.root, i))
                    for i in range(1, model.gcm.size + 1)
                ])
                rows = []
                for f in m["polys"]:
                    image = rnd.call(model.characteristic_map, f)
                    for i in range(1, model.gcm.size + 1):
                        lhs = rnd.call(model.characteristic_map, rnd.call(model.divided_difference, i, f))
                        rhs = rnd.call(sk.schubert.nil_a, i, image)
                        rows.append((lhs, rhs))
                out["commute"].append(rows)
                out["samples"].append([rnd.call(model.characteristic_map, f) for f in m["sample_polys"]])
        with rnd.segment("multiplicativity"):
            table = rnd.call(sk.ranktwo.leibniz_cup_solver, 2, 3, 10)
            for m in inp["mult_models"]:
                model = m["model"]
                for f1, f2, f12 in m["pair_polys"]:
                    lhs = rnd.call(model.characteristic_map, f12)
                    rhs = rnd.call(sk.ranktwo.cup_schubert, table, inp["g23"],
                                   rnd.call(model.characteristic_map, f1),
                                   rnd.call(model.characteristic_map, f2))
                    out["mult"].append((lhs, rhs))
        return out

    def check(self, inp, out, rnd):
        for m, report in zip(inp["models"], out["reports"]):
            if report is FAILED:
                continue
            tag = f"s_poincare({m['text']}, {m['ring'].name}, {m['real']}, {m['bound']})"
            rows = matrix_rows(m["text"])
            n = len(rows)
            nvars = n if m["real"] == "derived" else 2 * n - O.rank(rows)
            rnd.expect(report.torus_rank == nvars, f"{tag}: torus rank {report.torus_rank} != {nvars}")
            dims = [row[2] for row in report.per_degree]
            rnd.expect(len(dims) == m["bound"] // 2 + 1, f"{tag}: {len(dims)} degrees")
            for deg, dim_j, dim_s in report.per_degree:
                rnd.expect(dim_j + dim_s == O.monomial_count(nvars, deg // 2),
                           f"{tag}: kernel + image != monomials in degree {deg}")
            if n == 2 and m["ring"].name == "Q":
                rnd.expect(dims == [1] + [2] * (len(dims) - 1), f"{tag}: image series {dims}")
            factors = O.peel_factors(dims, nvars)
            rnd.expect(factors is not None
                       and O.series_from_factors(factors, nvars, len(dims) - 1) == dims,
                       f"{tag}: image series {dims} does not factor")
            rnd.expect(report.factored and report.factor_degrees == factors,
                       f"{tag}: factor degrees {report.factor_degrees} != {factors}")
            rnd.expect(list(report.series.coeffs[::2]) == dims
                       and not any(report.series.coeffs[1::2]), f"{tag}: series coefficients")
        for m, images in zip(inp["models"], out["roots"]):
            rows = matrix_rows(m["text"])
            p = m["ring"].char
            for i, image in enumerate(images, start=1):
                if image is FAILED:
                    continue
                want = {w: c % p if p else c for w, c in O.degree_two_values(rows, i).items()}
                want = {w: c for w, c in want.items() if c}
                rnd.expect(as_words(image) == want,
                           f"psi(alpha_{i}) on {m['text']} over {m['ring'].name}: {as_words(image)} != {want}")
        for m, rows in zip(inp["models"], out["commute"]):
            for k, (lhs, rhs) in enumerate(rows):
                if FAILED not in (lhs, rhs):
                    rnd.expect(lhs == rhs, f"psi(A_i f) != a_i psi(f) on {m['text']} over {m['ring'].name}, case {k}")
        for k, (lhs, rhs) in enumerate(out["mult"]):
            if FAILED not in (lhs, rhs):
                rnd.expect(lhs == rhs, f"psi not multiplicative against the Leibniz table, case {k}")
        for m, images in zip(inp["models"], out["samples"]):
            rows = matrix_rows(m["text"])
            roots = O.derived_roots(rows) if m["real"] == "derived" else O.standard_roots(rows)
            for e, image in zip(m["samples"], images):
                if image is not FAILED:
                    want = psi_oracle(rows, roots, {e: 1}, sum(e), m["ring"].char)
                    got = {element_key(rows, w): c for w, c in as_words(image).items()}
                    rnd.expect(got == want,
                               f"psi(t^{e}) on {m['text']} over {m['ring'].name}: {as_words(image)} != {want}")


def element_key(rows, word):
    """A key that identifies a group element independently of the program.

    Rank two with ab >= 4 has unique reduced words; affine A2 elements are
    affine permutations.
    """
    return tuple(word) if len(rows) == 2 else O.AffinePerm(len(rows)).from_word(word)


def psi_oracle(rows, roots, poly, degree, p):
    """{element key: coefficient} of psi(poly) from the oracle's divided differences."""
    nvars = len(roots[0])
    if len(rows) == 2:
        words = O.free_reduced_words(2, degree)
    else:
        words = O.AffinePerm(len(rows)).levels(degree)[degree].values()
    out = {}
    for word in words:
        c = O.psi_coefficient(poly, word, roots, nvars)
        if p:
            c %= p
        if c:
            out[element_key(rows, word)] = c
    return out


# -- coxeter --------------------------------------------------------------------


class Coxeter:
    """Weyl-group enumeration, Bruhat order, coproducts and parabolic data.

    The seed relabels the affine A_7 matrix by a random permutation (the
    spherical poset is the same up to labels, so the cost is too), picks
    which parabolic subsets of fixed shapes are used, and draws the words
    compared on the infinite dihedral group.
    """

    HYPERBOLIC_LEN = 10
    A2_LEN = 5
    R23_LEN = 20
    POSET_N = 8  # affine A_7
    LONGEST_SHAPES = ((3,), (2, 2, 1), (2, 1))
    COSET_LEN = 6
    DIHEDRAL_PAIRS = 40

    def setup(self, sk, rng):
        n = self.POSET_N
        perm = list(range(n))
        rng.shuffle(perm)
        poset_rows = O.permuted(O.affine_a(n), perm)
        new_label = {perm[i] + 1: i + 1 for i in range(n)}  # cycle node -> program index
        longest = []
        for shape in self.LONGEST_SHAPES:
            start = rng.randrange(n)
            nodes, pos = [], start
            for size in shape:
                nodes += [(pos + t) % n + 1 for t in range(size)]
                pos += size + 1
            longest.append((sorted(new_label[c] for c in nodes), O.cyclic_components(nodes, n)))
        dihedral = []
        for _ in range(self.DIHEDRAL_PAIRS):
            dihedral.append(tuple(
                tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 9))) for _ in range(2)
            ))
        return {
            "H": sk.gcm.parse_gcm(HYPERBOLIC_TEXT),
            "A2": sk.gcm.parse_gcm(A2_TEXT),
            "R23": sk.gcm.parse_gcm(R23_TEXT),
            "D": sk.gcm.parse_gcm(DIHEDRAL_TEXT),
            "poset": sk.gcm.validate_gcm(poset_rows),
            "longest": longest,
            "coset_subset": rng.choice([(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]),
            "dihedral": dihedral,
        }

    def run(self, sk, inp, rnd):
        weyl, schubert = sk.weyl, sk.schubert
        out = {}
        with rnd.segment("hyperbolic enumeration"):
            out["hyperbolic"] = rnd.call(weyl.enumerate_by_length, inp["H"], self.HYPERBOLIC_LEN)
        with rnd.segment("affine A2 enumeration and Bruhat order"):
            levels = rnd.call(weyl.enumerate_by_length, inp["A2"], self.A2_LEN)
            out["a2_levels"] = levels
            elems = [w for level in levels for w in level] if levels is not FAILED else []
            out["bruhat"] = {(u, v): rnd.call(weyl.bruhat_leq, u, v) for u in elems for v in elems}
        with rnd.segment("affine A2 coproducts"):
            out["a2_coproducts"] = {w: rnd.call(schubert.peterson_coproduct, w) for w in elems}
        with rnd.segment("rank-two coproducts"):
            r23 = rnd.call(weyl.enumerate_by_length, inp["R23"], self.R23_LEN)
            out["r23_levels"] = r23
            r23_elems = [w for level in r23 for w in level] if r23 is not FAILED else []
            out["r23_coproducts"] = {w: rnd.call(schubert.peterson_coproduct, w) for w in r23_elems}
        with rnd.segment("spherical poset"):
            out["poset"] = rnd.call(sk.gcm.spherical_poset, inp["poset"])
        with rnd.segment("parabolic"):
            out["longest"] = [rnd.call(weyl.longest_element, inp["poset"], subset)
                              for subset, _sizes in inp["longest"]]
            out["cosets"] = rnd.call(weyl.min_coset_reps, inp["A2"], inp["coset_subset"], self.COSET_LEN)
            out["dihedral"] = []
            for uw, vw in inp["dihedral"]:
                u = rnd.call(weyl.from_word, inp["D"], uw)
                v = rnd.call(weyl.from_word, inp["D"], vw)
                leq = rnd.call(weyl.bruhat_leq, u, v) if FAILED not in (u, v) else FAILED
                out["dihedral"].append((u, v, leq))
        return out

    def check(self, inp, out, rnd):
        hyp = out["hyperbolic"]
        if hyp is not FAILED:
            for n, level in enumerate(hyp):
                words = sorted(w.word for w in level)
                rnd.expect(len(level) == O.free_growth(3, n), f"hyperbolic level {n}: {len(level)} elements")
                rnd.expect(words == O.free_reduced_words(3, n), f"hyperbolic level {n}: words differ")
        ap = O.AffinePerm(3)
        window = {}
        if out["a2_levels"] is not FAILED:
            want = ap.levels(self.A2_LEN)
            for n, level in enumerate(out["a2_levels"]):
                rnd.expect(len(level) == 3 * n if n else len(level) == 1, f"affine A2 level {n}: {len(level)}")
                got = {}
                for w in level:
                    win = ap.from_word(w.word)
                    rnd.expect(ap.length(win) == n == w.length == len(w.word), f"affine A2 word {w.word} not reduced")
                    got[win] = w
                rnd.expect(set(got) == set(want[n]), f"affine A2 level {n}: elements differ")
                window.update({w: win for win, w in got.items()})
        ideal = {w: ap.subword_closure(w.word) for w in window}
        for (u, v), leq in out["bruhat"].items():
            if leq is not FAILED:
                rnd.expect(leq == (window[u] in ideal[v]), f"bruhat_leq({u.word}, {v.word}) = {leq}")
        self._check_coproducts(rnd, out["a2_coproducts"], window, ap)
        r23_window = {}
        if out["r23_levels"] is not FAILED:
            for n, level in enumerate(out["r23_levels"]):
                words = sorted(w.word for w in level)
                rnd.expect(len(level) == O.free_growth(2, n), f"rank-two level {n}: {len(level)}")
                rnd.expect(words == O.free_reduced_words(2, n), f"rank-two level {n}: words differ")
                r23_window.update({w: w.word for w in level})
        for w, cop in out["r23_coproducts"].items():
            if cop is FAILED:
                continue
            rnd.expect(len(cop.coeffs) == w.length + 1, f"rank-two coproduct of {w.word}: {len(cop.coeffs)} terms")
            rnd.expect(all(u.word + v.word == w.word for (u, v) in cop.coeffs),
                       f"rank-two coproduct of {w.word}: a term is not a split of the word")
        self._check_coassociative(rnd, out["r23_coproducts"])
        poset = out["poset"]
        if poset is not FAILED:
            n = self.POSET_N
            subsets, covers = O.affine_poset_counts(n)
            proper = {s for r in range(n) for s in combinations(range(1, n + 1), r)}
            rnd.expect(len(poset.subsets) == subsets and set(poset.subsets) == proper,
                       f"affine A_{n - 1} poset: {len(poset.subsets)} subsets, want {subsets}")
            rnd.expect(len(poset.covers) == covers
                       and all(set(a) < set(b) and len(b) == len(a) + 1 for a, b in poset.covers),
                       f"affine A_{n - 1} poset: {len(poset.covers)} covers, want {covers}")
        for (subset, sizes), w in zip(inp["longest"], out["longest"]):
            if w is not FAILED:
                want = O.longest_length_type_a(sizes)
                rnd.expect(w.length == want == len(w.word) and set(w.word) <= set(subset),
                           f"longest element of {subset}: length {w.length}, want {want}")
        if out["cosets"] is not FAILED:
            subset = inp["coset_subset"]
            want = {w for level in ap.levels(self.COSET_LEN) for w in level
                    if not any(ap.is_right_descent(w, j) for j in subset)}
            got = [ap.from_word(w.word) for w in out["cosets"]]
            rnd.expect(len(got) == len(set(got)) and set(got) == want,
                       f"min_coset_reps({subset}): {len(got)} found, {len(want)} expected")
        for (uw, vw), (u, v, leq) in zip(inp["dihedral"], out["dihedral"]):
            if FAILED in (u, v, leq):
                continue
            ru, rv = O.free_reduce(uw), O.free_reduce(vw)
            rnd.expect(u.word == ru and v.word == rv, f"dihedral words {uw}, {vw} reduce wrongly")
            rnd.expect(leq == O.dihedral_leq(ru, rv), f"dihedral bruhat_leq({ru}, {rv}) = {leq}")

    def _check_coproducts(self, rnd, coproducts, window, ap):
        for w, cop in coproducts.items():
            if cop is FAILED:
                continue
            win = window.get(w)
            if win is None:
                rnd.expect(False, f"coproduct of {w.word}: element not enumerated")
                continue
            lefts = set()
            for (u, v), c in cop.coeffs.items():
                uw, vw = ap.from_word(u.word), ap.from_word(v.word)
                rnd.expect(c == 1 and ap.compose(uw, vw) == win
                           and ap.length(uw) + ap.length(vw) == w.length,
                           f"coproduct of {w.word}: bad term {u.word} (x) {v.word}")
                lefts.add(uw)
            rnd.expect(lefts == ap.left_factors(win) and len(cop.coeffs) == len(lefts),
                       f"coproduct of {w.word}: {len(cop.coeffs)} terms, want {len(ap.left_factors(win))}")
        self._check_coassociative(rnd, coproducts)

    @staticmethod
    def _check_coassociative(rnd, coproducts):
        for w, cop in coproducts.items():
            if cop is FAILED:
                continue
            units = [(u, v) for (u, v) in cop.coeffs if u.length == 0]
            counits = [(u, v) for (u, v) in cop.coeffs if v.length == 0]
            rnd.expect(len(units) == 1 and units[0][1] == w and len(counits) == 1 and counits[0][0] == w,
                       f"coproduct of {w.word}: counit fails")
            left, right = {}, {}
            for (u, v), c in cop.coeffs.items():
                cu, cv = coproducts.get(u), coproducts.get(v)
                if cu is None or cv is None or FAILED in (cu, cv):
                    rnd.expect(False, f"coproduct of {w.word}: factor coproduct missing")
                    return
                for (x, y), e in cu.coeffs.items():
                    left[(x, y, v)] = left.get((x, y, v), 0) + c * e
                for (x, y), e in cv.coeffs.items():
                    right[(u, x, y)] = right.get((u, x, y), 0) + c * e
            rnd.expect(left == right, f"coproduct of {w.word}: not coassociative")


# -- rank2 ------------------------------------------------------------------------


def prime_grid():
    """The prime-order grid: 1 <= a, b <= 8 with ab >= 4, nine primes."""
    return [(a, b, p) for a in range(1, 9) for b in range(1, 9) if a * b >= 4
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)]


class RankTwo:
    """The rank-two theory: Leibniz tables, prime orders, valuations, binomials.

    The seed swaps (a, b) in the Leibniz pairs (the tables of (a, b) and
    (b, a) cost the same), draws the pairs whose c/d/g tables are checked,
    and orders the mod-p Hopf checks.
    """

    LEIBNIZ = ((2, 3, 120), (1, 5, 80), (3, 3, 100), (2, 2, 60))
    SCAN_N = 200
    BOCKSTEIN_S = 30
    BINOMIAL_AB, BINOMIAL_N = 10, 40
    HOPF = ((2, 2, 2), (2, 2, 3), (2, 3, 3), (1, 5, 2))
    TABLES, TABLE_N = 10, 200

    def setup(self, sk, rng):
        leibniz = [(b, a, n) if rng.random() < 0.5 else (a, b, n) for a, b, n in self.LEIBNIZ]
        hopf = list(self.HOPF)
        rng.shuffle(hopf)
        tables = []
        while len(tables) < self.TABLES:
            a, b = rng.randint(1, 40), rng.randint(1, 40)
            if a * b >= 4:
                tables.append((a, b))
        return {"leibniz": leibniz, "hopf": hopf, "tables": tables, "grid": prime_grid()}

    def run(self, sk, inp, rnd):
        r2 = sk.ranktwo
        out = {"leibniz": []}
        for k, (a, b, n) in enumerate(inp["leibniz"]):
            with rnd.segment(f"leibniz {k}"):
                out["leibniz"].append(rnd.call(r2.leibniz_cup_solver, a, b, n))
        with rnd.segment("prime order"):
            out["prime"] = [
                (rnd.call(r2.prime_order_closed, a, b, p), rnd.call(r2.prime_order_scan, a, b, p, self.SCAN_N),
                 rnd.call(r2.matrix_order_method, a, b, p) if p != 2 else None)
                for a, b, p in inp["grid"]
            ]
        with rnd.segment("bockstein"):
            out["bockstein"] = [rnd.call(r2.bockstein_valuation_check, a, b, p, self.BOCKSTEIN_S)
                                for a, b, p in inp["grid"]]
        with rnd.segment("binomials"):
            binomials = {}
            for a in range(2, self.BINOMIAL_AB + 1):
                for b in range(2, self.BINOMIAL_AB + 1):
                    t = rnd.call(r2.cd_sequences, a, b, self.BINOMIAL_N)
                    if t is FAILED:
                        continue
                    for n in range(self.BINOMIAL_N + 1):
                        for m in range(self.BINOMIAL_N + 1 - n):
                            binomials[(a, b, n, m)] = (rnd.call(r2.generalized_binomial_C, t, n, m),
                                                       rnd.call(r2.generalized_binomial_D, t, n, m))
            out["binomials"] = binomials
        for k, (a, b, p) in enumerate(inp["hopf"]):
            with rnd.segment(f"hopf {k}"):
                out.setdefault("hopf", []).append(
                    (rnd.call(r2.hopf_afp_series, a, b, p, 30), rnd.call(r2.hk_modp_crosscheck, a, b, p, 40),
                     rnd.call(r2.dual_polynomial_check, a, b, p, 10)))
        with rnd.segment("tables"):
            out["tables"] = [rnd.call(r2.cd_sequences, a, b, self.TABLE_N) for a, b in inp["tables"]]
        return out

    def check(self, inp, out, rnd):
        for (a, b, n), table in zip(inp["leibniz"], out["leibniz"]):
            if table is FAILED:
                continue
            want = O.product_table(a, b, n)
            bad = [key for key, pq in want.items() if table.constants(*key) != pq]
            rnd.expect(not bad, f"leibniz_cup_solver({a}, {b}, {n}): {len(bad)} constants differ, e.g. {bad[:1]}")
        for (a, b, p), (closed, scan, matrix) in zip(inp["grid"], out["prime"]):
            k = O.least_k(a, b, p)
            if closed is not FAILED:
                rnd.expect(closed.k == k, f"prime_order_closed({a}, {b}, {p}) = {closed.k}, want {k}")
            if scan is not FAILED:
                rnd.expect(scan.k == k and scan.pattern_consistent, f"prime_order_scan({a}, {b}, {p}) = {scan.k}")
            if matrix not in (None, FAILED):
                rnd.expect(matrix == k, f"matrix_order_method({a}, {b}, {p}) = {matrix}, want {k}")
        for (a, b, p), holds in zip(inp["grid"], out["bockstein"]):
            if holds is not FAILED:
                want = O.bockstein_identity(a, b, p, self.BOCKSTEIN_S)
                rnd.expect(holds == want, f"bockstein_valuation_check({a}, {b}, {p}) = {holds}, want {want}")
        prefixes = {}
        for (a, b, n, m), (bc, bd) in out["binomials"].items():
            if (a, b) not in prefixes:
                prefixes[(a, b)] = [O.prefix_products(s) for s in O.cd(a, b, self.BINOMIAL_N)]
            pc, pd = prefixes[(a, b)]
            for got, pre, label in ((bc, pc, "C"), (bd, pd, "D")):
                if got is not FAILED:
                    want = O.binomial(pre, n, m)
                    rnd.expect(want.denominator == 1 and got == want,
                               f"generalized_binomial_{label}({a}, {b}; {n}, {m}) = {got}, want {want}")
        for (a, b, p), (series, hk, dual) in zip(inp["hopf"], out["hopf"]):
            if series is not FAILED:
                dims = O.hopf_dims(a, b, p, 30)
                want = [x for dim in dims for x in (dim, 0)][:-1]
                rnd.expect(list(series.coeffs) == want, f"hopf_afp_series({a}, {b}, {p})")
            if hk is not FAILED:
                side1, side2 = O.homology_series(a, b, p, 40)
                rnd.expect(side1 == side2 and hk is True, f"hk_modp_crosscheck({a}, {b}, {p}) = {hk}")
            if dual is not FAILED:
                rnd.expect(dual is True, f"dual_polynomial_check({a}, {b}, {p}) = {dual}")
        for (a, b), t in zip(inp["tables"], out["tables"]):
            if t is FAILED:
                continue
            c, d = O.cd(a, b, self.TABLE_N)
            g = O.g_sequence(a, b, self.TABLE_N)
            rnd.expect(list(t.c) == c and list(t.d) == d and list(t.g) == g, f"cd_sequences({a}, {b})")


WORKLOADS = {"invariants": Invariants, "coxeter": Coxeter, "rank2": RankTwo}


def make_rng(workload: str, seed: int):
    return random.Random(f"{workload}:{seed}")
