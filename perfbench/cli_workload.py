"""The cli workload: command-line invocations, each in a fresh interpreter.

A round runs the README examples as printed there, four of them again with
raised bounds so that compute is not swamped by start-up, and four inputs
that hit known faults.  Each invocation is one attempted operation.  An
ordinary invocation fails when it exits non-zero; its table output is then
not checked.  A fault invocation succeeds only when it exits 2 with a
message and no traceback, which is the documented contract for bad input.
Every table printed by an ordinary invocation is parsed and compared with
``oracles``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction

import oracles as O
import speed
from workloads import A2_TEXT, element_key, matrix_rows, psi_oracle

CHILD_LIMIT_S = 120
MISSING_FILE = "perfbench/no-such-matrix.json"
# degree-6 monomials of the affine A2 standard realization (4 coordinates)
PSI_MONOMIALS = ((2, 2, 2, 0), (3, 0, 1, 2), (1, 4, 0, 1))


# -- table parsing -------------------------------------------------------------


def parse_table(text):
    """(meta, rows, extras) of the default table format."""
    lines = text.splitlines()
    meta = {}
    if lines and lines[0].startswith("# "):
        meta = dict(item.split("=", 1) for item in lines.pop(0)[2:].split(" "))
    header = lines.pop(0).split()
    rows, extras = [], {}
    for line in lines:
        m = re.match(r"^([a-z_]+): (.*)$", line)
        if m:
            extras[m.group(1)] = m.group(2)
            continue
        cells = re.split(r" {2,}", line.strip())
        cells += [""] * (len(header) - len(cells))
        rows.append(dict(zip(header, cells)))
    return meta, rows, extras


def word_str(word):
    return ",".join(map(str, word))


def parse_word(text):
    return () if text in ("", "e") else tuple(int(x) for x in text.split(","))


def subset_str(subset):
    return "{" + ",".join(map(str, subset)) + "}"


# -- checkers: each takes stdout and returns a list of problems -----------------


def check_gcm_check(text):
    def check(out):
        _meta, rows, extras = parse_table(out)
        subsets = O.spherical_subsets(matrix_rows(text))
        want = [{"subset": subset_str(s), "size": str(len(s))} for s in subsets]
        return [] if rows == want and extras.get("spherical_subsets") == str(len(subsets)) \
            and extras.get("valid") == "True" else [f"gcm check {text}: {rows}"]
    return check


def check_gcm_poset(text):
    def check(out):
        _meta, rows, extras = parse_table(out)
        subsets = O.spherical_subsets(matrix_rows(text))
        covers = sorted((a, b) for a in subsets for b in subsets
                        if len(b) == len(a) + 1 and set(a) < set(b))
        want = [{"subset": subset_str(a), "covered_by": subset_str(b)} for a, b in covers]
        members = " ".join(subset_str(s) for s in subsets)
        return [] if rows == want and extras.get("members") == members else [f"gcm poset {text}: {rows}"]
    return check


def check_weyl_enum_free(gens, max_len):
    def check(out):
        _meta, rows, extras = parse_table(out)
        want = [{"length": str(n), "word": word_str(w)}
                for n in range(max_len + 1) for w in O.free_reduced_words(gens, n)]
        counts = " ".join(str(O.free_growth(gens, n)) for n in range(max_len + 1))
        return [] if rows == want and extras.get("counts") == counts else ["weyl enum: rows differ"]
    return check


def check_bruhat_free(u, v):
    def check(out):
        _meta, rows, _extras = parse_table(out)
        ru, rv = O.free_reduce(u), O.free_reduce(v)
        want = [{"u": word_str(ru) or "e", "v": word_str(rv) or "e",
                 "u_leq_v": str(O.dihedral_leq(ru, rv))}]
        return [] if rows == want else [f"weyl bruhat: {rows}"]
    return check


def check_act_free(op_word, cls):
    def check(out):
        _meta, rows, _extras = parse_table(out)
        vec = {}
        for entry in cls:
            w = O.free_reduce(entry["word"])
            vec[w] = vec.get(w, 0) + entry["coefficient"]
        for i in reversed(op_word):
            vec = {w[:-1]: c for w, c in vec.items() if w and w[-1] == i}
        want = [{"word": word_str(w) or "e", "coefficient": str(c)}
                for w, c in sorted(vec.items(), key=lambda wc: (len(wc[0]), wc[0])) if c]
        return [] if rows == want else [f"schubert act: {rows}"]
    return check


def check_coproduct_free(word):
    def check(out):
        _meta, rows, extras = parse_table(out)
        w = O.free_reduce(word)
        want = [{"left_word": word_str(w[:i]) or "e", "right_word": word_str(w[i:]) or "e",
                 "coefficient": "1"} for i in range(len(w) + 1)]
        return [] if rows == want and extras.get("terms") == str(len(w) + 1) \
            else [f"schubert coproduct {word}: {rows}"]
    return check


def check_coproduct_affine(word):
    def check(out):
        meta, rows, extras = parse_table(out)
        ap = O.AffinePerm(3)
        w = ap.from_word(word)
        problems = []
        if ap.from_word(parse_word(meta.get("word", ""))) != w:
            problems.append("coproduct: printed word names another element")
        lefts = set()
        for row in rows:
            lw, rw = parse_word(row["left_word"]), parse_word(row["right_word"])
            u, v = ap.from_word(lw), ap.from_word(rw)
            if not (row["coefficient"] == "1" and ap.compose(u, v) == w and ap.length(u) == len(lw)
                    and ap.length(v) == len(rw) and len(lw) + len(rw) == len(word)):
                problems.append(f"coproduct: bad term {row}")
            lefts.add(u)
        want = ap.left_factors(w)
        if lefts != want or len(rows) != len(want) or extras.get("terms") != str(len(want)):
            problems.append(f"coproduct of {word}: {len(rows)} terms, want {len(want)}")
        return problems
    return check


def check_psi(text, terms):
    rows_m = matrix_rows(text)
    poly = {tuple(t["exponents"]): t["coefficient"] for t in terms}
    degree = sum(next(iter(poly)))

    def check(out):
        _meta, rows, _extras = parse_table(out)
        got = {element_key(rows_m, parse_word(r["word"])): Fraction(r["coefficient"]) for r in rows}
        want = psi_oracle(rows_m, O.standard_roots(rows_m), poly, degree, 0)
        return [] if got == want and len(got) == len(rows) else [f"poly psi on {text}: {got} != {want}"]
    return check


def check_invariants(text, field, max_deg):
    def check(out):
        _meta, rows, extras = parse_table(out)
        m = matrix_rows(text)
        nvars = 2 * len(m) - O.rank(m)
        dims = [int(r["dim_image"]) for r in rows]
        problems = []
        if [r["degree"] for r in rows] != [str(2 * d) for d in range(max_deg // 2 + 1)]:
            problems.append("invariants: degrees")
        for r in rows:
            if int(r["dim_kernel"]) + int(r["dim_image"]) != O.monomial_count(nvars, int(r["degree"]) // 2):
                problems.append(f"invariants: kernel + image in degree {r['degree']}")
        if len(m) == 2 and field == "Q" and dims != [1] + [2] * (len(dims) - 1):
            problems.append(f"invariants: rational image series {dims}")
        factors = O.peel_factors(dims, nvars)
        if factors is None or O.series_from_factors(factors, nvars, len(dims) - 1) != dims \
                or extras.get("factor_degrees") != str(list(factors)) or extras.get("factored") != "True":
            problems.append(f"invariants: factorization {extras.get('factor_degrees')} vs {factors}")
        if extras.get("torus_rank") != str(nvars):
            problems.append("invariants: torus rank")
        return problems
    return check


def check_rank2_table(a, b, n_max):
    def check(out):
        _meta, rows, _extras = parse_table(out)
        c, d = O.cd(a, b, n_max)
        g = O.g_sequence(a, b, n_max)
        want = [{"n": str(n), "c": str(c[n]), "d": str(d[n]), "g": str(g[n])} for n in range(n_max + 1)]
        return [] if rows == want else ["rank2 table: rows differ"]
    return check


def check_rank2_products(a, b, n_max):
    def check(out):
        _meta, rows, _extras = parse_table(out)
        table = O.product_table(a, b, n_max)
        want = []
        for s in range(2, n_max + 1):
            for m in range(1, s // 2 + 1):
                n = s - m
                for k1 in ("delta", "tau"):
                    for k2 in ("delta", "tau"):
                        if m == n and (k1, k2) == ("tau", "delta"):
                            continue
                        p, q = table[(k1, m, k2, n)]
                        want.append({"x": k1, "m": str(m), "y": k2, "n": str(n),
                                     "delta_coeff": str(p), "tau_coeff": str(q)})
        return [] if rows == want else ["rank2 products: rows differ"]
    return check


def check_rank2_hk(a, b, n_max):
    def check(out):
        _meta, rows, _extras = parse_table(out)
        g = O.g_sequence(a, b, max(n_max, 1))
        orders = {0: 0, 1: 1, 3: 0}
        for n in range(1, n_max + 1):
            orders[2 * n] = orders[2 * n + 3] = g[n]
        want = [{"degree": str(deg), "order": str(o),
                 "group": "Z" if o == 0 else ("0" if o == 1 else f"Z/{o}")}
                for deg, o in sorted(orders.items())]
        return [] if rows == want else ["rank2 hk: rows differ"]
    return check


def check_prime_order(a, b, p):
    def check(out):
        _meta, rows, extras = parse_table(out)
        k = str(O.least_k(a, b, p))
        got = {r["method"]: r["k"] for r in rows}
        want = {"closed": k, "scan": k, "matrix": "skipped" if p == 2 else k}
        return [] if got == want and extras.get("agree") == "True" else [f"prime-order: {got}, want {want}"]
    return check


def check_bockstein(a, b, p, s_max):
    def check(out):
        _meta, rows, extras = parse_table(out)
        k = O.least_k(a, b, p)
        g = O.g_sequence(a, b, s_max * k)
        base = O.valuation(g[k], p)
        want = []
        for s in range(1, s_max + 1):
            lhs, rhs = O.valuation(g[s * k], p), O.valuation(s, p) + base
            want.append({"s": str(s), "lhs": str(lhs), "rhs": str(rhs), "equal": str(lhs == rhs)})
        holds = str(all(r["equal"] == "True" for r in want))
        return [] if rows == want and extras.get("identity_holds") == holds else ["rank2 bockstein: rows differ"]
    return check


def check_hopf(a, b, p, n_max):
    def check(out):
        _meta, rows, extras = parse_table(out)
        dims = O.hopf_dims(a, b, p, n_max)
        want = [{"degree": str(2 * n), "dim": str(dims[n])} for n in range(n_max + 1)]
        side1, side2 = O.homology_series(a, b, p, 2 * n_max)
        ok = (rows == want and extras.get("k") == str(O.least_k(a, b, p))
              and extras.get("dual_polynomial") == "True"
              and extras.get("homology_crosscheck") == str(side1 == side2))
        return [] if ok else [f"rank2 hopf: {rows} {extras}"]
    return check


# -- the commands ------------------------------------------------------------------


def commands(rng):
    """[(argv, checker or None for a known-fault input)] for one round."""
    act_class = [{"word": [2, 1], "coefficient": 1}]
    psi_terms = [{"exponents": [1, 0], "coefficient": 1}]
    readme = [
        (["gcm", "check", "2,-2;-2,2"], check_gcm_check("2,-2;-2,2")),
        (["gcm", "poset", "2,-1;-1,2"], check_gcm_poset("2,-1;-1,2")),
        (["weyl", "enum", "--gcm", "2,-2;-3,2", "--max-len", "6"], check_weyl_enum_free(2, 6)),
        (["weyl", "bruhat", "--gcm", "2,-2;-2,2", "--u", "1,2", "--v", "1,2,1"],
         check_bruhat_free((1, 2), (1, 2, 1))),
        (["schubert", "act", "--gcm", "2,-2;-2,2", "--word", "1", "--class", json.dumps(act_class)],
         check_act_free((1,), act_class)),
        (["schubert", "coproduct", "--gcm", "2,-2;-2,2", "--word", "2,1"], check_coproduct_free((2, 1))),
        (["poly", "psi", "--gcm", "2,-2;-3,2", "--field", "Q", "--poly", json.dumps(psi_terms)],
         check_psi("2,-2;-3,2", psi_terms)),
        (["poly", "invariants", "--gcm", "2,-2;-3,2", "--field", "F3", "--max-deg", "12"],
         check_invariants("2,-2;-3,2", "F3", 12)),
        (["rank2", "table", "-a", "2", "-b", "3", "-N", "20"], check_rank2_table(2, 3, 20)),
        (["rank2", "products", "-a", "2", "-b", "3", "-N", "10"], check_rank2_products(2, 3, 10)),
        (["rank2", "hk", "-a", "2", "-b", "3", "-N", "10"], check_rank2_hk(2, 3, 10)),
        (["rank2", "prime-order", "-a", "2", "-b", "2", "-p", "5"], check_prime_order(2, 2, 5)),
        (["rank2", "bockstein", "-a", "2", "-b", "3", "-p", "3", "-S", "20"], check_bockstein(2, 3, 3, 20)),
        (["rank2", "hopf", "-a", "1", "-b", "5", "-p", "2", "-N", "20"], check_hopf(1, 5, 2, 20)),
    ]
    # raised bounds; the seed draws the coefficients and the words, which
    # leaves the cost of each command the same
    raised_psi = [{"exponents": list(e), "coefficient": rng.choice([-5, -3, -2, -1, 1, 2, 3, 5])}
                  for e in PSI_MONOMIALS]
    ap = O.AffinePerm(3)
    word, w = [], ap.identity()
    while len(word) < 10:
        i = rng.choice([i for i in (1, 2, 3) if not ap.is_right_descent(w, i)])
        word.append(i)
        w = ap.right_mul(w, i)
    v_word = _alternating(rng.randint(1, 2), 400)
    u_word = _alternating(rng.randint(1, 2), 300)
    raised = [
        (["poly", "invariants", "--gcm", "2,-2;-3,2", "--field", "Q", "--max-deg", "24"],
         check_invariants("2,-2;-3,2", "Q", 24)),
        (["poly", "psi", "--gcm", A2_TEXT, "--field", "Q", "--poly", json.dumps(raised_psi)],
         check_psi(A2_TEXT, raised_psi)),
        (["schubert", "coproduct", "--gcm", A2_TEXT, "--word", word_str(word)],
         check_coproduct_affine(tuple(word))),
        (["weyl", "bruhat", "--gcm", "2,-2;-3,2", "--u", word_str(u_word), "--v", word_str(v_word)],
         check_bruhat_free(u_word, v_word)),
    ]
    faults = [
        (["rank2", "bockstein", "-S", "0"], None),
        (["schubert", "act", "--gcm", "2,-2;-2,2", "--class", '[{"wrd":[1]}]'], None),
        (["weyl", "enum", "--gcm-file", MISSING_FILE], None),
        (["weyl", "enum", "--gcm", "2,-2;-2,2", "--max-len", "-2"], None),
    ]
    return readme + raised + faults


def _alternating(first, length):
    return tuple(first if t % 2 == 0 else 3 - first for t in range(length))


# -- running a round ------------------------------------------------------------------


class _ChildTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _ChildTimeout()


def spawn(cmd, root, env, tmpdir):
    """Run one child to completion: (exit code, stdout, stderr, wall s, rusage)."""
    out_path = os.path.join(tmpdir, "stdout")
    err_path = os.path.join(tmpdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=root, env=dict(env, PERFBENCH_SPAWNED_AT=repr(t0)))
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_LIMIT_S)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except _ChildTimeout:
            proc.kill()
            proc.wait()
            raise SystemExit(f"child did not finish within {CHILD_LIMIT_S} s: {cmd[:6]}")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr, wall, usage


def run_round(root, cmds, traced, tmpdir):
    """One round: an import-only child for setup_s, then every command once.

    Each command is its own timed segment: (wall s, children's CPU s, mean
    of the speed probes run just before and just after it).
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    trace_out = os.path.join(tmpdir, "trace.json")
    env["PERFBENCH_TRACE_OUT"] = trace_out
    before = speed.probe()
    code, _out, err, setup_s, _usage = spawn([sys.executable, "-c", "import schubert_kit.cli"],
                                             root, env, tmpdir)
    if code != 0:
        raise SystemExit(f"cannot import schubert_kit.cli from {root}/src:\n{err}")
    after = speed.probe()
    res = {"setup_s": setup_s, "setup_probe_s": (before + after) / 2, "peak_rss_mib": 0.0,
           "segments": {}, "attempted": 0, "failed": 0, "failures": [], "errors": [], "prims": []}
    launcher = os.path.join(root, "perfbench", "cli_launcher.py")
    for k, (argv, checker) in enumerate(cmds):
        cmd = [sys.executable, launcher, *argv] if traced else [sys.executable, "-m", "schubert_kit", *argv]
        before = after
        code, out, err, wall, usage = spawn(cmd, root, env, tmpdir)
        after = speed.probe()
        res["attempted"] += 1
        res["segments"][f"command {k}"] = (wall, usage.ru_utime + usage.ru_stime, (before + after) / 2)
        res["peak_rss_mib"] = max(res["peak_rss_mib"], usage.ru_maxrss / 1024)
        if traced:
            with open(trace_out, encoding="utf-8") as fh:
                res["prims"].append(json.load(fh))
            os.remove(trace_out)
        if checker is None:
            failed = code != 2 or not err.strip() or "Traceback" in err
        else:
            failed = code != 0
        if failed:
            res["failed"] += 1
            res["failures"].append(f"{' '.join(argv)[:80]}: exit {code}, {err.strip().splitlines()[-1:]}")
        elif checker is not None:
            try:
                res["errors"] += checker(out)
            except (ValueError, KeyError, IndexError) as exc:
                res["errors"].append(f"{' '.join(argv)[:80]}: unreadable output ({exc!r})")
    return res
