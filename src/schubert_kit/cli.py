"""Command-line surface: every computation as a reproducible table emitter.

Output contract: identical invocations produce byte-identical output.  All
subcommands take --format {table,csv,json} and --output; JSON documents are
one object with "params", "bounds" and "results" keys, CSV carries a
leading "# bounds:" comment line and then exactly the documented header
row.  Big integers are serialized as decimal strings.

Exit codes: 0 success, 2 usage or precondition error (the diagnostic names
the violated precondition), 3 a mathematical assertion that is a theorem
failed (reserved so CI can tell bugs from environment problems).

Every subcommand accepts --selftest.  It runs its group's invariant checks
from ``selftests``, the functions the unit tests call, at reduced bounds:
one [PASS] or [FAIL] line per check on stdout, the first failing input of a
failed check on stderr, and exit 3 if any check fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import ranktwo
from .errors import SchubertKitError, TheoremViolation
from .gcm import (
    derived_realization,
    gcm_from_file,
    parse_gcm,
    spherical_poset,
    standard_realization,
)
from .polyring import WeightRing
from .rings import parse_ring
from .schubert import (
    check_operator_word,
    nil_aw,
    peterson_coproduct,
    schubert_from_jsonable,
    schubert_to_jsonable,
    tensor_to_jsonable,
)
from .weyl import bruhat_leq, enumerate_by_length, from_word

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_THEOREM = 3


def _emit(args, params: dict, bounds: dict, columns, rows, extras=None,
          json_rows=None):
    """Render rows (list of dicts) in the selected format, deterministically.

    ``json_rows`` overrides the row payload for JSON so structured fields
    (word lists, exponent vectors) round-trip through the documented
    schemas instead of the flat display strings.
    """
    out = io.StringIO()
    if args.format == "json":
        doc = {
            "params": params,
            "bounds": bounds,
            "results": {"rows": json_rows if json_rows is not None else rows,
                        **(extras or {})},
        }
        out.write(json.dumps(doc, indent=2))
        out.write("\n")
    elif args.format == "csv":
        if bounds:
            out.write(
                "# bounds: "
                + " ".join(f"{k}={v}" for k, v in sorted(bounds.items()))
                + "\n"
            )
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
    else:
        meta = {**params, **bounds}
        if meta:
            out.write(
                "# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items())) + "\n"
            )
        widths = {
            c: max(len(str(c)), *(len(str(r[c])) for r in rows)) if rows else len(str(c))
            for c in columns
        }
        out.write("  ".join(str(c).ljust(widths[c]) for c in columns).rstrip() + "\n")
        for row in rows:
            out.write(
                "  ".join(str(row[c]).ljust(widths[c]) for c in columns).rstrip()
                + "\n"
            )
        for k, v in (extras or {}).items():
            out.write(f"{k}: {v}\n")
    text = out.getvalue()
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_selftest(group: str) -> int:
    """Runs the group's checks at their reduced bounds: one line per check."""
    from . import selftests

    failed = False
    for name, check, kwargs in selftests.SUITES[group]:
        failures = check(**kwargs)
        print(f"[{'FAIL' if failures else 'PASS'}] {group}: {name}")
        if failures:
            print(f"{group}: {name}: first failing input {failures[0]!r}", file=sys.stderr)
            failed = True
    return EXIT_THEOREM if failed else EXIT_OK


def _gcm_from_args(args):
    if getattr(args, "gcm_file", None):
        return gcm_from_file(args.gcm_file)
    if getattr(args, "gcm", None):
        return parse_gcm(args.gcm)
    raise SchubertKitError("a Cartan matrix is required (--gcm or --gcm-file)")


def _json_entries(text: str, field: str) -> list:
    """A JSON list of ``{field: [int, ...], "coefficient": int or str}``.

    Raises ValueError naming the expected schema for anything else (a JSON
    boolean is not an integer here).
    """
    data = json.loads(text)
    if not isinstance(data, list) or not all(
        isinstance(entry, dict)
        and isinstance(entry.get(field), list)
        and all(type(x) is int for x in entry[field])
        and type(entry.get("coefficient")) in (int, str)
        for entry in data
    ):
        raise ValueError(f"expected a JSON list of {{{field}, coefficient}} objects")
    return data


def _word_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _fmt_subset(subset) -> str:
    return "{" + ",".join(str(i) for i in subset) + "}"


# -- gcm ----------------------------------------------------------------


def cmd_gcm_check(args):
    g = parse_gcm(args.matrix) if args.matrix else _gcm_from_args(args)
    poset = spherical_poset(g)
    rows = [{"subset": _fmt_subset(s), "size": len(s)} for s in poset.subsets]
    _emit(
        args,
        {"matrix": repr(g), "labels": ",".join(g.labels)},
        {},
        ["subset", "size"],
        rows,
        {"valid": True, "spherical_subsets": len(rows)},
    )
    return EXIT_OK


def cmd_gcm_poset(args):
    g = parse_gcm(args.matrix) if args.matrix else _gcm_from_args(args)
    poset = spherical_poset(g)
    rows = [
        {"subset": _fmt_subset(sub), "covered_by": _fmt_subset(sup)}
        for sub, sup in poset.covers
    ]
    _emit(
        args,
        {"matrix": repr(g)},
        {},
        ["subset", "covered_by"],
        rows,
        {"members": " ".join(_fmt_subset(s) for s in poset.subsets)},
    )
    return EXIT_OK


# -- weyl ----------------------------------------------------------------


def cmd_weyl_enum(args):
    g = _gcm_from_args(args)
    levels = enumerate_by_length(g, args.max_len)
    rows = []
    for length, level in enumerate(levels):
        for w in level:
            rows.append({"length": length, "word": ",".join(map(str, w.word))})
    _emit(
        args,
        {"matrix": repr(g)},
        {"max_len": args.max_len},
        ["length", "word"],
        rows,
        {"counts": " ".join(str(len(level)) for level in levels)},
    )
    return EXIT_OK


def cmd_weyl_bruhat(args):
    g = _gcm_from_args(args)
    u = from_word(g, _word_arg(args.u))
    v = from_word(g, _word_arg(args.v))
    rows = [
        {
            "u": ",".join(map(str, u.word)) or "e",
            "v": ",".join(map(str, v.word)) or "e",
            "u_leq_v": bruhat_leq(u, v),
        }
    ]
    _emit(args, {"matrix": repr(g)}, {}, ["u", "v", "u_leq_v"], rows)
    return EXIT_OK


# -- schubert -------------------------------------------------------------


def cmd_schubert_act(args):
    g = _gcm_from_args(args)
    ring = parse_ring(args.ring)
    vec = schubert_from_jsonable(g, ring, _json_entries(args.cls, "word"))
    word = _word_arg(args.word)
    check_operator_word(g, word)
    result = nil_aw(word, vec)
    payload = schubert_to_jsonable(result)
    rows = [
        {"word": ",".join(map(str, entry["word"])) or "e",
         "coefficient": entry["coefficient"]}
        for entry in payload
    ]
    _emit(
        args,
        {"matrix": repr(g), "operator_word": args.word, "ring": ring.name},
        {},
        ["word", "coefficient"],
        rows,
        json_rows=payload,
    )
    return EXIT_OK


def cmd_schubert_coproduct(args):
    g = _gcm_from_args(args)
    w = from_word(g, _word_arg(args.word))
    cop = peterson_coproduct(w)
    payload = tensor_to_jsonable(cop)
    rows = [
        {
            "left_word": ",".join(map(str, entry["left_word"])) or "e",
            "right_word": ",".join(map(str, entry["right_word"])) or "e",
            "coefficient": entry["coefficient"],
        }
        for entry in payload
    ]
    _emit(
        args,
        {"matrix": repr(g), "word": ",".join(map(str, w.word)) or "e"},
        {},
        ["left_word", "right_word", "coefficient"],
        rows,
        {"terms": len(rows)},
        json_rows=payload,
    )
    return EXIT_OK


# -- poly -----------------------------------------------------------------


def _model_from_args(args, g, ring):
    real = (
        derived_realization(g)
        if args.realization == "derived"
        else standard_realization(g)
    )
    return WeightRing(g, ring, real)


def cmd_poly_psi(args):
    g = _gcm_from_args(args)
    ring = parse_ring(args.field)
    model = _model_from_args(args, g, ring)
    f = model.from_jsonable(_json_entries(args.poly, "exponents"))
    image = model.characteristic_map(f)
    payload = schubert_to_jsonable(image)
    rows = [
        {"word": ",".join(map(str, entry["word"])) or "e",
         "coefficient": entry["coefficient"]}
        for entry in payload
    ]
    _emit(
        args,
        {
            "matrix": repr(g),
            "field": ring.name,
            "realization": args.realization,
            "degree": 2 * f.total_degree(),
        },
        {},
        ["word", "coefficient"],
        rows,
        json_rows=payload,
    )
    return EXIT_OK


def cmd_poly_invariants(args):
    g = _gcm_from_args(args)
    ring = parse_ring(args.field)
    model = _model_from_args(args, g, ring)
    report = model.s_poincare(args.max_deg)
    rows = [
        {"degree": deg, "dim_kernel": dj, "dim_image": ds}
        for deg, dj, ds in report.per_degree
    ]
    extras = {
        "series": str(report.series),
        "factor_degrees": list(report.factor_degrees)
        if report.factor_degrees is not None
        else None,
        "factored": report.factored,
        "torus_rank": report.torus_rank,
    }
    _emit(
        args,
        {"matrix": repr(g), "field": ring.name, "realization": args.realization},
        {"max_deg": args.max_deg},
        ["degree", "dim_kernel", "dim_image"],
        rows,
        extras,
    )
    return EXIT_OK


# -- rank2 ----------------------------------------------------------------


def cmd_rank2_table(args):
    t = ranktwo.cd_sequences(args.a, args.b, args.N)
    rows = [
        {"n": n, "c": str(t.c[n]), "d": str(t.d[n]), "g": str(t.g[n])}
        for n in range(args.N + 1)
    ]
    _emit(
        args,
        {"a": args.a, "b": args.b},
        {"N": args.N},
        ["n", "c", "d", "g"],
        rows,
    )
    return EXIT_OK


def cmd_rank2_products(args):
    table = ranktwo.leibniz_cup_solver(args.a, args.b, args.N)
    rows = []
    for s in range(2, args.N + 1):
        for m in range(1, s // 2 + 1):
            n = s - m
            for k1 in (ranktwo.DELTA, ranktwo.TAU):
                for k2 in (ranktwo.DELTA, ranktwo.TAU):
                    if m == n and (k1, k2) == (ranktwo.TAU, ranktwo.DELTA):
                        continue  # unordered pairs once
                    p, q = table.constants(k1, m, k2, n)
                    rows.append(
                        {
                            "x": k1,
                            "m": m,
                            "y": k2,
                            "n": n,
                            "delta_coeff": str(p),
                            "tau_coeff": str(q),
                        }
                    )
    _emit(
        args,
        {"a": args.a, "b": args.b},
        {"N": args.N},
        ["x", "m", "y", "n", "delta_coeff", "tau_coeff"],
        rows,
    )
    return EXIT_OK


def cmd_rank2_hk(args):
    rows = [
        {
            "degree": deg,
            "order": str(order),
            "group": "Z" if order == 0 else ("0" if order == 1 else f"Z/{order}"),
        }
        for deg, order in ranktwo.hk_integral(args.a, args.b, args.N)
    ]
    _emit(
        args,
        {"a": args.a, "b": args.b},
        {"N": args.N},
        ["degree", "order", "group"],
        rows,
    )
    return EXIT_OK


def cmd_rank2_prime_order(args):
    closed = ranktwo.prime_order_closed(args.a, args.b, args.p)
    scan = ranktwo.prime_order_scan(args.a, args.b, args.p, args.N)
    rows = [
        {"method": "closed", "k": closed.k, "note": closed.case_tag},
        {
            "method": "scan",
            "k": scan.k if scan.k is not None else "NotFound",
            "note": (
                f"pattern_ok={scan.pattern_consistent} to N={scan.scanned_to}"
                if scan.found
                else f"no hit up to N={scan.scanned_to}; raise N"
            ),
        },
    ]
    agree = scan.k == closed.k
    if args.p == 2:
        rows.append({"method": "matrix", "k": "skipped", "note": "requires odd p"})
    else:
        mk = ranktwo.matrix_order_method(args.a, args.b, args.p)
        agree &= mk == closed.k
        rows.append({"method": "matrix", "k": mk, "note": "vector return time"})
    extras = {"agree": bool(agree)}
    if closed.detail is not None:
        extras["quadratic"] = f"x^2 - {closed.detail.trace}*x + 1"
        extras["root"] = str(closed.detail.root)
    _emit(
        args,
        {"a": args.a, "b": args.b, "p": args.p},
        {"N": args.N},
        ["method", "k", "note"],
        rows,
        extras,
    )
    return EXIT_OK


def cmd_rank2_bockstein(args):
    k = ranktwo.prime_order_closed(args.a, args.b, args.p).k
    t = ranktwo.cd_sequences(args.a, args.b, args.S * k)
    base = ranktwo.p_adic_valuation(t.g[k], p=args.p)
    rows = []
    all_ok = True
    for s in range(1, args.S + 1):
        lhs = ranktwo.p_adic_valuation(t.g[s * k], args.p)
        rhs = ranktwo.p_adic_valuation(s, args.p) + base
        all_ok &= lhs == rhs
        rows.append({"s": s, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs})
    _emit(
        args,
        {"a": args.a, "b": args.b, "p": args.p, "k": k},
        {"S": args.S},
        ["s", "lhs", "rhs", "equal"],
        rows,
        {"identity_holds": all_ok},
    )
    return EXIT_OK


def cmd_rank2_hopf(args):
    k = ranktwo.prime_order_closed(args.a, args.b, args.p).k
    series = ranktwo.hopf_afp_series(args.a, args.b, args.p, args.N)
    rows = [
        {"degree": 2 * n, "dim": series.coefficient(2 * n)}
        for n in range(args.N + 1)
    ]
    extras = {
        "k": k,
        "series": str(series),
        "dual_polynomial": ranktwo.dual_polynomial_check(
            args.a, args.b, args.p, min(args.N // max(k, 1), 10) or 1
        ),
        "homology_crosscheck": ranktwo.hk_modp_crosscheck(
            args.a, args.b, args.p, 2 * args.N
        ),
    }
    _emit(
        args,
        {"a": args.a, "b": args.b, "p": args.p},
        {"N": args.N},
        ["degree", "dim"],
        rows,
        extras,
    )
    return EXIT_OK


# -- parser ----------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _add_common(p):
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--output", default="-", help="destination path or - for stdout")
    p.add_argument(
        "--selftest",
        action="store_true",
        help="run this group's invariant checks at reduced bounds and exit",
    )


def _add_gcm_opts(p):
    p.add_argument("--gcm", help='inline matrix, e.g. "2,-2;-1,2"')
    p.add_argument("--gcm-file", help="JSON file with {labels, rows}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert-kit",
        description="Exact Schubert calculus for Kac-Moody flag varieties.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    g = top.add_parser("gcm", help="Cartan matrix checks").add_subparsers(
        dest="cmd", required=True
    )
    p = g.add_parser("check", help="validate a matrix and list spherical subsets")
    p.add_argument("matrix", nargs="?", help='inline matrix "2,-a;-b,2"')
    _add_gcm_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_gcm_check)
    p = g.add_parser("poset", help="the poset of spherical subsets with covers")
    p.add_argument("matrix", nargs="?")
    _add_gcm_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_gcm_poset)

    w = top.add_parser("weyl", help="Weyl group combinatorics").add_subparsers(
        dest="cmd", required=True
    )
    p = w.add_parser("enum", help="enumerate elements by length")
    _add_gcm_opts(p)
    p.add_argument("--max-len", type=_int_at_least(0), default=8)
    _add_common(p)
    p.set_defaults(func=cmd_weyl_enum)
    p = w.add_parser("bruhat", help="compare two elements in Bruhat order")
    _add_gcm_opts(p)
    p.add_argument("--u", required=False, default="", help='word "1,2,1"')
    p.add_argument("--v", required=False, default="", help='word "1,2"')
    _add_common(p)
    p.set_defaults(func=cmd_weyl_bruhat)

    s = top.add_parser("schubert", help="Schubert module operators").add_subparsers(
        dest="cmd", required=True
    )
    p = s.add_parser("act", help="apply a composite operator to a vector")
    _add_gcm_opts(p)
    p.add_argument("--word", required=False, default="", help="operator word")
    p.add_argument(
        "--class",
        dest="cls",
        default='[{"word": [], "coefficient": 1}]',
        help="JSON list of {word, coefficient}",
    )
    p.add_argument("--ring", default="Z")
    _add_common(p)
    p.set_defaults(func=cmd_schubert_act)
    p = s.add_parser("coproduct", help="length-additive coproduct of a class")
    _add_gcm_opts(p)
    p.add_argument("--word", required=False, default="")
    _add_common(p)
    p.set_defaults(func=cmd_schubert_coproduct)

    q = top.add_parser("poly", help="torus polynomial algebra").add_subparsers(
        dest="cmd", required=True
    )
    p = q.add_parser("psi", help="characteristic map of a homogeneous polynomial")
    _add_gcm_opts(p)
    p.add_argument("--poly", required=False,
                   default='[{"exponents": [], "coefficient": 1}]',
                   help="JSON list of {exponents, coefficient}")
    p.add_argument("--field", default="Q")
    p.add_argument("--realization", choices=["standard", "derived"],
                   default="standard")
    _add_common(p)
    p.set_defaults(func=cmd_poly_psi)
    p = q.add_parser("invariants", help="kernel/image dimensions by degree")
    _add_gcm_opts(p)
    p.add_argument("--field", default="Q")
    p.add_argument("--max-deg", type=int, default=16,
                   help="topological degree bound (even)")
    p.add_argument("--realization", choices=["standard", "derived"],
                   default="standard")
    _add_common(p)
    p.set_defaults(func=cmd_poly_invariants)

    r = top.add_parser("rank2", help="rank-two tables and theorems").add_subparsers(
        dest="cmd", required=True
    )

    def rank2_parser(name, help_text, **extra):
        p = r.add_parser(name, help=help_text)
        p.add_argument("-a", type=int, default=2)
        p.add_argument("-b", type=int, default=3)
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)
        _add_common(p)
        return p

    p = rank2_parser("table", "the c, d, g sequences",
                     **{"-N": {"type": int, "default": 20}})
    p.set_defaults(func=cmd_rank2_table)
    p = rank2_parser("products", "cup-product structure constants",
                     **{"-N": {"type": _int_at_least(0), "default": 20}})
    p.set_defaults(func=cmd_rank2_products)
    p = rank2_parser("hk", "integral cohomology of the group",
                     **{"-N": {"type": _int_at_least(0), "default": 20}})
    p.set_defaults(func=cmd_rank2_hk)
    p = rank2_parser(
        "prime-order",
        "least k with p | g_k, by all three methods",
        **{"-p": {"type": int, "default": 2}, "-N": {"type": int, "default": 200}},
    )
    p.set_defaults(func=cmd_rank2_prime_order)
    p = rank2_parser(
        "bockstein",
        "the valuation identity for g along multiples of k",
        **{"-p": {"type": int, "default": 2}, "-S": {"type": _int_at_least(1), "default": 20}},
    )
    p.set_defaults(func=cmd_rank2_bockstein)
    p = rank2_parser(
        "hopf",
        "mod-p image Hopf algebra series and duals",
        **{"-p": {"type": int, "default": 2}, "-N": {"type": int, "default": 20}},
    )
    p.set_defaults(func=cmd_rank2_hopf)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            return _run_selftest(args.group)
        return args.func(args)
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_THEOREM
    except (SchubertKitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
