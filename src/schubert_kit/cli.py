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

The parser is declared once, by the ``COMMANDS`` table: each command group
with its help text and, for each subcommand, its handler, help text and
options.  ``build_parser`` adds --format, --output and --selftest to every
subcommand.  ``main`` passes it the command line: when the first two words
name a group and one of its commands, it builds every group parser (the
program's usage lists them) and every command parser of that group (the
group's usage lists them), but gives options and a handler to the named
command alone; any other command line, and no command line, gets the whole
tree.  A handler returns its table, ``(params, bounds, columns, rows)``
and optional extras, with rows of plain values; ``main`` alone renders it
through ``_emit`` and returns the exit code.  A list-valued cell is a word,
shown as ``1,2,1`` (or ``e`` when empty) in table and CSV and kept as a list
in JSON.  Each handler imports the modules it uses, so a command loads only
what its group needs; ``csv`` and ``json`` load only for the format or the
--class and --poly payloads that use them.

Input checks live in the library: the JSON of --class and --poly goes from
``json.loads`` straight to its decoder, and the words, exponents and bounds
the library rejects raise ValueError, which exits 2.  The parser reads
integers only; it checks no range.  To a JSON syntax error, or a --gcm-file
that is not UTF-8, the command line adds only the name of the option (and
the file's path), so it too exits 2 naming what was wrong.  A command line
gives one matrix: two of the matrix argument, --gcm and --gcm-file exit 2.
"""

from __future__ import annotations

import argparse
import io
import sys

from .errors import SchubertKitError, TheoremViolation

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_THEOREM = 3


def _word_text(word) -> str:
    return ",".join(map(str, word)) or "e"


def _emit(args, params: dict, bounds: dict, columns, rows, extras=None) -> int:
    """Render rows (list of dicts) in the selected format, deterministically;
    the exit code of every rendered table is EXIT_OK."""
    cells = [
        [_word_text(row[c]) if isinstance(row[c], list) else row[c] for c in columns]
        for row in rows
    ]
    out = io.StringIO()
    if args.format == "json":
        import json

        doc = {"params": params, "bounds": bounds, "results": {"rows": rows, **(extras or {})}}
        out.write(json.dumps(doc, indent=2))
        out.write("\n")
    elif args.format == "csv":
        import csv

        if bounds:
            out.write(
                "# bounds: "
                + " ".join(f"{k}={v}" for k, v in sorted(bounds.items()))
                + "\n"
            )
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)
    else:
        meta = {**params, **bounds}
        if meta:
            out.write(
                "# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items())) + "\n"
            )
        lines = [list(map(str, columns))] + [list(map(str, cell)) for cell in cells]
        widths = [max(len(line[i]) for line in lines) for i in range(len(columns))]
        for line in lines:
            out.write("  ".join(x.ljust(w) for x, w in zip(line, widths)).rstrip() + "\n")
        for k, v in (extras or {}).items():
            out.write(f"{k}: {v}\n")
    text = out.getvalue()
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


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


def _decoded(option: str, decode, source):
    """``decode(source)``, with a JSON or UTF-8 decoding error reported under ``option``."""
    import json

    try:
        return decode(source)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{option}: {exc}") from None


def _gcm_from_args(args):
    from .gcm import gcm_from_file, parse_gcm

    sources = {"the matrix argument": getattr(args, "matrix", None),
               "--gcm": args.gcm, "--gcm-file": args.gcm_file}
    given = {name: value for name, value in sources.items() if value}
    if not given:
        raise SchubertKitError("a Cartan matrix is required (--gcm or --gcm-file)")
    if len(given) > 1:
        raise SchubertKitError(f"give one Cartan matrix, not {' and '.join(given)}")
    [(name, value)] = given.items()
    if name == "--gcm-file":
        return _decoded(f"--gcm-file {value}", gcm_from_file, value)
    return parse_gcm(value)


def _word_arg(text: str) -> tuple[int, ...]:
    from .intmat import parse_int
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_int(x, "generator index") for x in text.split(","))


def _fmt_subset(subset) -> str:
    return "{" + ",".join(str(i) for i in subset) + "}"


# -- gcm ----------------------------------------------------------------


def cmd_gcm_check(args):
    from .gcm import spherical_poset

    g = _gcm_from_args(args)
    poset = spherical_poset(g)
    rows = [{"subset": _fmt_subset(s), "size": len(s)} for s in poset.subsets]
    return (
        {"matrix": repr(g), "labels": ",".join(g.labels)},
        {},
        ["subset", "size"],
        rows,
        {"valid": True, "spherical_subsets": len(rows)},
    )


def cmd_gcm_poset(args):
    from .gcm import spherical_poset

    g = _gcm_from_args(args)
    poset = spherical_poset(g)
    rows = [
        {"subset": _fmt_subset(sub), "covered_by": _fmt_subset(sup)}
        for sub, sup in poset.covers
    ]
    return (
        {"matrix": repr(g)},
        {},
        ["subset", "covered_by"],
        rows,
        {"members": " ".join(_fmt_subset(s) for s in poset.subsets)},
    )


# -- weyl ----------------------------------------------------------------


def cmd_weyl_enum(args):
    from .weyl import enumerate_by_length

    g = _gcm_from_args(args)
    levels = enumerate_by_length(g, args.max_len)
    rows = []
    for length, level in enumerate(levels):
        for w in level:
            rows.append({"length": length, "word": ",".join(map(str, w.word))})
    return (
        {"matrix": repr(g)},
        {"max_len": args.max_len},
        ["length", "word"],
        rows,
        {"counts": " ".join(str(len(level)) for level in levels)},
    )


def cmd_weyl_bruhat(args):
    from .weyl import bruhat_leq, from_word

    g = _gcm_from_args(args)
    u = from_word(g, _word_arg(args.u))
    v = from_word(g, _word_arg(args.v))
    rows = [{"u": _word_text(u.word), "v": _word_text(v.word), "u_leq_v": bruhat_leq(u, v)}]
    return {"matrix": repr(g)}, {}, ["u", "v", "u_leq_v"], rows


# -- schubert -------------------------------------------------------------


def cmd_schubert_act(args):
    import json

    from .rings import parse_ring
    from .schubert import (
        check_operator_word,
        nil_aw,
        schubert_from_jsonable,
        schubert_to_jsonable,
    )

    g = _gcm_from_args(args)
    ring = parse_ring(args.ring)
    vec = schubert_from_jsonable(g, ring, _decoded("--class", json.loads, args.cls))
    word = _word_arg(args.word)
    check_operator_word(g, word)
    return (
        {"matrix": repr(g), "operator_word": args.word, "ring": ring.name},
        {},
        ["word", "coefficient"],
        schubert_to_jsonable(nil_aw(word, vec)),
    )


def cmd_schubert_coproduct(args):
    from .schubert import peterson_coproduct, tensor_to_jsonable
    from .weyl import from_word

    g = _gcm_from_args(args)
    w = from_word(g, _word_arg(args.word))
    rows = tensor_to_jsonable(peterson_coproduct(w))
    return (
        {"matrix": repr(g), "word": _word_text(w.word)},
        {},
        ["left_word", "right_word", "coefficient"],
        rows,
        {"terms": len(rows)},
    )


# -- poly -----------------------------------------------------------------


def _model_from_args(args, g, ring):
    from .gcm import derived_realization, standard_realization
    from .polyring import WeightRing

    real = (
        derived_realization(g)
        if args.realization == "derived"
        else standard_realization(g)
    )
    return WeightRing(g, ring, real)


def cmd_poly_psi(args):
    import json

    from .rings import parse_ring
    from .schubert import schubert_to_jsonable

    g = _gcm_from_args(args)
    if args.poly is None:
        raise SchubertKitError("--poly is required: a JSON list of {exponents, coefficient}")
    ring = parse_ring(args.field)
    model = _model_from_args(args, g, ring)
    f = model.from_jsonable(_decoded("--poly", json.loads, args.poly))
    return (
        {
            "matrix": repr(g),
            "field": ring.name,
            "realization": args.realization,
            "degree": 2 * f.total_degree(),
        },
        {},
        ["word", "coefficient"],
        schubert_to_jsonable(model.characteristic_map(f)),
    )


def cmd_poly_invariants(args):
    from .rings import parse_ring

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
    return (
        {"matrix": repr(g), "field": ring.name, "realization": args.realization},
        {"max_deg": args.max_deg},
        ["degree", "dim_kernel", "dim_image"],
        rows,
        extras,
    )


# -- rank2 ----------------------------------------------------------------


def cmd_rank2_table(args):
    from . import ranktwo

    t = ranktwo.cd_sequences(args.a, args.b, args.N)
    rows = [
        {"n": n, "c": str(t.c[n]), "d": str(t.d[n]), "g": str(t.g[n])}
        for n in range(args.N + 1)
    ]
    return {"a": args.a, "b": args.b}, {"N": args.N}, ["n", "c", "d", "g"], rows


def cmd_rank2_products(args):
    from . import ranktwo

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
    return ({"a": args.a, "b": args.b}, {"N": args.N},
            ["x", "m", "y", "n", "delta_coeff", "tau_coeff"], rows)


def cmd_rank2_hk(args):
    from . import ranktwo

    rows = [
        {
            "degree": deg,
            "order": str(order),
            "group": "Z" if order == 0 else ("0" if order == 1 else f"Z/{order}"),
        }
        for deg, order in ranktwo.hk_integral(args.a, args.b, args.N)
    ]
    return {"a": args.a, "b": args.b}, {"N": args.N}, ["degree", "order", "group"], rows


def cmd_rank2_prime_order(args):
    from . import ranktwo

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
    return (
        {"a": args.a, "b": args.b, "p": args.p},
        {"N": args.N},
        ["method", "k", "note"],
        rows,
        extras,
    )


def cmd_rank2_bockstein(args):
    from . import ranktwo

    k = ranktwo.prime_order_closed(args.a, args.b, args.p).k
    rows = [
        {"s": s, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
        for s, lhs, rhs in ranktwo._valuation_rows(args.a, args.b, args.p, args.S)
    ]
    return (
        {"a": args.a, "b": args.b, "p": args.p, "k": k},
        {"S": args.S},
        ["s", "lhs", "rhs", "equal"],
        rows,
        {"identity_holds": all(row["equal"] for row in rows)},
    )


def cmd_rank2_hopf(args):
    from . import ranktwo

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
            args.a, args.b, args.p, min(args.N // k, 10) or 1
        ),
        "homology_crosscheck": ranktwo.hk_modp_crosscheck(
            args.a, args.b, args.p, 2 * args.N
        ),
    }
    return (
        {"a": args.a, "b": args.b, "p": args.p},
        {"N": args.N},
        ["degree", "dim"],
        rows,
        extras,
    )


# -- parser ----------------------------------------------------------------


def _int_arg(text: str) -> int:
    """An argparse type: an integer by the ASCII rule of ``intmat.parse_int``."""
    from .intmat import parse_int
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _opt(*flags, **kwargs):
    """One ``add_argument`` call, as data."""
    return flags, kwargs


_GCM = (
    _opt("--gcm", help='inline matrix, e.g. "2,-2;-1,2"; the command needs exactly one '
                       "matrix: the matrix argument (gcm commands only), --gcm or --gcm-file"),
    _opt("--gcm-file", help="JSON file with {labels, rows}"),
)
_AB = (_opt("-a", type=_int_arg, default=2), _opt("-b", type=_int_arg, default=3))
_P = _opt("-p", type=_int_arg, default=2)
_REALIZATION = _opt("--realization", choices=["standard", "derived"], default="standard")
_COMMON = (
    _opt("--format", choices=["table", "csv", "json"], default="table"),
    _opt("--output", default="-", help="destination path or - for stdout"),
    _opt("--selftest", action="store_true",
         help="run this group's invariant checks at reduced bounds and exit"),
)

# group -> (help, {subcommand -> (handler, help, options)}); the order of
# the options is the order of --help.
COMMANDS = {
    "gcm": ("Cartan matrix checks", {
        "check": (cmd_gcm_check, "validate a matrix and list spherical subsets",
                  (_opt("matrix", nargs="?", help='inline matrix "2,-a;-b,2"'), *_GCM)),
        "poset": (cmd_gcm_poset, "the poset of spherical subsets with covers",
                  (_opt("matrix", nargs="?"), *_GCM)),
    }),
    "weyl": ("Weyl group combinatorics", {
        "enum": (cmd_weyl_enum, "enumerate elements by length",
                 (*_GCM, _opt("--max-len", type=_int_arg, default=8))),
        "bruhat": (cmd_weyl_bruhat, "compare two elements in Bruhat order",
                   (*_GCM, _opt("--u", default="", help='word "1,2,1"'),
                    _opt("--v", default="", help='word "1,2"'))),
    }),
    "schubert": ("Schubert module operators", {
        "act": (cmd_schubert_act, "apply a composite operator to a vector",
                (*_GCM, _opt("--word", default="", help="operator word"),
                 _opt("--class", dest="cls", default='[{"word": [], "coefficient": 1}]',
                      help="JSON list of {word, coefficient}"),
                 _opt("--ring", default="Z"))),
        "coproduct": (cmd_schubert_coproduct, "length-additive coproduct of a class",
                      (*_GCM, _opt("--word", default=""))),
    }),
    "poly": ("torus polynomial algebra", {
        "psi": (cmd_poly_psi, "characteristic map of a homogeneous polynomial",
                (*_GCM, _opt("--poly", help="JSON list of {exponents, coefficient}; "
                                      "required except with --selftest"),
                 _opt("--field", default="Q"), _REALIZATION)),
        "invariants": (cmd_poly_invariants, "kernel/image dimensions by degree",
                       (*_GCM, _opt("--field", default="Q"),
                        _opt("--max-deg", type=_int_arg, default=16,
                             help="topological degree bound (even)"),
                        _REALIZATION)),
    }),
    "rank2": ("rank-two tables and theorems", {
        "table": (cmd_rank2_table, "the c, d, g sequences",
                  (*_AB, _opt("-N", type=_int_arg, default=20))),
        "products": (cmd_rank2_products, "cup-product structure constants",
                     (*_AB, _opt("-N", type=_int_arg, default=20))),
        "hk": (cmd_rank2_hk, "integral cohomology of the group",
               (*_AB, _opt("-N", type=_int_arg, default=20))),
        "prime-order": (cmd_rank2_prime_order, "least k with p | g_k, by all three methods",
                        (*_AB, _P, _opt("-N", type=_int_arg, default=200))),
        "bockstein": (cmd_rank2_bockstein,
                      "the valuation identity for g along multiples of k",
                      (*_AB, _P, _opt("-S", type=_int_arg, default=20))),
        "hopf": (cmd_rank2_hopf, "mod-p image Hopf algebra series and duals",
                 (*_AB, _P, _opt("-N", type=_int_arg, default=20))),
    }),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert-kit",
        description="Exact Schubert calculus for Kac-Moody flag varieties.",
    )
    # a command line that names a group and one of its commands gets the
    # options and handler of that command only; any other gets the whole tree
    named_group = named_command = None
    if argv is not None and len(argv) > 1 and argv[1] in COMMANDS.get(argv[0], ("", {}))[1]:
        named_group, named_command = argv[:2]
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        group_parser = groups.add_parser(group, help=group_help)
        if named_group not in (None, group):
            continue
        subcommands = group_parser.add_subparsers(dest="cmd", required=True)
        for name, (func, help_text, options) in commands.items():
            p = subcommands.add_parser(name, help=help_text)
            if named_command not in (None, name):
                continue
            for flags, kwargs in (*options, *_COMMON):
                p.add_argument(*flags, **kwargs)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        if args.selftest:
            return _run_selftest(args.group)
        return _emit(args, *args.func(args))
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_THEOREM
    except (SchubertKitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
