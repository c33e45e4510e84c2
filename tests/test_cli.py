import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schubert_kit import cli, ranktwo, selftests, weyl
from schubert_kit.errors import TheoremViolation
from schubert_kit.gcm import rank_two

from conftest import run_main


def test_rank2_table_json_big_ints_as_strings(capsys):
    code, out, _ = run_main(["rank2", "table", "-a", "5", "-b", "9", "-N", "30",
                             "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    row = doc["results"]["rows"][-1]
    assert isinstance(row["c"], str)
    assert int(row["c"]) > 10 ** 20
    assert doc["bounds"] == {"N": 30}


def test_prime_order_p2_skips_matrix(capsys):
    code, out, _ = run_main(["rank2", "prime-order", "-a", "1", "-b", "5",
                             "-p", "2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    ks = {row["method"]: row["k"] for row in doc["results"]["rows"]}
    assert ks["closed"] == 3 and ks["scan"] == 3 and ks["matrix"] == "skipped"


def test_weyl_enum(capsys):
    code, out, _ = run_main(["weyl", "enum", "--gcm", "2,-1;-1,2",
                             "--max-len", "5", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["counts"] == "1 2 2 1 0 0"


def test_poly_invariants(capsys):
    code, out, _ = run_main(["poly", "invariants", "--gcm", "2,-2;-3,2",
                             "--field", "Q", "--max-deg", "8",
                             "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    dims = [(r["dim_kernel"], r["dim_image"]) for r in doc["results"]["rows"]]
    assert dims == [(0, 1), (0, 2), (1, 2), (2, 2), (3, 2)]
    assert doc["results"]["factor_degrees"] == [2]


def test_rank2_hopf(capsys):
    code, out, _ = run_main(["rank2", "hopf", "-a", "2", "-b", "2",
                             "-p", "2", "-N", "10", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["k"] == 2
    assert doc["results"]["dual_polynomial"] is True
    assert doc["results"]["homology_crosscheck"] is True
    dims = [row["dim"] for row in doc["results"]["rows"]]
    assert dims == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_main(["rank2", "table", "-a", "2", "-b", "2", "-N", "3",
                             "--format", "csv", "--output", str(target)], capsys)
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[-1] == "3,3,3,3"


SELFTEST_STDOUT = {
    "gcm": """\
[PASS] gcm: spherical poset downward closed
[PASS] gcm: rank-two calibration (minors, exponent, closure)
[PASS] gcm: realization pairings
""",
    "weyl": """\
[PASS] weyl: involutions
[PASS] weyl: length changes by one
[PASS] weyl: bruhat order matches subword oracle
""",
    "schubert": """\
[PASS] schubert: square-zero operators
[PASS] schubert: braid independence on the basis
[PASS] schubert: coproduct grading
""",
    "poly": """\
[PASS] poly: involution, twisted Leibniz, square zero
[PASS] poly: characteristic map and operator commutation
[PASS] poly: total Steenrod commutation
""",
    "rank2": """\
[PASS] rank2: symbolic low rows
[PASS] rank2: c, d and g in Lehmer form
[PASS] rank2: binomials match prefix-product quotients
[PASS] rank2: solver matches closed products
[PASS] rank2: prime order methods agree
[PASS] rank2: valuations, homology series, dual generator
""",
}


SELFTEST_ARGV = (
    ["gcm", "poset", "--selftest"],
    ["weyl", "bruhat", "--selftest"],
    ["schubert", "act", "--selftest"],
    ["poly", "psi", "--selftest"],
    ["rank2", "hopf", "--selftest"],
)


def test_selftest_flag_everywhere(capsys):
    for argv in SELFTEST_ARGV:
        code, out, _ = run_main(argv, capsys)
        assert code == 0, argv
        assert out == SELFTEST_STDOUT[argv[0]]


@pytest.mark.parametrize("argv", SELFTEST_ARGV, ids=[argv[0] for argv in SELFTEST_ARGV])
def test_selftest_without_asserts(argv):
    # python -O strips every assert, so no registry check may rest on one
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-O", "-S", "-m", "schubert_kit", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (done.returncode, done.stderr) == (0, ""), argv
    assert done.stdout == SELFTEST_STDOUT[argv[0]]


def test_selftest_reports_a_broken_check(monkeypatch, capsys):
    # a Bruhat order that holds for every pair: the 17 of the 36 pairs of
    # W(A2) that are not comparable fail, first s_1 against e
    monkeypatch.setattr(selftests, "bruhat_leq", lambda v, w: True)
    failures = selftests.bruhat_matches_subword([rank_two(1, 1)], 3)
    assert len(failures) == 17 and failures[0] == (rank_two(1, 1), (1,), ())
    assert run_main(["weyl", "enum", "--selftest"], capsys) == (
        3,
        SELFTEST_STDOUT["weyl"].replace("[PASS] weyl: bruhat", "[FAIL] weyl: bruhat"),
        "weyl: bruhat order matches subword oracle: "
        "first failing input (GCM(2,-1;-1,2), (1,), ())\n",
    )


def test_theorem_violation_exit_code(monkeypatch, capsys):
    def boom(a, b, n):
        raise TheoremViolation("forced for the exit-code contract")

    monkeypatch.setattr("schubert_kit.ranktwo.cd_sequences", boom)
    code, _, err = run_main(["rank2", "table", "-a", "2", "-b", "2", "-N", "3"], capsys)
    assert code == 3
    assert "theorem violation" in err


# one row for each way bad input reaches cli.main: (argv, text that stderr
# must hold).  In argv, "MISSING" names a file that does not exist and a
# 1-tuple holds the contents of a file to pass in its place; stderr is read
# with their directory removed, so the text names them by their base names.
BAD_INPUT = {
    "gcm-underscore": (["gcm", "check", "2,-1_0;-1,2"], "matrix entry"),
    "gcm-zero-asymmetry": (["gcm", "check", "2,-1;0,2"], "a[1,2]"),
    "no-matrix": (["weyl", "enum", "--max-len", "3"], "Cartan matrix"),
    "max-len-underscore": (["weyl", "enum", "--gcm", "2,-1;-1,2", "--max-len", "1_0"],
                           "--max-len"),
    "word-underscore": (["weyl", "bruhat", "--gcm", "2,-1;-1,2", "--u", "0_1", "--v", "1,2"],
                        "generator index"),
    "ring-arabic-indic-digit": (["schubert", "act", "--gcm", "2,-1;-1,2", "--ring", "F\u0663",
                                 "--class", '[{"word": [1], "coefficient": 1}]'],
                                "coefficient ring"),
    "invariants-over-Z": (["poly", "invariants", "--gcm", "2,-2;-3,2", "--field", "Z",
                           "--max-deg", "4"], "field"),
    "rank2-compact-pair": (["rank2", "table", "-a", "1", "-b", "3", "-N", "5"], "ab < 4"),
    "class-missing-key": (["schubert", "act", "--gcm", "2,-2;-2,2", "--class", '[{"wrd": [1]}]'],
                          "{word, coefficient}"),
    "poly-missing-key": (["poly", "psi", "--gcm", "2,-2;-3,2", "--poly",
                          '[{"exponents": [1, 0]}]'], "{exponents, coefficient}"),
    "class-F3-zero-denominator": (["schubert", "act", "--gcm", "2,-1;-1,2", "--ring", "F3",
                                   "--class", '[{"word": [1], "coefficient": "1/0"}]'],
                                  "zero denominator"),
    "zero-class-word-not-reduced": (["schubert", "act", "--gcm", "2,-1;-1,2", "--class", "[]",
                                     "--word", "1,1"], "not reduced"),
    "zero-class-letter-out-of-range": (["schubert", "act", "--gcm", "2,-1;-1,2", "--class", "[]",
                                        "--word", "7"], "out of range"),
    "missing-file": (["weyl", "enum", "--gcm-file", "MISSING"], "absent.json"),
    "gcm-file-no-rows": (["gcm", "check", "--gcm-file", ('{"labels": ["1", "2"]}',)], '"rows"'),
    "gcm-file-json-syntax": (["weyl", "enum", "--gcm-file",
                              ('{"labels": ["1", "2"] "rows": [[2, -1], [-1, 2]]}',)],
                             "--gcm-file gcm.json: Expecting ',' delimiter"),
    "class-json-syntax": (["schubert", "act", "--gcm", "2,-1;-1,2", "--class", "[{"],
                          "--class: Expecting property name"),
    "poly-json-syntax": (["poly", "psi", "--gcm", "2,-1;-1,2", "--poly",
                          '[{"exponents": [1, 0], "coefficient": 1}'],
                         "--poly: Expecting ',' delimiter"),
}


@pytest.mark.parametrize("argv, text", BAD_INPUT.values(), ids=BAD_INPUT)
def test_bad_input_exits_2(argv, text, tmp_path, capsys):
    gcm_file = tmp_path / "gcm.json"
    for a in argv:
        if isinstance(a, tuple):
            gcm_file.write_text(a[0])
    argv = [str(tmp_path / "absent.json") if a == "MISSING"
            else str(gcm_file) if isinstance(a, tuple) else a for a in argv]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert text in err.replace(f"{tmp_path}{os.sep}", "")


# the parser reads these four bounds as plain integers; the library checks them
LIBRARY_BOUNDS = {
    "max-len": (["weyl", "enum", "--gcm", "2,-2;-2,2", "--max-len", "-1"],
                lambda: weyl.enumerate_by_length(rank_two(2, 2), -1)),
    "products-N": (["rank2", "products", "-N", "-1"],
                   lambda: ranktwo.leibniz_cup_solver(2, 3, -1)),
    "hk-N": (["rank2", "hk", "-N", "-1"], lambda: ranktwo.hk_integral(2, 3, -1)),
    "bockstein-S": (["rank2", "bockstein", "-S", "0"],
                    lambda: ranktwo.bockstein_valuation_check(2, 3, 2, 0)),
}


@pytest.mark.parametrize("argv, library_call", LIBRARY_BOUNDS.values(), ids=LIBRARY_BOUNDS)
def test_bound_errors_come_from_the_library(argv, library_call, capsys):
    with pytest.raises(ValueError) as raised:
        library_call()
    assert run_main(argv, capsys) == (2, "", f"error: {raised.value}\n")


def test_gcm_file_input(tmp_path, capsys):
    path = tmp_path / "gcm.json"
    path.write_text(json.dumps({"labels": ["1", "2"], "rows": [[2, -1], [-1, 2]]}))
    code, out, _ = run_main(["weyl", "enum", "--gcm-file", str(path),
                             "--max-len", "4", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["counts"] == "1 2 2 1 0"


# modules that each one-shot command must not load, beyond selftests, and
# the stdlib modules it must load; cli imports csv and json only to use them
_NOT_WEYL = ("polyring", "ranktwo", "ffield", "schubert", "rings", "linalg")
PLAIN_COMMANDS = [
    (["gcm", "check", "2,-1;-1,2"], _NOT_WEYL, ()),
    (["weyl", "enum", "--gcm", "2,-1;-1,2", "--max-len", "3"], _NOT_WEYL, ()),
    (["weyl", "bruhat", "--gcm", "2,-1;-1,2", "--u", "1", "--v", "1,2"], _NOT_WEYL, ()),
    (["--help"], _NOT_WEYL, ()),
    (["rank2", "table", "-N", "5"], ("polyring", "schubert", "weyl", "gcm", "csv", "json"), ()),
    (["rank2", "table", "-N", "5", "--format", "csv"], ("json",), ("csv",)),
    (["schubert", "coproduct", "--gcm", "2,-1;-1,2", "--word", "1,2"],
     ("polyring", "ranktwo", "ffield"), ()),
]


def test_plain_command_does_not_import_selftests():
    src = Path(cli.__file__).resolve().parents[1]
    for argv, absent, present in PLAIN_COMMANDS:
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from schubert_kit import cli\n"
            "print(sorted(m for m in ('csv', 'json') if m in sys.modules))\n"
            "try:\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0\n"
            "loaded = {m for m in sys.modules if m in ('csv', 'json')}\n"
            "loaded |= {m[len('schubert_kit.'):] for m in sys.modules\n"
            "           if m.startswith('schubert_kit.')}\n"
            "print('selftests' in loaded)\n"
            f"print(sorted(m for m in {absent!r} if m in loaded))\n"
            f"print(sorted(m for m in {present!r} if m not in loaded))\n"
        )
        done = subprocess.run([sys.executable, "-S", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (argv, done.stderr)
        lines = done.stdout.splitlines()
        assert [lines[0], *lines[-3:]] == ["[]", "False", "[]", "[]"], argv
