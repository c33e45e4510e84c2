import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schubert_kit import cli, ranktwo, selftests, weyl
from schubert_kit.errors import TheoremViolation
from schubert_kit.gcm import rank_two


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_rank2_table_json_big_ints_as_strings(capsys):
    code, out = run(capsys, ["rank2", "table", "-a", "5", "-b", "9", "-N", "30",
                             "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    row = doc["results"]["rows"][-1]
    assert isinstance(row["c"], str)
    assert int(row["c"]) > 10 ** 20
    assert doc["bounds"] == {"N": 30}


def test_prime_order_p2_skips_matrix(capsys):
    code, out = run(capsys, ["rank2", "prime-order", "-a", "1", "-b", "5",
                             "-p", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    ks = {row["method"]: row["k"] for row in doc["results"]["rows"]}
    assert ks["closed"] == 3 and ks["scan"] == 3 and ks["matrix"] == "skipped"


def test_gcm_check_invalid_exit_code(capsys):
    code = cli.main(["gcm", "check", "2,-1;0,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "a[1,2]" in captured.err


def test_weyl_enum(capsys):
    code, out = run(capsys, ["weyl", "enum", "--gcm", "2,-1;-1,2",
                             "--max-len", "5", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["counts"] == "1 2 2 1 0 0"


def test_poly_invariants(capsys):
    code, out = run(capsys, ["poly", "invariants", "--gcm", "2,-2;-3,2",
                             "--field", "Q", "--max-deg", "8",
                             "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    dims = [(r["dim_kernel"], r["dim_image"]) for r in doc["results"]["rows"]]
    assert dims == [(0, 1), (0, 2), (1, 2), (2, 2), (3, 2)]
    assert doc["results"]["factor_degrees"] == [2]


def test_rank2_hopf(capsys):
    code, out = run(capsys, ["rank2", "hopf", "-a", "2", "-b", "2",
                             "-p", "2", "-N", "10", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["k"] == 2
    assert doc["results"]["dual_polynomial"] is True
    assert doc["results"]["homology_crosscheck"] is True
    dims = [row["dim"] for row in doc["results"]["rows"]]
    assert dims == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out = run(capsys, ["rank2", "table", "-a", "2", "-b", "2", "-N", "3",
                             "--format", "csv", "--output", str(target)])
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
        code, out = run(capsys, argv)
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
    code = cli.main(["weyl", "enum", "--selftest"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == SELFTEST_STDOUT["weyl"].replace(
        "[PASS] weyl: bruhat", "[FAIL] weyl: bruhat")
    assert captured.err == ("weyl: bruhat order matches subword oracle: "
                            "first failing input (GCM(2,-1;-1,2), (1,), ())\n")


def test_theorem_violation_exit_code(monkeypatch, capsys):
    def boom(a, b, n):
        raise TheoremViolation("forced for the exit-code contract")

    monkeypatch.setattr("schubert_kit.ranktwo.cd_sequences", boom)
    code = cli.main(["rank2", "table", "-a", "2", "-b", "2", "-N", "3"])
    assert code == 3
    assert "theorem violation" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    code = cli.main(["weyl", "enum", "--max-len", "3"])  # missing gcm
    assert code == 2
    assert "Cartan matrix" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["schubert", "act", "--gcm", "2,-2;-2,2", "--class", '[{"wrd": [1]}]'],
    ["poly", "psi", "--gcm", "2,-2;-3,2", "--poly", '[{"exponents": [1, 0]}]'],
    ["schubert", "act", "--gcm", "2,-2;-2,2", "--class", '[{"word": 1, "coefficient": 1}]'],
    ["poly", "psi", "--gcm", "2,-2;-3,2", "--poly",
     '[{"exponents": [1, 0], "coefficient": 0.5}]'],
    ["weyl", "enum", "--gcm-file", "MISSING"],
    ["weyl", "enum", "--gcm", "2,-2;-2,2", "--max-len", "-2"],
    ["rank2", "hk", "-N", "-3"],
    ["schubert", "act", "--gcm", "2,-1;-1,2", "--class", '[{"word": [1], "coefficient": true}]'],
    ["poly", "psi", "--gcm", "2,-1;-1,2", "--poly",
     '[{"exponents": [1, 0], "coefficient": false}]'],
    ["schubert", "act", "--gcm", "2,-1;-1,2", "--ring", "F2", "--class",
     '[{"word": [1], "coefficient": "1/2"}]'],
    ["poly", "psi", "--gcm", "2,-1;-1,2", "--field", "F2", "--poly",
     '[{"exponents": [1, 0], "coefficient": "1/2"}]'],
    ["schubert", "act", "--gcm", "2,-1;-1,2", "--class", '[{"word": [true], "coefficient": 1}]'],
    ["schubert", "act", "--gcm", "2,-1;-1,2", "--class", "[]", "--word", "1,1"],
    ["schubert", "act", "--gcm", "2,-1;-1,2", "--class", "[]", "--word", "7"],
    ["gcm", "check", "--gcm-file", ('{"labels": ["1", "2"]}',)],
    ["gcm", "check", "--gcm-file", ("[[2, -1], [-1, 2]]",)],
    ["weyl", "enum", "--gcm-file", ('{"rows": null}',)],
    ["weyl", "enum", "--gcm-file", ('{"rows": [2, -1]}',)],
    ["gcm", "check", "--gcm-file", ('{"rows": [[2, -1.5], [-1, 2]]}',)],
    ["gcm", "poset", "--gcm-file", ('{"rows": [[2, false], [false, 2]]}',)],
    ["gcm", "check", "--gcm-file", ('{"labels": "ab", "rows": [[2, -1], [-1, 2]]}',)],
    ["schubert", "act", "--gcm", "2,-1;-1,2", "--class",
     '[{"word": [1], "coefficient": "1/0"}]'],
    ["schubert", "act", "--gcm", "2,-1;-1,2", "--ring", "Q", "--class",
     '[{"word": [1], "coefficient": "1/0"}]'],
    ["schubert", "act", "--gcm", "2,-1;-1,2", "--ring", "F3", "--class",
     '[{"word": [1], "coefficient": "1/0"}]'],
    ["poly", "psi", "--gcm", "2,-1;-1,2", "--field", "Z", "--poly",
     '[{"exponents": [1, 0], "coefficient": "1/0"}]'],
    ["poly", "psi", "--gcm", "2,-1;-1,2", "--poly",
     '[{"exponents": [1, 0], "coefficient": "1/0"}]'],
    ["poly", "psi", "--gcm", "2,-1;-1,2", "--field", "F3", "--poly",
     '[{"exponents": [1, 0], "coefficient": "1/0"}]'],
    ["weyl", "bruhat", "--gcm", "2,-1;-1,2", "--u", "0_1", "--v", "1,2"],
    ["schubert", "coproduct", "--gcm", "2,-1;-1,2", "--word", "1,\u0662"],
    ["schubert", "act", "--gcm", "2,-1;-1,2", "--class", "[]", "--word", "\uff11"],
    ["gcm", "check", "2,-1_0;-1,2"],
    ["gcm", "check", "--gcm", "2,-\u0661;-1,2"],
    ["weyl", "enum", "--gcm", "2,-1;-1,2", "--max-len", "1_0"],
    ["rank2", "bockstein", "-S", "\u0663"],
    ["rank2", "table", "-a", "1_0", "-b", "3"],
    ["schubert", "act", "--gcm", "2,-1;-1,2", "--ring", "F\u0663", "--class",
     '[{"word": [1], "coefficient": 1}]'],
    ["poly", "psi", "--gcm", "2,-1;-1,2", "--field", "F\uff13", "--poly",
     '[{"exponents": [1, 0], "coefficient": 1}]'],
], ids=["class-missing-key", "poly-missing-key", "class-word-not-list",
        "poly-float-coefficient", "missing-file", "negative-max-len", "hk-negative-N",
        "class-bool-coefficient", "poly-bool-coefficient",
        "class-F2-half", "poly-F2-half", "class-bool-word", "zero-class-word-not-reduced",
        "zero-class-letter-out-of-range", "gcm-file-no-rows", "gcm-file-top-level-list",
        "gcm-file-null-rows", "gcm-file-flat-rows", "gcm-file-float-entry",
        "gcm-file-bool-entry", "gcm-file-string-labels", "class-Z-zero-denominator",
        "class-Q-zero-denominator", "class-F3-zero-denominator", "poly-Z-zero-denominator",
        "poly-Q-zero-denominator", "poly-F3-zero-denominator", "word-underscore",
        "word-arabic-indic-digit", "word-fullwidth-digit", "gcm-underscore",
        "gcm-arabic-indic-digit", "max-len-underscore", "S-arabic-indic-digit",
        "a-underscore", "ring-arabic-indic-digit", "field-fullwidth-digit"])
def test_bad_input_exits_2(argv, tmp_path, capsys):
    # "MISSING" names a file that does not exist; a 1-tuple holds the
    # contents of a file to pass in its place
    gcm_file = tmp_path / "gcm.json"
    for a in argv:
        if isinstance(a, tuple):
            gcm_file.write_text(a[0])
    argv = [str(tmp_path / "absent.json") if a == "MISSING"
            else str(gcm_file) if isinstance(a, tuple) else a for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the value while parsing
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip()


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
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # the parser rejected the value itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {raised.value}\n"
    assert "usage:" not in captured.err


def test_gcm_file_input(tmp_path, capsys):
    path = tmp_path / "gcm.json"
    path.write_text(json.dumps({"labels": ["1", "2"], "rows": [[2, -1], [-1, 2]]}))
    code, out = run(capsys, ["weyl", "enum", "--gcm-file", str(path),
                             "--max-len", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["results"]["counts"] == "1 2 2 1 0"


def test_poly_invariants_rejects_non_field(capsys):
    code = cli.main(["poly", "invariants", "--gcm", "2,-2;-3,2",
                     "--field", "Z", "--max-deg", "4"])
    assert code == 2
    assert "field" in capsys.readouterr().err


def test_rank2_rejects_compact_pairs(capsys):
    code = cli.main(["rank2", "table", "-a", "1", "-b", "3", "-N", "5"])
    assert code == 2
    assert "ab < 4" in capsys.readouterr().err


# modules that each one-shot command must not load, beyond selftests
_NOT_WEYL = ("polyring", "ranktwo", "ffield", "schubert", "rings", "linalg")
PLAIN_COMMANDS = [
    (["gcm", "check", "2,-1;-1,2"], _NOT_WEYL),
    (["weyl", "enum", "--gcm", "2,-1;-1,2", "--max-len", "3"], _NOT_WEYL),
    (["weyl", "bruhat", "--gcm", "2,-1;-1,2", "--u", "1", "--v", "1,2"], _NOT_WEYL),
    (["--help"], _NOT_WEYL),
    (["rank2", "table", "-N", "5"], ("polyring", "schubert", "weyl", "gcm")),
    (["schubert", "coproduct", "--gcm", "2,-1;-1,2", "--word", "1,2"],
     ("polyring", "ranktwo", "ffield")),
]


def test_plain_command_does_not_import_selftests():
    src = Path(cli.__file__).resolve().parents[1]
    for argv, absent in PLAIN_COMMANDS:
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from schubert_kit import cli\n"
            "try:\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0\n"
            "print('schubert_kit.selftests' in sys.modules)\n"
            f"print(sorted(m for m in {absent!r} if 'schubert_kit.' + m in sys.modules))\n"
        )
        done = subprocess.run([sys.executable, "-S", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (argv, done.stderr)
        assert done.stdout.splitlines()[-2] == "False", argv
        assert done.stdout.splitlines()[-1] == "[]", argv
