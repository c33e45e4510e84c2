"""Input contracts: outside integers, coefficients, matrix forms, bounds and
JSON payloads that the library rejects with ValueError, and a seeded fuzz of
the command line over them."""

import json
import random
import re
from pathlib import Path

import pytest

import schubert_kit
from schubert_kit import ranktwo
from schubert_kit.gcm import coxeter_exponent, gcm_from_dict, is_finite_type, parse_gcm
from schubert_kit.linalg import kernel_basis, rank
from schubert_kit.polyring import GradedPolynomial, WeightRing
from schubert_kit.rings import GF, QQ, ZZ, parse_ring
from schubert_kit.schubert import (
    SchubertVector,
    nil_a,
    nil_aw,
    parabolic_basis,
    schubert_from_jsonable,
)
from schubert_kit.weyl import (
    enumerate_by_length,
    from_word,
    length_and_word,
    longest_element,
    min_coset_reps,
    simple_reflection,
)

from conftest import random_cartan_rows, run_main

G = parse_gcm("2,-2;-3,2")
T1 = WeightRing(G, QQ).gen(1)
T23 = ranktwo.cd_sequences(2, 3, 10)
PRODUCTS23 = ranktwo.leibniz_cup_solver(2, 3, 6)


def class_of(word):
    return SchubertVector.basis(ZZ, from_word(G, word))


# every place an outside integer enters: a float, a string or a bool is none
NOT_INTEGERS = {
    "length-and-word-float-matrix": lambda: length_and_word(G, ((1.9, 0.2), (0, 1))),
    "length-and-word-integral-float-matrix": lambda: length_and_word(G, ((1.0, 0), (0, 1))),
    "length-and-word-bool-matrix": lambda: length_and_word(G, ((True, False), (0, 1))),
    "from-word-mixed": lambda: from_word(G, ["1", 2.0, True]),
    "from-word-str": lambda: from_word(G, ["1"]),
    "from-word-float": lambda: from_word(G, [2.0]),
    "from-word-bool": lambda: from_word(G, [True]),
    "nil-aw-float": lambda: nil_aw((1.0,), class_of((1,))),
    "nil-aw-bool-on-zero": lambda: nil_aw((True,), SchubertVector.zero(ZZ)),
    "monomial-float": lambda: WeightRing(G, QQ).monomial((1.7, 0)),
    "polynomial-bool": lambda: GradedPolynomial(QQ, 2, {(True, 0): 1}),
    "from-terms-float": lambda: WeightRing(G, QQ).from_terms([((1.0, 0), 1)]),
    "root-float": lambda: WeightRing(G, QQ).root(1.0),
    "divided-difference-str": lambda: WeightRing(G, QQ).divided_difference("1", T1),
    "simple-reflection-bool": lambda: simple_reflection(G, True),
    "nil-a-bool": lambda: nil_a(True, class_of((1,))),
    "nil-a-str": lambda: nil_a("1", class_of((1,))),
    "coset-reps-float": lambda: min_coset_reps(G, (1.0,), 2),
    "finite-type-float": lambda: is_finite_type(G, (1.5,)),
    "coxeter-exponent-bool": lambda: coxeter_exponent(G, True, 2),
    "gen-bool": lambda: WeightRing(G, QQ).gen(True),
    "gen-float": lambda: WeightRing(G, QQ).gen(1.0),
    "gen-str": lambda: WeightRing(G, QQ).gen("1"),
    "power-bool": lambda: T1 ** True,
    "power-float": lambda: T1 ** 2.0,
    "power-str": lambda: T1 ** "2",
    "valuation-float-base": lambda: ranktwo.p_adic_valuation(6, 2.5),
    "valuation-float-n": lambda: ranktwo.p_adic_valuation(12.0, 2),
    "valuation-bool": lambda: ranktwo.p_adic_valuation(True, 2),
    "prime-order-float-p": lambda: ranktwo.prime_order_closed(2, 3, 3.0),
    "prime-order-bool-a": lambda: ranktwo.prime_order_closed(True, 4, 3),
    "prime-scan-float-p": lambda: ranktwo.prime_order_scan(2, 3, 3.0, 10),
    "matrix-order-str-p": lambda: ranktwo.matrix_order_method(2, 3, "5"),
    "leibniz-bool-a": lambda: ranktwo.leibniz_cup_solver(True, 4, 3),
    "leibniz-float-bound": lambda: ranktwo.leibniz_cup_solver(2, 3, 3.0),
    "cd-sequences-float-a": lambda: ranktwo.cd_sequences(2.5, 3, 4),
    "hk-integral-float-bound": lambda: ranktwo.hk_integral(2, 3, 2.0),
    "bockstein-float-p": lambda: ranktwo.bockstein_valuation_check(2, 3, 3.0, 5),
    "bockstein-float-bound": lambda: ranktwo.bockstein_valuation_check(2, 3, 3, 5.0),
    "hk-modp-float-bound": lambda: ranktwo.hk_modp_crosscheck(2, 3, 3, 4.0),
    "binomial-C-float": lambda: ranktwo.generalized_binomial_C(T23, 1.0, 1),
    "binomial-C-bool": lambda: ranktwo.generalized_binomial_C(T23, True, 1),
    "binomial-D-str": lambda: ranktwo.generalized_binomial_D(T23, "1", 1),
    "binomial-D-bool": lambda: ranktwo.generalized_binomial_D(T23, 2, False),
    "closed-product-bool": lambda: ranktwo.closed_generator_product(
        T23, ranktwo.DELTA, ranktwo.DELTA, True),
    "closed-product-float": lambda: ranktwo.closed_generator_product(
        T23, ranktwo.TAU, ranktwo.DELTA, 2.0),
    "basis-word-bool": lambda: ranktwo.basis_word(ranktwo.DELTA, True),
    "basis-word-float": lambda: ranktwo.basis_word(ranktwo.TAU, 2.0),
    "constants-bool": lambda: PRODUCTS23.constants(ranktwo.DELTA, True, ranktwo.DELTA, 1),
    "constants-float": lambda: PRODUCTS23.constants(ranktwo.DELTA, 1.0, ranktwo.DELTA, 1),
}


@pytest.mark.parametrize("call", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
def test_outside_integer_must_be_an_int(call):
    with pytest.raises(ValueError, match="not an integer"):
        call()


# a generator index below 1 must not wrap round to the last generator
GENERATOR_INDICES = {
    "weyl-act-zero": lambda: WeightRing(G, QQ).weyl_act(0, T1),
    "divided-difference-negative": lambda: WeightRing(G, QQ).divided_difference(-1, T1),
    "divided-difference-above-rank": lambda: WeightRing(G, QQ).divided_difference(3, T1),
    "operator-word-after-zero": lambda: WeightRing(G, QQ).operator_word((3, 1, 1), T1),
    "root-zero": lambda: WeightRing(G, QQ).root(0),
    "coroot-dual-zero": lambda: WeightRing(G, QQ).coroot_dual(0),
    "coroot-dual-above-rank": lambda: WeightRing(G, QQ).coroot_dual(3),
    "steenrod-check-zero": lambda: WeightRing(G, GF(3)).steenrod_commutation_check(
        0, WeightRing(G, GF(3)).gen(1)),
    "coset-reps-zero": lambda: min_coset_reps(G, (0,), 2),
    "parabolic-basis-above-rank": lambda: parabolic_basis(G, (3,), 2),
    "coxeter-exponent-zero": lambda: coxeter_exponent(G, 0, 2),
    "finite-type-above-rank": lambda: is_finite_type(G, (3,)),
    "simple-reflection-zero": lambda: simple_reflection(G, 0),
    "longest-element-zero": lambda: longest_element(G, (0,)),
}


@pytest.mark.parametrize("call", GENERATOR_INDICES.values(), ids=GENERATOR_INDICES)
def test_generator_index_out_of_range_raises(call):
    with pytest.raises(ValueError, match=r"generator index -?\d+ out of range 1\.\.2"):
        call()


def test_generator_index_rule_is_stated_once():
    src = Path(schubert_kit.__file__).resolve().parent
    stating = sorted(path.name for path in src.glob("*.py")
                     if re.search(r"generator index .* out of range 1\.\.",
                                  path.read_text(encoding="utf-8")))
    assert stating == ["gcm.py"]


# a ring name is Z, Q or F followed by ASCII digits, the rule of every text integer
@pytest.mark.parametrize("name", ["F\u0663", "F\uff13", "F\u00b2", "F+3", "F"])
def test_ring_name_digits_are_ascii(name):
    with pytest.raises(ValueError, match="unknown coefficient ring"):
        parse_ring(name)


# a text coefficient that has no value in the ring
NOT_IN_RING = {
    "Z-zero-denominator": (ZZ, "1/0"),
    "Q-zero-denominator": (QQ, "1/0"),
    "F3-zero-denominator": (GF(3), "1/0"),
    "F2-half": (GF(2), "1/2"),
}


@pytest.mark.parametrize("ring, text", NOT_IN_RING.values(), ids=NOT_IN_RING)
def test_promote_rejects_coefficient_outside_ring(ring, text):
    with pytest.raises(ValueError):
        ring.promote(text)


# the structured matrix form: a dict whose "rows" are lists of integers and
# whose "labels", when given, are a list
GCM_DICTS = {
    "top-level-list": [[2, -1], [-1, 2]],
    "null-rows": {"rows": None},
    "flat-rows": {"rows": [2, -1]},
    "float-entry": {"rows": [[2, -1.5], [-1, 2]]},
    "bool-entry": {"rows": [[2, False], [False, 2]]},
    "string-labels": {"labels": "ab", "rows": [[2, -1], [-1, 2]]},
}


@pytest.mark.parametrize("data", GCM_DICTS.values(), ids=GCM_DICTS)
def test_gcm_from_dict_rejects_other_shapes(data):
    with pytest.raises(ValueError):
        gcm_from_dict(data)


BOUNDS = {
    "enumerate-negative": lambda: enumerate_by_length(G, -1),
    "coset-reps-negative": lambda: min_coset_reps(G, (1,), -1),
    "leibniz-negative": lambda: ranktwo.leibniz_cup_solver(2, 3, -1),
    "hk-integral-negative": lambda: ranktwo.hk_integral(2, 3, -3),
    "bockstein-zero": lambda: ranktwo.bockstein_valuation_check(2, 3, 3, 0),
    "hk-modp-negative": lambda: ranktwo.hk_modp_crosscheck(2, 3, 3, -1),
    "valuation-base-one": lambda: ranktwo.p_adic_valuation(6, 1),
    "valuation-base-zero": lambda: ranktwo.p_adic_valuation(6, 0),
    "valuation-base-negative": lambda: ranktwo.p_adic_valuation(6, -1),
    "gen-zero": lambda: WeightRing(G, QQ).gen(0),
    "gen-above-rank": lambda: WeightRing(G, QQ).gen(3),
    "kernel-row-longer-than-ncols": lambda: kernel_basis([[1, 2, 3]], 2, QQ),
    "kernel-ragged-rows": lambda: kernel_basis([[1, 2], [3]], 2, QQ),
    "rank-short-first-row": lambda: rank([[1], [2, 3]], QQ),
    "rank-short-later-row": lambda: rank([[1, 2], [3]], QQ),
}


@pytest.mark.parametrize("call", BOUNDS.values(), ids=BOUNDS)
def test_out_of_range_bound_raises(call):
    with pytest.raises(ValueError):
        call()


# a rank-two index outside its table, or an unknown kind, must not wrap round
# or fall through to the other kind
RANK_TWO_INDICES = {
    "closed-product-minus-one": lambda: ranktwo.closed_generator_product(
        T23, ranktwo.DELTA, ranktwo.DELTA, -1),
    "closed-product-minus-five": lambda: ranktwo.closed_generator_product(
        T23, ranktwo.TAU, ranktwo.DELTA, -5),
    "closed-product-past-table": lambda: ranktwo.closed_generator_product(
        T23, ranktwo.DELTA, ranktwo.TAU, 10),
    "basis-word-negative": lambda: ranktwo.basis_word(ranktwo.DELTA, -2),
    "basis-word-unknown-kind": lambda: ranktwo.basis_word("delt", 3),
    "basis-element-unknown-kind": lambda: ranktwo.basis_element(G, "x", 2),
}


@pytest.mark.parametrize("call", RANK_TWO_INDICES.values(), ids=RANK_TWO_INDICES)
def test_rank_two_index_out_of_range_raises(call):
    with pytest.raises(ValueError):
        call()


# p must be prime in all three prime-order methods, even when no index is scanned
NOT_PRIMES = {
    "scan-one": lambda: ranktwo.prime_order_scan(2, 3, 1, 10),
    "scan-zero-empty": lambda: ranktwo.prime_order_scan(2, 3, 0, 0),
    "scan-composite": lambda: ranktwo.prime_order_scan(2, 3, 4, 20),
    "scan-negative": lambda: ranktwo.prime_order_scan(2, 3, -3, 20),
    "closed-one": lambda: ranktwo.prime_order_closed(2, 3, 1),
    "matrix-composite": lambda: ranktwo.matrix_order_method(2, 3, 9),
}


@pytest.mark.parametrize("call", NOT_PRIMES.values(), ids=NOT_PRIMES)
def test_prime_argument_must_be_prime(call):
    with pytest.raises(ValueError, match="is not prime"):
        call()


def test_smallest_bounds_still_answer():
    assert [len(level) for level in enumerate_by_length(G, 0)] == [1]
    assert len(min_coset_reps(G, (1,), 0)) == 1
    assert ranktwo.hk_integral(2, 3, 0) == [(0, 0), (1, 1), (3, 0)]
    assert ranktwo.bockstein_valuation_check(2, 3, 3, 1)
    assert ranktwo.hk_modp_crosscheck(2, 3, 3, 0)


# decoder -> (call, key of the integer list, a valid integer list)
DECODERS = {
    "schubert": (lambda data: schubert_from_jsonable(G, ZZ, data), "word", [1]),
    "poly": (lambda data: WeightRing(G, QQ).from_jsonable(data), "exponents", [1, 0]),
}
# payload builders from (key, valid integer list)
BAD_PAYLOADS = {
    "missing-key": lambda key, ints: [{"coefficient": 1}],
    "missing-coefficient": lambda key, ints: [{key: ints}],
    "bool-letter": lambda key, ints: [{key: [True, *ints[1:]], "coefficient": 1}],
    "float-letter": lambda key, ints: [{key: [1.0, *ints[1:]], "coefficient": 1}],
    "float-coefficient": lambda key, ints: [{key: ints, "coefficient": 0.5}],
    "bool-coefficient": lambda key, ints: [{key: ints, "coefficient": True}],
    "letters-not-a-list": lambda key, ints: [{key: 1, "coefficient": 1}],
    "entry-not-an-object": lambda key, ints: [ints],
    "payload-not-a-list": lambda key, ints: {key: ints, "coefficient": 1},
}


@pytest.mark.parametrize("payload", BAD_PAYLOADS.values(), ids=BAD_PAYLOADS)
@pytest.mark.parametrize("decoder", DECODERS.values(), ids=DECODERS)
def test_decoder_rejects_malformed_payload(decoder, payload):
    call, key, ints = decoder
    with pytest.raises(ValueError):
        call(payload(key, ints))


@pytest.mark.parametrize("decoder", DECODERS.values(), ids=DECODERS)
def test_decoder_reads_int_and_str_coefficients(decoder):
    call, key, ints = decoder
    once = call([{key: ints, "coefficient": 3}])
    assert call([{key: ints, "coefficient": "1"}, {key: ints, "coefficient": 2}]) == once


# -- a seeded fuzz of the command line ------------------------------------

FUZZ_SEED = 20261018
GCMS = ("2,-1;-1,2", "2,-2;-3,2", "2,-1,-1;-1,2,-1;-1,-1,2")
LETTERS = (1, 1, 2, 2, 3, 0, -1, True, 1.5, "1", None)
COEFFICIENTS = (1, -2, 7, "3", "1/2", "-5/3", "1/0", "x", 0.5, False, None, [1])


def random_word_text(rng):
    letters = [str(rng.choice((1, 2, 3))) for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.2:
        letters.append(rng.choice(("0", "-1", "7", "a", "", "1.0")))
    return ",".join(letters)


def random_payload(rng, key, width):
    if rng.random() < 0.05:
        return rng.choice(("{}", "[", "null", "[1, 2]", '"word"'))
    entries = []
    for _ in range(rng.randint(0, 3)):
        size = width if key == "exponents" and rng.random() < 0.8 else rng.randint(0, 3)
        ints = [rng.choice(LETTERS) if rng.random() < 0.1 else rng.randint(0, 2)
                for _ in range(size)]
        entry = {key: ints, "coefficient": rng.choice(COEFFICIENTS)}
        if rng.random() < 0.05:
            del entry[rng.choice((key, "coefficient"))]
        entries.append(entry)
    return json.dumps(entries)


def random_argv(rng):
    gcm = rng.choice(GCMS)
    kind = rng.randrange(5)
    if kind == 0:
        return ["schubert", "act", "--gcm", gcm, "--word", random_word_text(rng),
                "--class", random_payload(rng, "word", 0),
                "--ring", rng.choice(("Z", "Q", "F2", "F3"))]
    if kind == 1:
        width = 2 if gcm.count(";") == 1 else 4  # standard realizations
        return ["poly", "psi", "--gcm", gcm, "--poly", random_payload(rng, "exponents", width),
                "--field", rng.choice(("Q", "F2", "F3", "Z")),
                "--realization", rng.choice(("standard", "derived"))]
    if kind == 2:
        return ["weyl", "bruhat", "--gcm", gcm, "--u", random_word_text(rng),
                "--v", random_word_text(rng)]
    if kind == 3:
        return ["schubert", "coproduct", "--gcm", gcm, "--word", random_word_text(rng)]
    bound = str(rng.randint(-3, 3))
    return rng.choice((
        ["weyl", "enum", "--gcm", gcm, "--max-len", bound],
        ["poly", "invariants", "--gcm", gcm, "--max-deg", bound],
        ["rank2", "table", "-N", bound],
        ["rank2", "products", "-N", bound],
        ["rank2", "hk", "-N", bound],
        ["rank2", "prime-order", "-p", rng.choice(("2", "3", "4")), "-N", bound],
        ["rank2", "bockstein", "-p", "3", "-S", bound],
        ["rank2", "hopf", "-p", "3", "-N", bound],
    ))


def assert_exit_contract(argv, capsys, *context):
    """Runs a command line twice: it exits 0, or 2 with a message and no
    output, with no traceback, and the same way both times."""
    code, out, err = run_main(argv, capsys)
    assert code in (0, 2), (argv, *context, code, err)
    assert "Traceback" not in err, argv
    assert (code == 2) == bool(err.strip()), (argv, *context, err)
    assert code == 0 or out == "", (argv, out)
    assert run_main(argv, capsys) == (code, out, err), argv
    return code, out


def test_fuzzed_commands_exit_0_or_2_deterministically(capsys):
    rng = random.Random(FUZZ_SEED)
    codes = []
    for _ in range(160):
        code, _ = assert_exit_contract(random_argv(rng), capsys)
        codes.append(code)
    assert 0 in codes and 2 in codes


# -- random Cartan matrices, inline and as --gcm-file payloads -------------

MATRIX_SEED = 20261020


def random_gcm_payload(rng, rows):
    """The JSON text of a --gcm-file: the matrix as it is, or broken one way."""
    doc = {"rows": [list(row) for row in rows]}
    if rng.random() < 0.3:
        doc["labels"] = [f"x{i}" for i in range(len(rows))]
    flaw = rng.randrange(8)
    if flaw == 1:
        doc["labels"] = ["x"] * (len(rows) + 1)
    elif flaw == 2:
        doc["rows"][-1].append(0)
    elif flaw == 3:
        doc["rows"][0][0] = rng.choice((2.0, True, "2", None, 3))
    elif flaw == 4:
        doc = rng.choice(({}, doc["rows"], {"rows": "2"}, {"rows": doc["rows"], "labels": "x"}))
    elif flaw == 5:
        return json.dumps(doc)[:-1]
    return json.dumps(doc)


def matrix_text(rows):
    return ";".join(",".join(map(str, row)) for row in rows)


def random_matrix_argv(rng, rows, gcm_file):
    source = ["--gcm-file", gcm_file] if rng.random() < 0.3 else ["--gcm", matrix_text(rows)]
    top = len(rows) + (rng.random() < 0.1)  # sometimes one letter past the rank
    word = ",".join(str(rng.randint(1, top)) for _ in range(rng.randint(0, 4)))
    return rng.choice((
        ["gcm", "check", *source],
        ["gcm", "poset", *source],
        ["weyl", "enum", *source, "--max-len", str(rng.randint(0, 3))],
        ["schubert", "coproduct", *source, "--word", word],
    ))


def test_random_cartan_matrices_exit_0_or_2_deterministically(tmp_path, capsys):
    rng = random.Random(MATRIX_SEED)
    gcm_file = tmp_path / "gcm.json"
    codes = {}
    for _ in range(300):
        rows = random_cartan_rows(rng, rng.randint(1, 4), 4)
        payload = random_gcm_payload(rng, rows)
        gcm_file.write_text(payload)
        argv = random_matrix_argv(rng, rows, str(gcm_file))
        code, out = assert_exit_contract(argv, capsys, payload)
        if "--gcm-file" in argv and '"labels"' not in payload and code == 0:
            at = argv.index("--gcm-file")
            inline = [*argv[:at], "--gcm", matrix_text(rows), *argv[at + 2:]]
            assert run_main(inline, capsys) == (0, out, ""), argv
        codes.setdefault((argv[0], argv[1]), set()).add(code)
    assert all(found == {0, 2} for found in codes.values()), codes
