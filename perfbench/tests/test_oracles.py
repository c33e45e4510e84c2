"""Hand-checked small cases for the benchmark's oracles, tracer and parser.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import oracles as O  # noqa: E402
from cli_workload import parse_table  # noqa: E402
from tracing import METRICS, Tracer, layer_metrics  # noqa: E402

A2_FINITE = [[2, -1], [-1, 2]]
AFFINE_A1 = [[2, -2], [-2, 2]]


def test_det_and_rank():
    assert O.det(A2_FINITE) == 3
    assert O.det([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == 4
    assert O.det(O.affine_a(3)) == 0
    assert O.det([[0, 1], [1, 0]]) == -1
    assert O.rank(O.affine_a(3)) == 2
    assert O.rank(AFFINE_A1) == 1


def test_spherical_subsets():
    assert O.spherical_subsets(A2_FINITE) == [(), (1,), (2,), (1, 2)]
    assert O.spherical_subsets(AFFINE_A1) == [(), (1,), (2,)]
    assert O.affine_poset_counts(3) == (7, 9)
    assert len(O.spherical_subsets(O.affine_a(4))) == O.affine_poset_counts(4)[0] == 15


def test_permuted_matrix_keeps_the_cycle():
    rows = O.permuted(O.affine_a(4), [2, 0, 3, 1])
    assert rows[0][1] == O.affine_a(4)[2][0] == 0
    assert rows[0][2] == O.affine_a(4)[2][3] == -1


def test_components_and_longest_lengths():
    assert sorted(O.cyclic_components({1, 2, 4}, 5)) == [1, 2]
    assert sorted(O.cyclic_components({5, 1, 3}, 5)) == [1, 2]
    assert O.cyclic_components({1, 2, 3}, 8) == [3]
    assert O.longest_length_type_a([3]) == 6
    assert O.longest_length_type_a([2, 1]) == 4


def test_free_groups():
    assert O.free_reduced_words(2, 3) == [(1, 2, 1), (2, 1, 2)]
    assert len(O.free_reduced_words(3, 4)) == O.free_growth(3, 4) == 24
    assert O.free_growth(2, 0) == 1
    assert O.free_reduce((1, 1, 2, 1, 2, 2)) == (2, 1)
    assert O.dihedral_leq((1, 2), (1, 2, 1))
    assert not O.dihedral_leq((1, 2), (2, 1))
    assert O.dihedral_leq((2, 1), (2, 1))


def test_affine_permutations():
    ap = O.AffinePerm(3)
    assert ap.from_word((1,)) == (2, 1, 3)
    assert ap.from_word((3,)) == (0, 2, 4)
    assert ap.length(ap.from_word((3,))) == 1
    assert ap.from_word((1, 2, 1)) == ap.from_word((2, 1, 2))
    assert ap.length(ap.from_word((1, 2, 3))) == 3
    assert ap.length(ap.from_word((1, 1))) == 0
    assert [len(level) for level in ap.levels(3)] == [1, 3, 6, 9]
    assert ap.compose(ap.from_word((1, 2)), ap.from_word((3,))) == ap.from_word((1, 2, 3))
    assert len(ap.subword_closure((1, 2))) == 4
    assert ap.left_factors(ap.from_word((1, 2))) == {
        ap.identity(), ap.from_word((1,)), ap.from_word((1, 2))}
    assert ap.is_right_descent(ap.from_word((1, 2)), 2)
    assert not ap.is_right_descent(ap.from_word((1, 2)), 1)


def test_monomial_counts_and_realizations():
    assert O.monomial_count(2, 3) == 4
    assert O.monomial_count(4, 2) == 10
    assert O.monomial_count(3, 0) == 1
    assert O.standard_roots(A2_FINITE) == [(2, -1), (-1, 2)]
    assert O.standard_roots(AFFINE_A1) == [(2, -2, 1), (-2, 2, 0)]
    assert O.derived_roots(AFFINE_A1) == [(2, -2), (-2, 2)]


def test_divided_differences_in_rank_one():
    # alpha = 2t and r(t) = -t, so d(t) = 1, d(t^2) = 0, d(t^3) = t^2
    assert O.divided_difference({(1,): Fraction(1)}, 1, (2,), 1) == {(0,): 1}
    assert O.divided_difference({(2,): Fraction(1)}, 1, (2,), 1) == {}
    assert O.divided_difference({(3,): Fraction(1)}, 1, (2,), 1) == {(2,): 1}
    assert O.psi_coefficient({(1,): 1}, (1,), [(2,)], 1) == 1
    assert O.psi_coefficient({(2,): 1}, (1, 1), [(2,)], 1) == 0


def test_degree_two_values():
    assert O.degree_two_values(A2_FINITE, 1) == {(1,): 2, (2,): -1}
    assert O.degree_two_values([[2, 0], [0, 2]], 2) == {(2,): 2}


def test_series_factorization():
    assert O.peel_factors([1, 1, 0, 0], 1) == (2,)
    assert O.series_from_factors((2,), 1, 3) == [1, 1, 0, 0]
    assert O.peel_factors([1, 2, 2, 2], 2) == (2,)
    assert O.peel_factors([1, 2, 4], 2) is None
    assert O.series_from_factors((1, 2, 3), 4, 5) == [1, 3, 5, 6, 6, 6]


def test_rank_two_sequences():
    c, d = O.cd(2, 3, 4)
    assert c == [0, 1, 2, 5, 8] and d == [0, 1, 3, 5, 12]
    assert O.g_sequence(2, 3, 6) == [0, 1, 1, 5, 4, 19, 15]
    assert O.least_k(2, 3, 3) == 6
    assert O.least_k(1, 5, 2) == 3
    assert O.valuation(24, 2) == 3 and O.valuation(-9, 3) == 2
    # (1, 7): g_3 = 6 and g_6 = 24, the smallest p = 2 counterexample
    assert O.g_sequence(1, 7, 6)[3] == 6 and O.g_sequence(1, 7, 6)[6] == 24
    assert not O.bockstein_identity(1, 7, 2, 2)
    assert O.bockstein_identity(2, 3, 3, 10)


def test_binomials():
    pre = O.prefix_products([0, 1, 2, 5, 8])
    assert pre == [1, 1, 2, 10, 80]
    assert O.binomial(pre, 1, 1) == 2
    assert O.binomial(pre, 2, 2) == Fraction(80, 4)
    assert O.binomial(pre, 0, 3) == 1


def test_product_table_low_degrees():
    table = O.product_table(2, 3, 3)
    assert table[("delta", 1, "delta", 1)] == (3, 0)  # d_2 delta_2
    assert table[("delta", 1, "tau", 1)] == (1, 1)  # delta_2 + d_1 tau_2
    assert table[("tau", 1, "tau", 1)] == (0, 2)  # c_2 tau_2
    assert table[("tau", 1, "delta", 1)] == (1, 1)  # tau_2 + c_1 delta_2
    assert len(table) == 2 * 3 * 2


def test_hopf_and_homology():
    assert O.hopf_dims(1, 5, 2, 6) == [1, 0, 0, 1, 0, 0, 1]
    side1, side2 = O.homology_series(2, 2, 2, 12)
    assert side1 == side2
    assert side1[:5] == [1, 0, 0, 2, 1]  # k = 2: (1 + t^3)^2 / (1 - t^4)


def test_parse_table():
    text = ("# a=2 b=3 N=2\n"
            "n  c  d  g\n"
            "0  0  0  0\n"
            "1  1  1  1\n"
            "agree: True\n")
    meta, rows, extras = parse_table(text)
    assert meta == {"a": "2", "b": "3", "N": "2"}
    assert rows == [{"n": "0", "c": "0", "d": "0", "g": "0"}, {"n": "1", "c": "1", "d": "1", "g": "1"}]
    assert extras == {"agree": "True"}
    _meta, rows, _extras = parse_table("length  word\n0\n1       1\n")
    assert rows == [{"length": "0", "word": ""}, {"length": "1", "word": "1"}]


def test_self_time_subtracts_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    wrapped_inner = tracer._wrap(inner, "weyl.multiply")

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    tracer._wrap(outer, "weyl.bruhat_leq")()
    prim = tracer.primitives()
    assert prim["calls"] == {"weyl.bruhat_leq": 1, "weyl.multiply": 2}
    assert 0.009 < prim["self_s"]["weyl.bruhat_leq"] < 0.03
    assert 0.039 < prim["self_s"]["weyl.multiply"] < 0.07
    metrics = layer_metrics(prim)
    assert metrics["weyl.multiply.calls"] == 2
    assert metrics["trace.spans"] == 3


def test_benchmark_json_names_every_metric():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(METRICS) + list(run.TRACE_EXTRA)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_scaled_segments_take_each_segment_median_at_reference_speed():
    import run

    ref = run.REFERENCE_S
    rounds = [
        {"segments": {"a": (1.0, 0.9, ref), "b": (4.0, 4.0, 2 * ref)}},
        {"segments": {"a": (3.0, 2.7, 3 * ref), "b": (2.0, 2.0, ref)}},
        {"segments": {"a": (1.2, 1.0, ref), "b": (2.2, 2.2, ref)}},
    ]
    # a: 1.0, 1.0, 1.2 -> 1.0; b: 2.0, 2.0, 2.2 -> 2.0
    assert abs(run.scaled_segments(rounds, 0) - 3.0) < 1e-12
    assert abs(run.scaled_segments(rounds, 1) - (0.9 + 2.0)) < 1e-12
