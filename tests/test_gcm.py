import json
import random
from itertools import combinations, product

import pytest

from schubert_kit import intmat
from schubert_kit.errors import DiagonalNotTwo, PositiveOffDiagonal, ZeroAsymmetry
from schubert_kit.gcm import (
    coxeter_exponent,
    gcm_from_dict,
    gcm_from_file,
    is_finite_type,
    parse_gcm,
    rank_two,
    spherical_poset,
    standard_realization,
    validate_gcm,
)
from schubert_kit.selftests import (
    poset_downward_closed,
    rank_two_calibration,
    realization_pairings,
)

from conftest import AFFINE_A2, SEED, leibniz_det, oracle_rref


def test_validate_accepts_rank_two_hyperbolic():
    g = validate_gcm([[2, -2], [-2, 2]])
    assert g.a(1, 2) == -2 and g.a(2, 1) == -2


def test_validate_accepts_rank_one():
    g = validate_gcm([[2]])
    assert g.size == 1


def test_validate_rejections():
    with pytest.raises(ZeroAsymmetry):
        validate_gcm([[2, -1], [0, 2]])
    with pytest.raises(DiagonalNotTwo):
        validate_gcm([[1, -1], [-1, 2]])
    with pytest.raises(PositiveOffDiagonal):
        validate_gcm([[2, 1], [-1, 2]])
    with pytest.raises(ValueError):
        validate_gcm([[2, -1]])


def test_parse_inline_and_dict_agree():
    inline = parse_gcm("2,-2;-3,2")
    structured = gcm_from_dict({"labels": ["1", "2"], "rows": [[2, -2], [-3, 2]]})
    assert inline == structured


def test_parse_accepts_unicode_minus():
    assert parse_gcm("2,−2;−2,2") == rank_two(2, 2)


@pytest.mark.parametrize("text", [
    "2,-1_0;-1,2", "2,-1;-1,2_0", "2,-١;-1,2", "2,-1;-1,２", "2,-1;-1,2.0",
    "2,- 1;-1,2", "2,+-1;-1,2", "2,-1;-1,", "2,0x1;-1,2",
])
def test_parse_reads_ascii_integers_only(text):
    with pytest.raises(ValueError):
        parse_gcm(text)


def test_parse_strips_each_entry():
    assert parse_gcm(" +2 , -2 ;\t-3,2\n") == rank_two(2, 3)


def test_gcm_file_roundtrip(tmp_path):
    g = validate_gcm(AFFINE_A2, labels=["x", "y", "z"])
    path = tmp_path / "gcm.json"
    path.write_text(json.dumps(g.to_dict()))
    assert gcm_from_file(path) == g


def test_coxeter_exponent_values():
    assert coxeter_exponent(rank_two(1, 1), 1, 2) == 3
    assert coxeter_exponent(rank_two(2, 2), 1, 2) is None
    assert coxeter_exponent(rank_two(0, 0), 1, 2) == 2
    assert coxeter_exponent(rank_two(2, 1), 1, 2) == 4
    assert coxeter_exponent(rank_two(3, 1), 1, 2) == 6
    with pytest.raises(ValueError):
        coxeter_exponent(rank_two(1, 1), 1, 1)


@pytest.mark.parametrize("a,b", [(0, 0), *product(range(1, 5), repeat=2)])
def test_finite_type_rank_two_calibration(a, b):
    assert rank_two_calibration([(a, b)], bound=100) == []


def test_finite_type_trivial_cases(gcm_affine_a2):
    assert is_finite_type(gcm_affine_a2, ())
    assert is_finite_type(gcm_affine_a2, (1,))
    assert not is_finite_type(gcm_affine_a2, (1, 2, 3))
    assert is_finite_type(gcm_affine_a2, (1, 2))


def test_finite_type_downward_closed(gcm_affine_a2, gcm_a22, gcm_a11):
    assert poset_downward_closed((gcm_affine_a2, gcm_a22, gcm_a11)) == []


def test_spherical_poset_examples(gcm_a22, gcm_a11):
    assert spherical_poset(gcm_a22).subsets == ((), (1,), (2,))
    assert spherical_poset(gcm_a11).subsets == ((), (1,), (2,), (1, 2))
    assert spherical_poset(validate_gcm([[2]])).subsets == ((), (1,))


def test_spherical_poset_covers(gcm_a11):
    covers = set(spherical_poset(gcm_a11).covers)
    assert ((), (1,)) in covers
    assert ((1,), (1, 2)) in covers
    assert ((), (1, 2)) not in covers


def _random_gcm(rng, n):
    """Off-diagonal pairs drawn independently, so most are not symmetrizable."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                rows[i][j], rows[j][i] = -rng.randint(1, 3), -rng.randint(1, 3)
    return rows


def test_spherical_poset_matches_principal_minor_oracle():
    rng = random.Random(20261018)
    for _ in range(150):
        rows = _random_gcm(rng, rng.randint(1, 6))
        n = len(rows)
        minor = {
            sub: leibniz_det([[rows[i][j] for j in sub] for i in sub])
            for r in range(n + 1)
            for sub in combinations(range(n), r)
        }
        want = [
            tuple(i + 1 for i in sub)
            for sub in minor
            if all(minor[s] > 0 for r in range(1, len(sub) + 1) for s in combinations(sub, r))
        ]
        want_covers = sorted(
            (a, b) for a in want for b in want if len(b) == len(a) + 1 and set(a) < set(b)
        )
        poset = spherical_poset(validate_gcm(rows))
        assert poset.subsets == tuple(want), rows
        assert poset.covers == tuple(want_covers), rows


def _own_connected(rows, sub):
    """``sub`` is connected in the Dynkin graph, by growing one component."""
    comp = {sub[0]}
    grew = True
    while grew:
        grew = False
        for j in sub:
            if j not in comp and any(rows[i][j] for i in comp):
                comp.add(j)
                grew = True
    return len(comp) == len(sub)


def test_is_finite_type_matches_principal_minor_oracle():
    rng = random.Random(20261019)
    seen = {"disconnected finite": 0, "disconnected infinite": 0, "non-symmetric": 0}
    for _ in range(80):
        rows = _random_gcm(rng, rng.randint(1, 6))
        n = len(rows)
        g = validate_gcm(rows)
        seen["non-symmetric"] += any(rows[i][j] != rows[j][i] for i in range(n) for j in range(n))
        positive = {
            sub: leibniz_det([[rows[i][j] for j in sub] for i in sub]) > 0
            for r in range(1, n + 1)
            for sub in combinations(range(n), r)
        }
        for sub in positive:
            want = all(positive[t] for r in range(1, len(sub) + 1) for t in combinations(sub, r))
            assert is_finite_type(g, [i + 1 for i in reversed(sub)]) == want, (rows, sub)
            if not _own_connected(rows, sub):
                seen["disconnected finite" if want else "disconnected infinite"] += 1
        assert is_finite_type(g, ())
    assert all(seen.values()), seen


def test_determinants_only_for_connected_subsets(monkeypatch):
    # affine A_7: the connected subsets of an 8-cycle are its 8 * 7 arcs and the cycle
    g = validate_gcm([[2 if i == j else -1 if (i - j) % 8 in (1, 7) else 0 for j in range(8)]
                      for i in range(8)])
    calls = []
    det = intmat.det
    monkeypatch.setattr(intmat, "det", lambda m: calls.append(m) or det(m))
    assert len(spherical_poset(g).subsets) == 2 ** 8 - 1
    assert len(calls) == 8 * 7 + 1
    calls.clear()
    assert not is_finite_type(g, g.index_set)
    assert len(calls) == 8 * 7 + 1


def test_spherical_poset_membership(gcm_affine_a2):
    poset = spherical_poset(gcm_affine_a2)
    assert () in poset
    assert (2,) in poset
    assert (3, 1) in poset and [2, 1] in poset and {3, 2} in poset
    assert (1, 2, 3) not in poset and (3, 2, 1) not in poset
    assert (4,) not in poset and (1, 1) not in poset


def test_spherical_poset_affine_a9_counts():
    n = 10
    rows = [[2 if i == j else -1 if (i - j) % n in (1, n - 1) else 0 for j in range(n)]
            for i in range(n)]
    poset = spherical_poset(validate_gcm(rows))
    assert len(poset.subsets) == 2 ** n - 1
    assert len(poset.covers) == n * 2 ** (n - 1) - n


def test_standard_realization_nonsingular(gcm_a11):
    real = standard_realization(gcm_a11)
    assert real.torus_rank == 2
    assert real.root_functionals == ((2, -1), (-1, 2))
    assert real.coroots == ((1, 0), (0, 1))


def test_standard_realization_singular(gcm_a22):
    real = standard_realization(gcm_a22)
    assert real.torus_rank == 3  # 2*2 - rank 1


@pytest.mark.parametrize("rows", [[[2, -2], [-3, 2]], [[2, -2], [-2, 2]], AFFINE_A2])
def test_realization_pairings_exhaustive(rows):
    assert realization_pairings([validate_gcm(rows)]) == []


def _rank(rows):
    return len(oracle_rref(rows, len(rows[0]), 0)[0])


def test_standard_realization_roots_independent(gcm_a22, gcm_affine_a2):
    for g in (gcm_a22, gcm_affine_a2):
        real = standard_realization(g)
        for v in (real.root_functionals, real.coroots):
            assert _rank(v) == len(v)


def _block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(b)] = row
        at += len(b)
    return rows


def test_standard_realization_completes_by_lowest_index():
    # the rows of A, then each e_k in index order that raises the rank
    rng = random.Random(SEED)
    affine_a1 = [[2, -2], [-2, 2]]
    cases = [_block_sum(affine_a1, affine_a1), _block_sum(affine_a1, AFFINE_A2),
             _block_sum([[2]], affine_a1, [[2, -1], [-4, 2]])]
    for trial in range(150):
        n = rng.randint(1, 5)
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < (0.3 if trial % 2 else 0.8):
                    a, b = rng.choice([(-2, -2), (-1, -4), (-1, -1), (-1, -2), (-3, -1)])
                    rows[i][j], rows[j][i] = a, b
        cases.append(rows)
    coranks = []
    for rows in cases:
        g = validate_gcm(rows)
        stacked = [list(row) for row in g.entries]
        for k in range(g.size):
            cand = [int(t == k) for t in range(g.size)]
            if _rank(stacked + [cand]) > _rank(stacked):
                stacked.append(cand)
        coranks.append(len(stacked) - g.size)
        real = standard_realization(g)
        assert real.torus_rank == len(stacked)
        assert real.root_functionals == tuple(zip(*stacked)), rows
    assert coranks[:3] == [2, 2, 2] and coranks.count(1) >= 10


def test_affine_a2_torus_rank(gcm_affine_a2):
    assert standard_realization(gcm_affine_a2).torus_rank == 4  # 2*3 - rank 2
