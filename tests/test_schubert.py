import pytest

from schubert_kit.errors import NotReduced
from schubert_kit.gcm import rank_two, validate_gcm
from schubert_kit.rings import GF, QQ, ZZ
from schubert_kit.schubert import (
    SchubertVector,
    TensorVector,
    identity_vector,
    l_functional,
    nil_a,
    nil_aw,
    parabolic_basis,
    peterson_coproduct,
    schubert_from_jsonable,
    schubert_to_jsonable,
)
from schubert_kit.weyl import (
    enumerate_by_length,
    from_word,
    identity_element,
    multiply,
    simple_reflection,
)

from conftest import AFFINE_A2, B4, HYPERBOLIC_RANK3, coassociator


def basis(g, word, ring=ZZ):
    return SchubertVector.basis(ring, from_word(g, word))


def test_nil_a_on_generators(gcm_a23):
    for j in (1, 2):
        assert nil_a(j, basis(gcm_a23, (j,))) == identity_vector(gcm_a23, ZZ)
        assert nil_a(j, identity_vector(gcm_a23, ZZ)).is_zero()


def test_nil_a_descent_rule(gcm_a22):
    v = basis(gcm_a22, (2, 1))
    assert nil_a(1, v) == basis(gcm_a22, (2,))
    assert nil_a(2, v).is_zero()


def test_nil_a_rejects_generator_out_of_range(gcm_a11):
    v = basis(gcm_a11, (2, 1))
    for i in (0, 3):
        with pytest.raises(ValueError):
            nil_a(i, v)
    # the zero vector names no group, but a letter below 1 is never valid
    for i in (0, -3):
        with pytest.raises(ValueError):
            nil_a(i, SchubertVector.zero(ZZ))
        with pytest.raises(ValueError):
            nil_aw((i, 1), SchubertVector.zero(ZZ))


def test_nil_a_rejects_classes_of_two_groups(gcm_a11, gcm_a22):
    mixed = SchubertVector(ZZ, {from_word(gcm_a11, (2, 1)): 1, from_word(gcm_a22, (1,)): 1})
    with pytest.raises(ValueError, match="different groups"):
        nil_a(1, mixed)


def test_nil_aw_single_letter(gcm_a23):
    v = basis(gcm_a23, (1, 2))
    assert nil_aw((2,), v) == nil_a(2, v)


def test_nil_aw_top_class(gcm_a11):
    w0 = basis(gcm_a11, (1, 2, 1))
    assert nil_aw((1, 2, 1), w0) == identity_vector(gcm_a11, ZZ)


def test_nil_aw_rejects_non_reduced(gcm_a11):
    v = basis(gcm_a11, (1, 2))
    with pytest.raises(NotReduced):
        nil_aw((1, 1), v)
    with pytest.raises(NotReduced):
        nil_aw((1, 2, 1, 2), v)  # braid shortens this word


def test_nil_aw_matches_closed_action(gcm_a22, gcm_a11):
    # A_w sends the class of v to the class of v w^{-1} when lengths add
    for g in (gcm_a22, gcm_a11):
        elems = [w for level in enumerate_by_length(g, 6) for w in level]
        for v in elems:
            vec = SchubertVector.basis(ZZ, v)
            for w in elems:
                if w.length == 0:
                    continue
                got = nil_aw(w.word, vec)
                target = multiply(v, from_word(g, w.word[::-1]))
                if w.length + target.length == v.length:
                    assert got == SchubertVector.basis(ZZ, target)
                else:
                    assert got.is_zero()


def test_l_functional(gcm_a23):
    w = from_word(gcm_a23, (1, 2))
    u = from_word(gcm_a23, (2, 1))
    vw = SchubertVector.basis(QQ, w)
    vu = SchubertVector.basis(QQ, u)
    assert l_functional(w, vw) == 1
    assert l_functional(w, vu) == 0
    mix = vw.scale(3) + vu.scale(5)
    assert l_functional(w, mix) == 3 and l_functional(u, mix) == 5


def test_coproduct_identity_and_generators(gcm_a23):
    e = identity_element(gcm_a23)
    cop = peterson_coproduct(e)
    assert cop.items() == [((e, e), 1)]
    for i in (1, 2):
        s = simple_reflection(gcm_a23, i)
        cop = peterson_coproduct(s)
        assert cop.coefficient(s, e) == 1
        assert cop.coefficient(e, s) == 1
        assert len(cop.coeffs) == 2


def test_coproduct_rank_two_example(gcm_a22):
    w = from_word(gcm_a22, (2, 1))
    cop = peterson_coproduct(w)
    e = identity_element(gcm_a22)
    expected = {
        (e, w): 1,
        (from_word(gcm_a22, (2,)), from_word(gcm_a22, (1,))): 1,
        (w, e): 1,
    }
    assert cop.coeffs == expected


@pytest.mark.parametrize("gcm, max_len", [
    (validate_gcm(AFFINE_A2), 6),
    (validate_gcm(HYPERBOLIC_RANK3), 5),
    (rank_two(2, 3), 30),
    (validate_gcm(B4), 16),  # every element: the longest has length 16
], ids=["affine-A2", "hyperbolic-rank-3", "2-3", "B4"])
def test_coproduct_matches_definition(gcm, max_len):
    # the coproduct is the transpose of the nil-Coxeter action: the coefficient
    # of u (x) v in Delta(w) is that of u in A_v applied to the class of w
    elements = [w for level in enumerate_by_length(gcm, max_len) for w in level]
    for w in elements:
        acted = {(): SchubertVector.basis(ZZ, w)}

        def act(word):
            # A_word = A_{word[0]} A_{word[1:]}, so words share their suffixes
            if word not in acted:
                acted[word] = nil_a(word[0], act(word[1:]))
            return acted[word]

        expected = {(u, v): c for v in elements if v.length <= w.length
                    for u, c in act(v.word).coeffs.items()}
        assert peterson_coproduct(w).coeffs == expected, w.word


@pytest.mark.parametrize("gcm, word", [
    (validate_gcm(HYPERBOLIC_RANK3), (1, 2, 3, 2, 1, 3, 1, 2) * 5),
    (rank_two(2, 3), (1, 2) * 100),
], ids=["hyperbolic-rank-3-length-40", "2-3-length-200"])
def test_coproduct_of_long_words(gcm, word):
    # reduced words are unique in both groups, so the terms are the l + 1 splits of the word
    w = from_word(gcm, word)
    assert w.word == word
    terms = peterson_coproduct(w).support()
    assert len(terms) == len(word) + 1
    for u, v in terms:
        assert u.word + v.word == word
        assert len(u.word) == u.length and len(v.word) == v.length


def test_coassociativity(gcm_affine_a2):
    # criterion 08 runs the same check on (2,3) and (1,1) to length 7
    for level in enumerate_by_length(gcm_affine_a2, 4):
        for w in level:
            cop = peterson_coproduct(w)
            assert coassociator(cop, 0) == coassociator(cop, 1), w


def test_parabolic_basis(gcm_a23, gcm_a11):
    full = parabolic_basis(gcm_a23, (), 5)
    assert len(full) == 11
    reps = parabolic_basis(gcm_a23, (1,), 5)
    assert [w.length for w in reps] == list(range(6))
    assert all(w.word[-1] == 2 for w in reps if w.length)
    # the returned classes are annihilated by every operator in the subset
    for g, subset in ((gcm_a23, (1,)), (gcm_a11, (2,))):
        for w in parabolic_basis(g, subset, 5):
            for j in subset:
                assert nil_a(j, SchubertVector.basis(ZZ, w)).is_zero()


def test_vector_arithmetic_and_rings(gcm_a22):
    v = basis(gcm_a22, (1,), ring=GF(3))
    three = v.scale(3)
    assert three.is_zero()
    w = basis(gcm_a22, (2,), ring=GF(3))
    assert (v + w) - v == w
    with pytest.raises(ValueError):
        v + basis(gcm_a22, (2,), ring=ZZ)


def test_serialization_roundtrip(gcm_a23):
    v = basis(gcm_a23, (1, 2), ring=QQ).scale("3/2") + basis(
        gcm_a23, (2,), ring=QQ
    )
    data = schubert_to_jsonable(v)
    assert schubert_from_jsonable(gcm_a23, QQ, data) == v
    assert data == [
        {"word": [2], "coefficient": 1},
        {"word": [1, 2], "coefficient": "3/2"},
    ]


def test_tensor_vector_zero_pruning(gcm_a22):
    e = identity_element(gcm_a22)
    t = TensorVector(ZZ, {(e, e): 0})
    assert t.coeffs == {}


def test_vectors_over_gf_add_across_a_cleared_memo(gcm_a22):
    # GF's memo is capped, so a field may be built again after eviction
    assert GF.cache_info().maxsize is not None
    s1 = from_word(gcm_a22, (1,))
    old = GF(5)
    u = SchubertVector(old, {s1: 2})
    GF.cache_clear()
    new = GF(5)
    assert new == old and new is not old
    assert (u + SchubertVector(new, {s1: 4})).coeffs == {s1: 1}
