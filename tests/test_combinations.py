"""The contract shared by the three linear-combination containers: Schubert
vectors, coproduct tensors and polynomials compare, print, refuse hashing and
refuse mixing rings or classes in one way."""

import operator
from fractions import Fraction

import pytest

from schubert_kit.gcm import rank_two
from schubert_kit.polyring import GradedPolynomial
from schubert_kit.rings import GF, QQ, ZZ, Combination
from schubert_kit.schubert import SchubertVector, TensorVector, peterson_coproduct
from schubert_kit.weyl import from_word

G = rank_two(2, 3)


def w(*word):
    return from_word(G, word)


def vector(ring):
    return SchubertVector(ring, {w(1): 1, w(2, 1): 2})


def tensor(ring):
    return TensorVector(ring, {(w(), w(1)): 1, (w(1), w()): 1})


def poly(ring, nvars=2):
    return GradedPolynomial(ring, nvars, {(1,) + (0,) * (nvars - 1): 1})


MAKERS = {"vector": vector, "tensor": tensor, "polynomial": poly}
NAMES = {"vector": "SchubertVector", "tensor": "TensorVector",
         "polynomial": "GradedPolynomial"}


@pytest.mark.parametrize("kind", MAKERS)
def test_hash_is_refused_with_the_class_name(kind):
    x = MAKERS[kind](ZZ)
    with pytest.raises(TypeError, match=f"^{NAMES[kind]} is not hashable$"):
        hash(x)
    with pytest.raises(TypeError):
        {x}  # noqa: B018


REPRS = {
    "vector-zero": (lambda: SchubertVector.zero(ZZ), "0"),
    "tensor-zero": (lambda: TensorVector(ZZ), "0"),
    "polynomial-zero": (lambda: GradedPolynomial.zero(ZZ, 2), "0"),
    "vector-one-term": (lambda: SchubertVector.basis(ZZ, w(1, 2)), "1*d[1,2]"),
    "tensor-one-term": (lambda: TensorVector(ZZ, {(w(1), w()): 1}), "1*d[1](x)d[e]"),
    "polynomial-one-term": (lambda: GradedPolynomial(ZZ, 2, {(1, 0): 3}), "3*t1"),
    "vector-terms-q": (
        lambda: SchubertVector(QQ, {w(2, 1): Fraction(-1, 2), w(): 3, w(1): 1, w(2): "2/4"}),
        "3*d[e] + 1*d[1] + 1/2*d[2] + -1/2*d[2,1]"),
    "polynomial-terms-q": (
        lambda: GradedPolynomial(QQ, 2, {(0, 2): 1, (1, 1): "-1/3", (0, 0): 5, (2, 0): 2,
                                         (1, 0): 1}),
        "5 + 1*t1 + 1*t2^2 + -1/3*t1*t2 + 2*t1^2"),
    "vector-fp": (lambda: SchubertVector(GF(5), {w(2, 1): -1, w(1, 2): 7, w(1): 5}),
                  "2*d[1,2] + 4*d[2,1]"),
    "tensor-fp": (lambda: TensorVector(GF(3), {(w(1), w(2)): 4, (w(), w(1, 2)): -1}),
                  "2*d[e](x)d[1,2] + 1*d[1](x)d[2]"),
    "polynomial-fp": (lambda: GradedPolynomial(GF(3), 3, {(0, 0, 1): 4, (2, 0, 0): -1,
                                                          (0, 1, 1): 3}),
                      "1*t3 + 2*t1^2"),
    "coproduct": (lambda: peterson_coproduct(w(1, 2, 1)),
                  "1*d[e](x)d[1,2,1] + 1*d[1](x)d[2,1] + 1*d[1,2](x)d[1] + 1*d[1,2,1](x)d[e]"),
}


@pytest.mark.parametrize("case", REPRS)
def test_repr_golden(case):
    make, text = REPRS[case]
    assert repr(make()) == text


def test_items_in_print_order():
    v = SchubertVector(ZZ, {w(2, 1): 4, w(1, 2): 3, w(2): 2, w(): 1})
    assert v.items() == [(w(), 1), (w(2), 2), (w(1, 2), 3), (w(2, 1), 4)]
    assert v.support() == [u for u, _ in v.items()]
    t = TensorVector(ZZ, {(w(1), w(2)): 3, (w(), w(2, 1)): 2, (w(), w(1, 2)): 1,
                          (w(2), w(1)): 4})
    assert t.items() == [((w(), w(1, 2)), 1), ((w(), w(2, 1)), 2),
                         ((w(1), w(2)), 3), ((w(2), w(1)), 4)]
    assert t.support() == [p for p, _ in t.items()]


def test_polynomial_items_by_degree_then_exponents():
    f = GradedPolynomial(ZZ, 2, {(2, 0): 4, (0, 2): 2, (1, 1): 3, (0, 0): 1, (1, 0): 5})
    assert f.items() == [((0, 0), 1), ((1, 0), 5), ((0, 2), 2), ((1, 1), 3), ((2, 0), 4)]
    assert f.coefficient([1, 1]) == 3 and f.terms is f.coeffs


MISMATCHED = {
    "vector-rings": (vector(ZZ), vector(GF(2))),
    "vector-q-fp": (vector(QQ), vector(GF(3))),
    "tensor-rings": (tensor(ZZ), tensor(GF(2))),
    "polynomial-rings": (poly(ZZ), poly(QQ)),
    "polynomial-nvars": (poly(ZZ, 2), poly(ZZ, 3)),
}


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
@pytest.mark.parametrize("case", MISMATCHED)
def test_arithmetic_across_rings_is_refused(case, op):
    x, y = MISMATCHED[case]
    for left, right in ((x, y), (y, x)):
        with pytest.raises(ValueError):
            op(left, right)


def test_polynomial_product_across_rings_is_refused():
    with pytest.raises(ValueError):
        poly(ZZ) * poly(GF(2))
    with pytest.raises(ValueError):
        poly(ZZ, 2) * poly(ZZ, 3)


@pytest.mark.parametrize("case", MISMATCHED)
def test_equality_is_false_across_rings(case):
    x, y = MISMATCHED[case]
    assert x != y and y != x
    assert not x == y


def test_zero_combinations_differ_across_rings_and_classes():
    zeros = [SchubertVector.zero(ZZ), SchubertVector.zero(GF(2)), TensorVector(ZZ),
             GradedPolynomial.zero(ZZ, 2), GradedPolynomial.zero(ZZ, 1)]
    for i, x in enumerate(zeros):
        for j, y in enumerate(zeros):
            assert (x == y) == (i == j)


@pytest.mark.parametrize("ring", [ZZ, GF(3)], ids=lambda r: r.name)
def test_equality_is_false_across_classes(ring):
    combos = [x(ring) for x in MAKERS.values()]
    for i, x in enumerate(combos):
        for j, y in enumerate(combos):
            assert (x == y) == (i == j)
    assert vector(ring) != 1 and poly(ring) != "t1"


CROSS_CLASS = [
    ("vector", "tensor"),
    ("tensor", "vector"),
    ("vector", "polynomial"),
    ("polynomial", "vector"),
    ("polynomial", "tensor"),
]


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
@pytest.mark.parametrize("left,right", CROSS_CLASS)
def test_arithmetic_across_classes_is_refused(left, right, op):
    with pytest.raises(ValueError):
        op(MAKERS[left](ZZ), MAKERS[right](ZZ))


@pytest.mark.parametrize("kind", MAKERS)
def test_one_arithmetic_for_every_class(kind):
    x = MAKERS[kind](GF(3))
    assert x + x == x.scale(2) == -x
    assert (x - x).is_zero() and not x.is_zero()
    assert repr(x.scale(0)) == "0"


@pytest.mark.parametrize("cls", [SchubertVector, TensorVector, GradedPolynomial],
                         ids=lambda c: c.__name__)
def test_the_shared_rules_live_in_the_base_class(cls):
    shared = ("__eq__", "__hash__", "_check", "__add__", "__sub__", "__neg__",
              "scale", "is_zero", "items", "__repr__")
    assert issubclass(cls, Combination)
    assert not set(shared) & set(vars(cls))
