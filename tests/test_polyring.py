import sys

import pytest

from schubert_kit.errors import NotHomogeneous
from schubert_kit.gcm import derived_realization, rank_two, validate_gcm
from schubert_kit.linalg import kernel_basis
from schubert_kit.polyring import WeightRing, monomial_exponents
from schubert_kit.rings import GF, QQ, ZZ
from schubert_kit.schubert import SchubertVector
from schubert_kit.selftests import operator_identities, steenrod_commutation
from schubert_kit.weyl import simple_reflection

from conftest import AFFINE_A2, SEED, stack_depth

SAMPLE_GCMS = [
    validate_gcm(rows)
    for rows in ([[2, -1], [-1, 2]], [[2, -2], [-3, 2]], [[2, -2], [-2, 2]], AFFINE_A2)
]


def test_weyl_act_on_linear_forms():
    for g in SAMPLE_GCMS:
        model = WeightRing(g, ZZ)
        for i in range(1, g.size + 1):
            for j in range(1, g.size + 1):
                # r_i(h_j*) = h_j* - delta_ij alpha_i
                expected = model.coroot_dual(j)
                if i == j:
                    expected = expected - model.root(i)
                assert model.weyl_act(i, model.coroot_dual(j)) == expected
                # r_i(alpha_j) = alpha_j - a_ij alpha_i
                expected = model.root(j) - model.root(i).scale(g.a(i, j))
                assert model.weyl_act(i, model.root(j)) == expected


def test_operator_identities():
    rings = (ZZ, QQ, GF(2), GF(3))
    assert operator_identities(SAMPLE_GCMS, rings, trials=5, degree=4, seed=SEED) == []


def test_divided_difference_on_linear_forms(gcm_a23):
    model = WeightRing(gcm_a23, ZZ)
    for i in (1, 2):
        assert model.divided_difference(i, model.root(i)) == model.constant(2)
        assert model.divided_difference(i, model.coroot_dual(i)) == model.one()
        j = 3 - i
        assert model.divided_difference(i, model.coroot_dual(j)).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_divided_difference_pth_power(p):
    # over F_p: the operator sends (h_i*)^p to (-alpha_i)^(p-1)
    for rows in ([[2, -1], [-1, 2]], [[2, -2], [-2, 2]]):
        g = validate_gcm(rows)
        model = WeightRing(g, GF(p))
        for i in range(1, g.size + 1):
            lhs = model.divided_difference(i, model.coroot_dual(i) ** p)
            rhs = (-model.root(i)) ** (p - 1)
            assert lhs == rhs


def test_characteristic_map_degree_two(gcm_a23, gcm_a11):
    for g in (gcm_a23, gcm_a11):
        model = WeightRing(g, ZZ)
        for i in range(1, g.size + 1):
            image = model.characteristic_map(model.coroot_dual(i))
            assert image == SchubertVector.basis(ZZ, simple_reflection(g, i))
            image = model.characteristic_map(model.root(i))
            expected = SchubertVector(
                ZZ,
                {
                    simple_reflection(g, j): g.a(j, i)
                    for j in range(1, g.size + 1)
                },
            )
            assert image == expected


def test_characteristic_map_degree_zero(gcm_a22):
    model = WeightRing(gcm_a22, QQ)
    image = model.characteristic_map(model.constant(7))
    from schubert_kit.weyl import identity_element

    assert image == SchubertVector(QQ, {identity_element(gcm_a22): 7})


def test_characteristic_map_rejects_inhomogeneous(gcm_a22):
    model = WeightRing(gcm_a22, QQ)
    with pytest.raises(NotHomogeneous):
        model.characteristic_map(model.one() + model.gen(1))


def test_generalized_invariants_low_degrees(gcm_a11, gcm_a22):
    model = WeightRing(gcm_a11, QQ)
    assert model.generalized_invariants(0)[0] == 0
    assert model.generalized_invariants(2)[0] == 0
    # the kernel basis elements really map to zero
    model22 = WeightRing(gcm_a22, QQ)
    dim, polys = model22.generalized_invariants(2)
    assert dim == 1  # three generators, two independent images
    for f in polys:
        assert model22.characteristic_map(f).is_zero()


def test_generalized_invariants_requires_field(gcm_a22):
    model = WeightRing(gcm_a22, ZZ)
    with pytest.raises(ValueError):
        model.generalized_invariants(4)


def _w_invariants(model, degree):
    """Basis of W-invariant polynomials of one degree, by linear algebra."""
    monos = monomial_exponents(model.nvars, degree)
    rows = []
    for e in monos:
        f = model.monomial(e)
        row = []
        for i in range(1, model.gcm.size + 1):
            diff = model.weyl_act(i, f) - f
            for e2 in monos:
                row.append(diff.coefficient(e2))
        rows.append(row)
    cols = list(zip(*rows)) if rows else []
    vecs = kernel_basis([list(c) for c in cols] or [[0] * len(monos)],
                        len(monos), model.ring)
    return [
        model.from_terms([(e, c) for e, c in zip(monos, v)]) for v in vecs
    ]


def test_squares_of_invariants_lie_in_kernel(gcm_a22):
    # frobenius squares of invariants are annihilated by every operator
    model = WeightRing(gcm_a22, GF(2))
    for degree in (1, 2, 3):
        for f in _w_invariants(model, degree):
            sq = f * f
            if sq.is_zero():
                continue
            assert model.characteristic_map(sq).is_zero()


def test_dimension_split(gcm_a23, gcm_a22):
    for g in (gcm_a23, gcm_a22):
        for ring in (QQ, GF(2), GF(3)):
            model = WeightRing(g, ring)
            report = model.s_poincare(12)
            for deg, dim_j, dim_s in report.per_degree:
                count = len(monomial_exponents(model.nvars, deg // 2))
                assert dim_j + dim_s == count
                assert model.generalized_invariants(deg)[0] == dim_j


def test_s_poincare_independent_of_recursion_limit(gcm_a23):
    # the characteristic map is computed degree by degree, so no call chain
    # grows with the degree: run past the lowered limit itself
    saved = sys.getrecursionlimit()
    limit = stack_depth() + 40
    sys.setrecursionlimit(limit)
    try:
        report = WeightRing(gcm_a23, QQ).s_poincare(2 * (limit + 1))
    finally:
        sys.setrecursionlimit(saved)
    assert [row[2] for row in report.per_degree] == [1] + [2] * (limit + 1)


def test_s_series_factorization_rational(gcm_a23):
    report = WeightRing(gcm_a23, QQ).s_poincare(16)
    assert report.factored and report.factor_degrees == (2,)
    report = WeightRing(rank_two(1, 1), QQ).s_poincare(12)
    assert report.factored and report.factor_degrees == (2, 3)


def test_s_series_derived_realization_char_three(gcm_a22):
    # hand-checked: image dims 1,2,2,1,0,... and factors (1-q^2)(1-q^3)
    model = WeightRing(gcm_a22, GF(3), derived_realization(gcm_a22))
    report = model.s_poincare(16)
    assert [row[2] for row in report.per_degree] == [1, 2, 2, 1, 0, 0, 0, 0, 0]
    assert report.factored
    assert report.factor_degrees == (2, 3)
    assert len(report.factor_degrees) == model.nvars  # rank of the derived torus


def test_s_series_standard_realization_char_three(gcm_a22):
    # same image dims; the extra lattice direction adds a linear kernel factor
    model = WeightRing(gcm_a22, GF(3))
    report = model.s_poincare(16)
    assert [row[2] for row in report.per_degree] == [1, 2, 2, 1, 0, 0, 0, 0, 0]
    assert report.factored
    assert report.factor_degrees == (1, 2, 3)
    assert len(report.factor_degrees) == model.nvars


def test_total_steenrod_rules(gcm_a23):
    for p in (2, 3, 5):
        model = WeightRing(gcm_a23, GF(p))
        t = model.gen(1)
        assert model.total_steenrod(t) == t + t ** p
        u = model.gen(2)
        lhs = model.total_steenrod(t * u)
        assert lhs == (t + t ** p) * (u + u ** p)
    model2 = WeightRing(gcm_a23, GF(2))
    t = model2.gen(1)
    assert model2.total_steenrod(t * t) == t ** 2 + t ** 4


def test_steenrod_commutation():
    assert steenrod_commutation(SAMPLE_GCMS, (2, 3, 5), trials=5, seed=SEED) == []


def test_steenrod_sides_on_dual_generator(gcm_a23):
    # both sides of the commutation identity equal 1 + alpha_i^(p-1)
    for p in (2, 3):
        model = WeightRing(gcm_a23, GF(p))
        for i in (1, 2):
            lhs = model.divided_difference(
                i, model.total_steenrod(model.coroot_dual(i))
            )
            assert lhs == model.one() + model.root(i) ** (p - 1)


def test_polynomial_serialization(gcm_a23):
    model = WeightRing(gcm_a23, QQ)
    f = model.from_terms([((1, 2), "1/3"), ((0, 0), 2)])
    data = [{"exponents": [0, 0], "coefficient": 2},
            {"exponents": [1, 2], "coefficient": "1/3"}]
    assert model.from_jsonable(data) == f
