import copy
import operator
import pickle
import random

import pytest

from schubert_kit import ffield
from schubert_kit.errors import OddPrimeRequired, ZeroElement
from schubert_kit.ffield import (
    Fp2Element,
    embed,
    multiplicative_order,
    quadratic_field,
    quadratic_roots,
    sqrt_fp2,
)


def all_elements(p):
    field = quadratic_field(p)
    return [Fp2Element(field, x, y) for x in range(p) for y in range(p)]


def test_modulus_choices():
    assert quadratic_field(2) == quadratic_field(2)
    assert quadratic_field(2).u == 1 and quadratic_field(2).v == 1
    assert quadratic_field(3).v == 2  # least non-residue mod 3
    assert quadratic_field(7).v == 3  # 1, 2, 4 are squares mod 7


def test_sqrt_of_zero_and_residue():
    z = sqrt_fp2(0, 7)
    assert z.is_zero()
    r = sqrt_fp2(2, 7)
    assert r.y == 0 and r.x in (3, 4)
    assert (r * r) == embed(quadratic_field(7), 2)


def test_sqrt_of_non_residue():
    r = sqrt_fp2(3, 7)
    assert r.y != 0
    assert (r * r) == embed(quadratic_field(7), 3)


def test_sqrt_rejects_p2():
    with pytest.raises(OddPrimeRequired):
        sqrt_fp2(1, 2)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_sqrt_everything(p):
    field = quadratic_field(p)
    for v in range(p):
        r = sqrt_fp2(v, p)
        assert r * r == embed(field, v)


def test_quadratic_double_root():
    r1, r2 = quadratic_roots(-2, 1, 5)  # x^2 - 2x + 1
    assert r1 == r2 == embed(quadratic_field(5), 1)


def test_quadratic_roots_p2():
    r1, r2 = quadratic_roots(1, 1, 2)  # x^2 + x + 1
    assert {(r1.x, r1.y), (r2.x, r2.y)} == {(0, 1), (1, 1)}


def test_vieta_random():
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11, 13, 17])
        b, c = rng.randrange(p), rng.randrange(p)
        r1, r2 = quadratic_roots(b, c, p)
        field = quadratic_field(p)
        assert r1 + r2 == embed(field, -b)
        assert r1 * r2 == embed(field, c)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_field_axioms_exhaustive(p):
    elems = all_elements(p)
    for x in elems:
        for y in elems:
            assert x * y == y * x
            for z in elems:
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


def test_inverses():
    for p in (2, 3, 5, 7):
        for e in all_elements(p):
            if e.is_zero():
                with pytest.raises(ZeroDivisionError):
                    e.inverse()
                continue
            assert e * e.inverse() == Fp2Element(e.field, 1, 0)
            for n in range(1, 2 * p * p):
                assert e ** -n * e ** n == Fp2Element(e.field, 1, 0)
                assert e ** -n == e.inverse() ** n


def test_mixed_fields_rejected():
    x = Fp2Element(quadratic_field(5), 1, 2)
    y = Fp2Element(quadratic_field(7), 1, 2)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(x, y)


def test_frobenius_fixes_exactly_prime_field():
    for p in (2, 3, 5, 7):
        for x in all_elements(p):
            assert (x ** p == x) == (x.y == 0)
            for y in all_elements(p):
                assert (x + y) ** p == x ** p + y ** p


def test_order_basics():
    field = quadratic_field(2)
    assert multiplicative_order(Fp2Element(field, 1, 0)) == 1
    theta = Fp2Element(field, 0, 1)
    assert multiplicative_order(theta) == 3
    with pytest.raises(ZeroElement):
        multiplicative_order(Fp2Element(field, 0, 0))


def test_order_divides_group_order():
    rng = random.Random(9)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11])
        e = Fp2Element(quadratic_field(p), rng.randrange(p), rng.randrange(p))
        if e.is_zero():
            continue
        assert (p * p - 1) % multiplicative_order(e) == 0


def test_powers_match_running_products():
    # e ** n and the pair _power(e, n) against e * ... * e, e ** -n against
    # the same product of inverses, and the order of e (and of its inverse)
    # against the first n >= 1 where the product returns to 1
    for p in (2, 3, 5, 7):
        for e in all_elements(p):
            factors = [e] if e.is_zero() else [e, e.inverse()]
            for sign, factor in zip((1, -1), factors):
                running, first_return = Fp2Element(e.field, 1, 0), None
                for n in range(p * p + 2):
                    assert e ** (sign * n) == running, (e, sign * n)
                    if sign == 1:
                        assert ffield._power(e.field, e.x, e.y, n) == (running.x, running.y)
                    if n and first_return is None and running == Fp2Element(e.field, 1, 0):
                        first_return = n
                    running = running * factor
                if not e.is_zero():
                    assert multiplicative_order(e) == first_return, e
            if e.is_zero():
                with pytest.raises(ZeroDivisionError):
                    e ** -1


def _first_return(field, x, y):
    """The least n >= 1 with (x + y*theta)^n = 1, by a running ``_product``."""
    rx, ry = x, y
    n = 1
    while (rx, ry) != (1, 0):
        rx, ry = ffield._product(field, rx, ry, x, y)
        n += 1
    return n


def _norm(field, x, y):
    """(x + y*theta) times its conjugate (x + u*y) - y*theta, as a pair; the
    conjugate because theta and u - theta are the roots of t^2 - u*t - v."""
    return ffield._product(field, x, y, (x + field.u * y) % field.p, -y % field.p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_order_descent_start_against_running_products(p):
    # the descent starts from p - 1 on F_p and from p + 1 on norm one; the
    # oracle is the first return of a running product, never ``_power``
    field = quadratic_field(p)
    pairs = [(x, y) for x in range(p) for y in range(p) if x or y]
    norms = {pair: _norm(field, *pair) for pair in pairs}
    assert all(ny == 0 for _, ny in norms.values())
    norm_one = [pair for pair in pairs if norms[pair] == (1, 0)]
    assert len(norm_one) == p + 1
    prime_field = [(x, 0) for x in range(1, p)]
    cases = pairs if p in (11, 13) else prime_field + norm_one
    for x, y in cases:
        order = _first_return(field, x, y)
        assert multiplicative_order(Fp2Element(field, x, y)) == order, (x, y)
    for x, y in prime_field:
        assert (p - 1) % _first_return(field, x, y) == 0
    for x, y in norm_one:
        assert (p + 1) % _first_return(field, x, y) == 0


def test_powers_build_no_intermediate_elements(monkeypatch):
    field = quadratic_field(7)
    cases = [(Fp2Element(field, x, y), n) for x, y in ((1, 0), (2, 3), (0, 5)) for n in (-9, 0, 1, 48)]
    expected = [e ** n for e, n in cases]

    def refuse(*args):
        raise AssertionError("a power multiplied two elements")

    monkeypatch.setattr(Fp2Element, "__mul__", refuse)
    assert [e ** n for e, n in cases] == expected
    assert multiplicative_order(Fp2Element(field, 2, 3)) == 48


def test_powers_make_one_product_per_square_and_per_set_bit(monkeypatch):
    # square-and-multiply: bit_length - 1 squarings and one product per set
    # bit, with no squaring after the last bit
    field = quadratic_field(11)
    calls = []
    product = ffield._product

    def counting(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(ffield, "_product", counting)
    for n in (1, 2, 3, 7, 8, 48, 119, 120, 1 << 20, (1 << 20) - 1):
        calls.clear()
        Fp2Element(field, 2, 3) ** n
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1"), n


def test_paired_roots_have_equal_order():
    # roots of x^2 - (ab-2)x + 1 multiply to 1, so they are inverses; the grid
    # is the rank2 benchmark's, and prime_order_closed takes the order of r1 only
    for a, b, p in ((a, b, p) for a in range(1, 9) for b in range(1, 9) if a * b >= 4
                    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)):
        trace = (a * b - 2) % p
        r1, r2 = quadratic_roots(-trace, 1, p)
        assert r1 * r2 == Fp2Element(r1.field, 1, 0)
        assert multiplicative_order(r1) == multiplicative_order(r2)


def test_str_format():
    field = quadratic_field(7)
    e = Fp2Element(field, 2, 3)
    assert str(e) == "2 + 3*theta (mod 7, theta^2=3)"


def test_element_repr_hash_and_reduction():
    field = quadratic_field(7)
    e = Fp2Element(field, 16, -4)
    assert (e.x, e.y) == (2, 3)
    assert repr(e) == "Fp2Element(field=QuadraticField(p=7, u=0, v=3), x=2, y=3)"
    assert hash(e) == hash((field, 2, 3))
    assert e == Fp2Element(field, 2, 3) and e != Fp2Element(field, 3, 2)
    assert e != (2, 3)
    assert copy.copy(e) == e == pickle.loads(pickle.dumps(e))


@pytest.mark.parametrize("name", ["field", "x", "y", "z"])
def test_element_is_immutable(name):
    e = Fp2Element(quadratic_field(5), 1, 2)
    with pytest.raises(AttributeError):
        setattr(e, name, 0)
    with pytest.raises(AttributeError):
        delattr(e, name)
    assert (e.field, e.x, e.y) == (quadratic_field(5), 1, 2)
