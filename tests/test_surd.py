import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from leftorder.surd import (
    EQ, GT, LT, Mat2, QuadNum, mat2, mobius_apply, primitive_vec, quad,
    quad_cmp, rational, sqrt_of,
)
from leftorder.errors import PoleError, UnsupportedComparisonError

getcontext().prec = 50


def dec_value(x: QuadNum) -> Decimal:
    """50-digit decimal reference value, independent of quad_cmp."""
    return (Decimal(x.p) + Decimal(x.q) * Decimal(x.d).sqrt()) / Decimal(x.r)


def test_cmp_sqrt2_vs_seven_fifths():
    assert quad_cmp(sqrt_of(2), rational(7, 5)) == GT
    assert dec_value(sqrt_of(2)) > dec_value(rational(7, 5))


def test_cmp_reflexive():
    x = quad(3, -2, 7, 5)
    assert quad_cmp(x, x) == EQ


def test_cmp_one_plus_sqrt2_vs_zero():
    x = quad(1, 1, 1, 2)
    assert quad_cmp(x, rational(0)) == GT
    assert dec_value(x) > 0


def test_cmp_against_decimal_oracle_randomized():
    rng = random.Random(0)
    for _ in range(500):
        d = rng.choice([2, 3, 5, 7])
        x = quad(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(1, 9), d)
        y = quad(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(1, 9), d)
        got = quad_cmp(x, y)
        dx, dy = dec_value(x), dec_value(y)
        want = GT if dx > dy else (LT if dx < dy else EQ)
        assert got == want, (x, y)


def test_cmp_mixed_radicands_rejected():
    with pytest.raises(UnsupportedComparisonError):
        quad_cmp(sqrt_of(2), sqrt_of(3))


def test_cmp_rational_against_surd_ok():
    assert quad_cmp(rational(2), sqrt_of(3)) == GT
    assert quad_cmp(rational(1), sqrt_of(3)) == LT


def test_total_order_on_fixed_radicand():
    rng = random.Random(1)
    vals = [quad(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 5), 3)
            for _ in range(30)]
    for x in vals:
        for y in vals:
            cxy, cyx = quad_cmp(x, y), quad_cmp(y, x)
            assert cxy == -cyx
            assert (cxy == EQ) == (x == y)  # canonical form makes equality structural
    for x in vals:
        for y in vals:
            for z in vals:
                if quad_cmp(x, y) != LT or quad_cmp(y, z) != LT:
                    continue
                assert quad_cmp(x, z) == LT


def test_canonical_form_idempotent():
    rng = random.Random(2)
    for _ in range(200):
        x = quad(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(1, 30),
                 rng.randint(0, 20))
        again = quad(x.p, x.q, x.r, x.d)
        assert again == x


def test_canonicalization_rules():
    assert quad(2, 4, 6, 8) == quad(1, 4, 3, 2)     # sqrt(8) = 2 sqrt(2), gcd out
    assert quad(3, 5, 1, 1) == rational(8)          # sqrt(1) folds into p
    assert quad(3, 5, 1, 0) == rational(3)          # q sqrt(0) vanishes
    assert quad(1, 0, 1, 7) == QuadNum(1, 0, 1, 0)  # rationals carry d = 0
    assert quad(1, 1, -2, 2) == quad(-1, -1, 2, 2)  # denominator sign


def test_mobius_translation():
    m = mat2([[1, 2], [0, 1]])
    assert mobius_apply(m, sqrt_of(2)) == quad(2, 1, 1, 2)


def test_mobius_fixed_point():
    # 3^2 - 2*2^2 = 1, so [[3,4],[2,3]] fixes sqrt(2):
    # (3 sqrt2 + 4)/(2 sqrt2 + 3) = (3 sqrt2 + 4)(3 - 2 sqrt2) = sqrt2
    m = mat2([[3, 4], [2, 3]])
    assert mobius_apply(m, sqrt_of(2)) == sqrt_of(2)


def test_mobius_identity():
    m = mat2([[1, 0], [0, 1]])
    assert mobius_apply(m, sqrt_of(3)) == sqrt_of(3)


def test_mobius_pole():
    m = mat2([[1, 0], [2, -4]])
    with pytest.raises(PoleError):
        mobius_apply(m, rational(2))


def test_mobius_composition_law():
    rng = random.Random(3)
    trials = 0
    while trials < 300:
        m1 = _random_unimodular(rng)
        m2 = _random_unimodular(rng)
        x = sqrt_of(rng.choice([2, 3, 5]))
        try:
            lhs = mobius_apply(m1 @ m2, x)
            rhs = mobius_apply(m1, mobius_apply(m2, x))
        except PoleError:
            continue
        assert lhs == rhs
        trials += 1


def _random_unimodular(rng) -> Mat2:
    # product of elementary matrices keeps entries small and det = +-1
    m = Mat2(1, 0, 0, 1)
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            m = m @ Mat2(1, k, 0, 1)
        else:
            m = m @ Mat2(1, 0, k, 1)
    if rng.random() < 0.3:
        m = m @ Mat2(0, 1, 1, 0)  # det -1 factor
    return m


def test_mat2_inverse_and_power():
    m = mat2([[2, 1], [1, 1]])
    assert m @ m.inverse() == Mat2(1, 0, 0, 1)
    assert m.power(3) == m @ m @ m
    assert m.power(-2) == m.inverse() @ m.inverse()
    acc = Mat2(1, 0, 0, 1)
    for k in range(40):  # every bit pattern of the squaring up to 39
        assert m.power(k) == acc
        assert m.power(-k) @ acc == Mat2(1, 0, 0, 1)
        acc = acc @ m
    swap = mat2([[0, 1], [1, 0]])
    assert swap.det() == -1
    assert swap @ swap.inverse() == Mat2(1, 0, 0, 1)


def test_field_ops_match_fractions_on_rationals():
    rng = random.Random(4)
    for _ in range(200):
        x = rational(rng.randint(-30, 30), rng.randint(1, 12))
        y = rational(rng.randint(-30, 30), rng.randint(1, 12))
        fx, fy = Fraction(x.p, x.r), Fraction(y.p, y.r)
        s = x + y
        assert Fraction(s.p, s.r) == fx + fy
        p = x * y
        assert Fraction(p.p, p.r) == fx * fy


def test_primitive_vec():
    assert primitive_vec((4, -6)) == (2, -3)
    assert primitive_vec((-2, 3)) == (2, -3)
    assert primitive_vec((0, -5)) == (0, 1)
