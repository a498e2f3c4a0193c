"""Field kernel: canonical forms, arithmetic laws, exact sign determination."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbatlas.errors import ConductorMismatchError, NotRealError
from orbatlas.field import SUPPORTED_CONDUCTORS, CycNum, real_parts, sign_quadratic, sign_real

CONDUCTOR = 12


def z(k=1):
    return CycNum.zeta(CONDUCTOR, k)


def rat(v):
    return CycNum.rational(CONDUCTOR, v)


def cycnums(m=CONDUCTOR):
    from orbatlas.field import _degree

    fracs = st.fractions(
        min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
    )
    return st.lists(fracs, min_size=_degree(m), max_size=_degree(m)).map(
        lambda cs: CycNum(m, cs)
    )


class TestCanonicalForm:
    def test_zeta_power_reduces(self):
        assert z(4) * z(4) * z(4) == rat(1)

    def test_two_cos_squared_is_three(self):
        t = z() + z().conj()
        assert t * t == rat(3)

    def test_roots_of_unity_all_conductors(self):
        for m in SUPPORTED_CONDUCTORS:
            zm = CycNum.zeta(m)
            assert zm**m == CycNum.rational(m, 1)

    def test_cyclotomic_polynomial_vanishes(self):
        from orbatlas.field import _CYCLOTOMIC

        for m in SUPPORTED_CONDUCTORS:
            zm = CycNum.zeta(m)
            total = CycNum.rational(m, 0)
            for k, c in enumerate(_CYCLOTOMIC[m]):
                total = total + CycNum.rational(m, c) * zm**k
            assert total.is_zero()

    def test_coeffs_have_length_m(self):
        x = z(2) + rat(Fraction(1, 3))
        assert len(x.coeffs) == CONDUCTOR

    def test_conductor_mismatch(self):
        with pytest.raises(ConductorMismatchError):
            CycNum.zeta(3) + CycNum.zeta(4)

    def test_unsupported_conductor(self):
        with pytest.raises(ConductorMismatchError):
            CycNum.rational(5, 1)


class TestFieldOps:
    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            rat(0).inv()

    def test_division(self):
        a = z() + rat(2)
        assert a / a == rat(1)

    def test_conjugation_involutive(self):
        a = z(5) * Fraction(3, 7) + z(2) - rat(Fraction(1, 2))
        assert a.conj().conj() == a

    def test_conjugation_multiplicative(self):
        a = z(5) + rat(2)
        b = z(7) - rat(Fraction(1, 3))
        assert (a * b).conj() == a.conj() * b.conj()

    @settings(max_examples=60, deadline=None)
    @given(cycnums(), cycnums(), cycnums())
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(cycnums())
    def test_multiplicative_inverse(self, a):
        if not a.is_zero():
            assert a * a.inv() == CycNum.rational(a.m, 1)


class TestSign:
    def test_zero(self):
        assert sign_real(rat(0)) == 0

    def test_exact_cancellation(self):
        t = z() + z().conj()
        assert sign_real(rat(3) - t * t) == 0

    def test_irrational_negative(self):
        t = z() + z().conj()  # 2 cos(pi/6) = sqrt(3) > 1
        assert sign_real(rat(1) - t) == -1
        assert sign_real(t - 1) == 1

    def test_not_real(self):
        with pytest.raises(NotRealError):
            sign_real(z())

    def test_near_cancellation_at_large_height(self):
        # s = zeta - zeta^3 = sqrt 2 in Q(zeta_8); (1 - s)^n has about 0.38 n
        # decimal digits in each coordinate and a value of magnitude 0.41^n
        s = CycNum.zeta(8) - CycNum.zeta(8, 3)
        assert s * s == CycNum.rational(8, 2)
        assert sign_real((1 - s) ** 30000) == 1
        assert sign_real((1 - s) ** 30001) == -1

    def test_quadratic_sign_rule_edges(self):
        assert sign_quadratic(0, 0, 2) == 0
        assert sign_quadratic(-5, 0, 3) == -1  # b = 0
        assert sign_quadratic(0, -1, 2) == -1  # a = 0
        assert sign_quadratic(0, 7, 3) == 1
        assert sign_quadratic(2, 3, 2) == 1  # same signs
        assert sign_quadratic(-2, -3, 2) == -1
        assert sign_quadratic(3, -2, 2) == 1  # opposite signs: 9 > 8
        assert sign_quadratic(-3, 2, 2) == -1
        assert sign_quadratic(2, -1, 3) == 1  # 4 > 3
        assert sign_quadratic(1, -1, 3) == -1  # 1 < 3
        # large heights: the convergents p/q of sqrt 2 alternate around it
        p, q = 1, 1
        for k in range(200):
            p, q = p + 2 * q, p + q
            want = -1 if k % 2 else 1  # 3/2, 7/5, 17/12, ...: above, below, above
            assert sign_quadratic(p, -q, 2) == want
            assert sign_quadratic(-p, q, 2) == -want

    def test_real_parts_reconstruct_the_element(self):
        import random

        rng = random.Random(11)
        for m in SUPPORTED_CONDUCTORS:
            root = {8: CycNum.zeta(8) - CycNum.zeta(8, 3), 12: z() + z().conj()}.get(m)
            for _ in range(40):
                x = CycNum(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m)])
                x = x + x.conj()
                a, b, d, e = real_parts(x)
                assert e > 0
                assert d == {8: 2, 12: 3}.get(m, 1)
                rebuilt = CycNum.rational(m, Fraction(a, e))
                if root is not None:
                    assert root * root == CycNum.rational(m, d)
                    rebuilt = rebuilt + root * Fraction(b, e)
                else:
                    assert b == 0
                assert rebuilt == x
            if m > 2:
                with pytest.raises(NotRealError):
                    real_parts(CycNum.zeta(m))

    def test_agrees_with_fixed_precision_interval(self):
        # independent 256-bit interval evaluation of the same real number, in
        # both fields with an irrational real subfield
        import random

        rng = random.Random(7)
        old = mpmath.iv.prec
        mpmath.iv.prec = 256
        try:
            for m in (12, 8):
                for _ in range(300):
                    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
                    x = CycNum(m, coeffs)
                    x = x + x.conj()  # land in the real subfield
                    if x.is_zero():
                        continue
                    box = mpmath.iv.mpf(0)
                    for k, c in enumerate(x.reduced):
                        term = mpmath.iv.cos(2 * mpmath.iv.pi * k / m) * int(c.numerator)
                        box += term / int(c.denominator)
                    want = 1 if box.a > 0 else (-1 if box.b < 0 else 0)
                    if want == 0:
                        continue
                    assert sign_real(x) == want
        finally:
            mpmath.iv.prec = old
