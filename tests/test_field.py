"""Field kernel: canonical forms, arithmetic laws, exact sign determination."""

import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbatlas.errors import ConductorMismatchError, NotRealError
from orbatlas.field import (
    _AUT,
    _CYCLOTOMIC,
    _MUL,
    SUPPORTED_CONDUCTORS,
    CycNum,
    _degree,
    _make,
    real_parts,
    sign_quadratic,
    sign_real,
)

from conftest import reference_add, reference_combine, reference_mul_nums, reference_sign, reference_sub

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
        for m in [m for m in SUPPORTED_CONDUCTORS if m > 2]:
            for x in (CycNum.zeta(m), CycNum.zeta(m) + Fraction(1, 3), CycNum.zeta(m, -1) * 5):
                with pytest.raises(NotRealError) as info:
                    sign_real(x)
                assert str(info.value) == f"{x!r} is not fixed by conjugation"

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


def _random_nums(rng, d):
    """A numerator vector with zeros, negatives and entries above 2^64."""
    pick = rng.randrange(4)
    if pick == 0:
        return tuple(rng.choice((0, 0, 1, -1)) for _ in range(d))
    bits = 100 if pick == 1 else 20
    return tuple(rng.choice((0, rng.randint(-(2**bits), 2**bits))) for _ in range(d))


class TestGeneratedKernels:
    """The straight-line product and automorphism kernels against the loops
    kept in conftest as the reference."""

    @pytest.mark.parametrize("m", SUPPORTED_CONDUCTORS)
    def test_kernels_equal_reference_loops(self, m):
        phi, d = _CYCLOTOMIC[m], _degree(m)
        units = [a for a in range(m) if gcd(a, m) == 1]
        assert sorted(_AUT[m]) == units
        rng = random.Random(f"kernels:{m}")
        for _ in range(200):
            a, b = _random_nums(rng, d), _random_nums(rng, d)
            assert list(_MUL[m](a, b)) == reference_mul_nums(phi, m, a, b)
            for u in units:
                assert list(_AUT[m][u](a)) == reference_combine(phi, m, u, a)

    @pytest.mark.parametrize("m", SUPPORTED_CONDUCTORS)
    def test_automorphisms_form_the_galois_group(self, m):
        rng = random.Random(f"galois:{m}")
        mul, aut = _MUL[m], _AUT[m]
        for _ in range(50):
            x, y = _random_nums(rng, _degree(m)), _random_nums(rng, _degree(m))
            for a, sa in aut.items():
                assert sa(mul(x, y)) == mul(sa(x), sa(y))
                for b, sb in aut.items():
                    assert sa(sb(x)) == aut[a * b % m](x)

    @pytest.mark.parametrize("m", SUPPORTED_CONDUCTORS)
    def test_zeta_powers_match_repeated_products(self, m):
        zm = CycNum.zeta(m)
        for k in range(-2 * m, 2 * m):
            assert CycNum.zeta(m, k) == zm**k


@st.composite
def _elements(draw, m):
    """An element given by numerators and a denominator, then reduced: small
    and large heights, denominator 1 and the zero element included."""
    height = draw(st.sampled_from((1, 8, 2**40, 2**130)))
    nums = draw(st.lists(st.integers(-height, height), min_size=_degree(m), max_size=_degree(m)))
    den = draw(st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 2**70)))
    return _make(m, nums, den)


@st.composite
def _pairs(draw, m):
    """Two elements whose denominators are unequal, equal by construction,
    or 1, and the pair x, conj(x) behind every real element x + conj(x)."""
    x = draw(_elements(m))
    kind = draw(st.sampled_from(("any", "shift", "conj", "zero", "integer")))
    if kind == "any":
        y = draw(_elements(m))
    elif kind == "shift":  # x + k for an integer k keeps the denominator of x
        y = x + draw(st.integers(-(2**80), 2**80))
    elif kind == "conj":
        y = x.conj()
    elif kind == "zero":
        y = CycNum.rational(m, 0)
    else:
        y = CycNum.rational(m, draw(st.integers(-(2**80), 2**80)))
    return (y, x) if draw(st.booleans()) else (x, y)


class TestAgainstFormerRoutes:
    """Sums, differences and signs against the former routes kept in conftest:
    sums over the product of the denominators, and signs through real_parts."""

    @pytest.mark.parametrize("m", SUPPORTED_CONDUCTORS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_sum_difference_and_sign_equal_the_former_routes(self, m, data):
        x, y = data.draw(_pairs(m))
        for got, want in ((x + y, reference_add(x, y)), (x - y, reference_sub(x, y))):
            assert (got.m, got._n, got._d) == (want.m, want._n, want._d)
        for t in (x + x.conj(), x + y + (x + y).conj(), x - y, x):
            try:
                want = reference_sign(t)
            except NotRealError:
                with pytest.raises(NotRealError):
                    sign_real(t)
            else:
                assert sign_real(t) == want

    @pytest.mark.parametrize("m", SUPPORTED_CONDUCTORS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_conjugate_and_negative_are_canonical(self, m, data):
        x, y = data.draw(_pairs(m))
        for t in (x, y, x + y, x * y):
            for got in (t.conj(), -t):
                assert got._d > 0 and gcd(got._d, *got._n) == 1
            assert t.conj().conj() == t and -(-t) == t


@pytest.mark.parametrize(
    "expr, expected",
    [
        (lambda: rat(3) == 3, True),
        (lambda: z() == 3, False),
        (lambda: rat(Fraction(2, 3)) == Fraction(2, 3), True),
        (lambda: rat(1) == True, True),  # noqa: E712 -- bool is an int
        (lambda: CycNum.rational(3, 1) == CycNum.rational(4, 1), False),
        (lambda: z() == "z", False),
        (lambda: z() != "z", True),
        (lambda: z() + 1 == CycNum(CONDUCTOR, [1, 1]), True),
        (lambda: 1 + z() == CycNum(CONDUCTOR, [1, 1]), True),
        (lambda: z() - Fraction(1, 3) == CycNum(CONDUCTOR, [Fraction(-1, 3), 1]), True),
        (lambda: z() * Fraction(1, 2) == CycNum(CONDUCTOR, [0, Fraction(1, 2)]), True),
        (lambda: CycNum.zeta(3) + CycNum.zeta(4), ConductorMismatchError),
        (lambda: CycNum.zeta(3) * CycNum.zeta(4), ConductorMismatchError),
    ],
    ids=[
        "eq-int", "ne-int", "eq-fraction", "eq-true", "other-conductor", "eq-str", "ne-str",
        "add-int", "radd-int", "sub-fraction", "mul-fraction", "add-mixed", "mul-mixed",
    ],
)
def test_equality_and_coercion(expr, expected):
    """The behaviour around the exact-type fast paths of __eq__ and _coerce."""
    if expected is ConductorMismatchError:
        with pytest.raises(ConductorMismatchError):
            expr()
    else:
        assert expr() is expected
