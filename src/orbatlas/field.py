"""Exact arithmetic in the cyclotomic fields Q(zeta_m), m in {1,2,3,4,6,8,12}.

An element is a vector of integer numerators over one positive common
denominator, in the basis 1, zeta, ..., zeta^(d-1) with d = deg Phi_m,
normalised so that the numerators and the denominator have no common factor.
Equal elements therefore have equal data.  Every Phi_m is monic with integer
coefficients, so reduction, complex conjugation and the other Galois
automorphisms act on the numerators by integer rows.

The real subfield of every supported field is Q, Q(sqrt 2) (m = 8) or
Q(sqrt 3) (m = 12).  A real element is (a + b sqrt d) / (2 den) with integers
a, b read off its numerators, so its sign is decided from integers alone.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm

from .errors import ConductorMismatchError, NotRealError

# The exact rational type of `reduced`, `coeffs` and `as_rational`.
_Q = Fraction

SUPPORTED_CONDUCTORS = (1, 2, 3, 4, 6, 8, 12)

# m-th cyclotomic polynomial, ascending coefficients, monic.
_CYCLOTOMIC = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def _degree(m: int) -> int:
    return len(_CYCLOTOMIC[m]) - 1


def _power_rows(m: int) -> tuple:
    """zeta_m^k for k = 0..m-1 in the canonical basis, as sparse integer rows
    ((i, v), ...) of the nonzero coefficients."""
    phi = _CYCLOTOMIC[m]
    row = [1] + [0] * (_degree(m) - 1)
    rows = []
    for _ in range(m):
        rows.append(tuple((i, v) for i, v in enumerate(row) if v))
        # times zeta, with zeta^d = -(phi_0 + phi_1 zeta + ... + phi_{d-1} zeta^(d-1))
        lead = row[-1]
        row = [r - lead * c for r, c in zip([0] + row[:-1], phi)]
    return tuple(rows)


_ROWS = {m: _power_rows(m) for m in _CYCLOTOMIC}
# The Galois group of Q(zeta_m) is zeta -> zeta^a for a in (Z/m)^*; these are
# the a other than 1.
_OTHER_UNITS = {m: tuple(a for a in range(2, m) if gcd(a, m) == 1) for m in _CYCLOTOMIC}


def _check_conductor(m: int) -> None:
    if m not in _CYCLOTOMIC:
        raise ConductorMismatchError(f"unsupported conductor {m}")


def _combine(m: int, a: int, nums) -> list[int]:
    """Canonical numerators of sum_k nums[k] * zeta^(a k).

    With a = 1 this reduces a power-basis vector of any length; with a unit a
    it applies the automorphism zeta -> zeta^a.
    """
    rows = _ROWS[m]
    out = [0] * _degree(m)
    for k, c in enumerate(nums):
        if c:
            for i, v in rows[a * k % m]:
                out[i] += c * v
    return out


def _mul_nums(m: int, a, b) -> list[int]:
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    return _combine(m, 1, conv)


def _make(m: int, nums, den: int) -> CycNum:
    """The element nums / den for canonical numerators and any nonzero den,
    normalised to a positive denominator with no common factor."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    x = object.__new__(CycNum)
    x.m = m
    if g == 1:
        x._n = tuple(nums)
        x._d = den
    else:
        x._n = tuple(n // g for n in nums)
        x._d = den // g
    x._hash = None
    return x


class CycNum:
    """An element of Q(zeta_m) in canonical reduced form."""

    __slots__ = ("m", "_n", "_d", "_hash")

    def __init__(self, m: int, coeffs):
        """sum_k coeffs[k] * zeta_m^k for rational (int or Fraction) coeffs of any length."""
        _check_conductor(m)
        pairs = [(c.numerator, c.denominator) for c in coeffs]
        den = lcm(*(q for _, q in pairs))
        x = _make(m, _combine(m, 1, [p * (den // q) for p, q in pairs]), den)
        self.m, self._n, self._d, self._hash = m, x._n, x._d, None

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, m: int, value) -> CycNum:
        _check_conductor(m)
        return _make(m, [value.numerator] + [0] * (_degree(m) - 1), value.denominator)

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> CycNum:
        _check_conductor(m)
        # zeta^power is the image of zeta under zeta -> zeta^power
        return _make(m, _combine(m, power, (0, 1)), 1)

    # -- canonical data ----------------------------------------------------

    @property
    def reduced(self) -> tuple[Fraction, ...]:
        """Coefficients in the canonical basis 1..zeta^(d-1)."""
        return tuple(_Q(n, self._d) for n in self._n)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Length-m coefficient vector in the power basis (canonical form padded)."""
        return self.reduced + (_Q(0),) * (self.m - len(self._n))

    def is_zero(self) -> bool:
        return not any(self._n)

    def is_rational(self) -> bool:
        return not any(self._n[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRealError(f"{self!r} is not rational")
        return _Q(self._n[0], self._d)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.m, self._n, self._d))
        return self._hash

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.rational(self.m, other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.m == other.m and self._n == other._n and self._d == other._d

    def __repr__(self):
        terms = [f"{c}*z^{k}" for k, c in enumerate(self.reduced) if c]
        return f"CycNum({self.m}; {' + '.join(terms) or '0'})"

    # -- field operations --------------------------------------------------

    def _coerce(self, other) -> CycNum:
        if isinstance(other, CycNum):
            if other.m != self.m:
                raise ConductorMismatchError(f"conductor {self.m} vs {other.m}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.rational(self.m, other)
        raise TypeError(f"cannot coerce {type(other).__name__} to CycNum")

    def __add__(self, other):
        o = self._coerce(other)
        da, db = self._d, o._d
        return _make(self.m, [x * db + y * da for x, y in zip(self._n, o._n)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.m, [-x for x in self._n], self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        da, db = self._d, o._d
        return _make(self.m, [x * db - y * da for x, y in zip(self._n, o._n)], da * db)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        a, b = self._n, o._n
        den = self._d * o._d
        # scalar fast paths: no convolution or reduction needed
        if not any(b[1:]):
            s = b[0]
            return _make(self.m, [x * s for x in a], den)
        if not any(a[1:]):
            s = a[0]
            return _make(self.m, [x * s for x in b], den)
        return _make(self.m, _mul_nums(self.m, a, b), den)

    __rmul__ = __mul__

    def inv(self) -> CycNum:
        """Field inverse in norm form: x times the product of its other Galois
        conjugates is the rational norm N(x), so 1/x is that product over N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        m, n = self.m, self._n
        if self.is_rational():
            return _make(m, [self._d] + [0] * (len(n) - 1), n[0])
        others = [1] + [0] * (len(n) - 1)
        for a in _OTHER_UNITS[m]:
            others = _mul_nums(m, others, _combine(m, a, n))
        norm = _mul_nums(m, n, others)[0]
        return _make(m, [self._d * c for c in others], norm)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = CycNum.rational(self.m, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _conj_nums(self) -> tuple[int, ...]:
        return tuple(_combine(self.m, -1, self._n))

    def conj(self) -> CycNum:
        """Complex conjugation, zeta -> zeta^(-1); a real element is its own conjugate."""
        nums = self._conj_nums()
        return self if nums == self._n else _make(self.m, nums, self._d)

    def is_real(self) -> bool:
        return self._conj_nums() == self._n


# -- sign determination ----------------------------------------------------


def _real_nums(m: int, n) -> tuple[int, int, int]:
    """Integers (a, b, d) with 2 * sum n_k zeta^k = a + b sqrt d, for the
    canonical numerators n of an element of the real subfield.

    d is 2 for m = 8 and 3 for m = 12; for the other m the real subfield is Q,
    so d = 1 and b = 0.
    m = 8:  zeta = (1 + i)/sqrt 2, zeta^2 = i, zeta^3 = (-1 + i)/sqrt 2;
    m = 12: zeta = (sqrt 3 + i)/2, zeta^2 = (1 + i sqrt 3)/2, zeta^3 = i.
    """
    if m == 8:
        return 2 * n[0], n[1] - n[3], 2
    if m == 12:
        return 2 * n[0] + n[2], n[1], 3
    return 2 * n[0], 0, 1


def real_parts(x: CycNum) -> tuple[int, int, int, int]:
    """Integers (a, b, d, e) with x = (a + b sqrt d) / e and e > 0, for an
    element x of the real subfield; NotRealError for any other x.  (a, b, d)
    come from ``_real_nums`` and e = 2 * den."""
    if not x.is_real():
        raise NotRealError(f"{x!r} is not fixed by conjugation")
    return (*_real_nums(x.m, x._n), 2 * x._d)


def sign_quadratic(a: int, b: int, d: int) -> int:
    """Exact sign of a + b sqrt d for integers a, b and d > 0, where b = 0 or
    d is not a perfect square."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # opposite signs: a + b sqrt d has the sign of a exactly when a^2 > d b^2
    # (never equal: sqrt d is irrational and b != 0)
    return sa if a * a > d * b * b else -sa


@functools.lru_cache(maxsize=1 << 14)
def _sign_cached(x: CycNum) -> int:
    """Sign of an element outside Q, which is real only for m = 8 or 12."""
    a, b, d, _ = real_parts(x)
    return sign_quadratic(a, b, d)


def sign_real(x: CycNum) -> int:
    """Exact sign of an element of the real subfield: -1, 0 or +1."""
    if x.is_rational():
        n = x._n[0]
        return (n > 0) - (n < 0)
    return _sign_cached(x)
