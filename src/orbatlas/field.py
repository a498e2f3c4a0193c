"""Exact arithmetic in the cyclotomic fields Q(zeta_m), m in {1,2,3,4,6,8,12}.

An element is a vector of integer numerators over one positive common
denominator, in the basis 1, zeta, ..., zeta^(d-1) with d = deg Phi_m,
normalised so that the numerators and the denominator have no common factor.
Equal elements therefore have equal data.  Every Phi_m is monic with integer
coefficients, so reduction, complex conjugation and the other Galois
automorphisms act on the numerators by integer rows.  Products and the
automorphisms zeta -> zeta^a are straight-line integer kernels generated at
import from those rows of Phi_m, one product per conductor and one
automorphism per unit a mod m; sums and differences are termwise kernels, one
per degree.  Two elements over the same denominator are added over it, not
over its square.  The automorphism zeta -> zeta^a has an integer matrix whose
inverse, that of zeta -> zeta^(1/a), is an integer matrix too, so it keeps the
gcd of the numerators: the conjugate (and the negative) of a reduced element
is reduced by construction and is built without a gcd.

The real subfield of every supported field is Q, Q(sqrt 2) (m = 8) or
Q(sqrt 3) (m = 12).  A real element is (a + b sqrt d) / (2 den) with integers
a, b read off its numerators, so its sign is decided from integers alone, on
each call, with no cache.
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
    """zeta_m^k for k = 0..m-1 in the canonical basis, as integer rows."""
    phi = _CYCLOTOMIC[m]
    row = [1] + [0] * (_degree(m) - 1)
    rows = []
    for _ in range(m):
        rows.append(tuple(row))
        # times zeta, with zeta^d = -(phi_0 + phi_1 zeta + ... + phi_{d-1} zeta^(d-1))
        lead = row[-1]
        row = [r - lead * c for r, c in zip([0] + row[:-1], phi)]
    return tuple(rows)


_ROWS = {m: _power_rows(m) for m in _CYCLOTOMIC}


def _sum(terms) -> str:
    """Source of the sum of c * t over the (integer c, source t) pairs, with
    the terms whose c is 0 dropped."""
    out = " + ".join(t if c == 1 else f"-{t}" if c == -1 else f"{c} * {t}" for c, t in terms if c)
    return out.replace("+ -", "- ") or "0"


def _kernel(name: str, params: tuple, d: int, body: list[str], outputs: list[str], scalars: tuple = ()):
    """The function name(*params, *scalars) that unpacks each numerator
    vector p into p0, ..., p(d-1), runs the body lines and returns the tuple
    of the outputs, compiled from source built from this module's integer
    tables alone."""
    unpack = [", ".join(f"{p}{i}" for i in range(d)) + f", = {p}" for p in params]
    src = "\n    ".join([f"def {name}({', '.join(params + scalars)}):", *unpack, *body, f"return ({', '.join(outputs)},)"])
    scope = {}
    exec(compile(src, f"<{name}>", "exec"), scope)
    return scope[name]


def _mul_kernel(m: int):
    """The product of canonical numerators: the convolution
    c_k = sum_{i+j=k} a_i b_j, then per output the integer combination of the
    c_k that reduces each zeta^k mod Phi_m."""
    rows, d = _ROWS[m], _degree(m)
    conv = [" + ".join(f"a{i} * b{k - i}" for i in range(d) if 0 <= k - i < d) for k in range(2 * d - 1)]
    out = [_sum((rows[k][t], f"c{k}") for k in range(len(conv))) for t in range(d)]
    return _kernel(f"mul{m}", ("a", "b"), d, [f"c{k} = {c}" for k, c in enumerate(conv)], out)


def _aut_kernel(m: int, a: int):
    """The automorphism zeta -> zeta^a on canonical numerators."""
    rows, d = _ROWS[m], _degree(m)
    out = [_sum((rows[a * k % m][t], f"n{k}") for k in range(d)) for t in range(d)]
    return _kernel(f"aut{m}_{a}", ("n",), d, [], out)


def _termwise(name: str, term: str, scalars: tuple = ()) -> dict:
    """Per conductor, the kernel (a, b, *scalars) -> (term at i for i < d),
    where term is a source template in a{i}, b{i} and the scalars; one kernel
    per degree d."""
    kernels = {
        d: _kernel(f"{name}{d}", ("a", "b"), d, [], [term.format(i=i) for i in range(d)], scalars)
        for d in set(map(_degree, _CYCLOTOMIC))
    }
    return {m: kernels[_degree(m)] for m in _CYCLOTOMIC}


# Termwise kernels on numerator vectors: a + b and a - b over a common
# denominator, and a * s + b * t over the product of two denominators.
_ADD = _termwise("add", "a{i} + b{i}")
_SUB = _termwise("sub", "a{i} - b{i}")
_LIN = _termwise("lin", "a{i} * s + b{i} * t", ("s", "t"))

# Straight-line kernels generated from _ROWS: _MUL[m](a, b) multiplies two
# numerator vectors, and _AUT[m][a](n) applies zeta -> zeta^a for each a in
# (Z/m)^*, the Galois group of Q(zeta_m); complex conjugation is a = -1 mod m.
_MUL = {m: _mul_kernel(m) for m in _CYCLOTOMIC}
_AUT = {m: {a: _aut_kernel(m, a) for a in range(m) if gcd(a, m) == 1} for m in _CYCLOTOMIC}


def _check_conductor(m: int) -> None:
    if m not in _CYCLOTOMIC:
        raise ConductorMismatchError(f"unsupported conductor {m}")


def _combine(m: int, nums) -> list[int]:
    """Canonical numerators of sum_k nums[k] * zeta^k, for a power-basis
    vector of any length."""
    rows = _ROWS[m]
    out = [0] * _degree(m)
    for k, c in enumerate(nums):
        if c:
            out = [o + c * v for o, v in zip(out, rows[k % m])]
    return out


def _make(m: int, nums, den: int) -> CycNum:
    """The element nums / den for canonical numerators and any nonzero den,
    normalised to a positive denominator with no common factor."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    x = object.__new__(CycNum)
    x.m, x._n, x._d, x._hash = m, tuple(nums), den, None
    return x


def _reduced(m: int, nums: tuple, den: int) -> CycNum:
    """The element nums / den for a tuple of canonical numerators and a
    positive den that already have no common factor."""
    x = object.__new__(CycNum)
    x.m, x._n, x._d, x._hash = m, nums, den, None
    return x


class CycNum:
    """An element of Q(zeta_m) in canonical reduced form."""

    __slots__ = ("m", "_n", "_d", "_hash")

    def __init__(self, m: int, coeffs):
        """sum_k coeffs[k] * zeta_m^k for rational (int or Fraction) coeffs of any length."""
        _check_conductor(m)
        pairs = [(c.numerator, c.denominator) for c in coeffs]
        den = lcm(*(q for _, q in pairs))
        x = _make(m, _combine(m, [p * (den // q) for p, q in pairs]), den)
        self.m, self._n, self._d, self._hash = m, x._n, x._d, None

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, m: int, value) -> CycNum:
        _check_conductor(m)
        return _make(m, [value.numerator] + [0] * (_degree(m) - 1), value.denominator)

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> CycNum:
        _check_conductor(m)
        return _make(m, _ROWS[m][power % m], 1)

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
        if type(other) is not CycNum:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycNum.rational(self.m, other)
        return self.m == other.m and self._n == other._n and self._d == other._d

    def __repr__(self):
        terms = [f"{c}*z^{k}" for k, c in enumerate(self.reduced) if c]
        return f"CycNum({self.m}; {' + '.join(terms) or '0'})"

    # -- field operations --------------------------------------------------

    def _coerce(self, other) -> CycNum:
        if type(other) is CycNum:
            if other.m != self.m:
                raise ConductorMismatchError(f"conductor {self.m} vs {other.m}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.rational(self.m, other)
        raise TypeError(f"cannot coerce {type(other).__name__} to CycNum")

    def __add__(self, other):
        o = self._coerce(other)
        da, db = self._d, o._d
        if da == db:
            return _make(self.m, _ADD[self.m](self._n, o._n), da)
        return _make(self.m, _LIN[self.m](self._n, o._n, db, da), da * db)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.m, tuple([-x for x in self._n]), self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        da, db = self._d, o._d
        if da == db:
            return _make(self.m, _SUB[self.m](self._n, o._n), da)
        return _make(self.m, _LIN[self.m](self._n, o._n, db, -da), da * db)

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
        return _make(self.m, _MUL[self.m](a, b), den)

    __rmul__ = __mul__

    def inv(self) -> CycNum:
        """Field inverse in norm form: x times the product of its other Galois
        conjugates is the rational norm N(x), so 1/x is that product over N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        m, n = self.m, self._n
        if self.is_rational():
            return _make(m, [self._d] + [0] * (len(n) - 1), n[0])
        others = functools.reduce(_MUL[m], [aut(n) for a, aut in _AUT[m].items() if a != 1])
        norm = _MUL[m](n, others)[0]
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
        return _AUT[self.m][-1 % self.m](self._n)

    def conj(self) -> CycNum:
        """Complex conjugation, zeta -> zeta^(-1); a real element is its own conjugate."""
        nums = self._conj_nums()
        return self if nums == self._n else _reduced(self.m, nums, self._d)

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
    """Sign of an element outside Q, which is real only for m = 8 or 12.
    sign_real does not call it; bench/tracing.py reads its cache_info()."""
    a, b, d, _ = real_parts(x)
    return sign_quadratic(a, b, d)


def sign_real(x: CycNum) -> int:
    """Exact sign of an element of the real subfield: -1, 0 or +1."""
    n = x._n
    if not any(n[1:]):
        return (n[0] > 0) - (n[0] < 0)
    if x._conj_nums() != n:
        raise NotRealError(f"{x!r} is not fixed by conjugation")
    return sign_quadratic(*_real_nums(x.m, n))
