"""Seeded exact sampling of points, group elements and arrows.

A proposal is integer arithmetic throughout, apart from one float sum over the
numerators of r^2 that sizes its range, and its draws are the values and the
stream of ``random.Random.randint``.  |p - centre|^2 is an integer quadratic
form in the drawn numerators, so ball membership reduces to the exact sign of
a + b sqrt d in the real subfield.  Only the accepted proposal is built as a
point, from the centre's numerators.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import ConductorMismatchError
from .field import SUPPORTED_CONDUCTORS, CycNum, _degree, _make, real_parts, sign_quadratic

# point_in_ball is not called here: it stays importable from this module
# because bench/tracing.py wraps this module's binding of it.
from .geometry import Ball, Point, point_in_ball  # noqa: F401

_DENOM = 64

# 2 cos(2 pi / m) = zeta + conj(zeta) as real_parts gives it: (a + b sqrt d) / e
_TWO_COS = {m: real_parts(CycNum.zeta(m) + CycNum.zeta(m, -1)) for m in SUPPORTED_CONDUCTORS}


def random_point_in_ball(rng: random.Random, ball: Ball, conductor: int) -> Point:
    """Exact rational-coordinate point strictly inside the ball.

    A proposal adds (x + y zeta) / 64 to each centre coordinate, with x and y
    drawn in that order from [-steps, steps] (no draw when steps is 0); y is
    drawn but unused where zeta is real (m <= 2).  Each draw makes the
    getrandbits calls of ``rng.randint(-steps, steps)`` and returns its value.
    After 512 rejected proposals the centre is returned, which an open ball
    always contains.  A non-real r2 raises NotRealError before any draw; a
    centre coordinate over another conductor raises ConductorMismatchError
    when a proposal is accepted.
    """
    dim = ball.dim
    if dim == 0:
        return ball.center
    # float sum used only to size proposals; the sign test below is exact
    approx = 0.0
    for n in ball.r2._n:
        approx += abs(n / ball.r2._d)
    steps = (math.isqrt(int(4 * approx) + 4) + 1) * _DENOM // (2 * (2 * dim + 1))
    # 64^2 |offset|^2 = x^2 + y^2 + x y t summed over coordinates, with
    # t = zeta + conj(zeta) = (t_a + t_b sqrt d) / t_e.  With r2 = (r_a + r_b sqrt d) / r_e,
    # 64^2 t_e r_e (r2 - |p - centre|^2) = (s r_a - r_e P) + (s r_b - r_e Q) sqrt d,
    # where s = 64^2 t_e, P = sum t_e (x^2 + y^2) + t_a x y and Q = sum t_b x y.
    r_a, r_b, d, r_e = real_parts(ball.r2)
    t_a, t_b, _, t_e = _TWO_COS[conductor]
    s = _DENOM * _DENOM * t_e
    s_a, s_b = s * r_a, s * r_b
    width = 2 * steps + 1  # randint draws k-bit values until one is below width
    k = width.bit_length()
    for _ in range(512):
        draws = []
        big_p = big_q = 0
        for _ in range(dim):
            x = y = width if steps else 0
            while x >= width:
                x = rng.getrandbits(k)
            while y >= width:
                y = rng.getrandbits(k)
            x -= steps
            y = y - steps if conductor > 2 else 0
            xy = x * y
            big_p += t_e * (x * x + y * y) + t_a * xy
            big_q += t_b * xy
            draws.append((x, y))
        if sign_quadratic(s_a - r_e * big_p, s_b - r_e * big_q, d) > 0:
            coords = []
            for c, (x, y) in zip(ball.center.coords, draws):
                if c.m != conductor:
                    raise ConductorMismatchError(f"conductor {c.m} vs {conductor}")
                # c + (x + y zeta) / 64 = (64 n + c_d (x, y, 0, 0)) / (64 c_d); degrees are <= 4
                nums = [_DENOM * n + c._d * o for n, o in zip(c._n, (x, y, 0, 0))]
                coords.append(_make(conductor, nums, _DENOM * c._d))
            return Point(tuple(coords))
    return ball.center


def random_chart_point(rng: random.Random, atlas, cid: str) -> Point:
    """Point of a chart domain, occasionally pushed around by the chart group."""
    chart = atlas.chart(cid)
    p = random_point_in_ball(rng, chart.ball, atlas.conductor)
    g = rng.choice(chart.group)
    return g(p)


def random_cycnum(rng: random.Random, m: int, size: int = 8) -> CycNum:
    coeffs = [Fraction(rng.randint(-size, size), rng.randint(1, 4)) for _ in range(_degree(m))]
    return CycNum(m, coeffs)
