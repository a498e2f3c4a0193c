"""Seeded exact sampling of points, group elements and arrows.

Proposals use floating point only to size their range.  Each proposal is
decided in integers: |p - centre|^2 is an integer quadratic form in the drawn
numerators, so ball membership reduces to the exact sign of a + b sqrt d in the
real subfield.  Only the accepted proposal is built as a point, and downstream
computations stay in the decidable fragment.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .field import SUPPORTED_CONDUCTORS, CycNum, real_parts, sign_quadratic

# point_in_ball is not called here: it stays importable from this module
# because bench/tracing.py wraps this module's binding of it.
from .geometry import Ball, Point, point_in_ball  # noqa: F401

_DENOM = 64

# 2 cos(2 pi / m) = zeta + conj(zeta) as real_parts gives it: (a + b sqrt d) / e
_TWO_COS = {m: real_parts(CycNum.zeta(m) + CycNum.zeta(m, -1)) for m in SUPPORTED_CONDUCTORS}


def _radius_overestimate(ball: Ball) -> Fraction:
    # float sqrt used only to size proposals; the sign test below is exact
    approx = 0.0
    for c in ball.r2.reduced:
        approx += abs(float(c))
    return Fraction(math.isqrt(int(4 * approx) + 4) + 1, 2)


def random_point_in_ball(rng: random.Random, ball: Ball, conductor: int) -> Point:
    """Exact rational-coordinate point strictly inside the ball.

    A proposal adds (x + y zeta) / 64 to each centre coordinate, with x and y
    drawn in that order from [-steps, steps] (no draw when steps is 0); y is
    drawn but unused where zeta is real (m <= 2).  After 512 rejected proposals
    the centre is returned, which an open ball always contains.
    """
    dim = ball.dim
    if dim == 0:
        return ball.center
    bound = _radius_overestimate(ball) / (2 * dim + 1)
    steps = int(bound * _DENOM)
    # 64^2 |offset|^2 = x^2 + y^2 + x y t summed over coordinates, with
    # t = zeta + conj(zeta) = (t_a + t_b sqrt d) / t_e.  With r2 = (r_a + r_b sqrt d) / r_e,
    # 64^2 t_e r_e (r2 - |p - centre|^2) = (s r_a - r_e P) + (s r_b - r_e Q) sqrt d,
    # where s = 64^2 t_e, P = sum t_e (x^2 + y^2) + t_a x y and Q = sum t_b x y.
    r_a, r_b, d, r_e = real_parts(ball.r2)
    t_a, t_b, _, t_e = _TWO_COS[conductor]
    s = _DENOM * _DENOM * t_e
    s_a, s_b = s * r_a, s * r_b
    for _ in range(512):
        draws = []
        big_p = big_q = 0
        for _ in range(dim):
            x = rng.randint(-steps, steps) if steps > 0 else 0
            y = rng.randint(-steps, steps) if steps > 0 else 0
            if conductor <= 2:
                y = 0
            xy = x * y
            big_p += t_e * (x * x + y * y) + t_a * xy
            big_q += t_b * xy
            draws.append((x, y))
        if sign_quadratic(s_a - r_e * big_p, s_b - r_e * big_q, d) > 0:
            return Point(
                tuple(
                    c + CycNum(conductor, (Fraction(x, _DENOM), Fraction(y, _DENOM)))
                    for c, (x, y) in zip(ball.center.coords, draws)
                )
            )
    return ball.center


def random_chart_point(rng: random.Random, atlas, cid: str) -> Point:
    """Point of a chart domain, occasionally pushed around by the chart group."""
    chart = atlas.chart(cid)
    p = random_point_in_ball(rng, chart.ball, atlas.conductor)
    g = rng.choice(chart.group)
    return g(p)


def random_cycnum(rng: random.Random, m: int, size: int = 8) -> CycNum:
    from .field import _degree  # degree of the canonical basis

    coeffs = [Fraction(rng.randint(-size, size), rng.randint(1, 4)) for _ in range(_degree(m))]
    return CycNum(m, coeffs)
