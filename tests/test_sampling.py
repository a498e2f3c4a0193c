"""Rejection sampling of points in balls: the integer proposal test against a
reference loop that builds every proposal as a point."""

import random
from fractions import Fraction

import pytest

from orbatlas.field import CycNum
from orbatlas.geometry import Ball, Point, point_in_ball
from orbatlas.sampling import _radius_overestimate, random_point_in_ball


def _reference_fraction(rng, bound):
    steps = int(bound * 64)
    if steps <= 0:
        return Fraction(0)
    return Fraction(rng.randint(-steps, steps), 64)


def reference_point_in_ball(rng, ball, conductor):
    """Reference sampler: every proposal is built as a Point and tested with
    geometry.point_in_ball.  Returns the point and whether all 512 proposals
    were rejected."""
    if ball.dim == 0:
        return ball.center, False
    bound = _radius_overestimate(ball) / (2 * ball.dim + 1)
    for _ in range(512):
        coords = []
        for c in ball.center.coords:
            re = _reference_fraction(rng, bound)
            im = _reference_fraction(rng, bound)
            offset = CycNum.rational(conductor, re)
            if conductor in (3, 4, 6, 8, 12):
                offset = offset + CycNum.zeta(conductor) * im
            coords.append(c + offset)
        p = Point(tuple(coords))
        if point_in_ball(p, ball):
            return p, False
    return ball.center, True


def _sqrt_d(m):
    """sqrt 2 in Q(zeta_8), sqrt 3 in Q(zeta_12)."""
    z = CycNum.zeta(m)
    return z + z.conj() if m == 12 else z - CycNum.zeta(m, 3)


def _ball(m, dim, r2):
    z = CycNum.zeta(m)
    first = CycNum.rational(m, Fraction(1, 3)) + z * Fraction(-2, 7)
    coords = (first, CycNum.rational(m, Fraction(-1, 5)))[:dim]
    return Ball(Point(coords), r2 if isinstance(r2, CycNum) else CycNum.rational(m, r2))


def _assert_same_draws(ball, m, draws, seed):
    new, old = random.Random(seed), random.Random(seed)
    fallbacks = 0
    for _ in range(draws):
        want, fell_back = reference_point_in_ball(old, ball, m)
        assert random_point_in_ball(new, ball, m) == want
        assert new.getstate() == old.getstate()
        fallbacks += fell_back
    return fallbacks


@pytest.mark.parametrize("m", (1, 2, 3, 4, 6, 8, 12))
@pytest.mark.parametrize("dim", (1, 2))
def test_matches_reference_loop(m, dim):
    # at r2 = 25/4096 some proposals lie exactly on the sphere, which the open ball excludes
    for k, r2 in enumerate((Fraction(1), Fraction(1, 50), Fraction(1, 900), Fraction(25, 4096))):
        _assert_same_draws(_ball(m, dim, r2), m, draws=6, seed=100 * m + 10 * dim + k)


@pytest.mark.parametrize("m", (8, 12))
def test_matches_reference_loop_irrational_radius(m):
    s = _sqrt_d(m)
    for dim in (1, 2):
        for r2 in (s * Fraction(1, 8) + Fraction(3, 4), Fraction(3, 2) - s, s * Fraction(1, 200)):
            assert r2.is_real() and not r2.is_rational()
            _assert_same_draws(_ball(m, dim, r2), m, draws=6, seed=m + dim)


def test_center_fallback_matches_reference_loop():
    # no proposal other than the centre itself fits in a radius below 1/64
    assert _assert_same_draws(_ball(8, 2, Fraction(1, 20000)), 8, draws=3, seed=5) == 3


def test_dim0_ball_draws_nothing():
    rng = random.Random(3)
    state = rng.getstate()
    ball = Ball(Point(()), CycNum.rational(3, 1))
    assert random_point_in_ball(rng, ball, 3) == ball.center
    assert rng.getstate() == state
