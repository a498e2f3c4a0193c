"""Rejection sampling of points in balls: the integer sampler against a
reference loop that sizes proposals with Fractions, draws with randint and
builds every proposal as a point."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbatlas.errors import ConductorMismatchError, NotRealError
from orbatlas.field import CycNum, _degree, sign_real
from orbatlas.gallery import cone, football, global_quotient, point_atlas, pushforward_pair, teardrop
from orbatlas.geometry import Ball, Point, point_in_ball
from orbatlas.sampling import random_chart_point, random_point_in_ball


def _radius_overestimate(ball):
    """The proposal bound (isqrt(floor(4 s) + 4) + 1) / 2 as a Fraction, where s
    is the float sum of |r2 coefficients| in the canonical basis."""
    approx = 0.0
    for c in ball.r2.reduced:
        approx += abs(float(c))
    return Fraction(math.isqrt(int(4 * approx) + 4) + 1, 2)


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


def reference_random_chart_point(rng, atlas, cid):
    chart = atlas.chart(cid)
    p, _ = reference_point_in_ball(rng, chart.ball, atlas.conductor)
    return rng.choice(chart.group)(p)


def _ball3(m, r2):
    z = CycNum.zeta(m)
    coords = (
        CycNum.rational(m, Fraction(2, 9)) + z * Fraction(1, 4),
        CycNum.rational(m, Fraction(-1, 5)),
        z * Fraction(-3, 11),
    )
    return Ball(Point(coords), r2 if isinstance(r2, CycNum) else CycNum.rational(m, r2))


@pytest.mark.parametrize("m", (1, 2, 3, 4, 6, 8, 12))
def test_matches_reference_loop_dim3(m):
    for k, r2 in enumerate((Fraction(1), Fraction(1, 50), Fraction(1, 900), Fraction(49, 4096))):
        _assert_same_draws(_ball3(m, r2), m, draws=4, seed=1000 + 10 * m + k)


@pytest.mark.parametrize("m", (8, 12))
def test_matches_reference_loop_dim3_irrational_radius(m):
    s = _sqrt_d(m)
    for r2 in (s * Fraction(1, 8) + Fraction(3, 4), s * Fraction(1, 200)):
        _assert_same_draws(_ball3(m, r2), m, draws=4, seed=2000 + m)


_CHART_ATLASES = {
    "cone3": lambda: cone(3),
    "cone4-m12": lambda: cone(4, conductor=12),
    "football23": lambda: football(2, 3),
    "football34-m12": lambda: football(3, 4, conductor=12),
    "teardrop3": lambda: teardrop(3),
    "quot22": lambda: global_quotient(2, 2),
    "quot42-m8": lambda: global_quotient(4, 2, conductor=8),
    "point": point_atlas,
    "push-football23": lambda: pushforward_pair(football(2, 3))[1],
}


@pytest.mark.parametrize("make", _CHART_ATLASES.values(), ids=_CHART_ATLASES.keys())
def test_chart_point_matches_reference(make):
    atlas = make()
    new, old = random.Random(7), random.Random(7)
    for cid in atlas.chart_ids():
        for _ in range(4):
            assert random_chart_point(new, atlas, cid) == reference_random_chart_point(old, atlas, cid)
            assert new.getstate() == old.getstate()


@st.composite
def _balls(draw):
    """A conductor from {1, 2, 3, 8, 12}, a centre of dimension 1 to 3 with
    small rational coefficients, and a positive r2, irrational at m = 8, 12
    when the draw says so."""
    m = draw(st.sampled_from((1, 2, 3, 8, 12)))
    q = st.fractions(min_value=-2, max_value=2, max_denominator=40)
    dim = draw(st.integers(1, 3))
    center = Point(tuple(CycNum(m, draw(st.lists(q, min_size=_degree(m), max_size=_degree(m)))) for _ in range(dim)))
    r2 = CycNum.rational(m, draw(st.fractions(min_value=0, max_value=3, max_denominator=5000)))
    if m in (8, 12) and draw(st.booleans()):
        r2 = r2 + _sqrt_d(m) * draw(st.fractions(min_value=-1, max_value=1, max_denominator=300))
    assume(sign_real(r2) > 0)
    return m, Ball(center, r2)


@settings(max_examples=80, deadline=None)
@given(_balls(), st.integers(0, 2**32))
def test_matches_reference_loop_property(mb, seed):
    m, ball = mb
    _assert_same_draws(ball, m, draws=2, seed=seed)


def test_center_over_another_conductor_raises():
    ball = Ball(Point.of(3, Fraction(1, 3)), CycNum.rational(3, 1))
    with pytest.raises(ConductorMismatchError):
        random_point_in_ball(random.Random(1), ball, 4)


def test_non_real_radius_raises_before_any_draw():
    rng = random.Random(2)
    state = rng.getstate()
    ball = Ball(Point.of(3, Fraction(1, 3)), CycNum.zeta(3))
    with pytest.raises(NotRealError):
        random_point_in_ball(rng, ball, 3)
    assert rng.getstate() == state
