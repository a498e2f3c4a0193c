"""Similarity maps, ball predicates and polynomial maps."""

import gc
import itertools
import random
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbatlas import geometry
from orbatlas.errors import ConductorMismatchError, DimensionMismatchError, NotSimilarityError
from orbatlas.field import SUPPORTED_CONDUCTORS, CycNum, _degree, sign_real
from orbatlas.geometry import (
    AffineMap,
    Ball,
    Point,
    PolyMap,
    ball_in_ball,
    balls_disjoint,
    balls_equal,
    dist2,
    fixed_point,
    map_ball,
    point_in_ball,
    solve_linear,
)
from orbatlas.systems import check_2cat_laws, rotation_fixture
from orbatlas.translation import check_functor_laws

from conftest import reference_ball_in_ball, reference_balls_disjoint, reference_dist2

M = 12


def zeta(k=1):
    return CycNum.zeta(M, k)


def rot(k):
    return AffineMap.scaling(M, 1, zeta(k))


class TestAffine:
    def test_identity_composition(self):
        g = rot(4).shift(Point.of(M, Fraction(1, 5)))
        assert AffineMap.identity(M, 1).compose(g) == g
        assert g.compose(AffineMap.identity(M, 1)) == g

    def test_rotation_composition(self):
        assert rot(4).compose(rot(4)) == rot(8)

    def test_contract_after_rotate(self):
        half_shift = AffineMap.scaling(M, 1, Fraction(1, 2)).shift(Point.of(M, Fraction(1, 4)))
        comp = half_shift.compose(rot(4))
        assert comp.a[0][0] == zeta(4) * Fraction(1, 2)
        assert comp.b.coords[0] == Fraction(1, 4)

    def test_equality_canonical(self):
        # zeta_12^4 is the canonical form of zeta_3 inside conductor 12
        z3 = AffineMap.scaling(M, 1, zeta(4))
        assert z3 == rot(4)
        assert z3 != rot(8)

    def test_similarity_factor_multiplies(self):
        f = AffineMap.scaling(M, 1, Fraction(1, 2))
        g = rot(1)
        assert f.compose(g).factor == Fraction(1, 4)

    def test_inverse(self):
        g = rot(5).shift(Point.of(M, Fraction(2, 3)))
        assert g.compose(g.inverse()).is_identity()
        assert g.inverse().compose(g).is_identity()

    def test_rejects_non_similarity(self):
        one = CycNum.rational(M, 1)
        zero = CycNum.rational(M, 0)
        with pytest.raises(NotSimilarityError):
            AffineMap(((one, one), (zero, one)), Point.origin(M, 2))

    def test_associativity_random(self):
        import random

        rng = random.Random(3)
        maps = []
        for _ in range(12):
            k = rng.randrange(12)
            s = Fraction(rng.randint(1, 4), 4)
            b = Point.of(M, Fraction(rng.randint(-3, 3), 8))
            maps.append(AffineMap.scaling(M, 1, zeta(k) * s).shift(b))
        for i in range(0, 12, 3):
            f, g, h = maps[i], maps[i + 1], maps[i + 2]
            assert f.compose(g.compose(h)) == f.compose(g).compose(h)
            assert f.compose(g).factor == f.factor * g.factor


def quaternion_map(a, b, shift):
    """z -> [[a, -conj(b)], [b, conj(a)]] z + shift: a similarity of C^2 with
    factor |a|^2 + |b|^2 whose matrices do not commute in general."""
    mat = ((a, -b.conj()), (b, a.conj()))
    return AffineMap(mat, Point.of(a.m, *shift))


def cycnums(m):
    fracs = st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=64)
    return st.lists(fracs, min_size=_degree(m), max_size=_degree(m)).map(lambda cs: CycNum(m, cs))


@st.composite
def similarities(draw, m, dim):
    """z -> P D z + b for a permutation P (the identity gives a diagonal map)
    and D with entries +-zeta^k s for one s >= 0, so A^H A = s^2 Id; some
    draws keep every entry rational, and s = 0 gives the zero matrix.  In
    dimension 2 also quaternion maps of drawn elements.  b has mixed
    denominators."""
    b = tuple(draw(cycnums(m)) for _ in range(dim))
    if dim == 2 and draw(st.booleans()):
        return quaternion_map(draw(cycnums(m)), draw(cycnums(m)), b)
    s = draw(st.fractions(min_value=0, max_value=2, max_denominator=12))
    powers = (0, m // 2) if m % 2 == 0 else (0,)
    ks = st.sampled_from(powers) if draw(st.booleans()) else st.integers(0, m - 1)
    perm = draw(st.permutations(range(dim)))
    zero = CycNum.rational(m, 0)
    rows = []
    for i in range(dim):
        entry = CycNum.zeta(m, draw(ks)) * (draw(st.sampled_from((1, -1))) * s)
        rows.append(tuple(entry if j == perm[i] else zero for j in range(dim)))
    return AffineMap(tuple(rows), Point(b))


def loop_apply(f, p):
    """z_i = b_i + sum_j a_ij z_j, one CycNum add and multiply at a time."""
    out = []
    for i in range(f.dim):
        acc = f.b.coords[i]
        for j in range(f.dim):
            acc = acc + f.a[i][j] * p.coords[j]
        out.append(acc)
    return tuple(out)


def loop_matmul(x, y):
    """(XY)_ij = sum_k x_ik y_kj, one CycNum add and multiply at a time."""
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = CycNum.rational(x[0][0].m, 0)
            for k in range(n):
                acc = acc + x[i][k] * y[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


class TestAffineReference:
    """apply, compose and inverse against the index loops
    z_i = b_i + sum_j a_ij z_j and (AB)_ij = sum_k a_ik b_kj, on 2 x 2
    matrices that do not commute and on drawn similarities of every
    supported conductor."""

    MAPS = [
        quaternion_map(zeta(1), CycNum.rational(M, 1), (Fraction(1, 3), 0)),
        quaternion_map(CycNum.rational(M, 2), zeta(5), (0, Fraction(-1, 2))),
        quaternion_map(zeta(4) * Fraction(1, 2), zeta(9), (Fraction(1, 4), Fraction(1, 5))),
    ]
    POINTS = [Point.of(M, Fraction(1, 7), 0), Point((zeta(2), zeta(7) * Fraction(3, 5)))]

    def test_apply_matches_index_loop(self):
        for f in self.MAPS:
            for p in self.POINTS:
                want = tuple(
                    f.b.coords[i] + f.a[i][0] * p.coords[0] + f.a[i][1] * p.coords[1]
                    for i in range(2)
                )
                assert f(p).coords == want

    def test_compose_matches_index_loop(self):
        for f in self.MAPS:
            for g in self.MAPS:
                fg = f.compose(g)
                assert fg.dim == 2
                assert fg.a == tuple(
                    tuple(f.a[i][0] * g.a[0][j] + f.a[i][1] * g.a[1][j] for j in range(2))
                    for i in range(2)
                )
                assert fg.b == f(g.b)
                for p in self.POINTS:
                    assert fg(p) == f(g(p))
        f, g = self.MAPS[:2]
        assert f.compose(g) != g.compose(f)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_index_loops(self, data):
        m = data.draw(st.sampled_from(SUPPORTED_CONDUCTORS), label="m")
        dim = data.draw(st.integers(1, 3), label="dim")
        maps = similarities(m, dim)
        if (m, dim) == (M, 2):
            maps = st.one_of(maps, st.sampled_from(self.MAPS))
        f = data.draw(maps, label="f")
        g = data.draw(maps, label="g")
        p = Point(tuple(data.draw(cycnums(m)) for _ in range(dim)))
        assert f(p).coords == loop_apply(f, p)
        fg = f.compose(g)
        assert fg.a == loop_matmul(f.a, g.a)
        assert fg.b.coords == loop_apply(f, g.b)
        assert fg.factor == f.factor * g.factor
        if f.is_invertible():
            inv_lam = f.factor.inv()
            ainv = tuple(
                tuple(f.a[j][i].conj() * inv_lam for j in range(dim)) for i in range(dim)
            )
            zero = Point.origin(m, dim)
            minus_b = tuple(-c for c in loop_apply(AffineMap(ainv, zero), f.b))
            assert f.inverse().a == ainv
            assert f.inverse().b.coords == minus_b
            assert f.compose(f.inverse()).is_identity()

    def test_dimension_mismatch(self):
        f = self.MAPS[0]
        with pytest.raises(DimensionMismatchError):
            f(Point.of(M, 1))
        with pytest.raises(DimensionMismatchError):
            f.compose(rot(1))


def _live_table_entries():
    """Entries of the composite tables of every live map, after a collection."""
    gc.collect()
    return sum(len(f._after) for f in list(geometry._INTERNED.values()))


class TestCompositionTable:
    """AffineMap.compose keeps each map's composites in its own table,
    ``_after``, keyed by the inner map; ``fresh`` empties the tables of the
    given maps for one test."""

    @pytest.fixture
    def fresh(self, monkeypatch):
        def empty(*maps):
            for f in maps:
                monkeypatch.setattr(f, "_after", {})
            return maps

        return empty

    def test_equal_pairs_share_one_result(self, fresh):
        def pair():
            return (
                quaternion_map(zeta(4) * Fraction(1, 2), zeta(9), (Fraction(1, 4), Fraction(1, 5))),
                quaternion_map(CycNum.rational(M, 2), zeta(5), (0, Fraction(-1, 2))),
            )

        (f1, g1), (f2, g2) = pair(), pair()
        assert f1 is f2 and g1 is g2
        fresh(f1, g1)
        first = f1.compose(g1)
        assert f2.compose(g2) is first
        assert first.a == loop_matmul(f1.a, g1.a)
        assert first.b.coords == loop_apply(f1, g1.b)
        assert list(f1._after) == [g1] and not g1._after

    def test_repeated_pair_adds_one_entry(self, fresh):
        f, g = fresh(*TestAffineReference.MAPS[:2])
        results = {id(f.compose(g)) for _ in range(50)}
        assert len(results) == 1 and len(f._after) == 1 and not g._after
        g.compose(f)
        assert len(f._after) == 1 and len(g._after) == 1

    def test_mismatched_pairs_raise_every_time_and_are_not_stored(self, fresh):
        f = rot(1)
        maps = fresh(f, AffineMap.identity(M, 2), AffineMap.scaling(3, 1, CycNum.zeta(3)))
        f.compose(f)
        before = [dict(h._after) for h in maps]
        cases = [
            (f, AffineMap.identity(M, 2), DimensionMismatchError),
            (AffineMap.identity(M, 2), f, DimensionMismatchError),
            (f, AffineMap.scaling(3, 1, CycNum.zeta(3)), ConductorMismatchError),
            (AffineMap.scaling(3, 1, CycNum.zeta(3)), f, ConductorMismatchError),
        ]
        for outer, inner, error in cases:
            for _ in range(3):
                with pytest.raises(error):
                    outer.compose(inner)
        assert [h._after for h in maps] == before

    def test_law_reports_from_empty_and_warm_table(self, fresh, cone3):
        fresh(*geometry._INTERNED.values())
        assert _live_table_entries() == 0
        fx = rotation_fixture(cone3, random.Random(5))

        def lines():
            return check_2cat_laws(fx).lines() + check_functor_laws(fx, samples=10, seed=2).lines()

        cold = lines()
        warm_size = _live_table_entries()
        assert warm_size
        assert lines() == cold
        assert _live_table_entries() == warm_size
        assert cold.count("verdict: pass") == 2


class TestInterning:
    """Equal maps are one object, however they are built; the hash is the
    value's; a map nothing holds leaves the table."""

    def test_constructors_share_one_object(self):
        one, zero = CycNum.rational(M, 1), CycNum.rational(M, 0)
        shift = Point.of(M, Fraction(1, 2))
        ident = AffineMap(((one,),), Point.origin(M, 1))
        assert AffineMap.identity(M, 1) is ident
        assert AffineMap.scaling(M, 1, 1) is ident
        assert AffineMap.translation(M, shift) is ident.shift(shift) is AffineMap(((one,),), shift)
        assert AffineMap.scaling(M, 2, zeta(4)) is AffineMap(((zeta(4), zero), (zero, zeta(4))), Point.origin(M, 2))
        assert PolyMap(M, 1, 1, [{(1,): zeta(1), (0,): Fraction(1, 2)}]) is rot(1).shift(shift)
        assert rot(1).compose(rot(2)) is rot(3)
        assert rot(1).inverse() is rot(11)
        assert AffineMap((), Point(())) is AffineMap.identity(3, 0) is AffineMap.identity(M, 0)

    @pytest.mark.parametrize("name", ["cone3", "football23", "teardrop3", "quotient22"])
    def test_serialize_round_trip_gives_the_same_maps(self, name, request):
        import json

        from orbatlas.serialize import atlas_from_doc, serialize

        atlas = request.getfixturevalue(name)
        parsed = atlas_from_doc(json.loads(serialize(atlas)))
        assert parsed is not atlas
        for cid in atlas.chart_ids():
            assert all(g is h for g, h in zip(parsed.chart(cid).group, atlas.chart(cid).group, strict=True))
        assert list(parsed.reps) == list(atlas.reps)
        assert all(parsed.reps[k].map is atlas.reps[k].map for k in atlas.reps)

    def test_hash_is_the_value_hash(self):
        for f in (*TestAffineReference.MAPS, AffineMap((), Point(())), rot(1).compose(rot(5)).inverse()):
            assert hash(f) == hash((f.a, f.b.coords))

    def test_dropped_map_leaves_the_table(self):
        f = AffineMap.scaling(M, 2, zeta(1) * Fraction(7, 997)).shift(Point.of(M, Fraction(1, 991), 0))
        keys = [(g.a, g.b.coords) for g in (f, f.compose(f), f.inverse())]
        assert PolyMap(M, 2, 2, f.coords) is f
        square = PolyMap(M, 2, 2, [{(2, 0): 1}, {(0, 1): 1}])
        _same_poly(f.compose(square), _reference_compose(f, square))  # substituted, not kept
        assert square not in f._after
        assert all(k in geometry._INTERNED for k in keys)
        del f
        gc.collect()
        assert not any(k in geometry._INTERNED for k in keys)

    def test_make_hit_takes_the_given_factor(self):
        f = AffineMap.scaling(M, 1, zeta(1) * Fraction(5, 983))
        g = AffineMap.scaling(M, 1, Fraction(983, 7))
        fg = f.compose(g)
        assert fg._factor is None
        given = f.factor * g.factor
        assert AffineMap._make(fg.a, fg.b, given) is fg
        assert fg._factor is given
        recomputed = sum((row[0].conj() * row[0] for row in fg.a), CycNum.rational(M, 0))
        assert fg.factor == recomputed

    @pytest.mark.parametrize("f", [rot(1).shift(Point.of(M, Fraction(1, 3))), AffineMap((), Point(()))], ids=["dim1", "dim0"])
    def test_copy_and_pickle_give_the_interned_object(self, f):
        import copy
        import pickle

        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert copy.deepcopy([f, (f, 1)])[1][0] is f
        assert pickle.loads(pickle.dumps(f)) is f


class TestIdentityTable:
    """AffineMap.identity builds each (conductor, dimension) once and keeps it;
    the checks around it still run on every call."""

    @pytest.mark.parametrize("m", SUPPORTED_CONDUCTORS)
    def test_built_once_per_conductor_and_dimension(self, m):
        for dim in range(4):
            f = AffineMap.identity(m, dim)
            assert geometry._IDENTITY[(m, dim)] is f
            assert AffineMap.identity(m, dim) is f and f.is_identity()
            assert f is AffineMap.scaling(m, dim, 1)

    def test_unsupported_conductor_raises_every_call(self):
        for _ in range(3):
            with pytest.raises(ConductorMismatchError):
                AffineMap.identity(5, 1)
        assert (5, 1) not in geometry._IDENTITY

    def test_chart_without_the_identity_raises_every_call(self):
        from orbatlas.atlas import Chart
        from orbatlas.errors import InvalidAtlasError

        z = AffineMap.scaling(3, 1, CycNum.zeta(3))
        chart = Chart("c", Ball.of(3, [0], 1), (z, z.compose(z)))
        for _ in range(3):
            with pytest.raises(InvalidAtlasError):
                chart.identity()
        assert Chart("c", chart.ball, (z, AffineMap.identity(3, 1))).identity() is AffineMap.identity(3, 1)


class TestBalls:
    def test_image_of_ball(self):
        b = Ball.of(M, [0], 1)
        f = AffineMap.scaling(M, 1, Fraction(1, 2)).shift(Point.of(M, Fraction(1, 4)))
        img = map_ball(f, b)
        assert img.center.coords[0] == Fraction(1, 4)
        assert img.r2 == Fraction(1, 4)

    def test_membership(self):
        b = Ball.of(M, [0], 1)
        assert point_in_ball(Point.of(M, Fraction(3, 4)), b)
        assert not point_in_ball(Point.of(M, 1), b)  # open ball
        assert not point_in_ball(Point.of(M, 2), b)

    def test_containment_with_radicals(self):
        big = Ball.of(M, [0], 1)
        small = Ball.of(M, [Fraction(1, 2)], Fraction(1, 16))
        assert ball_in_ball(small, big)
        assert not ball_in_ball(big, small)
        # boundary touching: B(1/2, 1/2) inside B(0,1) exactly
        touch = Ball.of(M, [Fraction(1, 2)], Fraction(1, 4))
        assert ball_in_ball(touch, big)

    def test_disjointness(self):
        b1 = Ball.of(M, [0], Fraction(1, 16))
        b2 = Ball.of(M, [1], Fraction(1, 16))
        assert balls_disjoint(b1, b2)
        # open balls touching at a point are disjoint
        b3 = Ball.of(M, [Fraction(1, 2)], Fraction(1, 16))
        assert balls_disjoint(b1, b3)
        b4 = Ball.of(M, [Fraction(1, 4)], Fraction(1, 16))
        assert not balls_disjoint(b1, b4)

    def test_irrational_radius_squared(self):
        lam = 2 + zeta(1) + zeta(1).conj()  # 2 + sqrt(3)
        f = AffineMap.scaling(M, 1, 1 + zeta(1))
        assert f.factor == lam
        img = map_ball(f, Ball.of(M, [0], 1))
        assert img.r2 == lam
        assert ball_in_ball(Ball.of(M, [0], 1), img)
        assert not ball_in_ball(img, Ball.of(M, [0], 1))

    def test_dim0(self):
        b = Ball(Point(()), CycNum.rational(1, 1))
        assert point_in_ball(Point(()), b)
        assert ball_in_ball(b, b)
        assert not balls_disjoint(b, b)
        assert balls_equal(b, b)


@st.composite
def point_and_ball(draw):
    """(p, ball, kind): kind "centre" puts p at the centre, "sphere" puts p on
    the sphere, "any" takes a real r2 = w conj(w) + q, irrational for m = 8, 12."""
    m = draw(st.sampled_from(SUPPORTED_CONDUCTORS))
    dim = draw(st.integers(1, 3))
    center = Point(tuple(draw(cycnums(m)) for _ in range(dim)))
    p = Point(tuple(draw(cycnums(m)) for _ in range(dim)))
    kind = draw(st.sampled_from(["any", "centre", "sphere"]))
    if kind == "centre":
        p = center
    if kind == "sphere":
        r2 = reference_dist2(p, center)
    else:
        w = draw(cycnums(m))
        r2 = w * w.conj() + draw(st.fractions(min_value=-1, max_value=1, max_denominator=64))
    return p, Ball(center, r2), kind


class TestIntegerMembership:
    """point_in_ball decides |p - c|^2 < r2 from integer numerators; the
    reference builds each value as a CycNum and takes sign_real."""

    @settings(max_examples=300, deadline=None)
    @given(point_and_ball())
    def test_matches_sign_of_cycnum_difference(self, case):
        p, ball, kind = case
        assert dist2(p, ball.center) == reference_dist2(p, ball.center)
        want = sign_real(ball.r2 - dist2(p, ball.center)) > 0
        assert point_in_ball(p, ball) == want
        if kind == "sphere":
            assert not want

    @pytest.mark.parametrize("m", SUPPORTED_CONDUCTORS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_centre_and_sphere(self, m, dim):
        z = CycNum.zeta(m)
        center = Point(tuple(CycNum(m, [Fraction(k, 3), Fraction(-1, 5)]) for k in range(dim)))
        on = Point((center.coords[0] + z,) + center.coords[1:])
        ball = Ball(center, CycNum.rational(m, 1))
        assert point_in_ball(center, ball)
        assert not point_in_ball(on, ball)
        assert point_in_ball(on, Ball(center, CycNum.rational(m, Fraction(1025, 1024))))
        assert not point_in_ball(center, Ball(center, CycNum.rational(m, 0)))

    def test_irrational_sphere(self):
        # |1 + zeta_12|^2 = 2 + sqrt 3: on the sphere, and inside any larger ball
        p = Point((1 + zeta(1),))
        lam = 2 + zeta(1) + zeta(1).conj()
        assert dist2(p, Point.origin(M, 1)) == lam
        assert not point_in_ball(p, Ball(Point.origin(M, 1), lam))
        assert point_in_ball(p, Ball(Point.origin(M, 1), lam + Fraction(1, 10**6)))
        assert not point_in_ball(p, Ball(Point.origin(M, 1), lam - Fraction(1, 10**6)))


def radii(m):
    """w conj(w) + q for q >= 0: a real square radius, irrational for most w
    at m = 8 and 12."""
    fracs = st.fractions(min_value=0, max_value=1, max_denominator=64)
    return st.builds(lambda w, q: w * w.conj() + q, cycnums(m), fracs)


@st.composite
def ball_pairs(draw):
    """(b1, b2, kind).  "any" draws centres and radii; "concentric" shares the
    centre; "equal" also shares the radius; "outer" makes d = r1 + r2 and
    "inner" makes d + r1 = r2 exactly, with r1 = a^2 d^2 for a rational a, so
    the squared radii are irrational whenever d^2 is."""
    m = draw(st.sampled_from(SUPPORTED_CONDUCTORS), label="m")
    dim = draw(st.integers(1, 3), label="dim")
    c1 = Point(tuple(draw(cycnums(m)) for _ in range(dim)))
    c2 = Point(tuple(draw(cycnums(m)) for _ in range(dim)))
    kind = draw(st.sampled_from(["any", "concentric", "equal", "outer", "inner"]), label="kind")
    r1, r2 = draw(radii(m)), draw(radii(m))
    if kind in ("concentric", "equal"):
        c2 = c1
    if kind == "equal":
        r2 = r1
    if kind in ("outer", "inner"):
        d2 = reference_dist2(c1, c2)
        a = draw(st.fractions(min_value=0, max_value=1, max_denominator=16), label="a")
        r1 = d2 * (a * a)
        r2 = d2 * ((1 - a) ** 2 if kind == "outer" else (1 + a) ** 2)
    return Ball(c1, r1), Ball(c2, r2), kind


class TestIntegerBallPredicates:
    """ball_in_ball and balls_disjoint decide on integer numerators; the
    references build d^2, the difference and the discriminant as CycNums and
    take two sign_real calls."""

    @settings(max_examples=200, deadline=None)
    @given(ball_pairs())
    def test_match_cycnum_formulas(self, case):
        b1, b2, kind = case
        for x, y in ((b1, b2), (b2, b1)):
            assert ball_in_ball(x, y) == reference_ball_in_ball(x, y)
            assert balls_disjoint(x, y) == reference_balls_disjoint(x, y)
        if kind == "outer":
            assert balls_disjoint(b1, b2)
        if kind in ("inner", "equal"):
            assert ball_in_ball(b1, b2)

    @pytest.mark.parametrize("m", [8, 12])
    def test_irrational_tangency(self, m):
        # d^2 = |1 + zeta|^2 is irrational; r1 = d^2 / 4 and r2 = d^2 / 4 or 9 d^2 / 4
        z = CycNum.zeta(m)
        c1, c2 = Point.of(m, 0), Point((1 + z,))
        d2 = (1 + z) * (1 + z).conj()
        assert not d2.is_rational()
        quarter = Ball(c1, d2 * Fraction(1, 4))
        assert balls_disjoint(quarter, Ball(c2, d2 * Fraction(1, 4)))
        assert not balls_disjoint(quarter, Ball(c2, d2 * Fraction(1, 4) + Fraction(1, 10**9)))
        assert ball_in_ball(quarter, Ball(c2, d2 * Fraction(9, 4)))
        assert not ball_in_ball(quarter, Ball(c2, d2 * Fraction(9, 4) - Fraction(1, 10**9)))


    def test_mixed_conductors_refused(self):
        a = Ball.of(3, [0], 1)
        b = Ball.of(12, [Fraction(1, 2)], Fraction(1, 16))
        c = Ball(Point.of(12, 0), CycNum.rational(3, 1))
        for x, y in ((a, b), (b, a), (b, c), (c, b)):
            with pytest.raises(ConductorMismatchError):
                ball_in_ball(x, y)
            with pytest.raises(ConductorMismatchError):
                balls_disjoint(x, y)

    def test_point_in_ball_mixed_conductors_refused(self):
        a = Ball.of(3, [0], 1)
        b = Ball.of(12, [Fraction(1, 2)], Fraction(1, 16))
        c = Ball(Point.of(12, 0), CycNum.rational(3, 1))
        for p, ball in ((b.center, a), (a.center, b), (b.center, c)):
            with pytest.raises(ConductorMismatchError):
                point_in_ball(p, ball)


class TestMismatchedInputs:
    """dist2 and the ball predicates refuse points and balls of different
    lengths or conductors instead of reading the common prefix."""

    def test_longer_point_in_ball(self):
        with pytest.raises(DimensionMismatchError):
            point_in_ball(Point.of(3, 0, 5), Ball.of(3, [0], 1))

    def test_shorter_point_in_ball(self):
        with pytest.raises(DimensionMismatchError):
            point_in_ball(Point.of(3, 0), Ball.of(3, [0, 5], 1))

    def test_ball_in_ball_of_another_dimension(self):
        b1, b2 = Ball.of(3, [0, 5], Fraction(1, 4)), Ball.of(3, [0], 1)
        for x, y in ((b1, b2), (b2, b1)):
            with pytest.raises(DimensionMismatchError):
                ball_in_ball(x, y)
            with pytest.raises(DimensionMismatchError):
                balls_disjoint(x, y)

    def test_dimension_0_ball_refuses_other_dimensions(self):
        b0, b1 = Ball(Point(()), CycNum.rational(3, 1)), Ball.of(3, [0], 1)
        with pytest.raises(DimensionMismatchError):
            point_in_ball(Point.of(3, 7), b0)
        for x, y in ((b0, b1), (b1, b0)):
            for predicate in (ball_in_ball, balls_disjoint, balls_equal):
                with pytest.raises(DimensionMismatchError):
                    predicate(x, y)
        with pytest.raises(DimensionMismatchError):
            map_ball(AffineMap.identity(3, 1), b0)

    def test_dimension_0_balls_over_different_conductors(self):
        b3, b4 = Ball(Point(()), CycNum.rational(3, 1)), Ball(Point(()), CycNum.rational(4, 1))
        for predicate in (ball_in_ball, balls_disjoint, balls_equal):
            with pytest.raises(ConductorMismatchError):
                predicate(b3, b4)

    def test_balls_equal_over_different_conductors(self):
        with pytest.raises(ConductorMismatchError):
            balls_equal(Ball.of(3, [0], 1), Ball.of(4, [0], 1))

    def test_dist2_of_points_of_different_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            dist2(Point.of(3, 0, 5), Point.of(3, 0))

    def test_dist2_of_points_over_different_conductors(self):
        with pytest.raises(ConductorMismatchError):
            dist2(Point.of(3, 1), Point.of(4, 1))
        with pytest.raises(ConductorMismatchError):
            dist2(Point((CycNum.rational(3, 1), CycNum.rational(4, 1))), Point.of(3, 1, 1))


class TestPolyMap:
    """A PolyMap is a map that is not a similarity; constructing one from the
    coordinates of a similarity gives that interned AffineMap."""

    def test_square_composition(self):
        sq = PolyMap(M, 1, 1, [{(2,): 1}])
        assert sq.compose(sq).coords[0] == {(4,): CycNum.rational(M, 1)}

    def test_affine_round_trip(self):
        f = rot(7).shift(Point.of(M, Fraction(1, 3)))
        assert PolyMap(M, 1, 1, f.coords) is f
        assert f.to_affine() is f
        assert (f.dim_in, f.dim_out) == (1, 1)

    def test_affine_form_decided_from_coefficients(self):
        # ints, Fractions and zero terms are cleaned before the decision
        f = rot(7).shift(Point.of(M, Fraction(1, 3)))
        assert PolyMap(M, 1, 1, [{(1,): zeta(7), (0,): Fraction(1, 3)}]) is f
        g = AffineMap.scaling(M, 2, Fraction(1, 2))
        assert PolyMap(M, 2, 2, [{(1, 0): Fraction(1, 2), (0, 1): 0, (0, 0): 0}, {(0, 1): Fraction(2, 4)}]) is g
        assert PolyMap(M, 1, 1, [{(0,): 0}]) is AffineMap.scaling(M, 1, 0)

    @pytest.mark.parametrize(
        "mp",
        [
            PolyMap(M, 1, 1, [{(2,): 1}]),
            PolyMap(M, 1, 2, [{(1,): 1}, {(1,): 1}]),
            PolyMap(M, 2, 2, [{(1, 0): 1}, {(0, 1): 2}]),
        ],
        ids=["z^2", "1->2", "diag(1, 2)"],
    )
    def test_to_affine_none_off_similarities(self, mp):
        assert type(mp) is PolyMap and mp.m == M
        assert mp.to_affine() is None

    def test_to_affine_kept(self):
        # a similarity lift is its interned map, whichever constructor built it
        mp = PolyMap(M, 1, 1, [{(1,): zeta(5)}])
        assert mp is rot(5) and mp.to_affine() is rot(5)

    def test_compose_with_affine(self):
        sq = PolyMap(M, 1, 1, [{(2,): 1}])
        pre = sq.compose(rot(4))
        assert pre.coords[0] == {(2,): zeta(8)}
        post = sq.then(rot(4))
        assert post.coords[0] == {(2,): zeta(4)}
        assert type(pre) is type(post) is PolyMap

    def test_evaluation(self):
        p = PolyMap(M, 2, 1, [{(1, 1): 1, (0, 0): Fraction(1, 2)}])
        out = p(Point.of(M, 2, 3))
        assert out.coords[0] == Fraction(13, 2)

    @pytest.mark.parametrize("name", ["cone3", "football23", "teardrop3", "quotient22"])
    def test_every_fixture_similarity_is_its_own_polymap(self, name, request):
        atlas = request.getfixturevalue(name)
        maps = [g for cid in atlas.chart_ids() for g in atlas.chart(cid).group]
        maps += [e.map for e in atlas.reps.values()] + TestAffineReference.MAPS
        for f in maps:
            m = f.b.coords[0].m if f.dim else atlas.conductor
            assert PolyMap(m, f.dim, f.dim, f.coords) is f
            assert PolyMap(m, f.dim, f.dim, _reference_from_affine(f).coords) is f

    def test_dimension_mismatch_is_checked_before_any_term(self):
        # the zero map has no terms to substitute into, and still refuses an
        # inner map of the wrong output dimension
        zero1 = PolyMap(M, 1, 1, [{(2,): 0}])
        assert zero1 is AffineMap.scaling(M, 1, 0)
        diag = PolyMap(M, 2, 2, [{(1, 0): 1}, {(0, 1): 2}])
        for outer in (zero1, PolyMap(M, 1, 2, [{}, {}]), PolyMap(M, 1, 2, [{}, {(1,): 1}])):
            with pytest.raises(DimensionMismatchError):
                outer.compose(diag)
            with pytest.raises(DimensionMismatchError):
                diag.then(outer)
        with pytest.raises(DimensionMismatchError):
            PolyMap(M, 1, 1, [{(2,): 1}]).compose(AffineMap.identity(M, 2))

    def test_copy_and_pickle(self):
        import copy
        import pickle

        p = PolyMap(M, 2, 1, [{(1, 1): zeta(1), (0, 0): Fraction(1, 2)}])
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(q) is PolyMap and q == p and hash(q) == hash(p) and q.m == M
        f = PolyMap(M, 1, 1, [{(1,): zeta(5), (0,): Fraction(1, 3)}])
        assert type(f) is AffineMap
        assert copy.copy(f) is f and copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f


class TestLinearSolve:
    def test_fixed_point_of_rotation(self):
        g = rot(4).shift(Point.of(M, 1))
        p = fixed_point(g)
        assert p is not None and g(p) == p

    def test_translation_has_no_fixed_point(self):
        t = AffineMap.identity(M, 1).shift(Point.of(M, 1))
        assert fixed_point(t) is None

    def test_solve_inconsistent(self):
        zero = CycNum.rational(M, 0)
        one = CycNum.rational(M, 1)
        assert solve_linear([[zero]], [one]) is None


def seeded_similarity(rng, m, dim):
    """z -> P D z + b as in ``similarities``, drawn from a seeded Random: D
    has entries +-zeta^k s for one rational s > 0 (s = 0 on one draw in
    eight); in dimension 2 also quaternion maps."""

    def scalar():
        return CycNum(m, [Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 8))) for _ in range(_degree(m))])

    b = tuple(scalar() for _ in range(dim))
    if dim == 2 and rng.random() < 0.3:
        return quaternion_map(scalar(), scalar(), b)
    s = 0 if rng.random() < 0.125 else Fraction(rng.randint(1, 6), rng.randint(1, 4))
    perm = rng.sample(range(dim), dim)
    zero = CycNum.rational(m, 0)
    rows = []
    for i in range(dim):
        entry = CycNum.zeta(m, rng.randrange(m)) * (rng.choice((1, -1)) * s)
        rows.append(tuple(entry if j == perm[i] else zero for j in range(dim)))
    return AffineMap(tuple(rows), Point(b))


class TestLazyFactor:
    """A composite's similarity factor is derived on first read from its first
    column; it equals the product of the factors, which compose used to form."""

    @pytest.mark.parametrize("m", SUPPORTED_CONDUCTORS)
    @pytest.mark.parametrize("dim", (1, 2, 3))
    def test_factor_is_the_product(self, m, dim):
        import random

        rng = random.Random(1000 * m + dim)
        ball = Ball(Point(tuple(CycNum.rational(m, Fraction(k, 5)) for k in range(dim))), CycNum.rational(m, Fraction(3, 7)))
        for _ in range(6):
            f, g, h = (seeded_similarity(rng, m, dim) for _ in range(3))
            fg = f.compose(g)
            fgh = fg.compose(h)
            assert fg.factor == f.factor * g.factor
            assert fgh.factor == f.factor * g.factor * h.factor
            assert f.compose(g.compose(h)).factor == fgh.factor
            image = map_ball(fgh, ball)
            assert image.center == f(g(h(ball.center)))
            assert image.r2 == f.factor * g.factor * h.factor * ball.r2
            assert fg.is_invertible() == (f.is_invertible() and g.is_invertible())
            if fg.is_invertible():
                assert fg.inverse().factor == (f.factor * g.factor).inv()
                assert fg.compose(fg.inverse()).is_identity()

    def test_dimension_zero_has_no_factor(self):
        f = AffineMap((), Point(()))
        assert f.compose(f).factor is None and f.compose(f).is_invertible()


class _Poly(NamedTuple):
    """A polynomial map as plain data, outside the choice of presentation."""

    m: int
    dim_in: int
    dim_out: int
    coords: tuple


def _conductor(*maps):
    """The conductor of the first map that has one: a PolyMap's or _Poly's m,
    or the coefficients' of an AffineMap (a dimension-0 one has none)."""
    for p in maps:
        if not isinstance(p, AffineMap):
            return p.m
        if p.dim:
            return p.b.coords[0].m
    return 1


def _reference_from_affine(f, m=None):
    """The coordinate polynomials of f over conductor m, written out."""
    n = f.dim
    coords = []
    for i in range(n):
        poly = {}
        if not f.b.coords[i].is_zero():
            poly[(0,) * n] = f.b.coords[i]
        for j in range(n):
            if not f.a[i][j].is_zero():
                e = [0] * n
                e[j] = 1
                poly[tuple(e)] = f.a[i][j]
        coords.append(poly)
    return _Poly(m or _conductor(f), n, n, tuple(coords))


def _data(p, m=None):
    return _reference_from_affine(p, m) if isinstance(p, AffineMap) else p


def _reference_poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return out


def _reference_compose(p, other):
    """p after other by substituting other's coordinates into p, over p's
    conductor (other's when p is a dimension-0 AffineMap); zero terms dropped."""
    m = _conductor(p, other)
    p, other = _data(p, m), _data(other, m)
    assert other.dim_out == p.dim_in
    one = {(0,) * other.dim_in: CycNum.rational(m, 1)}
    out = []
    for poly in p.coords:
        acc = {}
        for exps, c in poly.items():
            term = dict(one)
            for var, e in enumerate(exps):
                for _ in range(e):
                    term = _reference_poly_mul(term, other.coords[var])
            for mono, coeff in term.items():
                acc[mono] = acc.get(mono, CycNum.rational(m, 0)) + c * coeff
        out.append({e: c for e, c in acc.items() if not c.is_zero()})
    return _Poly(m, other.dim_in, p.dim_out, tuple(out))


def _reference_call(p, x):
    """Evaluate every monomial of p at x."""
    p = _data(p, _conductor(p))
    out = []
    for poly in p.coords:
        acc = CycNum.rational(p.m, 0)
        for exps, c in poly.items():
            term = c
            for z, e in zip(x.coords, exps):
                for _ in range(e):
                    term = term * z
            acc = acc + term
        out.append(acc)
    return Point(tuple(out))


def _reference_similarity(p):
    """The AffineMap whose coordinates p has, or None when p is not square,
    has a term of degree above 1 or its linear part is not a similarity."""
    n = p.dim_in
    if n != p.dim_out or any(sum(e) > 1 for poly in p.coords for e in poly):
        return None
    zero = CycNum.rational(p.m, 0)
    a = tuple(tuple(poly.get(tuple(int(i == j) for i in range(n)), zero) for j in range(n)) for poly in p.coords)
    try:
        return AffineMap(a, Point(tuple(poly.get((0,) * n, zero) for poly in p.coords)))
    except NotSimilarityError:
        return None


def _same_poly(got, want):
    """got has want's coordinates, compared by poly_to_doc bytes, and is the
    interned AffineMap exactly when want is a similarity; a PolyMap keeps
    want's conductor."""
    from orbatlas.serialize import canonical_bytes, poly_to_doc

    want = _data(want)
    assert canonical_bytes(poly_to_doc(got)) == canonical_bytes(poly_to_doc(want))
    aff = _reference_similarity(want)
    if aff is None:
        assert type(got) is PolyMap and got.m == want.m
        rebuilt = PolyMap(want.m, want.dim_in, want.dim_out, want.coords)
        assert got == rebuilt and hash(got) == hash(rebuilt)
    else:
        assert got is aff


@st.composite
def lifts(draw, m, dim_in, dim_out):
    """A similarity drawn by ``similarities`` (square shapes, one draw in
    three), or a map of degree at most 2 with up to three terms per
    coordinate, some coefficients zero; in dimension 1 every map of degree at
    most 1 is a similarity."""
    if dim_in == dim_out and draw(st.integers(0, 2)) == 0:
        return draw(similarities(m, dim_in))
    monos = [e for e in itertools.product(range(3), repeat=dim_in) if sum(e) <= 2]
    coeffs = st.one_of(st.just(0), cycnums(m))
    coords = []
    for _ in range(dim_out):
        terms = draw(st.lists(st.sampled_from(monos), max_size=3, unique=True))
        coords.append({e: draw(coeffs) for e in terms})
    return PolyMap(m, dim_in, dim_out, coords)


class TestPolyMapAffinePath:
    """compose, then and __call__ give the reference substitution and
    evaluation; a result is the interned AffineMap exactly when it is a
    similarity."""

    @pytest.mark.parametrize("m", SUPPORTED_CONDUCTORS)
    @pytest.mark.parametrize("dim", (1, 2, 3))
    def test_similarities_match_substitution(self, m, dim):
        import random

        rng = random.Random(2000 * m + dim)
        for _ in range(4):
            f, g, h = (seeded_similarity(rng, m, dim) for _ in range(3))
            assert PolyMap(m, dim, dim, g.coords) is g
            _same_poly(f, _reference_from_affine(f))
            _same_poly(f.compose(g), _reference_compose(f, g))
            _same_poly(g.compose(f), _reference_compose(g, f))
            _same_poly(g.then(h), _reference_compose(h, g))
            _same_poly(f.compose(g).then(h), _reference_compose(h, _reference_compose(f, g)))
            x = Point(tuple(CycNum.zeta(m, rng.randrange(m)) * Fraction(rng.randint(-4, 4), 9) for _ in range(dim)))
            assert f(x) == _reference_call(f, x)
            assert g.compose(f)(x) == _reference_call(_reference_compose(g, f), x)

    @pytest.mark.parametrize("m", (1, 3, 12))
    def test_dimension_zero(self, m):
        # every square dimension-0 map is the one dimension-0 AffineMap; a
        # non-square one keeps its conductor through compose either way
        f = AffineMap((), Point(()))
        assert PolyMap(m, 0, 0, []) is AffineMap.identity(m, 0) is f
        const = PolyMap(m, 0, 1, [{(): 0}])
        forget = PolyMap(m, 1, 0, [])
        for p, q in ((f, f), (const, f), (f, forget), (forget, const), (const, forget.compose(const))):
            _same_poly(p.compose(q), _reference_compose(p, q))
            _same_poly(q.then(p), _reference_compose(p, q))
        assert f(Point(())) == _reference_call(f, Point(())) == Point(())
        assert const(Point(())) == _reference_call(const, Point(())) == Point.origin(m, 1)

    def test_point_atlas_rotation_lifts(self):
        import random

        from orbatlas.gallery import point_atlas
        from orbatlas.systems import compose_compatible, rotation_fixture

        fx = rotation_fixture(point_atlas(), random.Random(4))
        for cid in fx.U.chart_ids():
            p, q = fx.g1.lift(cid), fx.f1.lift(cid)
            assert p is q is AffineMap((), Point(()))
            _same_poly(p.compose(q), _reference_compose(p, q))
            _same_poly(compose_compatible(fx.g1, fx.f1).lift(cid), _reference_compose(p, q))
            comp = fx.delta.component(cid).map
            _same_poly(q.then(comp), _reference_compose(comp, q))

    @pytest.mark.parametrize(
        "p, q",
        [
            (PolyMap(M, 1, 1, [{(2,): 1}]), rot(4)),
            (rot(3), PolyMap(M, 1, 1, [{(2,): zeta(1), (0,): Fraction(1, 3)}])),
            (PolyMap(M, 2, 2, [{(1, 0): Fraction(1, 2)}, {(0, 1): Fraction(1, 4)}]), quaternion_map(zeta(1), zeta(2), (1, 0))),
            (quaternion_map(zeta(1), zeta(2), (1, 0)), PolyMap(M, 1, 2, [{(1,): 1}, {(0,): 2}])),
        ],
        ids=["z^2 after a rotation", "rotation after z^2", "diag(1/2, 1/4)", "1->2 into a similarity"],
    )
    def test_non_similarities_keep_substitution(self, p, q):
        got = p.compose(q)
        _same_poly(got, _reference_compose(p, q))
        _same_poly(q.then(p), _reference_compose(p, q))
        x = Point.of(M, *([Fraction(1, 3)] * q.dim_in))
        assert got(x) == _reference_call(got, x) == p(q(x))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_lifts_match_the_references(self, data):
        m = data.draw(st.sampled_from(SUPPORTED_CONDUCTORS))
        a, b, c = (data.draw(st.integers(0, 2)) for _ in range(3))
        q, p = data.draw(lifts(m, a, b)), data.draw(lifts(m, b, c))
        for f in (p, q):
            _same_poly(f, f)
            _same_poly(PolyMap(m, f.dim_in, f.dim_out, f.coords), _data(f, m))
        _same_poly(p.compose(q), _reference_compose(p, q))
        _same_poly(q.then(p), _reference_compose(p, q))
        x = Point(tuple(data.draw(cycnums(m)) for _ in range(a)))
        assert q(x) == _reference_call(q, x)
        assert p.compose(q)(x) == p(q(x))
