"""Charts, embeddings, the chart-group lemmas and the span machinery."""

import json
import random
from fractions import Fraction

import pytest

from orbatlas.atlas import (
    Atlas,
    Chart,
    Embedding,
    Span,
    _composable_reps,
    common_span,
    embedding_conditions,
    find_conjugator,
    has_trivial_stabilizer,
    induced_homomorphism,
    overlap_transport,
    restrict_chart,
    stabilizer,
    validate_atlas,
    validate_chart,
    validate_embedding,
    validate_span,
)
from orbatlas.errors import (
    InvalidAtlasError,
    NoConjugatorError,
    NotUniqueError,
    OracleRefusedError,
    PointOutsideDomainError,
)
from orbatlas.field import CycNum
from orbatlas.gallery import (
    cone,
    cone_pair,
    football,
    global_quotient,
    point_atlas,
    pushforward_pair,
    rotation_group,
    teardrop,
    teardrop_pair,
)
from orbatlas.geometry import AffineMap, Ball, Point, balls_disjoint, map_ball, point_in_ball
from orbatlas.groupoids import UnitPoint
from orbatlas.morita import _close_reps, common_refinement, pushforward_atlas, reconstruct_atlas, union_atlas
from orbatlas.sampling import random_chart_point
from orbatlas.translation import TranslationGroupoid

from conftest import (
    distinct_transports,
    make_sub_full_pair,
    record_arrows,
    reference_arrow,
    reference_arrows_to,
    reference_common_span,
    reference_locate,
    reference_refine,
    reference_transports,
    three_disc_table_atlas,
    two_disc_table_atlas,
)

M = 12


def zrot(k):
    return AffineMap.scaling(M, 1, CycNum.zeta(M, k))


@pytest.fixture(scope="module")
def cone3_m12():
    return cone(3, conductor=12)


class TestChartValidation:
    def test_cone_chart_valid(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        assert validate_chart(chart).ok

    def test_duplicate_identity_fails_faithfulness(self):
        ident = AffineMap.identity(M, 1)
        chart = Chart("bad", Ball.of(M, [0], 1), (ident, AffineMap.identity(M, 1)))
        rep = validate_chart(chart)
        assert not rep.ok
        assert any("faithful" in name for name, _ in rep.failures())

    def test_doubling_map_breaks_domain_preservation(self):
        chart = Chart(
            "bad2", Ball.of(M, [0], 1),
            (AffineMap.identity(M, 1), AffineMap.scaling(M, 1, 2)),
        )
        rep = validate_chart(chart)
        assert any("domain preserved" in name for name, _ in rep.failures())

    def test_missing_inverse_detected(self):
        chart = Chart("bad3", Ball.of(M, [0], 1), (AffineMap.identity(M, 1), zrot(4)))
        rep = validate_chart(chart)
        assert any("closed" in name for name, _ in rep.failures())


class TestStabilizers:
    def test_full_stabilizer_at_origin(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        assert len(stabilizer(chart, Point.origin(M, 1))) == 3

    def test_trivial_stabilizer_at_generic_point(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        p = Point.of(M, Fraction(1, 4))
        assert stabilizer(chart, p) == [chart.identity()]
        assert has_trivial_stabilizer(chart, p)
        assert not has_trivial_stabilizer(chart, Point.origin(M, 1))

    def test_point_outside_domain(self, cone3_m12):
        with pytest.raises(PointOutsideDomainError):
            stabilizer(cone3_m12.chart("cone3"), Point.of(M, 2))


class TestConjugator:
    def test_identity_case(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        lam = AffineMap.identity(M, 1)
        assert find_conjugator(chart, lam, lam).is_identity()

    def test_rotated_inclusion(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        sub, inc = restrict_chart(chart, Point.origin(M, 1), Fraction(1, 4), cid="sub")
        h = find_conjugator(chart, inc.map, zrot(4).compose(inc.map))
        assert h == zrot(4)

    def test_translation_is_not_conjugate(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        lam = AffineMap.identity(M, 1)
        mu = AffineMap.identity(M, 1).shift(Point.of(M, Fraction(1, 4)))
        with pytest.raises(NoConjugatorError):
            find_conjugator(chart, lam, mu)

    def test_non_reduced_chart_gives_non_unique_conjugator(self):
        from orbatlas.errors import NotUniqueError

        ident = AffineMap.identity(M, 1)
        doubled = Chart("dup", Ball.of(M, [0], 1), (ident, AffineMap.identity(M, 1)))
        with pytest.raises(NotUniqueError):
            find_conjugator(doubled, ident, ident)

    def test_torsor_has_group_size(self, cone3_m12):
        # {h . lam} has exactly |G| distinct elements and round-trips
        chart = cone3_m12.chart("cone3")
        sub, inc = restrict_chart(chart, Point.origin(M, 1), Fraction(1, 4), cid="sub")
        images = [h.compose(inc.map) for h in chart.group]
        assert len({hash(f) for f in images}) == len(chart.group)
        for h in chart.group:
            assert find_conjugator(chart, inc.map, h.compose(inc.map)) == h


def _reference_find_conjugator(dst_chart, lam, mu):
    """The former find_conjugator: one composite h . lam per group element."""
    found = [h for h in dst_chart.group if h.compose(lam) == mu]
    if not found:
        raise NoConjugatorError(f"no element of G_{dst_chart.cid} carries the first map to the second")
    if len(found) > 1:
        raise NotUniqueError(f"{len(found)} conjugators found; chart is not reduced")
    return found[0]


def _conjugator_outcome(fn):
    try:
        return fn()
    except (NoConjugatorError, NotUniqueError) as exc:
        return type(exc).__name__, str(exc)


class TestConjugatorSolve:
    """find_conjugator scans the target group for the h with h . lam = mu,
    for invertible and constant lam alike, and its outcomes and failures are
    those of the reference scan."""

    CHARTS = {
        "reduced": Chart("c", Ball.of(M, [0], 1), tuple(zrot(k) for k in (0, 4, 8))),
        "zeta listed twice": Chart("dup", Ball.of(M, [0], 1), (zrot(0), zrot(4), zrot(8), zrot(4))),
    }
    LAMS = {
        "similarity": AffineMap.scaling(M, 1, CycNum.zeta(M, 1) * Fraction(1, 2)).shift(Point.of(M, Fraction(1, 5))),
        "constant at the fixed point": AffineMap.scaling(M, 1, 0),
        "constant off it": AffineMap.scaling(M, 1, 0).shift(Point.of(M, Fraction(1, 3))),
    }

    @pytest.mark.parametrize("chart", CHARTS.values(), ids=CHARTS.keys())
    @pytest.mark.parametrize("lam", LAMS.values(), ids=LAMS.keys())
    def test_outcomes_match_the_scan(self, chart, lam):
        shift = AffineMap.translation(M, Point.of(M, Fraction(1, 7)))
        mus = [h.compose(lam) for h in chart.group] + [shift.compose(lam), zrot(2).compose(lam)]
        for mu in mus:
            got = _conjugator_outcome(lambda: find_conjugator(chart, lam, mu))
            assert got == _conjugator_outcome(lambda: _reference_find_conjugator(chart, lam, mu))

    def test_failures_name_the_chart(self):
        lam = self.LAMS["similarity"]
        with pytest.raises(NotUniqueError, match="^2 conjugators found; chart is not reduced$"):
            find_conjugator(self.CHARTS["zeta listed twice"], lam, zrot(4).compose(lam))
        with pytest.raises(NoConjugatorError, match="^no element of G_c carries the first map to the second$"):
            find_conjugator(self.CHARTS["reduced"], lam, zrot(2).compose(lam))
        # a constant lam at a point every element fixes: the scan finds them all
        flat = self.LAMS["constant at the fixed point"]
        with pytest.raises(NotUniqueError, match="^3 conjugators found"):
            find_conjugator(self.CHARTS["reduced"], flat, flat)
        off = self.LAMS["constant off it"]
        assert find_conjugator(self.CHARTS["reduced"], off, zrot(8).compose(off)) == zrot(8)

    def test_embedding_conditions_and_overlap_transport(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        sub, inc = restrict_chart(chart, Point.origin(M, 1), Fraction(1, 4), cid="sub")
        assert embedding_conditions(inc.map, sub, chart) == (True, True, [])
        # a trivial target group misses every element but the identity
        trivial = Chart("t", Ball.of(M, [0], 1), (zrot(0),))
        assert embedding_conditions(inc.map, sub, trivial)[2] == [g for g in sub.group if not g.is_identity()]
        flat = Embedding(sub.cid, "cone3", AffineMap.scaling(M, 1, 0))
        assert embedding_conditions(flat.map, sub, chart) == (False, True, [])
        atlas = Atlas(M, 1, [chart, sub], [inc])
        for h in chart.group:
            assert overlap_transport(inc, h, atlas) == next(g for g in sub.group if g == h)


def _solve_after(group, lam, mu):
    """The h in group with h . lam == mu, by the one solution mu . lam^(-1)
    (lam invertible)."""
    w = mu.compose(lam.inverse())
    return [h for h in group if h == w]


def _solve_before(group, lam, mu):
    """The g in group with lam . g == mu, by the one solution lam^(-1) . mu
    (lam invertible)."""
    w = lam.inverse().compose(mu)
    return [g for g in group if g == w]


_CONJUGATOR_ATLASES = {
    "cone3": lambda: cone(3),
    "cone6": lambda: cone(6),
    "football23": lambda: football(2, 3),
    "teardrop3": lambda: teardrop(3),
    "quot22": lambda: global_quotient(2, 2),
    "cone4-m12": lambda: cone(4, conductor=12),
    "football34-m12": lambda: football(3, 4, conductor=12),
    "quot42-m8": lambda: global_quotient(4, 2, conductor=8),
    "point": point_atlas,
}


class TestConjugatorScan:
    """The conjugator scans decide what the inverse-then-compose solve decided,
    on every chart group element and stored representative of the gallery."""

    @pytest.mark.parametrize("make", _CONJUGATOR_ATLASES.values(), ids=_CONJUGATOR_ATLASES.keys())
    def test_scans_match_the_solve(self, make):
        atlas = make()
        embeddings = list(atlas.reps.values()) + [
            Embedding(cid, cid, g) for cid, chart in atlas.charts.items() for g in chart.group
        ]
        for e in embeddings:
            src, dst = atlas.chart(e.src), atlas.chart(e.dst)
            missing = [g for g in src.group if not _solve_after(dst.group, e.map, e.map.compose(g))]
            assert embedding_conditions(e.map, src, dst)[2] == missing == []
            assert induced_homomorphism(e, atlas) == {
                g: _solve_after(dst.group, e.map, e.map.compose(g))[0] for g in src.group
            }
            image = map_ball(e.map, src.ball)
            for h in dst.group:
                assert find_conjugator(dst, e.map, h.compose(e.map)) == h
                assert _solve_after(dst.group, e.map, h.compose(e.map)) == [h]
                moved_off = balls_disjoint(map_ball(h, image), image)
                expected = None if moved_off else _solve_before(src.group, e.map, h.compose(e.map))[0]
                assert overlap_transport(e, h, atlas) == expected

    def test_flat_lambda_is_decided_by_the_scan(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        flat = AffineMap.scaling(M, 1, 0).shift(Point.of(M, Fraction(1, 3)))
        assert not flat.is_invertible()
        for h in chart.group:
            assert find_conjugator(chart, flat, h.compose(flat)) == h
        # a constant map is equivariant: the identity matches every element
        assert embedding_conditions(flat, chart, chart) == (False, True, [])


class TestInducedHomomorphism:
    def test_inclusion_restricts_identically(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        sub, inc = restrict_chart(chart, Point.origin(M, 1), Fraction(1, 4), cid="sub")
        atlas = Atlas(M, 1, [chart, sub], [inc])
        table = induced_homomorphism(inc, atlas)
        for g, h in table.items():
            assert g == h

    def test_zeta12_automorphism_acts_by_conjugation(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        e = Embedding("cone3", "cone3", zrot(1))
        table = induced_homomorphism(e, cone3_m12)
        for g, h in table.items():
            assert g == h  # abelian conjugation

    def test_homomorphism_on_full_table(self):
        atlas = cone(6)
        chart = atlas.chart("cone6")
        sub, inc = restrict_chart(chart, Point.origin(6, 1), Fraction(1, 4), cid="sub")
        big = Atlas(6, 1, [chart, sub], [inc])
        table = induced_homomorphism(inc, big)
        elems = list(table)
        for g1 in elems:
            for g2 in elems:
                assert table[g1.compose(g2)] == table[g1].compose(table[g2])
        # injectivity
        values = list(table.values())
        assert len({hash(v) for v in values}) == len(values)


class TestOverlapTransport:
    def test_identity(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        sub, inc = restrict_chart(chart, Point.origin(M, 1), Fraction(1, 4), cid="sub")
        atlas = Atlas(M, 1, [chart, sub], [inc])
        assert overlap_transport(inc, chart.identity(), atlas).is_identity()

    def test_invariant_subball_transports_rotation(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        sub, inc = restrict_chart(chart, Point.origin(M, 1), Fraction(1, 4), cid="sub")
        atlas = Atlas(M, 1, [chart, sub], [inc])
        g = overlap_transport(inc, zrot(4), atlas)
        assert g == zrot(4)

    def test_disjoint_translate_returns_none(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        sub, inc = restrict_chart(chart, Point.of(M, Fraction(1, 2)), Fraction(1, 64), cid="sub")
        atlas = Atlas(M, 1, [chart, sub], [inc])
        assert overlap_transport(inc, zrot(4), atlas) is None
        # and the images are exactly disjoint
        img = map_ball(inc.map, sub.ball)
        assert balls_disjoint(map_ball(zrot(4), img), img)

    def test_round_trip_through_induced_map(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        sub, inc = restrict_chart(chart, Point.origin(M, 1), Fraction(1, 4), cid="sub")
        atlas = Atlas(M, 1, [chart, sub], [inc])
        table = induced_homomorphism(inc, atlas)
        for g, h in table.items():
            assert overlap_transport(inc, h, atlas) == g


class TestRestrictChart:
    def test_origin_restriction_keeps_group(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        sub, inc = restrict_chart(chart, Point.origin(M, 1), Fraction(1, 4), cid="sub")
        assert len(sub.group) == 3
        assert sub.ball.r2 == Fraction(1, 4)
        assert validate_chart(sub).ok
        assert inc.map.is_identity()

    def test_generic_point_gets_trivial_group_and_separation(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        p = Point.of(M, Fraction(1, 4))
        sub, _ = restrict_chart(chart, p, Fraction(1, 2), cid="sub")
        assert len(sub.group) == 1
        for g in chart.group:
            if g.is_identity():
                continue
            assert balls_disjoint(map_ball(g, sub.ball), sub.ball)

    def test_restriction_matches_stabilizer(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        for pt in (Point.origin(M, 1), Point.of(M, Fraction(1, 4))):
            sub, _ = restrict_chart(chart, pt, Fraction(1, 8), cid="sub")
            assert set(sub.group) == set(stabilizer(chart, pt))


class TestCommonSpan:
    def test_same_leg(self, cone3_m12):
        e = cone3_m12.identity_embedding("cone3")
        p = Point.of(M, Fraction(1, 4))
        span = common_span(cone3_m12, e, p, e, p)
        assert span.left(span.point) == p and span.right(span.point) == p

    def test_rotated_legs(self, cone3_m12):
        ident = cone3_m12.identity_embedding("cone3")
        z3 = Embedding("cone3", "cone3", zrot(4))
        p = Point.of(M, Fraction(1, 4))
        span = common_span(cone3_m12, ident, zrot(4)(p), z3, p)
        assert ident.map.compose(span.left.map) == z3.map.compose(span.right.map)
        assert span.left(span.point) == zrot(4)(p)
        assert span.right(span.point) == p

    def test_cross_chart_span(self, football23):
        # legs from different source charts into the same target chart
        glue = football23.chart("glue")
        to_n = football23.reps[("glue", "north")]
        ident = football23.identity_embedding("north")
        w = glue.ball.center
        span = common_span(football23, ident, to_n(w), to_n, w)
        assert ident.map.compose(span.left.map) == to_n.map.compose(span.right.map)
        assert span.left(span.point) == to_n(w)
        assert span.right(span.point) == w

    def test_unidentified_points_refused(self, cone3_m12):
        ident = cone3_m12.identity_embedding("cone3")
        with pytest.raises(OracleRefusedError):
            common_span(
                cone3_m12, ident, Point.of(M, Fraction(1, 4)), ident, Point.of(M, Fraction(1, 8))
            )


_SPAN_SEARCH_ATLASES = {
    "cone3-m12": lambda: cone(3, conductor=12),
    "cone6": lambda: cone(6),
    "football23": lambda: football(2, 3),
    "teardrop3": lambda: teardrop(3),
    "quot42-m8": lambda: global_quotient(4, 2, conductor=8),
}


def _span_cases(atlas, rng):
    """(lam_nl, x_n, lam_pl, x_p) for every ordered pair of invertible stored
    legs into a chart whose images hold one of its test points (the centre,
    the unit witness points and two random points), with x_n and x_p that
    point pulled back along each leg."""
    for t in atlas.chart_ids():
        legs = [e for k in atlas.chart_ids() for e in atlas.family(k, t) if e.map.is_invertible()]
        for y in atlas.witness_points(t) + [random_chart_point(rng, atlas, t) for _ in range(2)]:
            ends = [(e, e.map.inverse()(y)) for e in legs]
            ends = [(e, x) for e, x in ends if point_in_ball(x, atlas.chart(e.src).ball)]
            for lam_nl, x_n in ends:
                for lam_pl, x_p in ends:
                    yield lam_nl, x_n, lam_pl, x_p


def _is_completion(atlas, span, lam_nl, x_n, lam_pl, x_p):
    return (
        atlas.in_family(span.left)
        and atlas.in_family(span.right)
        and span.left(span.point) == x_n
        and span.right(span.point) == x_p
        and lam_nl.map.compose(span.left.map) == lam_pl.map.compose(span.right.map)
    )


class TestSpanSearch:
    """common_span keeps the span of Atlas.refine but for its right leg, the
    first stored leg closing the square; it agrees with the former stabilizer
    repair of the left leg up to the class of every product."""

    @pytest.mark.parametrize("make", _SPAN_SEARCH_ATLASES.values(), ids=_SPAN_SEARCH_ATLASES.keys())
    def test_search_against_the_repair(self, make):
        atlas = make()
        g = TranslationGroupoid(atlas)
        cases = differing = 0
        for lam_nl, x_n, lam_pl, x_p in _span_cases(atlas, random.Random(23)):
            span = common_span(atlas, lam_nl, x_n, lam_pl, x_p)
            ref = reference_common_span(atlas, lam_nl, x_n, lam_pl, x_p)
            raw = atlas.refine(lam_nl.src, x_n, lam_pl.src, x_p)
            assert (span.chart, span.point, span.left) == (raw.chart, raw.point, raw.left)
            closing = [
                r for r in atlas.family(raw.chart, lam_pl.src)
                if _is_completion(atlas, Span(raw.chart, raw.point, raw.left, r), lam_nl, x_n, lam_pl, x_p)
            ]
            assert span.right == closing[0]
            assert _is_completion(atlas, span, lam_nl, x_n, lam_pl, x_p)
            assert _is_completion(atlas, ref, lam_nl, x_n, lam_pl, x_p)
            p = Span(lam_nl.src, x_n, atlas.identity_embedding(lam_nl.src), lam_nl)
            q = Span(lam_pl.src, x_p, lam_pl, atlas.identity_embedding(lam_pl.src))
            assert g.triples_equal(g.multiply_triples(p, q, span=span), g.multiply_triples(p, q, span=ref))
            cases += 1
            differing += (span.left, span.right) != (ref.left, ref.right)
        assert cases and differing

    def test_rotated_legs_at_the_cone_point(self):
        atlas = cone(3)
        group = atlas.chart("cone3").group
        ident = atlas.identity_embedding("cone3")
        rot = Embedding("cone3", "cone3", group[1])
        origin = Point.origin(atlas.conductor, 1)
        span = common_span(atlas, ident, origin, rot, origin)
        ref = reference_common_span(atlas, ident, origin, rot, origin)
        assert (ref.left.map, ref.right.map) == (group[1], group[0])
        assert (span.left.map, span.right.map) == (group[0], group[2])


class TestAtlasValidation:
    def test_gallery_atlases_validate(self, cone3_m12, football23, teardrop3, quotient22, point_chart_atlas):
        for atlas in (cone3_m12, football23, teardrop3, quotient22, point_chart_atlas):
            rep = validate_atlas(atlas, rng=random.Random(0))
            assert rep.ok, rep.failures()

    def test_empty_atlas_fails_cover_axiom(self):
        empty = Atlas(M, 1, [], [])
        rep = validate_atlas(empty, rng=random.Random(0))
        assert any("has charts" in name for name, _ in rep.failures())

    def test_repeated_chart_id_rejected(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        smaller = Chart("cone3", Ball.of(M, [0], Fraction(1, 9)), chart.group)
        with pytest.raises(InvalidAtlasError, match="duplicate chart id 'cone3'"):
            Atlas(M, 1, [chart, smaller], [])

    def test_oversized_embedding_rejected(self, cone3_m12):
        chart = cone3_m12.chart("cone3")
        small = Chart("small", Ball.of(M, [0], Fraction(1, 4)), tuple(rotation_group(M, 1, 3)))
        bad = Embedding("cone3", "small", AffineMap.identity(M, 1))
        assert validate_embedding(bad, chart, small).failures() == [("image inside target domain", "")]
        atlas = Atlas(M, 1, [chart, small], [bad])
        rep = validate_atlas(atlas, rng=random.Random(0))
        assert ("representative cone3->small", "image inside target domain") in rep.failures()

    def test_common_span_random_pairs(self, cone3_m12, football23, teardrop3):
        # sampled oracle-identified pairs: the completed square always commutes
        from orbatlas.gallery import cone
        from orbatlas.sampling import random_chart_point

        for atlas, count in (
            (cone3_m12, 500),
            (cone(6), 500),
            (football23, 500),
            (teardrop3, 500),
        ):
            rng = random.Random(5)
            for _ in range(count):
                ci = rng.choice(atlas.chart_ids())
                p = random_chart_point(rng, atlas, ci)
                cj = rng.choice(atlas.chart_ids())
                q = atlas.locate(ci, p, cj)
                if q is None:
                    continue
                raw = atlas.refine(ci, p, cj, q)
                left = raw.left
                # complete the two legs into chart ci against each other
                ident = atlas.identity_embedding(ci)
                span = common_span(atlas, ident, p, left, raw.point)
                assert ident.map.compose(span.left.map) == left.map.compose(span.right.map)
                assert span.left(span.point) == p
                assert span.right(span.point) == raw.point


def _validation_queries(atlas):
    """The queries validate_atlas asks refine, in its order: both ends of each
    valid witness span, then every unit witness point against itself."""
    queries = [
        (w.left.dst, w.left(w.point), w.right.dst, w.right(w.point))
        for w in atlas.witnesses
        if validate_span(atlas, w).ok
    ]
    return queries + [(cid, p, cid, p) for cid in atlas.chart_ids() for p in atlas.witness_points(cid)]


_VALIDATION_ATLASES = {
    "cone2": lambda: cone(2),
    "cone3": lambda: cone(3),
    "cone4": lambda: cone(4),
    "cone6": lambda: cone(6),
    "football23": lambda: football(2, 3),
    "teardrop3": lambda: teardrop(3),
    "quot22": lambda: global_quotient(2, 2),
    "point": point_atlas,
    "cone4-m12": lambda: cone(4, conductor=12),
    "football34-m12": lambda: football(3, 4, conductor=12),
    "cone3-union1": lambda: _refinement_atlases(cone_pair(3))[1],
    "cone3-union2": lambda: _refinement_atlases(cone_pair(3))[2],
    "teardrop3-union1": lambda: _refinement_atlases(teardrop_pair(3))[1],
    "teardrop3-union2": lambda: _refinement_atlases(teardrop_pair(3))[2],
    "reconstructed-football23": lambda: reconstruct_atlas(TranslationGroupoid(football(2, 3)), samples=2, seed=0).atlas,
}


class TestValidationQueries:
    """validate_atlas asks refine each query once; its "oracle deterministic"
    row is recorded by construction, and this guards what it stands for."""

    @pytest.mark.parametrize("name", list(_VALIDATION_ATLASES))
    def test_refine_answers_each_query_alike_twice(self, name):
        atlas = _VALIDATION_ATLASES[name]()
        queries = _validation_queries(atlas)
        assert queries
        for q in queries:
            first = atlas.refine(*q)
            assert first is not None and first == atlas.refine(*q)

    @pytest.mark.parametrize("name", list(_VALIDATION_ATLASES))
    def test_refine_called_once_per_query(self, name, monkeypatch):
        atlas = _VALIDATION_ATLASES[name]()
        queries = _validation_queries(atlas)
        calls = []
        refine = Atlas.refine

        def counted(self, *q):
            calls.append(q)
            return refine(self, *q)

        monkeypatch.setattr(Atlas, "refine", counted)
        rep = validate_atlas(atlas)
        assert rep.ok, rep.failures()
        assert calls == queries


def _reference_refine(atlas, ci, x, cj, y):
    """The chart x family x family span search, written out directly."""
    for k in atlas.chart_ids():
        ball_k = atlas.chart(k).ball
        for left in atlas.family(k, ci):
            if not left.map.is_invertible():
                continue
            z = left.map.inverse()(x)
            if not point_in_ball(z, ball_k) or left(z) != x:
                continue
            for right in atlas.family(k, cj):
                if right(z) == y:
                    return Span(k, z, left, right)
    return None


def _reference_locate(atlas, ci, x, cj):
    if ci == cj:
        return x
    for k in atlas.chart_ids():
        ball_k = atlas.chart(k).ball
        fam_j = atlas.family(k, cj)
        if not fam_j:
            continue
        for left in atlas.family(k, ci):
            if not left.map.is_invertible():
                continue
            z = left.map.inverse()(x)
            if point_in_ball(z, ball_k) and left(z) == x:
                return fam_j[0](z)
    return None


def _outside(ball):
    """A point at distance r2 + 1 from the centre of a ball of positive
    dimension, along the first coordinate: outside it, as (r2 + 1)^2 > r2."""
    c = ball.center.coords
    return Point((c[0] + ball.r2 + 1,) + c[1:])


def _span_key(span):
    if span is None:
        return None
    return (span.chart, span.point, span.left.dst, span.left.map, span.right.dst, span.right.map)


def _refinement_atlases(pair):
    """The common refinement of an equivalent pair and its two union atlases."""
    u1, u2, witnesses = pair
    ref = common_refinement(u1, u2, witnesses)
    return (ref.atlas, union_atlas(u1, ref.atlas, ref.into_first), union_atlas(u2, ref.atlas, ref.into_second))


_LEG_TABLE_ATLASES = {
    f"{name}-{part}": (lambda pair=pair, i=i: _refinement_atlases(pair())[i])
    for name, pair in (
        ("cone3", lambda: cone_pair(3)),
        ("teardrop3", lambda: teardrop_pair(3)),
        ("push-football23", lambda: pushforward_pair(football(2, 3))),
    )
    for i, part in enumerate(("refinement", "union1", "union2"))
}


def _witness_queries(atlas):
    """(chart, point) at both ends of every witness span, the span's point
    moved by each element of the span chart's group."""
    return [
        (leg.dst, leg(g(w.point)))
        for w in atlas.witnesses
        for g in atlas.chart(w.chart).group
        for leg in (w.left, w.right)
    ]


_SCAN_ATLASES = {
    "cone3": lambda: cone(3),
    "cone6": lambda: cone(6),
    "football23": lambda: football(2, 3),
    "teardrop3": lambda: teardrop(3),
    "cone4-m12": lambda: cone(4, conductor=12),
    "quot22": lambda: global_quotient(2, 2),
    "point": point_atlas,
    "sub-full-cone3": lambda: make_sub_full_pair(3)[1],
    **_LEG_TABLE_ATLASES,
}


class TestChartIdentity:
    """Chart.identity looks the interned identity up in the group; the
    reference is the value scan it replaced."""

    @staticmethod
    def _scanned(chart):
        return next((g for g in chart.group if g.is_identity()), None)

    @pytest.mark.parametrize(
        "make",
        [*_SCAN_ATLASES.values(), lambda: football(3, 4, conductor=12), lambda: global_quotient(4, 2, conductor=8)],
        ids=[*_SCAN_ATLASES.keys(), "football34-m12", "quot42-m8"],
    )
    def test_matches_the_scan(self, make):
        atlas = make()
        for cid in atlas.chart_ids():
            chart = atlas.chart(cid)
            assert chart.identity() is self._scanned(chart) is not None

    @pytest.mark.parametrize("group", [(zrot(4), zrot(8)), ()], ids=["no-identity", "empty"])
    def test_group_without_identity_raises(self, group):
        chart = Chart("noid", Ball.of(M, [0], 1), group)
        assert self._scanned(chart) is None
        with pytest.raises(InvalidAtlasError, match="no identity element"):
            chart.identity()


def _record_scan_product(g, a, b):
    """multiply as it scanned the former record table: the first record from
    s(a)'s chart to t(b)'s chart with map germ(b) . germ(a) and s(a) in its
    domain."""
    germ = g.local_bisection(b).compose(g.local_bisection(a))
    x = g.source(a)
    return reference_arrow(g, x.component, g.target(b).component, germ, x.point)


class TestTransportTable:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: cone(3),
            lambda: cone(6),
            lambda: football(2, 3),
            lambda: teardrop(3),
            lambda: cone(4, conductor=12),
        ],
        ids=["cone3", "cone6", "football23", "teardrop3", "cone4-m12"],
    )
    def test_span_search_matches_reference(self, make):
        # the span search walks the leg table but picks the same first
        # span and the same located point as the direct triple loop
        atlas = make()
        rng = random.Random(23)
        hits = 0
        for _ in range(60):
            ci = rng.choice(atlas.chart_ids())
            x = random_chart_point(rng, atlas, ci)
            for cj in atlas.chart_ids():
                y = atlas.locate(ci, x, cj)
                assert y == _reference_locate(atlas, ci, x, cj)
                targets = [random_chart_point(rng, atlas, cj)]
                if y is not None:
                    targets += [g(y) for g in atlas.chart(cj).group]
                for t in targets:
                    span = atlas.refine(ci, x, cj, t)
                    assert _span_key(span) == _span_key(_reference_refine(atlas, ci, x, cj, t))
                    hits += span is not None
        assert hits > 0

    def test_table_order_and_maps(self):
        atlas = football(2, 3)
        for ca in atlas.chart_ids():
            for cb in atlas.chart_ids():
                expected = [
                    (k, left.map, right.map)
                    for k in atlas.chart_ids()
                    for left in atlas.family(k, ca)
                    for right in atlas.family(k, cb)
                ]
                records = reference_transports(atlas, ca, cb)
                assert [(t.k, t.left.map, t.right.map) for t in records] == expected
                for t in records:
                    assert t.map == t.right.map.compose(t.left.map.inverse())
                    assert t.domain == map_ball(t.left.map, atlas.chart(t.k).ball)
                table = atlas.transport_table(ca, cb)
                assert tuple((c.germ, c.ball) for c in table.components) == distinct_transports(records)
                assert atlas.transport_table(ca, cb) is table

    @pytest.mark.parametrize("make", _SCAN_ATLASES.values(), ids=_SCAN_ATLASES.keys())
    def test_transport_records_match_the_composite_build(self, make):
        # the table lists the (map, domain) pair of every record of the
        # former build, each once, in record order, as the components
        # (ca, cb, i) with their first leg pair; it is cached on the atlas and
        # its components are the groupoid's
        atlas = make()
        g = TranslationGroupoid(atlas)
        for ca in atlas.chart_ids():
            for cb in atlas.chart_ids():
                table = atlas.transport_table(ca, cb)
                comps = table.components
                assert tuple((c.germ, c.ball) for c in comps) == distinct_transports(reference_transports(atlas, ca, cb))
                assert [(c.label, c.s_component, c.t_component) for c in comps] == [
                    ((ca, cb, i), ca, cb) for i in range(len(comps))
                ]
                assert len(table.legs) == len(comps)
                for i, (c, (left, right)) in enumerate(zip(comps, table.legs)):
                    assert c.ball == map_ball(left.map, atlas.chart(left.src).ball)
                    assert c.germ == right.map.compose(left.map.inverse())
                    assert table.exact(c.germ, c.ball) == i
                    # components first met on one left leg share its ball object
                    if i and table.legs[i - 1][0] is left:
                        assert comps[i - 1].ball is c.ball
                assert atlas.transport_table(ca, cb) is table
                assert g.components_between(ca, cb) is comps

    @pytest.mark.parametrize("make", _SCAN_ATLASES.values(), ids=_SCAN_ATLASES.keys())
    def test_walk_matches_the_row_walk(self, make):
        # refine, locate and arrows_to read one walk over the components; the
        # former answers walked the rows, one per left leg, written out in
        # conftest; queries at chart centres, declared unit points, the
        # images of centres under every stored embedding (points fixed by the
        # image of the source stabilizer, some in a later image than the
        # representative's), seeded chart points and a point in no domain,
        # against every chart and against their own
        atlas = make()
        g = TranslationGroupoid(atlas)
        rng = random.Random(53)
        queries = [(c, p) for c in atlas.chart_ids() for p in atlas.witness_points(c)]
        queries += [
            (e.dst, h(e(atlas.chart(e.src).ball.center))) for e in atlas.reps.values() for h in atlas.chart(e.dst).group
        ]
        queries += [(c, random_chart_point(rng, atlas, c)) for c in atlas.chart_ids()]
        far = [(c, _outside(atlas.chart(c).ball)) for c in atlas.chart_ids() if atlas.dim]
        hits = 0
        for ci, x in queries + far:
            for cj in atlas.chart_ids():
                y = atlas.locate(ci, x, cj)
                assert y == reference_locate(atlas, ci, x, cj)
                targets = [random_chart_point(rng, atlas, cj)]
                targets += [h(p) for p in {y, x if ci == cj else None} - {None} for h in atlas.chart(cj).group]
                for t in targets:
                    span = atlas.refine(ci, x, cj, t)
                    assert _span_key(span) == _span_key(reference_refine(atlas, ci, x, cj, t))
                    hits += span is not None
                u = UnitPoint(ci, x)
                assert g.arrows_to(u, cj) == reference_arrows_to(g, u, cj), (u, cj)
        assert hits
        for ci, x in far:
            assert all(g.arrows_to(UnitPoint(ci, x), cj) == [] for cj in atlas.chart_ids())

    def test_chart_id_outside_the_atlas_identifies_nothing(self):
        atlas = football(2, 3)
        g = TranslationGroupoid(atlas)
        for c in atlas.chart_ids():
            x = atlas.chart(c).ball.center
            assert atlas.refine(c, x, "zz", x) is None
            assert atlas.refine("zz", x, c, x) is None
            assert atlas.locate(c, x, "zz") is None
            assert g.arrows_to(UnitPoint(c, x), "zz") == []
            assert atlas.transport_table(c, "zz").components == atlas.transport_table("zz", c).components == ()
            assert g.components_between(c, "zz") == g.components_between("zz", c) == ()
            assert atlas.family(c, "zz") == atlas.family("zz", c) == ()
            identity = atlas.identity_embedding(c).map
            assert not atlas.in_family(Embedding(c, "zz", identity)) and not atlas.in_family(Embedding("zz", c, identity))
            assert atlas.refine(c, x, c, x) is not None
            assert atlas.in_family(atlas.identity_embedding(c))
        # the tables, families and members of the chart pairs are kept, the empty ones of an unknown id are not
        for cache in (atlas._transport_cache, atlas._family_cache, atlas._member_cache):
            assert cache and all({ca, cb} <= atlas.charts.keys() for ca, cb in cache)

    @pytest.mark.parametrize("make", _SCAN_ATLASES.values(), ids=_SCAN_ATLASES.keys())
    def test_multiply_label_matches_the_record_scan(self, make):
        # the component scan returns the label the former record scan built,
        # for arrows from arrows_from and for arrows under every record label
        g = TranslationGroupoid(make())
        rng = random.Random(47)
        pairs = [g.random_composable_pair(rng) for _ in range(6)]
        for _ in range(6):
            a = rng.choice(record_arrows(g, g.random_unit(rng)))
            pairs.append((a, rng.choice(record_arrows(g, g.target(a)))))
        for a, b in pairs:
            assert g.multiply(a, b) == _record_scan_product(g, a, b), (a, b)

    # "table": football(2, 3), the base of the former two-disc span-table
    # document, which no other case here runs
    @pytest.mark.parametrize(
        "make",
        [*_LEG_TABLE_ATLASES.values(), lambda: football(2, 3)],
        ids=[*_LEG_TABLE_ATLASES.keys(), "table"],
    )
    def test_leg_search_matches_the_composite_table_walk(self, make):
        # refine and locate walk the rows of transport_table(ci, cj); the
        # former answers walked the composite records of that chart pair
        atlas = make()
        reference = _ReferenceSpanSearch()
        rng = random.Random(37)
        queries = []
        for _ in range(12):
            ci = rng.choice(atlas.chart_ids())
            queries.append((ci, random_chart_point(rng, atlas, ci)))
        queries += [(cid, atlas.chart(cid).ball.center) for cid in atlas.chart_ids()]
        queries += _witness_queries(atlas)
        hits = same_chart = 0
        for ci, x in queries:
            for cj in atlas.chart_ids():
                y = atlas.locate(ci, x, cj)
                assert y == reference.locate(atlas, ci, x, cj)
                targets = [random_chart_point(rng, atlas, cj)]
                if y is not None:
                    targets += [g(y) for g in atlas.chart(cj).group]
                if ci == cj:
                    targets += [g(x) for g in atlas.chart(ci).group]
                for t in targets:
                    span = atlas.refine(ci, x, cj, t)
                    assert _span_key(span) == _span_key(reference.refine(atlas, ci, x, cj, t))
                    hits += span is not None
                    same_chart += span is not None and ci == cj
        # across charts only where a representative relates two
        assert same_chart > 0
        assert (hits > same_chart) == bool(atlas.reps)


class TestSpanTableOracle:
    """The two- and three-disc atlases of the former span-table documents,
    their spans now witnesses whose cross-chart legs are not stored."""

    def test_serialize_round_trip_is_byte_identical(self):
        from orbatlas.serialize import atlas_from_doc, serialize

        atlas, entry = two_disc_table_atlas()
        payload = serialize(atlas)
        assert b'"oracle":{"kind":"span_search","params":{}}' in payload
        again = atlas_from_doc(json.loads(payload))
        assert again.witnesses == atlas.witnesses == (entry,)
        assert serialize(again) == payload

    def test_table_span_of_wrong_length_is_parse_error(self):
        from orbatlas.errors import ParseError
        from orbatlas.serialize import atlas_from_doc, atlas_to_doc

        doc = atlas_to_doc(two_disc_table_atlas()[0])
        doc["witnesses"][0]["point"] = []
        with pytest.raises(ParseError, match="expected dimension 1"):
            atlas_from_doc(doc)
        # the span as a recorded span table is a section the reader refuses
        doc = atlas_to_doc(two_disc_table_atlas()[0])
        doc["oracle"] = {"kind": "span_table", "params": {"spans": doc.pop("witnesses")}}
        with pytest.raises(ParseError, match="oracle section"):
            atlas_from_doc(doc)

    def test_query_answered_only_by_the_table(self):
        # a span the stored embeddings do not realize identifies nothing, and
        # the atlas carrying it as a witness fails validation
        atlas, entry = two_disc_table_atlas()
        p = entry.point
        assert atlas.transport_table("a", "b").components == atlas.transport_table("b", "a").components == ()
        assert atlas.locate("a", p, "b") is None and atlas.locate("b", p, "a") is None
        assert atlas.refine("a", p, "b", p) is None and atlas.refine("b", p, "a", p) is None
        failures = validate_atlas(atlas).failures()
        assert failures == [("witness a|b via a", "leg to b stored in the atlas")]

    def test_unrealized_three_disc_table_fails_validation(self):
        # each witness names its unstored legs; those out of c also fail
        # equivariance, as c's group {1, -1} has no image in a or b
        c_legs = "leg to b stored in the atlas; leg to b valid; leg to a stored in the atlas; leg to a valid"
        assert validate_atlas(three_disc_table_atlas()[0]).failures() == [
            ("witness b|a via c", c_legs),
            ("witness b|a via c", c_legs),
            ("witness a|b via a", "leg to b stored in the atlas"),
        ]


class _ReferenceSpanSearch:
    """The former span-search oracle class, written out as a reference."""

    def refine(self, atlas, ci, x, cj, y):
        left = None
        for t in reference_transports(atlas, ci, cj):
            if t.left is not left:
                left, inside = t.left, point_in_ball(x, t.domain)
            if inside and t.map(x) == y:
                return Span(t.k, left.map.inverse()(x), left, t.right)
        return None

    def locate(self, atlas, ci, x, cj):
        if ci == cj:
            return x
        left = None
        for t in reference_transports(atlas, ci, cj):
            if t.left is not left:
                left = t.left
                if point_in_ball(x, t.domain):
                    return t.map(x)
        return None


def _moved_span(span, h):
    """span transported along the similarity h."""
    unh = h.inverse()
    left, right = (Embedding(e.src, e.dst, h.compose(e.map).compose(unh)) for e in (span.left, span.right))
    return Span(span.chart, h(span.point), left, right)


class _ReferencePushforward:
    """The answers of a reference on the base atlas, carried along the
    similarity h that pushes the base forward."""

    def __init__(self, base, inner, h):
        self.base, self.inner, self.h = base, inner, h

    def refine(self, atlas, ci, x, cj, y):
        unh = self.h.inverse()
        span = self.inner.refine(self.base, ci, unh(x), cj, unh(y))
        return None if span is None else _moved_span(span, self.h)

    def locate(self, atlas, ci, x, cj):
        found = self.inner.locate(self.base, ci, self.h.inverse()(x), cj)
        return None if found is None else self.h(found)


def _similarity(m, scalar, *shift):
    """z -> scalar z + shift, over conductor m in dimension len(shift)."""
    return AffineMap.scaling(m, len(shift), scalar).shift(Point.of(m, *shift))


def _h1(m):
    return _similarity(m, CycNum.zeta(m) * Fraction(1, 2), Fraction(1, 3))


def _h2(m):
    return _similarity(m, 3, Fraction(-2, 5))


def _pushed(base, *hs):
    """base pushed forward along h(m) for each h in turn, with its reference:
    the span search on base, carried along each of those maps."""
    atlas, reference = base, _ReferenceSpanSearch()
    for make_h in hs:
        h = make_h(base.conductor)
        atlas, reference = pushforward_atlas(h, atlas), _ReferencePushforward(atlas, reference, h)
    return atlas, reference


def _search(atlas, reference=None):
    """A reference case queried at random chart points."""
    return atlas, reference or _ReferenceSpanSearch(), []


def _table(atlas, reference=None):
    """A reference case queried at its witness spans' points too, as the
    former span-table cases were at their recorded spans."""
    return atlas, reference or _ReferenceSpanSearch(), _witness_queries(atlas)


class TestOracleReference:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: _search(cone(3)),
            lambda: _search(football(2, 3)),
            lambda: _search(teardrop(3)),
            lambda: _search(cone(4, conductor=12)),
            lambda: _table(football(2, 3)),
            lambda: _table(_refinement_atlases(teardrop_pair(3))[1]),
            lambda: _search(*_pushed(football(2, 3), _h1)),
            lambda: _search(*_pushed(football(2, 3), _h1, _h2)),
            lambda: _table(*_pushed(_refinement_atlases(teardrop_pair(3))[1], _h1)),
            lambda: _table(*_pushed(_refinement_atlases(teardrop_pair(3))[1], _h1, lambda m: AffineMap.identity(m, 1))),
        ],
        ids=[
            "cone3", "football23", "teardrop3", "cone4-m12", "table", "table-3",
            "push-search", "push-push-search", "push-table", "push-push-table",
        ],
    )
    def test_refine_and_locate_match_the_oracle_classes(self, make):
        atlas, reference, extra = make()
        rng = random.Random(31)
        queries = []
        for _ in range(40):
            ci = rng.choice(atlas.chart_ids())
            queries.append((ci, random_chart_point(rng, atlas, ci)))
        queries += extra
        hits = cross = 0
        for ci, x in queries:
            for cj in atlas.chart_ids():
                y = atlas.locate(ci, x, cj)
                assert y == reference.locate(atlas, ci, x, cj)
                targets = [random_chart_point(rng, atlas, cj), x]
                if y is not None:
                    targets += [g(y) for g in atlas.chart(cj).group]
                for t in targets:
                    span = atlas.refine(ci, x, cj, t)
                    assert _span_key(span) == _span_key(reference.refine(atlas, ci, x, cj, t))
                    hits += span is not None
                    cross += span is not None and ci != cj
        # two-chart atlases: identifications across charts are exercised too
        assert hits > 0 and (cross > 0 or len(atlas.charts) == 1)


def _duplicate_family_atlas():
    """A chart group listing zeta twice, and a degenerate representative that
    collapses the whole torsor onto one map."""
    ident = AffineMap.identity(M, 1)
    a = Chart("a", Ball.of(M, [0], 1), (zrot(4), ident, zrot(4), zrot(8)))
    b = Chart("b", Ball.of(M, [0], 1), (ident, zrot(6)))
    flat = Embedding("a", "b", AffineMap.scaling(M, 1, CycNum.rational(M, 0)))
    return Atlas(M, 1, [a, b], [flat])


class TestFamilyIndex:
    """in_family reads an index of each family's maps built on first use; it
    must agree with a scan of the family."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: cone(3, conductor=12),
            lambda: football(2, 3),
            lambda: teardrop(3),
            lambda: global_quotient(2, 2),
            _duplicate_family_atlas,
        ],
        ids=["cone3-m12", "football23", "teardrop3", "quotient22", "duplicates"],
    )
    def test_matches_linear_scan(self, make):
        atlas = make()
        shift = AffineMap.translation(atlas.conductor, Point.of(atlas.conductor, *[Fraction(1, 7)] * atlas.dim))
        queries = []
        for src in atlas.chart_ids():
            for dst in atlas.chart_ids():
                for f in atlas.family(src, dst):
                    queries += [f, Embedding(src, dst, shift.compose(f.map))]
                    # a map of one family asked about in every other pair
                    queries += [Embedding(s, d, f.map) for s in atlas.chart_ids() for d in atlas.chart_ids()]
        members = 0
        for e in queries:
            expected = any(f.map == e.map for f in atlas.family(e.src, e.dst))
            assert atlas.in_family(e) == expected
            members += expected
        assert 0 < members < len(queries)


def _reference_composable(reps):
    """The double loop over composable stored representatives as each caller
    once wrote it out."""
    out = []
    for (a, b), e1 in reps.items():
        for (b2, c), e2 in reps.items():
            if b2 != b or a == c:
                continue
            out.append((a, b, c, e1, e2))
    return out


def _reference_close_reps(charts, reps):
    """morita._close_reps with its double loop written out."""
    groups = {c.cid: c for c in charts}
    changed = True
    reps = dict(reps)
    while changed:
        changed = False
        for (a, b), e1 in list(reps.items()):
            for (b2, c), e2 in list(reps.items()):
                if b2 != b or a == c:
                    continue
                comp = e2.map.compose(e1.map)
                if (a, c) in reps:
                    find_conjugator(groups[c], reps[(a, c)].map, comp)
                else:
                    reps[(a, c)] = Embedding(a, c, comp)
                    changed = True
    return reps


_WALK_ATLASES = {
    "cone3": lambda: cone(3),
    "football23": lambda: football(2, 3),
    "teardrop3": lambda: teardrop(3),
    **_LEG_TABLE_ATLASES,
}


class TestComposableReps:
    @pytest.mark.parametrize("make", _WALK_ATLASES.values(), ids=_WALK_ATLASES.keys())
    def test_walk_matches_the_written_out_loop(self, make):
        reps = make().reps
        assert list(_composable_reps(reps)) == _reference_composable(reps)

    def test_representative_stored_mid_walk_is_seen_by_later_inner_passes(self):
        reps = {("a", "b"): "ab", ("b", "c"): "bc", ("d", "a"): "da"}
        seen = []
        for a, b, c, e1, e2 in _composable_reps(reps):
            seen.append((a, b, c, e1, e2))
            if (a, c) not in reps:
                reps[(a, c)] = a + c
        # the outer pass walks the representatives stored when it began; each
        # inner pass walks those stored when it begins, so "ac" (stored on the
        # first inner pass) composes after "da", but "db" (stored on the last)
        # is not walked at all
        assert seen == [
            ("a", "b", "c", "ab", "bc"),
            ("d", "a", "b", "da", "ab"),
            ("d", "a", "c", "da", "ac"),
        ]
        assert list(reps) == [("a", "b"), ("b", "c"), ("d", "a"), ("a", "c"), ("d", "b"), ("d", "c")]

    @pytest.mark.parametrize(
        "pair",
        [lambda: cone_pair(3), lambda: teardrop_pair(3), lambda: pushforward_pair(football(2, 3))],
        ids=["cone3", "teardrop3", "push-football23"],
    )
    def test_close_reps_matches_the_written_out_loop(self, pair):
        # the inputs union_atlas closes: base and refinement representatives
        # plus one anchor embedding per refinement chart
        u1, u2, witnesses = pair()
        ref = common_refinement(u1, u2, witnesses)
        for base, anchor in ((u1, ref.into_first), (u2, ref.into_second)):
            charts = list(base.charts.values()) + list(ref.atlas.charts.values())
            reps = {**base.reps, **ref.atlas.reps}
            for cid in ref.atlas.chart_ids():
                target = anchor.chart_map[cid]
                reps[(cid, target)] = Embedding(cid, target, anchor.embeddings[cid])
            got = _close_reps(charts, reps)
            assert list(got.items()) == list(_reference_close_reps(charts, reps).items())
            assert all((a, c) in got for a, _, c, _, _ in _composable_reps(got))
