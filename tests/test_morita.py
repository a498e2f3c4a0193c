"""Morita checks, atlas equivalence, refinements, pushforwards, reconstruction."""

import math
import random
from fractions import Fraction

import pytest

from orbatlas.atlas import (
    Atlas,
    Chart,
    Embedding,
    restrict_chart,
    separation_radius,
    validate_atlas,
)
from orbatlas.errors import NotASubAtlasError, NotEquivalentError, WitnessInvalidError
from orbatlas.field import CycNum, sign_real
from orbatlas.gallery import (
    WitnessSpan,
    cone,
    cone_pair,
    football,
    global_quotient,
    point_atlas,
    pushforward_pair,
    teardrop,
    teardrop_pair,
)
from orbatlas.geometry import (
    AffineMap,
    Ball,
    Point,
    PolyMap,
    ball_in_ball,
    balls_disjoint,
    dist2,
    fixed_point,
    map_ball,
    point_in_ball,
)
from orbatlas.groupoids import (
    ActionGroupoid,
    Arrow,
    GroupoidMorphism,
    UnitPoint,
    check_groupoid_axioms,
    validate_groupoid_morphism,
)
from orbatlas.morita import (
    _embedding_problems,
    _hits_witness,
    _reaches,
    _self_maps,
    atlases_equivalent,
    bijection_demo,
    check_morita,
    common_refinement,
    is_refinement,
    isotropy_signature,
    morita_equivalence_chain,
    presentations_structurally_equal,
    pushforward_atlas,
    reconstruct_atlas,
    reconstruction_morita_morphism,
    subatlas_inclusion_morphism,
    union_atlas,
    RefinementData,
)
from orbatlas.sampling import random_chart_point
from orbatlas.serialize import serialize
from orbatlas.translation import TranslationGroupoid

from conftest import (
    distinct_transports,
    make_sub_full_pair,
    reference_ball_in_ball,
    reference_balls_disjoint,
    reference_transports,
)


class TestSubAtlas:
    def test_self_inclusion_is_identity_like(self, cone3):
        mor = subatlas_inclusion_morphism(cone3, cone3)
        assert validate_groupoid_morphism(mor, samples=20, seed=0).ok
        assert check_morita(mor, samples=20, seed=1).verdict

    def test_inclusion_morphism(self, sub_full_cone3):
        sub, full = sub_full_cone3
        mor = subatlas_inclusion_morphism(sub, full)
        assert validate_groupoid_morphism(mor, samples=25, seed=2).ok

    @pytest.mark.parametrize(
        "pair",
        [
            lambda: make_sub_full_pair(3),
            lambda: make_sub_full_pair(4),
            lambda: make_sub_full_pair(6),
            lambda: (cone(3), cone(3)),
            lambda: (football(2, 3), football(2, 3)),
        ],
        ids=["cone3-half", "cone4-half", "cone6-half", "cone3", "football23"],
    )
    def test_relabelled_legs_match_the_triple_round_trip(self, pair):
        # the image keeps the point and relabels the legs in the larger atlas:
        # the arrow that rebuilding the triple there gives
        sub, full = pair()
        mor = subatlas_inclusion_morphism(sub, full)
        src, dst = mor.src, mor.dst
        rng = random.Random(41)
        units = src.unit_witness_points() + [src.random_unit(rng) for _ in range(20)]
        arrows = [a for u in units for a in src.arrows_from(u)]
        arrows += [src.inverse(a) for a in arrows]
        for a in arrows:
            assert mor.Psi(a) == dst.arrow_of(src.triple_of(a))
        assert len({a.component for a in arrows}) > 1

    def test_disjoint_chart_rejected(self, cone3):
        other = cone(2)
        with pytest.raises(NotASubAtlasError):
            subatlas_inclusion_morphism(other, cone3)


class TestCheckMorita:
    def test_subatlas_inclusion_passes(self, sub_full_cone3):
        sub, full = sub_full_cone3
        report = check_morita(subatlas_inclusion_morphism(sub, full), samples=40, seed=3)
        assert report.verdict, report.lines()

    def test_smaller_side_also_passes(self, sub_full_cone3):
        # the sub-atlas containing only the restricted chart
        sub, full = sub_full_cone3
        m = full.conductor
        half_only = Atlas(
            m, 1, [full.chart("half")], [],
            unit_points={"half": full.unit_points["half"]},
        )
        report = check_morita(
            subatlas_inclusion_morphism(half_only, full), samples=40, seed=4
        )
        assert report.verdict, report.lines()

    def test_point_into_cone_fails_surjectivity(self, cone3):
        tg = TranslationGroupoid(cone3)
        pt = TranslationGroupoid(point_atlas())
        m = cone3.conductor
        const = PolyMap(m, 0, 1, [{(): 0}])
        origin = UnitPoint("cone3", Point.origin(m, 1))
        bad = GroupoidMorphism(
            pt, tg, {"pt": ("cone3", const)}, lambda a: tg.identity(origin)
        )
        report = check_morita(bad, samples=10, seed=5)
        assert not report.condition_i.ok
        # the unreached generic witness point is named
        assert any("unreached" in d for _, d in report.condition_i.failures())

    def test_non_similarity_unit_map_fails_condition_i(self):
        g = TranslationGroupoid(global_quotient(2, 2))
        (comp,) = g.unit_components()
        diag = PolyMap(g.conductor, 2, 2, [{(1, 0): 1}, {(0, 1): 2}])
        mor = GroupoidMorphism(g, g, {comp.label: (comp.label, diag)}, lambda a: a)
        report = check_morita(mor, samples=10, seed=0)
        failed = [name for name, _ in report.condition_i.failures()]
        assert "unit map is an invertible similarity per component" in failed

    def test_forgotten_identification_fails_fullness(self):
        # two trivial charts, glued in the big atlas but not in the small one:
        # the inclusion hits every point, yet the target has arrows that no
        # source arrow maps to, so the fiber condition fails
        from orbatlas.atlas import Chart, Span

        m = 1
        ball = Ball(Point.of(m, 0), CycNum.rational(m, Fraction(1, 16)))
        ident = AffineMap.identity(m, 1)
        t1 = Chart("t1", ball, (ident,))
        t2 = Chart("t2", ball, (ident,))
        glue = Embedding("t1", "t2", ident)
        self_spans = [
            Span("t1", ball.center, Embedding("t1", "t1", ident), Embedding("t1", "t1", ident)),
            Span("t2", ball.center, Embedding("t2", "t2", ident), Embedding("t2", "t2", ident)),
        ]
        glued = Atlas(
            m, 1, [t1, t2], [glue],
            witnesses=self_spans + [Span("t1", ball.center, Embedding("t1", "t1", ident), glue)],
        )
        disjoint = Atlas(m, 1, [t1, t2], [], witnesses=self_spans)
        assert validate_atlas(glued).ok and validate_atlas(disjoint).ok
        report = check_morita(
            subatlas_inclusion_morphism(disjoint, glued), samples=60, seed=21
        )
        assert report.condition_i.ok
        assert not report.condition_ii.ok
        assert any("not hit" in d for _, d in report.condition_ii.failures())

    def test_fiber_failures_keep_their_own_details(self):
        # z/3 onto z/2, both acting trivially on the unit disc, every arrow
        # sent to the identity: the arrow map both collapses and misses
        m = 6
        ball = Ball(Point.origin(m, 1), CycNum.rational(m, 1))
        ident = AffineMap.identity(m, 1)

        def trivial_cyclic(prefix, n):
            labels = [f"{prefix}{k}" for k in range(n)]
            mult = {(labels[a], labels[b]): labels[(a + b) % n] for a in range(n) for b in range(n)}
            inv = {labels[a]: labels[-a % n] for a in range(n)}
            return ActionGroupoid(m, ball, [(lab, ident) for lab in labels], mult=mult, inv=inv)

        src, dst = trivial_cyclic("g", 3), trivial_cyclic("h", 2)
        unit = PolyMap.from_affine(ident)
        mor = GroupoidMorphism(src, dst, {"U": ("U", unit)}, lambda a: Arrow("h0", a.point))
        report = check_morita(mor, samples=6, seed=0)
        details = dict(report.condition_ii.failures())
        assert details["arrow map injective on sampled fibers"].endswith("collapse")
        assert details["arrow map onto sampled fibers"].endswith("not hit")

    def test_isotropy_orders_preserved_along_passing_morphism(self, sub_full_cone3):
        sub, full = sub_full_cone3
        mor = subatlas_inclusion_morphism(sub, full)
        rng = random.Random(6)
        for _ in range(15):
            u = mor.src.random_unit(rng)
            assert len(mor.src.isotropy(u)) == len(mor.dst.isotropy(mor.psi(u)))


class TestEquivalence:
    def test_identity_witnesses(self, cone3):
        from orbatlas.atlas import restrict_chart

        m = cone3.conductor
        chart = cone3.chart("cone3")
        w0, _ = restrict_chart(chart, Point.origin(m, 1), Fraction(1, 4), cid="w0")
        ident = AffineMap.identity(m, 1)
        ws = [WitnessSpan(w0, Embedding("w0", "cone3", ident), Embedding("w0", "cone3", ident))]
        assert atlases_equivalent(cone3, cone3, ws).ok

    def test_cone_radii_pair(self):
        u1, u2, ws = cone_pair(3)
        assert atlases_equivalent(u1, u2, ws).ok

    def test_cone3_vs_cone2_has_no_witness(self):
        u1 = cone(3, conductor=6)
        u2 = cone(2, conductor=6)
        # a candidate span at the origin: the restricted Z3 chart cannot embed
        from orbatlas.atlas import restrict_chart

        w0, _ = restrict_chart(u1.chart("cone3"), Point.origin(6, 1), Fraction(1, 4), cid="w0")
        ident = AffineMap.identity(6, 1)
        ws = [WitnessSpan(w0, Embedding("w0", "cone3", ident), Embedding("w0", "cone2", ident))]
        rep = atlases_equivalent(u1, u2, ws)
        assert not rep.ok  # equivariance of the second leg is impossible

    def test_no_witnesses_is_not_equivalence_evidence(self, cone3):
        assert not atlases_equivalent(cone3, cone3, []).ok


class TestRefinement:
    def test_identity_refinement(self, cone3):
        gamma = RefinementData(
            {"cone3": "cone3"}, {"cone3": AffineMap.identity(cone3.conductor, 1)}
        )
        assert is_refinement(cone3, cone3, gamma).ok

    def test_restricted_chart_refines(self, sub_full_cone3):
        sub, full = sub_full_cone3
        m = full.conductor
        half_only = Atlas(m, 1, [full.chart("half")], [])
        gamma = RefinementData({"half": "cone3"}, {"half": AffineMap.identity(m, 1)})
        assert is_refinement(half_only, sub, gamma).ok

    def test_missing_embedding_fails(self, cone3):
        gamma = RefinementData({}, {})
        assert not is_refinement(cone3, cone3, gamma).ok

    def test_common_refinement_two_radii(self):
        u1, u2, ws = cone_pair(3)
        ref = common_refinement(u1, u2, ws)
        assert validate_atlas(ref.atlas).ok
        assert is_refinement(ref.atlas, u1, ref.into_first).ok
        assert is_refinement(ref.atlas, u2, ref.into_second).ok

    def test_common_refinement_teardrop_radii(self):
        u1, u2, ws = teardrop_pair(3)
        ref = common_refinement(u1, u2, ws)
        assert validate_atlas(ref.atlas).ok
        assert is_refinement(ref.atlas, u1, ref.into_first).ok
        assert is_refinement(ref.atlas, u2, ref.into_second).ok

    def test_not_equivalent_raises(self, cone3):
        with pytest.raises(NotEquivalentError):
            common_refinement(cone3, cone3, [])

    @pytest.mark.parametrize(
        "make",
        [lambda: cone_pair(3), lambda: teardrop_pair(3), lambda: pushforward_pair(football(2, 3))],
        ids=["cone3", "teardrop3", "push-football23"],
    )
    def test_common_refinement_matches_the_record_walk(self, make, monkeypatch):
        # walking each distinct (map, domain) pair once relates the witness
        # charts as walking every former record did
        import orbatlas.morita

        u1, u2, ws = make()
        got = common_refinement(u1, u2, ws)
        calls = []

        def counted(*args):
            calls.append(args)
            return _record_walk_relate(*args)

        monkeypatch.setattr(orbatlas.morita, "_relate_witness_charts", counted)
        want = common_refinement(u1, u2, ws)
        assert len(calls) == len(ws) * (len(ws) - 1)
        assert list(got.atlas.reps.items()) == list(want.atlas.reps.items())
        assert serialize(got.atlas) == serialize(want.atlas)
        assert got.into_first == want.into_first and got.into_second == want.into_second


def _record_walk_relate(u1, wa, wb):
    """_relate_witness_charts as first written, over every former transport
    record of the first atlas, duplicates included."""
    footprint = map_ball(wa.left.map, wa.chart.ball)
    for t in reference_transports(u1, wa.left.dst, wb.left.dst):
        if balls_disjoint(t.domain, footprint):
            continue
        s = wb.left.map.inverse().compose(t.map).compose(wa.left.map)
        image = map_ball(s, wa.chart.ball)
        if balls_disjoint(image, wb.chart.ball):
            continue
        if ball_in_ball(image, wb.chart.ball):
            e = Embedding(wa.chart.cid, wb.chart.cid, s)
            if _embedding_problems(e, wa.chart, wb.chart):
                raise WitnessInvalidError(
                    f"transport of {wa.chart.cid} into {wb.chart.cid} is not an embedding"
                )
            return e
        if ball_in_ball(wb.chart.ball, image):
            return None
        raise WitnessInvalidError(f"witness charts {wa.chart.cid}, {wb.chart.cid} partially overlap")
    return None


class TestKeyPoint:
    def test_cone_pair_chain(self):
        u1, u2, ws = cone_pair(3)
        chain = morita_equivalence_chain(u1, u2, ws, samples=25, seed=7)
        assert chain.verdict, {k: v.verdict for k, v in chain.reports.items()}

    def test_refinement_inclusions_pass_both_sides(self):
        u1, u2, ws = cone_pair(3)
        chain = morita_equivalence_chain(u1, u2, ws, samples=25, seed=8)
        assert chain.reports["refinement into first union"].verdict
        assert chain.reports["refinement into second union"].verdict


def _push_maps(m, dim):
    """A few invertible similarities over conductor m in dimension dim:
    pushforward_pair's own, an expansion and a half-turn with a shift off the
    real axis."""

    def similarity(scalar, shift):
        return AffineMap.scaling(m, dim, scalar).shift(Point(tuple(CycNum.rational(m, 0) + shift for _ in range(dim))))

    return {
        "pair-map": similarity(CycNum.zeta(m) * Fraction(1, 2), Fraction(1, 3)),
        "expand": similarity(3, Fraction(-2, 5)),
        "half-turn": similarity(-1, CycNum.zeta(m) * Fraction(1, 5)),
    }


_PUSH_BASES = {
    "cone3": lambda: cone(3),
    "football23": lambda: football(2, 3),
    "teardrop3": lambda: teardrop(3),
    "cone4-m12": lambda: cone(4, conductor=12),
    "quot22": lambda: global_quotient(2, 2),
    "point": point_atlas,
}


def _conjugated(h, f):
    return h.compose(f).compose(h.inverse())


def _span_data(span):
    if span is None:
        return None
    return (span.chart, span.point, span.left.dst, span.left.map, span.right.dst, span.right.map)


class TestPushforward:
    def test_identity_similarity(self, cone3):
        pushed = pushforward_atlas(AffineMap.identity(cone3.conductor, 1), cone3)
        assert serialize(pushed) == serialize(cone3)
        assert presentations_structurally_equal(
            TranslationGroupoid(cone3), TranslationGroupoid(pushed)
        )

    @pytest.mark.parametrize("hname", ["pair-map", "expand", "half-turn"])
    @pytest.mark.parametrize("make", _PUSH_BASES.values(), ids=_PUSH_BASES.keys())
    def test_pushforward_is_transport_along_h(self, make, hname):
        # the pushed atlas validates, its span search, transport table and
        # isotropy signature are the base's carried along h
        base = make()
        h = _push_maps(base.conductor, base.dim)[hname]
        pushed = pushforward_atlas(h, base)
        assert validate_atlas(pushed).ok
        assert pushed.chart_ids() == base.chart_ids()
        for cid in base.chart_ids():
            assert pushed.chart(cid).ball == map_ball(h, base.chart(cid).ball)
            assert pushed.unit_points[cid] == tuple(h(p) for p in base.unit_points[cid])
        for ca in base.chart_ids():
            for cb in base.chart_ids():
                assert pushed.transports(ca, cb) == tuple(
                    (_conjugated(h, germ), map_ball(h, domain)) for germ, domain in base.transports(ca, cb)
                )
        rng = random.Random(41)
        hits = 0
        for _ in range(8):
            ci = rng.choice(base.chart_ids())
            x = random_chart_point(rng, base, ci)
            for cj in base.chart_ids():
                y = base.locate(ci, x, cj)
                assert pushed.locate(ci, h(x), cj) == (None if y is None else h(y))
                for t in [random_chart_point(rng, base, cj)] + ([] if y is None else [y]):
                    span = base.refine(ci, x, cj, t)
                    moved = None if span is None else (
                        span.chart, h(span.point), span.left.dst, _conjugated(h, span.left.map),
                        span.right.dst, _conjugated(h, span.right.map),
                    )
                    assert _span_data(pushed.refine(ci, h(x), cj, h(t))) == moved
                    hits += span is not None
        assert hits > 0
        assert isotropy_signature(TranslationGroupoid(pushed)) == isotropy_signature(TranslationGroupoid(base))

    def test_non_invertible_similarity_rejected(self, cone3):
        from orbatlas.errors import InvalidAtlasError

        flat = AffineMap.scaling(cone3.conductor, 1, 0).shift(Point.of(cone3.conductor, Fraction(1, 3)))
        with pytest.raises(InvalidAtlasError, match="not invertible"):
            pushforward_atlas(flat, cone3)

    def test_mismatched_similarity_raises_the_geometry_errors(self, cone3):
        from orbatlas.errors import ConductorMismatchError, DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            pushforward_atlas(AffineMap.scaling(cone3.conductor, 2, 2), cone3)
        with pytest.raises(ConductorMismatchError):
            pushforward_atlas(AffineMap.scaling(6, 1, 2), cone3)

    def test_pair_witnesses_carry_the_map(self):
        # every right leg is the pair's similarity, not an identity map
        base, pushed, witnesses = pushforward_pair(football(2, 3))
        h = _push_maps(base.conductor, 1)["pair-map"]
        assert pushed.charts == pushforward_atlas(h, base).charts
        assert [w.right.map for w in witnesses] == [h] * len(base.charts)
        assert all(w.left.map.is_identity() for w in witnesses)


def z3_action():
    m = 3
    ball = Ball(Point.origin(m, 1), CycNum.rational(m, 1))
    z = CycNum.zeta(3)
    return ActionGroupoid(m, ball, [(f"g{k}", AffineMap.scaling(m, 1, z**k)) for k in range(3)])


class TestReconstruction:
    def test_action_groupoid_round_trip(self):
        g = z3_action()
        rec = reconstruct_atlas(g, samples=2, seed=9)
        assert validate_atlas(rec.atlas).ok
        orders = sorted(len(rec.atlas.chart(cid).group) for cid in rec.atlas.chart_ids())
        assert orders[-1] == 3  # the chart at the fixed point keeps the full group
        mor = reconstruction_morita_morphism(g, rec)
        assert validate_groupoid_morphism(mor, samples=20, seed=10).ok
        assert check_morita(mor, samples=25, seed=11).verdict

    def test_trivial_groupoid_round_trip(self):
        m = 1
        ball = Ball(Point.origin(m, 1), CycNum.rational(m, 1))
        g = ActionGroupoid(m, ball, [("e", AffineMap.identity(m, 1))])
        rec = reconstruct_atlas(g, samples=2, seed=12)
        assert validate_atlas(rec.atlas).ok
        assert all(len(rec.atlas.chart(c).group) == 1 for c in rec.atlas.chart_ids())
        assert check_morita(reconstruction_morita_morphism(g, rec), samples=15, seed=13).verdict

    def test_football_round_trip(self, football23):
        g = TranslationGroupoid(football23)
        rec = reconstruct_atlas(g, samples=1, seed=14)
        assert validate_atlas(rec.atlas).ok
        orders = sorted(len(rec.atlas.chart(cid).group) for cid in rec.atlas.chart_ids())
        assert 2 in orders and 3 in orders
        assert check_morita(reconstruction_morita_morphism(g, rec), samples=15, seed=15).verdict

    def test_reconstructed_atlas_equivalent_to_source(self, cone3):
        g = TranslationGroupoid(cone3)
        rec = reconstruct_atlas(g, samples=2, seed=16)
        m = cone3.conductor
        ws = [
            WitnessSpan(
                rec.atlas.chart(cid),
                Embedding(cid, cid, rec.atlas.chart(cid).identity()),
                Embedding(cid, rec.anchors[cid], AffineMap.identity(m, 1)),
            )
            for cid in rec.atlas.chart_ids()
        ]
        assert atlases_equivalent(rec.atlas, cone3, ws).ok


RECONSTRUCTION_SOURCES = {
    "cone3": lambda: cone(3),
    "football23": lambda: football(2, 3),
    "teardrop3": lambda: teardrop(3),
}


class TestReconstructionReference:
    """reconstruct_atlas on the integer ball predicates against the same runs
    with the CycNum formulas patched into morita and atlas, byte for byte."""

    @pytest.mark.parametrize("name", list(RECONSTRUCTION_SOURCES))
    def test_serialized_atlas_matches_cycnum_predicates(self, name, monkeypatch):
        import orbatlas.atlas
        import orbatlas.morita

        def runs():
            g = TranslationGroupoid(RECONSTRUCTION_SOURCES[name]())
            return [serialize(reconstruct_atlas(g, samples=2, seed=s).atlas) for s in range(4)]

        calls = []

        def counted(predicate):
            def wrapper(b1, b2):
                calls.append(predicate)
                return predicate(b1, b2)

            return wrapper

        fast = runs()
        with monkeypatch.context() as mp:
            for module in (orbatlas.atlas, orbatlas.morita):
                mp.setattr(module, "ball_in_ball", counted(reference_ball_in_ball))
                mp.setattr(module, "balls_disjoint", counted(reference_balls_disjoint))
            reference = runs()
        assert reference_ball_in_ball in calls and reference_balls_disjoint in calls
        assert fast == reference

    @pytest.mark.parametrize("name", list(RECONSTRUCTION_SOURCES))
    def test_transports_built_once(self, name):
        atlas = RECONSTRUCTION_SOURCES[name]()
        g = TranslationGroupoid(atlas)
        for ca in atlas.chart_ids():
            for cb in atlas.chart_ids():
                first = g.transports(ca, cb)
                assert g.transports(ca, cb) is first is atlas.transports(ca, cb)
                assert first == distinct_transports(reference_transports(atlas, ca, cb))


def _reference_restrict_r2(chart, x, r2):
    """restrict_chart's radius search as first written: quarter r2 until the
    ball fits the chart and |g(x) - x|^2 >= 4 r2 for every g moving x."""
    m = chart.ball.r2.m
    displaced = [dist2(g(x), x) for g in chart.group if g(x) != x]
    for _ in range(256):
        ball = Ball(x, CycNum.rational(m, r2))
        if ball_in_ball(ball, chart.ball) and all(sign_real(d2 - 4 * r2) >= 0 for d2 in displaced):
            return r2
        r2 = r2 / 4
    return None


def _reference_reconstruct_r2(g, u, r2, self_transports):
    """reconstruct_atlas's first radius loop as first written, over the
    presentation's former self transports."""
    comp = g.unit_component(u.component)
    moved = [t for t in self_transports if t(u.point) != u.point]
    for _ in range(256):
        ball = Ball(u.point, CycNum.rational(g.conductor, r2))
        if ball_in_ball(ball, comp.ball) and all(
            balls_disjoint(map_ball(t, ball), ball) for t in moved
        ):
            return r2
        r2 /= 4
    return None


def _former_self_transports(g, c):
    """What the presentations returned for their own component c: the chart
    group of a translation groupoid, every element's map for an action."""
    if isinstance(g, TranslationGroupoid):
        return list(g.atlas.chart(c).group)
    return [g.rep[lab] for lab in g.labels]


def _reference_isotropy_signature(g):
    orders = set()
    probes = list(g.unit_witness_points())
    for comp in g.unit_components():
        for t in _former_self_transports(g, comp.label):
            p = fixed_point(t)
            if p is not None and point_in_ball(p, comp.ball):
                probes.append(UnitPoint(comp.label, p))
    for u in probes:
        orders.add(len(g.isotropy(u)))
    return (g.dim, tuple(sorted(orders)))


def _rim_point(chart):
    """A point at 1023/1024 of the chart radius along the first axis (the
    gallery radii are rational)."""
    r2 = chart.ball.r2.as_rational()
    r = Fraction(math.isqrt(r2.numerator), math.isqrt(r2.denominator))
    assert r * r == r2
    m = chart.ball.r2.m
    step = Point.of(m, r * Fraction(1023, 1024), *([0] * (chart.dim - 1)))
    return chart.ball.center + step


SEPARATION_ATLASES = {
    "cone2": lambda: cone(2),
    "cone3": lambda: cone(3),
    "cone4": lambda: cone(4),
    "cone6": lambda: cone(6),
    "football23": lambda: football(2, 3),
    "teardrop3": lambda: teardrop(3),
    "quot2d2": lambda: global_quotient(2, 2),
    "cone4_m12": lambda: cone(4, conductor=12),
    "quot4d2_m8": lambda: global_quotient(4, 2, conductor=8),
}


class TestSeparationRadiusReference:
    """The one separation-radius search against both loops it replaced."""

    START_R2 = (Fraction(1, 4), Fraction(1), Fraction(4**12, 3))

    @pytest.mark.parametrize("name", list(SEPARATION_ATLASES))
    def test_matches_both_former_loops(self, name):
        atlas = SEPARATION_ATLASES[name]()
        g = TranslationGroupoid(atlas)
        rng = random.Random(sum(map(ord, name)))
        for cid in atlas.chart_ids():
            chart = atlas.chart(cid)
            maps = _self_maps(g, cid)
            assert maps == _former_self_transports(g, cid)
            points = atlas.witness_points(cid) + [
                random_chart_point(rng, atlas, cid) for _ in range(3)
            ]
            points.append(_rim_point(chart))
            for x in points:
                for start in self.START_R2:
                    ref = _reference_restrict_r2(chart, x, start)
                    assert ref is not None
                    assert separation_radius(x, start, chart.ball, maps) == ref, (cid, x, start)
                    old = _reference_reconstruct_r2(g, UnitPoint(cid, x), start, maps)
                    assert old == ref, (cid, x, start)
                    sub, inclusion = restrict_chart(chart, x, start, cid="w")
                    assert sub == Chart(
                        "w",
                        Ball(x, CycNum.rational(atlas.conductor, ref)),
                        tuple(h for h in chart.group if h(x) == x),
                    )
                    assert inclusion == Embedding(
                        "w", cid, AffineMap.identity(atlas.conductor, chart.dim)
                    )

    def test_many_quarterings(self):
        chart = cone(3).chart("cone3")
        x = _rim_point(chart)
        start = Fraction(4**40)
        new = separation_radius(x, start, chart.ball, chart.group)
        assert new == _reference_restrict_r2(chart, x, start) < Fraction(1, 4**5)

    def test_no_radius_within_256_quarterings(self):
        chart = cone(3).chart("cone3")
        assert separation_radius(chart.ball.center, Fraction(4**300), chart.ball, chart.group) is None
        assert _reference_restrict_r2(chart, chart.ball.center, Fraction(4**300)) is None

    @pytest.mark.parametrize("name", list(SEPARATION_ATLASES))
    def test_isotropy_signature_unchanged(self, name):
        g = TranslationGroupoid(SEPARATION_ATLASES[name]())
        assert isotropy_signature(g) == _reference_isotropy_signature(g)

    def test_isotropy_signature_unchanged_on_action_groupoid(self):
        g = z3_action()
        assert _self_maps(g, "U") == _former_self_transports(g, "U")
        assert isotropy_signature(g) == _reference_isotropy_signature(g)


class TestBijectionDemo:
    def test_equivalent_pairs(self):
        pairs = [cone_pair(3), teardrop_pair(3), pushforward_pair(football(2, 3))]
        for u1, u2, ws in pairs:
            v = bijection_demo(u1, u2, ws, samples=15, seed=17)
            assert v.atlas_side == "equivalent"
            assert v.groupoid_side == "equivalent"
            assert v.agreement

    def test_inequivalent_pairs(self):
        pairs = [
            (cone(3, conductor=6), cone(2, conductor=6)),
            (cone(3), point_atlas()),
            (football(2, 3, conductor=6), cone(2, conductor=6)),
        ]
        for u1, u2 in pairs:
            v = bijection_demo(u1, u2, None, samples=10, seed=18)
            assert v.atlas_side == "inequivalent"
            assert v.groupoid_side == "inequivalent"
            assert v.agreement

    def test_signature_values(self):
        assert isotropy_signature(TranslationGroupoid(cone(3))) == (1, (1, 3))
        assert isotropy_signature(TranslationGroupoid(football(2, 3))) == (1, (1, 2, 3))
        assert isotropy_signature(TranslationGroupoid(teardrop(4))) == (1, (1, 4))
        assert isotropy_signature(TranslationGroupoid(point_atlas()))[0] == 0
        # an action groupoid declares only its center as a witness point, so
        # the trivial isotropy of its generic points is not probed
        assert isotropy_signature(z3_action()) == (1, (3,))


def _reference_hits_witness(m, w):
    """The witness search as first written: every arrow out of the witness,
    the identity included, is built before any target is tested."""
    src, dst = m.src, m.dst
    candidates = [dst.identity(w)] + dst.arrows_from(w)
    for arrow in candidates:
        z = dst.target(arrow)
        for comp in src.unit_components():
            label, mp = m.unit_maps[comp.label]
            if label != z.component:
                continue
            if comp.ball.dim == 0:
                if mp(comp.ball.center) == z.point:
                    return True
                continue
            aff = mp.to_affine()
            if aff is None or not aff.is_invertible():
                continue
            y = aff.inverse()(z.point)
            if point_in_ball(y, comp.ball) and mp(y) == z.point:
                return True
    return False


def _chain_morphisms(u1, u2, ws):
    ref = common_refinement(u1, u2, ws)
    union1 = union_atlas(u1, ref.atlas, ref.into_first)
    union2 = union_atlas(u2, ref.atlas, ref.into_second)
    return [
        subatlas_inclusion_morphism(ref.atlas, union1),
        subatlas_inclusion_morphism(u1, union1),
        subatlas_inclusion_morphism(ref.atlas, union2),
        subatlas_inclusion_morphism(u2, union2),
    ]


def _reconstruction_morphism(g):
    return reconstruction_morita_morphism(g, reconstruct_atlas(g, samples=2, seed=0))


def _point_to_cone():
    tg = TranslationGroupoid(cone(3))
    pt = TranslationGroupoid(point_atlas())
    origin = UnitPoint("cone3", Point.origin(tg.conductor, 1))
    const = PolyMap(tg.conductor, 0, 1, [{(): 0}])
    return GroupoidMorphism(pt, tg, {"pt": ("cone3", const)}, lambda a: tg.identity(origin))


class TestWitnessSearchReference:
    """Condition (i) of check_morita against the witness search written out
    as it was before the witness itself was tested first."""

    CASES = {
        "cone-pair": lambda: _chain_morphisms(*cone_pair(3)),
        "teardrop-pair": lambda: _chain_morphisms(*teardrop_pair(3)),
        "pushforward-pair": lambda: _chain_morphisms(*pushforward_pair(football(2, 3))),
        "reconstructions": lambda: [
            _reconstruction_morphism(g)
            for g in (
                TranslationGroupoid(cone(3)),
                TranslationGroupoid(football(2, 3)),
                TranslationGroupoid(teardrop(3)),
                TranslationGroupoid(cone(4, conductor=12)),
                z3_action(),
            )
        ],
        "point-to-cone": lambda: [_point_to_cone()],
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_condition_i_matches_reference(self, case):
        for m in self.CASES[case]():
            witnesses = m.dst.unit_witness_points()
            hits = [_hits_witness(m, w) for w in witnesses]
            assert hits == [_reference_hits_witness(m, w) for w in witnesses]
            unreached = [w for w, hit in zip(witnesses, hits) if not hit]
            report = check_morita(m, samples=2, seed=0)
            assert report.condition_i.checks[1] == (
                "every target witness point is reached from the source",
                not unreached,
                f"unreached {unreached[:3]}" if unreached else "",
            )
            if case == "point-to-cone":
                assert unreached and not report.verdict
            else:
                assert not unreached and report.verdict, report.lines()

    IDENTITY_ROUTE_CASES = {
        "cone-pair": CASES["cone-pair"],
        "teardrop-pair": CASES["teardrop-pair"],
        "pushforward-pair": CASES["pushforward-pair"],
        "reconstructions": lambda: [
            _reconstruction_morphism(TranslationGroupoid(a)) for a in (cone(3), football(2, 3))
        ],
    }

    @pytest.mark.parametrize("case", list(IDENTITY_ROUTE_CASES))
    def test_witness_tested_as_the_identity_target(self, case):
        """The witness is tested directly where it was once tested as the
        target of its identity arrow; the two routes agree on every witness."""
        for m in self.IDENTITY_ROUTE_CASES[case]():
            dst = m.dst
            for w in dst.unit_witness_points():
                assert dst.target(dst.identity(w)) == w
                identity_route = _reaches(m, dst.target(dst.identity(w))) or any(
                    _reaches(m, dst.target(a)) for a in dst.arrows_from(w)
                )
                assert _hits_witness(m, w) == identity_route

    def test_arrows_built_only_when_the_witness_itself_misses(self, sub_full_cone3):
        sub, full = sub_full_cone3
        m = subatlas_inclusion_morphism(sub, full)
        built = []
        arrows_from = m.dst.arrows_from
        m.dst.arrows_from = lambda u: built.append(u) or arrows_from(u)
        for w in m.dst.unit_witness_points():
            assert _hits_witness(m, w)
        # the chart shared with the sub-atlas reaches its witnesses directly;
        # only the witnesses of the restricted chart need the arrows out of them
        assert built and all(u.component == "half" for u in built)
