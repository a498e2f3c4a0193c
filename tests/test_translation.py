"""Translation groupoids: the triple calculus, arrow equality, multiplication,
and the functor on 1- and 2-cells."""

import json
import random
from fractions import Fraction

import pytest

from orbatlas.atlas import (
    Atlas,
    Chart,
    Embedding,
    Span,
    common_span,
    find_conjugator,
    stabilizer,
    validate_atlas,
)
from orbatlas.errors import AtlasMismatchError, IllTypedError, InvalidAtlasError, NotComposableError
from orbatlas.field import CycNum
from orbatlas.gallery import cone, cone_pair, football, global_quotient, point_atlas, pushforward_pair, teardrop, teardrop_pair
from orbatlas.geometry import AffineMap, Ball, Point, map_ball
from orbatlas.groupoids import ActionGroupoid, Arrow, ArrowComponent, UnitPoint, validate_grp_nat_trans
from orbatlas.morita import (
    common_refinement,
    reconstruct_atlas,
    reconstruction_morita_morphism,
    subatlas_inclusion_morphism,
    union_atlas,
)
from orbatlas.sampling import random_chart_point
from orbatlas.serialize import groupoid_from_doc, serialize
from orbatlas.systems import rotation_fixture, rotation_system, OrbNatTrans
from orbatlas.translation import (
    FunctorImage,
    TranslationGroupoid,
    action_groupoid_oracle_report,
    build_translation_groupoid,
    check_functor_laws,
    multiplication_well_defined_report,
)

from conftest import (
    component_index,
    distinct_transports,
    record_arrows,
    reference_arrow,
    reference_arrows_to,
    reference_transports,
    z3_action,
    z4_by_sign,
)

M = 3


def zrot(k):
    return AffineMap.scaling(M, 1, CycNum.zeta(3) ** k)


@pytest.fixture(scope="module")
def a3():
    return cone(3)


@pytest.fixture(scope="module")
def tg(a3):
    return build_translation_groupoid(a3)


def emb(k):
    return Embedding("cone3", "cone3", zrot(k))


class TestStructureMaps:
    def test_identity_arrow_formula(self, tg):
        p = Point.of(M, Fraction(1, 4))
        e = tg.identity(UnitPoint("cone3", p))
        t = tg.triple_of(e)
        assert t.left.map.is_identity() and t.right.map.is_identity()
        assert t.point == p
        assert tg.source(e) == UnitPoint("cone3", p)
        assert tg.target(e) == UnitPoint("cone3", p)

    def test_inverse_swaps_legs(self, tg):
        # the inverse is the arrow of the swapped triple: the inverse germ at
        # the target point
        p = Point.of(M, Fraction(1, 4))
        a = tg.arrow_of(Span("cone3", p, emb(0), emb(1)))
        inv = tg.inverse(a)
        assert inv == tg.arrow_of(Span("cone3", p, emb(1), emb(0)))
        assert inv.point == zrot(1)(p) and tg.local_bisection(inv) == zrot(2)
        assert tg.triples_equal(tg.triple_of(inv), Span("cone3", p, emb(1), emb(0)))

    def test_source_and_target_formulas(self, tg):
        p = Point.of(M, Fraction(1, 4))
        a = tg.arrow_of(Span("cone3", p, emb(1), emb(2)))
        assert tg.source(a) == UnitPoint("cone3", zrot(1)(p))
        assert tg.target(a) == UnitPoint("cone3", zrot(2)(p))


class TestArrowOf:
    """arrow_of takes triples from outside, so it keeps its checks;
    the groupoid's own builders construct the same arrows without them."""

    def test_point_outside_its_chart(self, tg):
        with pytest.raises(InvalidAtlasError, match="outside its chart"):
            tg.arrow_of(Span("cone3", Point.of(M, 1), emb(0), emb(1)))

    def test_legs_leaving_another_chart_are_ill_typed(self, tg, sub_full_cone3):
        p = Point.of(M, Fraction(1, 4))
        with pytest.raises(IllTypedError):
            tg.arrow_of(Span("half", p, emb(0), emb(1)))
        _, full = sub_full_cone3
        g = TranslationGroupoid(full)
        inc, ident = full.reps[("half", "cone3")], full.identity_embedding("cone3")
        for span in (Span("half", p, inc, ident), Span("cone3", p, inc, ident), Span("cone3", p, ident, inc)):
            with pytest.raises(IllTypedError):
                g.arrow_of(span)

    def test_leg_outside_the_stored_family(self, tg):
        half = Embedding("cone3", "cone3", AffineMap.scaling(M, 1, Fraction(1, 2)))
        p = Point.of(M, Fraction(1, 4))
        for t in (Span("cone3", p, half, emb(1)), Span("cone3", p, emb(0), half)):
            with pytest.raises(InvalidAtlasError, match="not a stored embedding"):
                tg.arrow_of(t)

    @pytest.mark.parametrize("make", [lambda: cone(3), lambda: football(2, 3), lambda: teardrop(3)])
    def test_built_arrows_agree_with_arrow_of(self, make):
        g = TranslationGroupoid(make())
        rng = random.Random(5)
        for _ in range(6):
            u = g.random_unit(rng)
            built = [g.identity(u)] + g.arrows_from(u)
            built += [g.inverse(a) for a in built] + g.arrows_between(u, g.target(built[-1]))
            built += [g.multiply(a, g.inverse(a)) for a in built]
            for a in built:
                assert g.arrow_of(g.triple_of(a)) == a


class TestArrowEquality:
    def test_reflexive(self, tg):
        p = Point.of(M, Fraction(1, 4))
        t = Span("cone3", p, emb(1), emb(2))
        assert tg.triples_equal(t, t)

    def test_rotated_representatives_equal(self, tg):
        p = Point.of(M, Fraction(1, 4))
        t1 = Span("cone3", p, emb(1), emb(2))
        t2 = Span("cone3", zrot(1)(p), emb(0), emb(1))
        assert tg.triples_equal(t1, t2)

    def test_distinct_isotropy_arrows_differ(self, tg):
        origin = Point.origin(M, 1)
        t1 = Span("cone3", origin, emb(0), emb(1))
        t2 = Span("cone3", origin, emb(0), emb(0))
        assert not tg.triples_equal(t1, t2)

    def test_local_triviality(self, tg):
        # within one component, distinct parameter points are never equivalent
        p = Point.of(M, Fraction(1, 4))
        q = Point.of(M, Fraction(1, 8))
        a = tg.arrow_of(Span("cone3", p, emb(0), emb(1)))
        b = tg.arrow_of(Span("cone3", q, emb(0), emb(1)))
        assert a.component == b.component
        assert not tg.arrow_equal(a, b)

    def test_equivalence_relation_spot_checks(self, tg, a3):
        from orbatlas.sampling import random_chart_point

        rng = random.Random(11)
        chart = a3.chart("cone3")
        for _ in range(300):
            p = random_chart_point(rng, a3, "cone3")
            g1, g2, h = (rng.randrange(3) for _ in range(3))
            t1 = Span("cone3", p, emb(g1), emb(g2))

            # translate the representative by h: same class by construction
            def translate(t, k):
                return Span(
                    "cone3",
                    zrot(k)(t.point),
                    Embedding("cone3", "cone3", t.left.map.compose(zrot(k).inverse())),
                    Embedding("cone3", "cone3", t.right.map.compose(zrot(k).inverse())),
                )

            t2 = translate(t1, h)
            assert tg.triples_equal(t1, t1)
            assert tg.triples_equal(t1, t2)
            assert tg.triples_equal(t2, t1)
            t3 = translate(t2, (h + 1) % 3)
            assert tg.triples_equal(t2, t3) and tg.triples_equal(t1, t3)
            t_other = Span("cone3", p, emb((g2 + 1) % 3), emb(g2))
            if not tg.triples_equal(t1, t_other):
                assert not tg.triples_equal(t_other, t1)

    def test_source_in_component_coordinates_is_left_leg(self, tg, a3):
        # the arrow of (l, z, r) is stored at its source point l(z), and its
        # germ r . l^(-1) carries that point to the target r(z)
        rng = random.Random(13)
        legs = a3.family("cone3", "cone3")
        for left in legs:
            for right in legs:
                z = random_chart_point(rng, a3, "cone3")
                a = tg.arrow_of(Span(left.src, z, left, right))
                assert a.point == left(z)
                assert tg.source(a) == UnitPoint(left.dst, left(z))
                assert tg.local_bisection(a)(a.point) == right(z)
                assert tg.target(a) == UnitPoint(right.dst, right(z))
                assert tg.triples_equal(tg.triple_of(a), Span(left.src, z, left, right))

    def test_equality_across_source_charts(self, sub_full_cone3):
        # the same identification represented over the restricted chart and
        # over the big chart
        _, full = sub_full_cone3
        g = build_translation_groupoid(full, validate=False)
        m = full.conductor
        inc = full.reps[("half", "cone3")]
        rot = full.chart("cone3").group[1]
        x = Point.of(m, Fraction(1, 8))
        over_half = Span(inc.src, x, inc, Embedding("half", "cone3", rot.compose(inc.map)))
        over_big = Span("cone3", x, full.identity_embedding("cone3"), Embedding("cone3", "cone3", rot))
        assert g.triples_equal(over_half, over_big)
        assert g.triples_equal(over_big, over_half)
        other = Span(
            "cone3", x, full.identity_embedding("cone3"), Embedding("cone3", "cone3", rot.compose(rot))
        )
        assert not g.triples_equal(over_half, other)


def span_conjugator_equal(g, p, q):
    """The span-and-conjugator rule for triples: the same source and target
    units, and right legs over a commuting span of the left legs that differ by
    the identity of the target chart group."""
    sp = UnitPoint(p.left.dst, p.left(p.point))
    sq = UnitPoint(q.left.dst, q.left(q.point))
    if not g.unit_equal(sp, sq):
        return False
    tp = UnitPoint(p.right.dst, p.right(p.point))
    tq = UnitPoint(q.right.dst, q.right(q.point))
    if not g.unit_equal(tp, tq):
        return False
    span = common_span(g.atlas, p.left, p.point, q.left, q.point)
    c = find_conjugator(
        g.atlas.chart(p.right.dst),
        p.right.map.compose(span.left.map),
        q.right.map.compose(span.right.map),
    )
    return c.is_identity()


GALLERY_FIXTURES = ["cone3", "football23", "teardrop3", "quotient22", "point_chart_atlas", "sub_full_cone3"]


def gallery_groupoid(request, name):
    atlas = request.getfixturevalue(name)
    if name == "sub_full_cone3":
        atlas = atlas[1]
    return build_translation_groupoid(atlas)


def arrows_with_source(g, u, products=6):
    """Arrows out of u: one per former transport record whose domain holds u
    (so every arrow under several representatives), then a few products."""
    out = record_arrows(g, u)
    firsts = g.arrows_from(u)
    for a in firsts[:products]:
        out.append(g.multiply(a, g.arrows_from(g.target(a))[-1]))
    return out


class TestGermRule:
    """arrow_equal and multiply decide by germs; they must agree with the
    span-and-conjugator rule and the span-completion product."""

    @pytest.mark.parametrize("name", GALLERY_FIXTURES)
    def test_arrow_equal_matches_span_conjugator_rule(self, request, name):
        g = gallery_groupoid(request, name)
        rng = random.Random(41)
        units = g.unit_witness_points()[:3] + [g.random_unit(rng) for _ in range(2)]
        outcomes = set()
        target_only = 0  # pairs with one source and one germ but different target charts
        for u in units:
            arrows = arrows_with_source(g, u)
            for a in arrows:
                for b in arrows:
                    want = span_conjugator_equal(g, g.triple_of(a), g.triple_of(b))
                    assert g.arrow_equal(a, b) == want, (u, a, b)
                    outcomes.add(want)
                    if not want and g.local_bisection(a) == g.local_bisection(b):
                        target_only += 1
        # the point atlas has a single arrow over each unit
        assert outcomes == ({True} if name == "point_chart_atlas" else {True, False})
        if name == "sub_full_cone3":
            assert target_only > 0

    @pytest.mark.parametrize("name", GALLERY_FIXTURES)
    def test_multiply_matches_span_completion_product(self, request, name):
        g = gallery_groupoid(request, name)
        rng = random.Random(43)
        for _ in range(8):
            a, b = g.random_composable_pair(rng)
            product = g.multiply(a, b)
            expected = g.arrow_of(g.multiply_triples(g.triple_of(a), g.triple_of(b)))
            assert span_conjugator_equal(g, g.triple_of(product), g.triple_of(expected))
            for c in [expected] + g.arrows_from(g.source(a)):
                want = span_conjugator_equal(g, g.triple_of(product), g.triple_of(c))
                assert g.arrow_equal(product, c) == want, (a, b, c)


class TestMultiplication:
    def test_unit_law(self, tg):
        p = Point.of(M, Fraction(1, 4))
        a = tg.arrow_of(Span("cone3", p, emb(0), emb(1)))
        e = tg.identity(tg.source(a))
        assert tg.arrow_equal(tg.multiply(e, a), a)

    def test_action_law_on_cone(self, tg):
        p = Point.of(M, Fraction(1, 4))
        a = tg.arrow_of(Span("cone3", p, emb(0), emb(1)))
        b = tg.arrow_of(Span("cone3", zrot(1)(p), emb(0), emb(1)))
        prod = tg.multiply(a, b)
        assert tg.triples_equal(tg.triple_of(prod), Span("cone3", p, emb(0), emb(2)))

    def test_inverse_law(self, tg):
        p = Point.of(M, Fraction(1, 4))
        a = tg.arrow_of(Span("cone3", p, emb(1), emb(2)))
        assert tg.arrow_equal(tg.multiply(a, tg.inverse(a)), tg.identity(tg.source(a)))

    def test_not_composable(self, tg):
        p = Point.of(M, Fraction(1, 4))
        a = tg.arrow_of(Span("cone3", p, emb(0), emb(0)))
        b = tg.arrow_of(Span("cone3", Point.of(M, Fraction(1, 8)), emb(0), emb(0)))
        with pytest.raises(NotComposableError):
            tg.multiply(a, b)

    def test_foreign_arrow_rejected(self, tg):
        other = build_translation_groupoid(football(2, 3), validate=False)
        rng = random.Random(0)
        foreign = rng.choice(other.arrows_from(other.random_unit(rng)))
        with pytest.raises(AtlasMismatchError):
            tg.source(foreign)

    def test_well_definedness(self, a3):
        rep = multiplication_well_defined_report(a3, products=25, seed=3)
        assert rep.ok, rep.failures()

    def test_well_definedness_football(self):
        rep = multiplication_well_defined_report(football(2, 3), products=20, seed=4)
        assert rep.ok, rep.failures()


class TestActionOracle:
    @pytest.mark.parametrize("p", [2, 3])
    def test_cone_matches_action_groupoid(self, p):
        rep = action_groupoid_oracle_report(cone(p), samples=20, seed=p)
        assert rep.ok, rep.failures()

    def test_quotient_dim2(self):
        rep = action_groupoid_oracle_report(global_quotient(2, 2), samples=12, seed=5)
        assert rep.ok, rep.failures()


class AllRecordTransports(TranslationGroupoid):
    """A component for every record of the former transport table, duplicates
    included."""

    def components_between(self, ca, cb):
        records = reference_transports(self.atlas, ca, cb)
        return [ArrowComponent((ca, cb, i), t.domain, t.map, ca, cb) for i, t in enumerate(records)]


RECONSTRUCT_ATLASES = {
    "cone3": lambda: cone(3),
    "cone6": lambda: cone(6),
    "football23": lambda: football(2, 3),
    "teardrop3": lambda: teardrop(3),
    "quot22": lambda: global_quotient(2, 2),
    "cone4m12": lambda: cone(4, conductor=12),
}


class TestDistinctTransports:
    """reconstruct_atlas asks whether any transport clashes, so walking each
    distinct (map, domain) pair once cannot change a radius."""

    @pytest.mark.parametrize("name", [*RECONSTRUCT_ATLASES, "point"])
    def test_first_occurrences_of_the_table(self, name):
        g = TranslationGroupoid(RECONSTRUCT_ATLASES.get(name, point_atlas)())
        for ca in g.atlas.chart_ids():
            for cb in g.atlas.chart_ids():
                want = []
                for t in reference_transports(g.atlas, ca, cb):
                    if (t.map, t.domain) not in want:
                        want.append((t.map, t.domain))
                assert [(c.germ, c.ball) for c in g.components_between(ca, cb)] == want

    def test_cone6_has_six_distinct_transports(self):
        g = TranslationGroupoid(cone(6))
        assert len(reference_transports(g.atlas, "cone6", "cone6")) == 36
        assert len(g.atlas.transport_table("cone6", "cone6").components) == 6
        assert len(g.components_between("cone6", "cone6")) == 6

    @pytest.mark.parametrize("name", list(RECONSTRUCT_ATLASES))
    def test_reconstruction_bytes_match_all_records(self, name):
        atlas = RECONSTRUCT_ATLASES[name]()
        for seed in range(4):
            got = reconstruct_atlas(TranslationGroupoid(atlas), samples=2, seed=seed)
            ref = reconstruct_atlas(AllRecordTransports(atlas), samples=2, seed=seed)
            assert serialize(got.atlas) == serialize(ref.atlas)
            assert got.anchors == ref.anchors


def reference_oracle_checks(atlas, samples, seed):
    """action_groupoid_oracle_report's checks, with its sample loop written out
    as first written: every triple rebuilt and every group index looked up
    inside the loop."""
    cid = atlas.chart_ids()[0]
    chart = atlas.chart(cid)
    tg = TranslationGroupoid(atlas)
    ActionGroupoid(atlas.conductor, chart.ball, [(f"g{k}", g) for k, g in enumerate(chart.group)])
    ident = atlas.identity_embedding(cid)
    rng = random.Random(seed)

    def to_triple(x, g_index):
        g = chart.group[g_index]
        return tg.arrow_of(Span(ident.src, x, ident, Embedding(cid, cid, g.compose(ident.map))))

    ok_bij = ok_s = ok_t = ok_m = ok_i = ok_e = True
    for _ in range(samples):
        x = random_chart_point(rng, atlas, cid)
        arrows = tg.arrows_from(UnitPoint(cid, x))
        canon = [to_triple(x, k) for k in range(len(chart.group))]
        if len(arrows) != len(canon):
            ok_bij = False
        else:
            matched = set()
            for a in arrows:
                hits = [k for k, c in enumerate(canon) if tg.arrow_equal(a, c)]
                if len(hits) != 1 or hits[0] in matched:
                    ok_bij = False
                    break
                matched.add(hits[0])
        for k, g in enumerate(chart.group):
            a = to_triple(x, k)
            if not tg.unit_equal(tg.source(a), UnitPoint(cid, x)):
                ok_s = False
            if not tg.unit_equal(tg.target(a), UnitPoint(cid, g(x))):
                ok_t = False
            if not tg.arrow_equal(tg.inverse(a), to_triple(g(x), chart.group.index(g.inverse()))):
                ok_i = False
            for kk, h in enumerate(chart.group):
                b = to_triple(g(x), kk)
                product = tg.multiply(a, b)
                want = to_triple(x, chart.group.index(h.compose(g)))
                if not tg.arrow_equal(product, want):
                    ok_m = False
        if not tg.arrow_equal(
            tg.identity(UnitPoint(cid, x)), to_triple(x, chart.group.index(chart.identity()))
        ):
            ok_e = False
    return [
        ("arrows from each point biject with the group", ok_bij, ""),
        ("source matches the action", ok_s, ""),
        ("target matches the action", ok_t, ""),
        ("multiplication matches m((x,g),(gx,h))=(x,hg)", ok_m, ""),
        ("inverse matches i(x,g)=(gx,g^-1)", ok_i, ""),
        ("identity matches e(x)=(x,1)", ok_e, ""),
    ]


def s3_atlas():
    """One chart: the unit ball of C^2 under S3, generated by diag(zeta, zeta^-1)
    and the coordinate swap, so the multiplication table is not symmetric."""
    m = 3
    one, zero, z = CycNum.rational(m, 1), CycNum.rational(m, 0), CycNum.zeta(3)
    o = Point.origin(m, 2)
    rots = [AffineMap(((z**k, zero), (zero, z ** (3 - k) if k else one)), o) for k in range(3)]
    swap = AffineMap(((zero, one), (one, zero)), o)
    chart = Chart("s3", Ball(o, one), tuple(rots) + tuple(swap.compose(r) for r in rots))
    e = Embedding("s3", "s3", chart.identity())
    return Atlas(m, 2, [chart], [], witnesses=[Span("s3", o, e, e)])


class TestActionOracleReference:
    def test_s3_atlas_is_valid_and_non_abelian(self):
        atlas = s3_atlas()
        assert validate_atlas(atlas, rng=random.Random(0)).ok
        g = atlas.chart("s3").group
        assert g[1].compose(g[3]) != g[3].compose(g[1])

    @pytest.mark.parametrize(
        "make, samples, seed",
        [
            (lambda: cone(2), 12, 2),
            (lambda: cone(3), 12, 3),
            (lambda: cone(4), 8, 4),
            (lambda: cone(6), 4, 6),
            (lambda: global_quotient(2, 2), 8, 5),
            (lambda: cone(4, conductor=12), 6, 7),
            (s3_atlas, 4, 8),
        ],
        ids=["cone2", "cone3", "cone4", "cone6", "quot22", "cone4m12", "s3"],
    )
    def test_checks_match_reference_loop(self, make, samples, seed):
        atlas = make()
        rep = action_groupoid_oracle_report(atlas, samples=samples, seed=seed)
        assert rep.checks == reference_oracle_checks(atlas, samples, seed)
        assert rep.ok, rep.failures()



# -- the entry labels against the record-scan reference ---------------------------


def reference_arrows_from(g, u):
    """Per chart, each right leg of the atlas's span composed as h . right,
    its germ at u found by the record scan."""
    out = []
    for cid in g.atlas.chart_ids():
        z = g.atlas.locate(u.component, u.point, cid)
        if z is None:
            continue
        span = g.atlas.refine(u.component, u.point, cid, z)
        if span is None:
            continue
        unleft = span.left.map.inverse()
        for h in g.atlas.chart(cid).group:
            out.append(reference_arrow(g, u.component, cid, h.compose(span.right.map).compose(unleft), u.point))
    return out


def reference_arrows_between(g, u1, u2):
    span = g.atlas.refine(u1.component, u1.point, u2.component, u2.point)
    if span is None:
        return []
    unleft = span.left.map.inverse()
    return [
        reference_arrow(g, u1.component, u2.component, s.compose(span.right.map).compose(unleft), u1.point)
        for s in stabilizer(g.atlas.chart(u2.component), u2.point)
    ]


def reference_inverse(g, a):
    """The table component of a's first leg pair swapped: the inverse germ on
    the image of the right leg, at the target point."""
    t = g.triple_of(a)
    germ = t.left.map.compose(t.right.map.inverse())
    domain = map_ball(t.right.map, g.atlas.chart(t.right.src).ball)
    return Arrow((t.right.dst, t.left.dst, component_index(g.atlas, t.right.dst, t.left.dst, germ, domain)), t.right(t.point))


def reference_arrow_equal(g, a, b):
    """The three-part rule: target chart, source unit, germ."""
    ca, cb = g.arrow_component(a.component), g.arrow_component(b.component)
    return (
        ca.t_component == cb.t_component
        and g.unit_equal(g.source(a), g.source(b))
        and ca.germ == cb.germ
    )


def repeated_element_cone3():
    """cone(3) whose chart group lists zeta twice: the family holds one map at
    two positions, so first positions and raw positions differ."""
    base = cone(3)
    chart = base.chart("cone3")
    group = chart.group + (next(h for h in chart.group if not h.is_identity()),)
    return Atlas(3, 1, [Chart("cone3", chart.ball, group)], [], witnesses=base.witnesses)


LABEL_ATLASES = {
    "cone3": lambda: cone(3),
    "cone6": lambda: cone(6),
    "football23": lambda: football(2, 3),
    "teardrop3": lambda: teardrop(3),
    "quotient22": lambda: global_quotient(2, 2),
    "cone4m12": lambda: cone(4, conductor=12),
    "s3": s3_atlas,
    "cone3_repeated": repeated_element_cone3,
}
# a point off the centre fixed by the swap: its translates have stabilizers
# that do not commute with the right legs reaching them
STABILIZED_UNITS = {"s3": [UnitPoint("s3", Point.of(3, Fraction(1, 4), Fraction(1, 4)))]}


class TestLabelTables:
    """arrows_from, arrows_between and inverse label arrows by components of
    the transport tables; they must give the arrows (labels, points and order)
    that composing each leg and scanning the former record table gives, and
    arrow_equal's same-component shortcut must agree with the three-part
    rule."""

    @pytest.mark.parametrize("name", list(LABEL_ATLASES))
    def test_match_compose_and_look_up(self, name):
        g = TranslationGroupoid(LABEL_ATLASES[name]())
        rng = random.Random(23)
        units = g.unit_witness_points() + STABILIZED_UNITS.get(name, [])
        units += [g.random_unit(rng) for _ in range(3)]
        arrows = []
        for u in units:
            built = g.arrows_from(u)
            assert built == reference_arrows_from(g, u)
            for a in built:
                inv = g.inverse(a)
                assert inv == reference_inverse(g, a)
                assert g.arrow_equal(inv, reference_arrow(g, inv.component[0], inv.component[1], g.local_bisection(inv), inv.point))
                v = g.target(a)
                if name == "cone3_repeated" and v != u and built.count(a) == 2:
                    # zeta, listed twice, is between u and zeta(u) as often as
                    # arrows_from builds it; the stabilizer scan counted it once
                    assert [b.component[2] for b in g.arrows_between(u, v)] == [1, 1]
                else:
                    assert g.arrows_between(u, v) == reference_arrows_between(g, u, v)
            assert g.arrows_between(u, u) == reference_arrows_between(g, u, u)
            arrows += built + [g.inverse(a) for a in built]
        same_component_apart = 0
        for a in arrows:
            for b in arrows:
                assert g.arrow_equal(a, b) == reference_arrow_equal(g, a, b)
                same_component_apart += a.component == b.component and a.point != b.point
        assert same_component_apart > 0

    @pytest.mark.parametrize("name", ["football23", "teardrop3"])
    def test_own_chart_leg_in_a_later_image(self, name):
        # the centre of the glue chart's second image in north: the first leg
        # of the walk holding it is not the first of its family, so on north
        # itself the right leg carrying it back is not the family's first
        g = TranslationGroupoid(LABEL_ATLASES[name]())
        x = g.atlas.family("glue", "north")[1](g.atlas.chart("glue").ball.center)
        u = UnitPoint("north", x)
        assert g.arrows_from(u) == reference_arrows_from(g, u)

    def test_unrelated_units_have_no_arrows_between(self):
        g = TranslationGroupoid(football(2, 3))
        u = g.unit_witness_points()[0]
        far = [v for v in g.unit_witness_points() if not g.arrows_between(u, v)]
        assert far
        for v in far:
            assert reference_arrows_between(g, u, v) == []

    def test_unclosed_chart_group_raises(self):
        # group (zeta, id): zeta . zeta is not in the group, so the atlas is
        # refused; unvalidated, its arrows are still components of its table
        base = cone(3)
        chart = base.chart("cone3")
        zeta = next(h for h in chart.group if not h.is_identity())
        atlas = Atlas(3, 1, [Chart("cone3", chart.ball, (zeta, chart.identity()))], [])
        with pytest.raises(InvalidAtlasError, match="closed under composition"):
            build_translation_groupoid(atlas)
        g = TranslationGroupoid(atlas)
        u = UnitPoint("cone3", chart.ball.center)
        assert g.arrows_from(u) == reference_arrows_from(g, u)


def union_atlases(u1, u2, witnesses):
    ref = common_refinement(u1, u2, witnesses)
    return [union_atlas(u1, ref.atlas, ref.into_first), union_atlas(u2, ref.atlas, ref.into_second)]


VALID_ATLASES = {
    **{name: lambda make=make: [make()] for name, make in LABEL_ATLASES.items() if name != "cone3_repeated"},
    "cone_pair3_unions": lambda: union_atlases(*cone_pair(3)),
    "teardrop_pair3_unions": lambda: union_atlases(*teardrop_pair(3)),
}


def _probe_units(g, name, seed):
    rng = random.Random(seed)
    return g.unit_witness_points() + STABILIZED_UNITS.get(name, []) + [g.random_unit(rng) for _ in range(3)]


class TestArrowsTo:
    """arrows_to is the one arrow query of a presentation: arrows_from is its
    lists over the unit components, and the arrows it builds carry the label
    arrow_at gives their germ at their point."""

    @pytest.mark.parametrize("name", [*LABEL_ATLASES, "z3_action"])
    def test_arrows_from_is_arrows_to_over_the_unit_components(self, name):
        g = z3_action() if name == "z3_action" else TranslationGroupoid(LABEL_ATLASES[name]())
        for u in _probe_units(g, name, 37):
            per_component = [(c.label, g.arrows_to(u, c.label)) for c in g.unit_components()]
            assert g.arrows_from(u) == [a for _, arrows in per_component for a in arrows]
            for c, arrows in per_component:
                assert all(g.source(a) == u and g.target(a).component == c for a in arrows)

    @pytest.mark.parametrize("name", list(VALID_ATLASES))
    def test_built_arrows_carry_the_label_of_their_germ(self, name):
        for atlas in VALID_ATLASES[name]():
            g = TranslationGroupoid(atlas)
            built = 0
            for u in _probe_units(g, name, 41):
                for c in g.unit_components():
                    for a in g.arrows_to(u, c.label):
                        assert a == g.arrow_at(u.component, c.label, g.local_bisection(a), a.point)
                        built += 1
            assert built


def reference_arrow_components(g):
    """arrow_components as each presentation wrote it out: an action's
    component of every element, in label order; a translation groupoid's
    component (ca, cb, i) of every distinct transport record of every chart
    pair, chart pairs in order."""
    if isinstance(g, ActionGroupoid):
        return [ArrowComponent(lab, g.ball, g.rep[lab], "U", "U") for lab in g.labels]
    ids = g.atlas.chart_ids()
    return [
        ArrowComponent((ca, cb, i), domain, germ, ca, cb)
        for ca in ids
        for cb in ids
        for i, (germ, domain) in enumerate(distinct_transports(reference_transports(g.atlas, ca, cb)))
    ]


COMPONENT_CASES = {
    **{name: lambda make=make: [TranslationGroupoid(make())] for name, make in LABEL_ATLASES.items()},
    "cone_pair3_unions": lambda: [TranslationGroupoid(a) for a in union_atlases(*cone_pair(3))],
    "teardrop_pair3_unions": lambda: [TranslationGroupoid(a) for a in union_atlases(*teardrop_pair(3))],
    "z3_action": lambda: [z3_action()],
    "z4_by_sign": lambda: [z4_by_sign()],
}


class TestComponentsBetween:
    """components_between is the one component query of a presentation:
    arrow_components is its lists over every pair of unit components."""

    @pytest.mark.parametrize("name", list(COMPONENT_CASES))
    def test_components_in_label_order_carry_their_transports(self, name):
        for g in COMPONENT_CASES[name]():
            units = [c.label for c in g.unit_components()]
            for ca in units:
                for cb in units:
                    comps = g.components_between(ca, cb)
                    if isinstance(g, ActionGroupoid):
                        labels, entries = g.labels, [(g.rep[lab], g.ball) for lab in g.labels]
                    else:
                        entries = list(distinct_transports(reference_transports(g.atlas, ca, cb)))
                        labels = [(ca, cb, i) for i in range(len(entries))]
                    assert [c.label for c in comps] == labels
                    assert [(c.germ, c.ball) for c in comps] == entries
                    assert all((c.s_component, c.t_component) == (ca, cb) for c in comps)
                    assert all(c is g.arrow_component(c.label) for c in comps)

    @pytest.mark.parametrize("name", list(COMPONENT_CASES))
    def test_unknown_component_has_no_components(self, name):
        for g in COMPONENT_CASES[name]():
            for c in g.unit_components():
                assert g.components_between(c.label, "zz") == g.components_between("zz", c.label) == ()
            assert g.components_between("zz", "zz") == ()

    @pytest.mark.parametrize("name", list(COMPONENT_CASES))
    def test_arrow_components_match_the_written_out_enumeration(self, name):
        for g in COMPONENT_CASES[name]():
            assert g.arrow_components() == reference_arrow_components(g)

    @pytest.mark.parametrize("name", list(LABEL_ATLASES))
    def test_groupoids_of_one_atlas_share_the_table_records(self, name):
        # the records are built once, by the atlas's transport tables; a
        # groupoid only indexes them by label
        atlas = LABEL_ATLASES[name]()
        g, h = TranslationGroupoid(atlas), TranslationGroupoid(atlas)
        for ca in atlas.chart_ids():
            for cb in atlas.chart_ids():
                comps = g.components_between(ca, cb)
                assert comps is h.components_between(ca, cb) is atlas.transport_table(ca, cb).components
                for c in comps:
                    assert g.arrow_component(c.label) is h.arrow_component(c.label) is c

    def test_arrow_component_is_the_atlas_record(self):
        import orbatlas.atlas
        import orbatlas.groupoids

        assert orbatlas.groupoids.ArrowComponent is orbatlas.atlas.ArrowComponent

    @pytest.mark.parametrize(
        "label",
        [
            ("cone3", "cone3", -1),
            ("cone3", "cone3", 3),
            ("cone3", "zz", 0),
            ("zz", "cone3", 0),
            ("cone3", "cone3"),
            ("cone3", "cone3", 0, 1),
            ("cone3", "cone3", "0"),
            0,
        ],
        ids=["negative", "past-the-end", "unknown-target", "unknown-source", "pair", "quadruple", "str-index", "int"],
    )
    def test_label_outside_the_atlas_is_a_mismatch(self, label):
        g = TranslationGroupoid(cone(3))
        with pytest.raises(AtlasMismatchError, match="not over this atlas"):
            g.arrow_component(label)


class TestArrowsToRows:
    """arrows_to translates the first component of the transport table whose
    ball holds the point; it gives the arrows (labels and order) of the
    former walk over the legs."""

    @pytest.mark.parametrize("name", [*VALID_ATLASES, "cone3_repeated"])
    def test_matches_the_leg_walk(self, name):
        rng = random.Random(43)
        for atlas in VALID_ATLASES[name]() if name in VALID_ATLASES else [LABEL_ATLASES[name]()]:
            g = TranslationGroupoid(atlas)
            units = g.unit_witness_points() + STABILIZED_UNITS.get(name, [])
            units += [UnitPoint(e.dst, e(w.point)) for w in atlas.witnesses for e in (w.left, w.right)]
            units += [UnitPoint(c, random_chart_point(rng, atlas, c)) for c in atlas.chart_ids() for _ in range(2)]
            for u in units:
                for cb in atlas.chart_ids():
                    assert g.arrows_to(u, cb) == reference_arrows_to(g, u, cb), (u, cb)


class TestSourcePoint:
    """Every arrow the groupoid builds is stored at its source point."""

    @pytest.mark.parametrize("name", list(LABEL_ATLASES))
    def test_built_arrows_sit_at_their_source_point(self, name):
        g = TranslationGroupoid(LABEL_ATLASES[name]())
        rng = random.Random(29)
        units = g.unit_witness_points() + STABILIZED_UNITS.get(name, [])
        units += [g.random_unit(rng) for _ in range(3)]
        for u in units:
            firsts = g.arrows_from(u)
            built = [g.identity(u)] + firsts
            for a in firsts:
                v = g.target(a)
                built += [g.inverse(a)] + g.arrows_between(u, v)
                built += [g.multiply(a, b) for b in g.arrows_from(v)]
            for a in built:
                assert g.source(a) == UnitPoint(g.arrow_component(a.component).s_component, a.point)

    def test_leg_that_cannot_be_inverted_is_an_invalid_atlas(self):
        base = football(2, 3)
        reps = list(base.reps.values())
        zero = AffineMap(((CycNum.rational(base.conductor, 0),),), reps[0].map.b)
        atlas = Atlas(
            base.conductor,
            base.dim,
            list(base.charts.values()),
            [Embedding(reps[0].src, reps[0].dst, zero)] + reps[1:],
            witnesses=base.witnesses,
        )
        with pytest.raises(InvalidAtlasError, match="injective"):
            build_translation_groupoid(atlas)
        g = TranslationGroupoid(atlas)
        raw = serialize(g)
        assert serialize(groupoid_from_doc(json.loads(raw))) == raw
        # the flat leg is never a left leg of the table, and it cannot be
        # inverted from outside or as the right leg of an arrow
        flat = atlas.reps[(reps[0].src, reps[0].dst)]
        lefts = [leg[0] for ca in atlas.chart_ids() for cb in atlas.chart_ids() for leg in atlas.transport_table(ca, cb).legs]
        assert flat not in lefts
        z = atlas.chart(flat.src).ball.center
        with pytest.raises(InvalidAtlasError, match="not invertible"):
            g.arrow_of(Span(flat.src, z, flat, atlas.identity_embedding(flat.src)))
        flat_germs = [comp for comp in g.arrow_components() if not comp.germ.is_invertible()]
        assert flat_germs
        for comp in flat_germs:
            with pytest.raises(InvalidAtlasError, match="not invertible"):
                g.inverse(Arrow(comp.label, comp.ball.center))


class TestEntryTable:
    """The arrow components are those of the atlas's transport tables, one
    per distinct germ and domain, labelled (source, target, index)."""

    @pytest.mark.parametrize(
        "make, count",
        [
            (lambda: cone(3), 3),
            (lambda: cone(6), 6),
            (lambda: football(2, 3), 41),
            (lambda: football(3, 3), 55),
            (lambda: teardrop(3), 29),
            (lambda: global_quotient(2, 2), 2),
        ],
        ids=["cone3", "cone6", "football23", "football33", "teardrop3", "quot22"],
    )
    def test_one_component_per_distinct_transport(self, make, count):
        g = TranslationGroupoid(make())
        ids = g.atlas.chart_ids()
        comps = g.arrow_components()
        assert len(comps) == count
        assert [(c.label, c.germ, c.ball) for c in comps] == [
            ((ca, cb, i), germ, domain)
            for ca in ids
            for cb in ids
            for i, (germ, domain) in enumerate(distinct_transports(reference_transports(g.atlas, ca, cb)))
        ]
        # each entry's first leg pair gives it, and is the first record that does
        for c in comps:
            left, right = g.atlas.transport_table(c.s_component, c.t_component).legs[c.label[2]]
            first = next(
                t for t in reference_transports(g.atlas, c.s_component, c.t_component)
                if (t.map, t.domain) == (c.germ, c.ball)
            )
            assert (left, right) == (first.left, first.right)


def old_route_arrow(system, src_g, dst_g, a):
    """The image of an arrow as first written: unleft its point, lift it on
    the triple's chart, and take the arrow of the image triple."""
    t = src_g.triple_of(a)
    left, right = system.on_embedding(t.left), system.on_embedding(t.right)
    return dst_g.arrow_of(Span(left.src, system.lift(t.left.src)(t.point), left, right))


def old_route_component(delta, dst_g, u):
    """A 2-cell image component as first written: the arrow of [identity,
    lifted point, delta component]."""
    system = delta.src_sys
    ident = system.dst.identity_embedding(system.theta[u.component])
    point = system.lift(u.component)(u.point)
    return dst_g.arrow_of(Span(ident.src, point, ident, delta.component(u.component)))


def old_reconstruction_arrow(g, recon, src, a):
    """The reconstruction morphism's image of an arrow as first written: the
    first arrow of g between the anchored endpoints that has the arrow's germ."""
    germ = src.local_bisection(a)
    s, t = src.source(a), src.target(a)
    u1 = UnitPoint(recon.anchors[s.component], s.point)
    u2 = UnitPoint(recon.anchors[t.component], t.point)
    return next(cand for cand in g.arrows_between(u1, u2) if g.local_bisection(cand) == germ)


def old_subatlas_arrow(src, dst, a):
    """The sub-atlas inclusion's image of an arrow as first written: its point
    and germ, relabelled by the larger atlas's transport table."""
    comp = src.arrow_component(a.component)
    return dst.arrow_at(comp.s_component, comp.t_component, comp.germ, a.point)


def _witness_and_random_arrows(g, rng):
    """Every arrow out of g's witness points and three random units, with the
    identities there and the inverses of those arrows."""
    out = []
    for u in g.unit_witness_points() + [g.random_unit(rng) for _ in range(3)]:
        arrows = g.arrows_from(u)
        out += arrows + [g.identity(u)] + [g.inverse(a) for a in arrows]
    return out


class TestFunctorImageReference:
    """Every morphism image is built by GroupoidMorphism.of_germs.  The
    functor's images take the germ of the relabelled legs at the lifted point;
    by the cube condition they equal the images of the lifted triples.  The
    reconstruction morphism and the sub-atlas inclusions equal the arrow maps
    they were first written with."""

    @pytest.mark.parametrize(
        "make",
        [lambda: cone(3), lambda: football(2, 3), lambda: teardrop(3), lambda: cone(4, conductor=12), lambda: global_quotient(2, 2)],
        ids=["cone3", "football23", "teardrop3", "cone4m12", "quot22"],
    )
    def test_images_match_the_lifted_triples(self, make):
        rng = random.Random(17)
        fx = rotation_fixture(make(), rng)
        F = FunctorImage()
        compared = 0
        for system in (fx.f1, fx.f2, fx.f3, fx.g1, fx.g2, fx.g3):
            mor = F.on_system(system)
            src_g, dst_g = mor.src, mor.dst
            for a in _witness_and_random_arrows(src_g, rng):
                assert dst_g.arrow_equal(mor.Psi(a), old_route_arrow(system, src_g, dst_g, a))
                compared += 1
        for delta in (fx.delta, fx.sigma, fx.eta, fx.mu):
            alpha = F.on_cell(delta)
            src_g, dst_g = alpha.src_mor.src, alpha.src_mor.dst
            for u in src_g.unit_witness_points() + [src_g.random_unit(rng) for _ in range(3)]:
                assert dst_g.arrow_equal(alpha(u), old_route_component(delta, dst_g, u))
                compared += 1
        assert compared > 0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TranslationGroupoid(cone(3)),
            lambda: TranslationGroupoid(football(2, 3)),
            lambda: TranslationGroupoid(teardrop(3)),
            lambda: TranslationGroupoid(cone(4, conductor=12)),
            lambda: TranslationGroupoid(global_quotient(2, 2)),
            z3_action,
        ],
        ids=["cone3", "football23", "teardrop3", "cone4m12", "quot22", "z3-action"],
    )
    def test_reconstruction_images_match_the_germ_scan(self, make):
        g = make()
        recon = reconstruct_atlas(g, samples=2, seed=0)
        mor = reconstruction_morita_morphism(g, recon)
        arrows = _witness_and_random_arrows(mor.src, random.Random(19))
        for a in arrows:
            assert mor.Psi(a) == old_reconstruction_arrow(g, recon, mor.src, a)
        assert len({a.component for a in arrows}) > 1

    @pytest.mark.parametrize(
        "pair",
        [lambda: cone_pair(3), lambda: teardrop_pair(3), lambda: pushforward_pair(football(2, 3))],
        ids=["cone3", "teardrop3", "push-football23"],
    )
    def test_chain_inclusion_images_match_the_relabelling(self, pair):
        u1, u2, witnesses = pair()
        ref = common_refinement(u1, u2, witnesses)
        union1 = union_atlas(u1, ref.atlas, ref.into_first)
        union2 = union_atlas(u2, ref.atlas, ref.into_second)
        rng = random.Random(23)
        for sub, full in ((ref.atlas, union1), (u1, union1), (ref.atlas, union2), (u2, union2)):
            mor = subatlas_inclusion_morphism(sub, full)
            arrows = _witness_and_random_arrows(mor.src, rng)
            for a in arrows:
                assert mor.Psi(a) == old_subatlas_arrow(mor.src, mor.dst, a)
            assert arrows


class TestFunctor:
    def test_identity_system_maps_to_identity(self, a3):
        from orbatlas.groupoids import GroupoidMorphism, morphisms_equal
        from orbatlas.systems import identity_system

        F = FunctorImage()
        img = F.on_system(identity_system(a3))
        want = GroupoidMorphism.identity_on(F.on_atlas(a3))
        assert morphisms_equal(img, want, samples=20, seed=0)

    def test_square_system_image(self, a3):
        from orbatlas.geometry import PolyMap
        from orbatlas.systems import CompatibleSystem
        from orbatlas.groupoids import validate_groupoid_morphism

        sq = PolyMap(M, 1, 1, [{(2,): 1}])
        f = CompatibleSystem(a3, a3, {"cone3": "cone3"}, {}, {"cone3": sq})
        F = FunctorImage()
        mor = F.on_system(f)
        rep = validate_groupoid_morphism(mor, samples=25, seed=1)
        assert rep.ok, rep.failures()
        p = Point.of(M, Fraction(1, 2))
        assert mor.psi(UnitPoint("cone3", p)) == UnitPoint("cone3", Point.of(M, Fraction(1, 4)))

    def test_2cell_image_formula_and_naturality_spot_check(self, a3):
        f1 = rotation_system(a3, {"cone3": 0})
        f2 = rotation_system(a3, {"cone3": 1})
        delta = OrbNatTrans(f1, f2, {"cone3": emb(1)})
        F = FunctorImage()
        alpha = F.on_cell(delta)
        tg = F.on_atlas(a3)
        p = Point.of(M, Fraction(1, 4))
        arr = alpha(UnitPoint("cone3", p))
        t = tg.triple_of(arr)
        assert t.left.map.is_identity()
        assert t.point == p
        assert t.right.map == zrot(1)
        rep = validate_grp_nat_trans(alpha, samples=20, seed=2)
        assert rep.ok, rep.failures()

    @pytest.mark.parametrize("atlas_fn", [lambda: cone(3), lambda: football(2, 3)])
    def test_functor_laws(self, atlas_fn):
        rng = random.Random(13)
        fx = rotation_fixture(atlas_fn(), rng)
        rep = check_functor_laws(fx, samples=20, seed=3)
        assert rep.ok, rep.failures()

    def test_corrupted_theta_detected(self, a3):
        from orbatlas.systems import validate_compatible_system, identity_system

        f = identity_system(a3)
        f.theta["cone3"] = "nowhere"
        rep = validate_compatible_system(f)
        assert not rep.ok
