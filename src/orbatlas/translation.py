"""The translation groupoid of an atlas and the functor into groupoids.

Arrows are classes of triples (left embedding, marked point, right embedding)
over a common chart.  A reduced atlas gives an effective groupoid, where an
arrow is the germ of its transition right . left^(-1) at its source point; as
transitions are similarities, equal germs are equal maps.  Equality compares
source unit, target chart and germ; multiplication looks the composed germ up
in the transport table.  multiply_triples keeps the span-completion product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .atlas import Atlas, Embedding, Span, common_span, stabilizer, validate_atlas
from .errors import (
    AtlasMismatchError,
    IllTypedError,
    InvalidAtlasError,
    NotComposableError,
)
from .geometry import Point, point_in_ball
from .groupoids import (
    Arrow,
    ArrowComponent,
    GroupoidMorphism,
    GroupoidPresentation,
    GrpNatTrans,
    UnitComponent,
    UnitPoint,
    morphisms_equal,
    nat_trans_equal,
)
from .report import Report
from .sampling import random_chart_point


@dataclass(frozen=True)
class Triple:
    """(left, point, right): both embeddings share the source chart of the point."""

    left: Embedding
    point: Point
    right: Embedding

    def __post_init__(self):
        if self.left.src != self.right.src:
            raise IllTypedError("triple legs do not share a source chart")


def _emb_label(atlas: Atlas, e: Embedding) -> tuple[str, int]:
    return (e.dst, atlas.family_index(e))


class TranslationGroupoid(GroupoidPresentation):
    """Groupoid of chart-point identifications of an atlas.

    Components are indexed by pairs of stored embeddings out of a common chart;
    the component's parameter ball is that chart's domain and source/target act
    by the two embeddings.
    """

    strategy = "translation"

    def __init__(self, atlas: Atlas):
        self.atlas = atlas
        self.conductor = atlas.conductor
        self.dim = atlas.dim
        self._units = [UnitComponent(cid, atlas.chart(cid).ball) for cid in atlas.chart_ids()]
        self._components: dict = {}
        for k in atlas.chart_ids():
            ball = atlas.chart(k).ball
            for left in atlas.family_from(k):
                for right in atlas.family_from(k):
                    label = (k, _emb_label(atlas, left), _emb_label(atlas, right))
                    self._components[label] = ArrowComponent(
                        label, ball, left.map, right.map, left.dst, right.dst
                    )

    # -- triples <-> arrows ---------------------------------------------------

    def arrow_of(self, t: Triple) -> Arrow:
        label = (t.left.src, _emb_label(self.atlas, t.left), _emb_label(self.atlas, t.right))
        if label not in self._components:
            raise InvalidAtlasError(f"no arrow component for {label}")
        if not point_in_ball(t.point, self.atlas.chart(t.left.src).ball):
            raise InvalidAtlasError("triple point outside its chart")
        return Arrow(label, t.point)

    def triple_of(self, a: Arrow) -> Triple:
        k, left_label, right_label = a.component
        left = self.atlas.family(k, left_label[0])[left_label[1]]
        right = self.atlas.family(k, right_label[0])[right_label[1]]
        return Triple(left, a.point, right)

    # -- presentation interface ----------------------------------------------

    def unit_components(self):
        return list(self._units)

    def arrow_components(self):
        return list(self._components.values())

    def arrow_component(self, label):
        try:
            return self._components[label]
        except KeyError:
            raise AtlasMismatchError(f"arrow component {label!r} is not over this atlas") from None

    def identity(self, u: UnitPoint) -> Arrow:
        e = self.atlas.identity_embedding(u.component)
        return self.arrow_of(Triple(e, u.point, e))

    def inverse(self, a: Arrow) -> Arrow:
        t = self.triple_of(a)
        return self.arrow_of(Triple(t.right, t.point, t.left))

    def multiply(self, a: Arrow, b: Arrow) -> Arrow:
        """The first transport record carrying germ(b) . germ(a) over s(a)."""
        if not self.composable(a, b):
            raise NotComposableError("t(first) != s(second)")
        germ = self.local_bisection(b).compose(self.local_bisection(a))
        x = self.source(a)
        ck = self.arrow_component(b.component).t_component
        for t in self.atlas.transports(x.component, ck):
            if t.map == germ and point_in_ball(x.point, t.domain):
                return self.arrow_of(Triple(t.left, t.left.map.inverse()(x.point), t.right))
        raise InvalidAtlasError(f"no transport {x.component}->{ck} carries the composed germ")

    def multiply_triples(self, p: Triple, q: Triple, span=None) -> Triple:
        """[left_p . f_left, x_f, right_q . f_right] for a span completion of the
        middle legs; the class does not depend on the completion chosen."""
        if span is None:
            span = common_span(self.atlas, p.right, p.point, q.left, q.point)
        left = self._compose_family(p.left, span.left)
        right = self._compose_family(q.right, span.right)
        return Triple(left, span.point, right)

    def _compose_family(self, outer: Embedding, inner: Embedding) -> Embedding:
        comp = outer.map.compose(inner.map)
        e = Embedding(inner.src, outer.dst, comp)
        if not self.atlas.in_family(e):
            raise InvalidAtlasError(
                f"composite embedding {inner.src}->{outer.dst} not representable"
            )
        return e

    def arrow_equal(self, a: Arrow, b: Arrow) -> bool:
        """Equal germs: same target chart, same source unit, same transition."""
        return (
            self.arrow_component(a.component).t_component
            == self.arrow_component(b.component).t_component
            and self.unit_equal(self.source(a), self.source(b))
            and self.local_bisection(a) == self.local_bisection(b)
        )

    def triples_equal(self, p: Triple, q: Triple) -> bool:
        return self.arrow_equal(self.arrow_of(p), self.arrow_of(q))

    def arrows_between(self, u1: UnitPoint, u2: UnitPoint) -> list[Arrow]:
        span = self.atlas.refine(u1.component, u1.point, u2.component, u2.point)
        if span is None:
            return []
        out = []
        for s in stabilizer(self.atlas.chart(u2.component), u2.point):
            right = Embedding(span.right.src, span.right.dst, s.compose(span.right.map))
            out.append(self.arrow_of(Triple(span.left, span.point, right)))
        return out

    def arrows_from(self, u: UnitPoint) -> list[Arrow]:
        out = []
        for cid in self.atlas.chart_ids():
            z = self.atlas.locate(u.component, u.point, cid)
            if z is None:
                continue
            span = self.atlas.refine(u.component, u.point, cid, z)
            if span is None:
                continue
            for g in self.atlas.chart(cid).group:
                right = Embedding(span.right.src, span.right.dst, g.compose(span.right.map))
                out.append(self.arrow_of(Triple(span.left, span.point, right)))
        return out

    def transports(self, ca, cb):
        """Each distinct (map, domain) pair of the atlas table once, in
        first-occurrence order."""
        return list(dict.fromkeys((t.map, t.domain) for t in self.atlas.transports(ca, cb)))

    def unit_witness_points(self):
        out = []
        for cid in self.atlas.chart_ids():
            for p in self.atlas.witness_points(cid):
                out.append(UnitPoint(cid, p))
        return out

    def random_unit(self, rng: random.Random) -> UnitPoint:
        cid = rng.choice(self.atlas.chart_ids())
        return UnitPoint(cid, random_chart_point(rng, self.atlas, cid))


def build_translation_groupoid(atlas: Atlas, validate: bool = True) -> TranslationGroupoid:
    """Translation groupoid of a validated atlas."""
    if validate:
        rep = validate_atlas(atlas)
        if not rep.ok:
            failed = (f"{n} ({d})" if d else n for n, d in rep.failures())
            raise InvalidAtlasError("invalid atlas: " + "; ".join(failed))
    return TranslationGroupoid(atlas)


# -- the functor on 1-cells and 2-cells -----------------------------------------


def f_on_morphism(system) -> GroupoidMorphism:
    """Image of a compatible system: units map by the lifts, a triple maps to
    the triple of assigned embeddings around the lifted point."""
    src_g = TranslationGroupoid(system.src)
    dst_g = TranslationGroupoid(system.dst)
    return _morphism_of_system(system, src_g, dst_g)


def _morphism_of_system(system, src_g: TranslationGroupoid, dst_g: TranslationGroupoid):
    unit_maps = {
        cid: (system.theta[cid], system.lift(cid)) for cid in system.src.chart_ids()
    }

    def arrow_map(a: Arrow) -> Arrow:
        t = src_g.triple_of(a)
        left = system.on_embedding(t.left)
        right = system.on_embedding(t.right)
        y = system.lift(t.left.src)(t.point)
        return dst_g.arrow_of(Triple(left, y, right))

    return GroupoidMorphism(src_g, dst_g, unit_maps, arrow_map)


def f_on_2cell(delta, f_src: GroupoidMorphism, f_dst: GroupoidMorphism) -> GrpNatTrans:
    """Image of an atlas 2-cell: u -> [identity, lifted point, delta component]."""
    dst_g = f_src.dst
    system1 = delta.src_sys

    def component(u: UnitPoint) -> Arrow:
        v1 = system1.theta[u.component]
        ident = system1.dst.identity_embedding(v1)
        y = system1.lift(u.component)(u.point)
        return dst_g.arrow_of(Triple(ident, y, delta.component(u.component)))

    return GrpNatTrans(f_src, f_dst, component)


class FunctorImage:
    """Caches the groupoids and morphism/2-cell images over a fixed fixture so
    that functor-law checks compare composites inside identical objects."""

    def __init__(self):
        self._groupoids: dict[int, TranslationGroupoid] = {}
        self._morphisms: dict[int, GroupoidMorphism] = {}

    def on_atlas(self, atlas: Atlas) -> TranslationGroupoid:
        key = id(atlas)
        if key not in self._groupoids:
            self._groupoids[key] = TranslationGroupoid(atlas)
        return self._groupoids[key]

    def on_system(self, system) -> GroupoidMorphism:
        key = id(system)
        if key not in self._morphisms:
            self._morphisms[key] = _morphism_of_system(
                system, self.on_atlas(system.src), self.on_atlas(system.dst)
            )
        return self._morphisms[key]

    def on_cell(self, delta) -> GrpNatTrans:
        return f_on_2cell(delta, self.on_system(delta.src_sys), self.on_system(delta.dst_sys))


def check_functor_laws(fixture, samples: int = 100, seed: int = 0) -> Report:
    """Composition, identity, vertical and horizontal compatibility of the
    atlas-to-groupoid assignment, verified pointwise with exact arrow equality.

    fixture: object with atlases U, V, W; systems f1, f2, f3: U->V and
    g1, g2, g3: V->W; cells delta: f1=>f2, sigma: f2=>f3, eta: g1=>g2,
    mu: g2=>g3.
    """
    from .systems import compose_compatible, hcomp_orb, identity_system, vcomp_orb
    from .systems import identity_cell as orb_identity_cell
    from .groupoids import vcomp_grp, hcomp_grp

    F = FunctorImage()
    rep = Report("functor laws")

    comp_sys = compose_compatible(fixture.g1, fixture.f1)
    lhs = F.on_system(comp_sys)
    rhs = F.on_system(fixture.g1).compose(F.on_system(fixture.f1))
    rep.add(
        "image of a composite system is the composite of images",
        morphisms_equal(lhs, rhs, samples, seed),
    )

    ident = identity_system(fixture.U)
    img = F.on_system(ident)
    rep.add(
        "image of the identity system is the identity morphism",
        morphisms_equal(img, GroupoidMorphism.identity_on(F.on_atlas(fixture.U)), samples, seed),
    )

    icell = F.on_cell(orb_identity_cell(fixture.f1))
    rep.add(
        "image of an identity 2-cell is the identity 2-cell",
        nat_trans_equal(icell, GrpNatTrans.identity_cell(F.on_system(fixture.f1)), samples, seed),
    )

    vc = vcomp_orb(fixture.sigma, fixture.delta)
    lhs2 = F.on_cell(vc)
    rhs2 = vcomp_grp(F.on_cell(fixture.sigma), F.on_cell(fixture.delta))
    rep.add("vertical composition preserved", nat_trans_equal(lhs2, rhs2, samples, seed))

    hc = hcomp_orb(fixture.eta, fixture.delta)
    lhs3 = F.on_cell(hc)
    rhs3 = hcomp_grp(F.on_cell(fixture.eta), F.on_cell(fixture.delta))
    rep.add("horizontal composition preserved", nat_trans_equal(lhs3, rhs3, samples, seed))
    return rep


# -- the action-groupoid oracle ---------------------------------------------------


def action_groupoid_oracle_report(atlas: Atlas, samples: int = 200, seed: int = 0) -> Report:
    """For a single-chart atlas, the translation groupoid must match the
    explicit action groupoid: (x, g) <-> class of (identity, x, g), with
    s, t, m, i, e agreeing exactly."""
    rep = Report("action groupoid oracle")
    if len(atlas.charts) != 1:
        rep.add("single chart", False)
        return rep
    cid = atlas.chart_ids()[0]
    chart = atlas.chart(cid)
    tg = TranslationGroupoid(atlas)
    ident = atlas.identity_embedding(cid)
    rng = random.Random(seed)
    group = chart.group

    def to_triple(x: Point, g_index: int) -> Arrow:
        g = group[g_index]
        return tg.arrow_of(Triple(ident, x, Embedding(cid, cid, g.compose(ident.map))))

    product_index = [[group.index(h.compose(g)) for h in group] for g in group]
    inverse_index = [group.index(g.inverse()) for g in group]
    identity_index = group.index(chart.identity())
    ok_bij = ok_s = ok_t = ok_m = ok_i = ok_e = True
    for _ in range(samples):
        x = random_chart_point(rng, atlas, cid)
        arrows = tg.arrows_from(UnitPoint(cid, x))
        canon = [to_triple(x, k) for k in range(len(group))]
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
        for k, g in enumerate(group):
            a = canon[k]
            gx = g(x)
            if not tg.unit_equal(tg.source(a), UnitPoint(cid, x)):
                ok_s = False
            if not tg.unit_equal(tg.target(a), UnitPoint(cid, gx)):
                ok_t = False
            if not tg.arrow_equal(tg.inverse(a), to_triple(gx, inverse_index[k])):
                ok_i = False
            for kk in range(len(group)):
                product = tg.multiply(a, to_triple(gx, kk))
                if not tg.arrow_equal(product, canon[product_index[k][kk]]):
                    ok_m = False
        if not tg.arrow_equal(tg.identity(UnitPoint(cid, x)), canon[identity_index]):
            ok_e = False
    rep.add("arrows from each point biject with the group", ok_bij)
    rep.add("source matches the action", ok_s)
    rep.add("target matches the action", ok_t)
    rep.add("multiplication matches m((x,g),(gx,h))=(x,hg)", ok_m)
    rep.add("inverse matches i(x,g)=(gx,g^-1)", ok_i)
    rep.add("identity matches e(x)=(x,1)", ok_e)
    return rep


def multiplication_well_defined_report(
    atlas: Atlas, products: int = 50, completions: int = 5, seed: int = 0
) -> Report:
    """Re-verifies that the product class does not depend on the span
    completion: alternative spans come from translating the oracle span by
    stabilizer elements of the marked point."""
    rep = Report("multiplication well-definedness")
    tg = TranslationGroupoid(atlas)
    rng = random.Random(seed)
    ok = True
    tested = 0
    for _ in range(products):
        a, b = tg.random_composable_pair(rng)
        p, q = tg.triple_of(a), tg.triple_of(b)
        base_span = common_span(atlas, p.right, p.point, q.left, q.point)
        base = tg.multiply_triples(p, q, span=base_span)
        # every group translate of the span is another valid completion:
        # move the marked point by h and precompose both legs with h^(-1)
        chart = atlas.chart(base_span.chart)
        variants = []
        for h in chart.group:
            hinv = h.inverse()
            left = Embedding(
                base_span.left.src, base_span.left.dst, base_span.left.map.compose(hinv)
            )
            right = Embedding(
                base_span.right.src, base_span.right.dst, base_span.right.map.compose(hinv)
            )
            variants.append(Span(base_span.chart, h(base_span.point), left, right))
        for span in variants[:completions]:
            assert p.right.map.compose(span.left.map) == q.left.map.compose(span.right.map)
            assert span.left(span.point) == p.point and span.right(span.point) == q.point
            other = tg.multiply_triples(p, q, span=span)
            tested += 1
            if not tg.triples_equal(base, other):
                ok = False
    rep.add(f"all {tested} alternative completions give equal products", ok)
    return rep
