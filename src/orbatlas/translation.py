"""The translation groupoid of an atlas and the functor into groupoids.

Arrows are classes of triples (left embedding, marked point, right embedding)
over a common chart; a triple is an ``atlas.Span``, the chart being the
legs' common source.  A reduced atlas gives an effective groupoid, where an
arrow is the germ of its transition right . left^(-1) at its source point; as
transitions are similarities, equal germs are equal maps.  The arrow
components from chart ca to chart cb, ``components_between(ca, cb)``, are
the one component list of the atlas's transport table, shared by every
groupoid of the atlas; equality compares source unit, target chart and germ.
The table answers the groupoid's three lookups: its walk gives ``arrows_to``
(the translates of the first component holding the point), its by-germ index
gives ``arrow_at`` (an arrow known by its germ at a point, through which
products and the images of the functor F go), and its exact (germ, ball)
index gives ``identity`` and ``inverse``.  multiply_triples keeps the
span-completion product.
"""

from __future__ import annotations

import random

from .atlas import ArrowComponent, Atlas, Embedding, Span, common_span, validate_atlas
from .errors import (
    AtlasMismatchError,
    IllTypedError,
    InvalidAtlasError,
    NotComposableError,
)
from .geometry import AffineMap, Point, point_in_ball
from .groupoids import (
    Arrow,
    GroupoidMorphism,
    GroupoidPresentation,
    GrpNatTrans,
    UnitComponent,
    UnitPoint,
    hcomp_grp,
    morphisms_equal,
    nat_trans_equal,
    vcomp_grp,
)
from .report import Report
from .sampling import random_chart_point
from .systems import CompatibleSystem, compose_compatible, hcomp_orb, identity_system, vcomp_orb
from .systems import identity_cell as orb_identity_cell


def _transition(left: Embedding, right: Embedding) -> AffineMap:
    """right . left^(-1); a left leg that is not invertible is an invalid atlas."""
    if not left.map.is_invertible():
        raise InvalidAtlasError(f"{left!r} is not invertible")
    return right.map.compose(left.map.inverse())


class TranslationGroupoid(GroupoidPresentation):
    """Groupoid of chart-point identifications of an atlas.

    The arrow components from chart ca to chart cb are the components of
    the atlas's ``transport_table(ca, cb)``, labelled (ca, cb, index); the
    first leg pair of a component gives the legs of its arrows' triple, a
    ``Span``.  An arrow known by its germ at a point takes the first
    component of that germ whose ball holds the point.
    """

    strategy = "translation"

    def __init__(self, atlas: Atlas):
        self.atlas = atlas
        self.conductor = atlas.conductor
        self.dim = atlas.dim
        self._units = [UnitComponent(cid, atlas.chart(cid).ball) for cid in atlas.chart_ids()]
        self._components: dict = {}

    # -- triples <-> arrows ---------------------------------------------------

    def arrow_at(self, ca: str, cb: str, germ: AffineMap, x: Point) -> Arrow:
        """The arrow of germ at x from ca to cb: the first component carrying
        germ on a ball holding x; InvalidAtlasError when none does."""
        return Arrow((ca, cb, self.atlas.transport_table(ca, cb).index(germ, x)), x)

    def _germ_of(self, t: Span) -> tuple[str, str, AffineMap, Point]:
        """(source chart, target chart, germ, source point) of a triple from outside:
        both legs must leave its chart, be stored embeddings, and its point must
        lie in the chart."""
        if not t.chart == t.left.src == t.right.src:
            raise IllTypedError("triple legs do not both leave its chart")
        for leg in (t.left, t.right):
            if not self.atlas.in_family(leg):
                raise InvalidAtlasError(f"{leg!r} is not a stored embedding of the atlas")
        if not point_in_ball(t.point, self.atlas.chart(t.chart).ball):
            raise InvalidAtlasError("triple point outside its chart")
        return t.left.dst, t.right.dst, _transition(t.left, t.right), t.left(t.point)

    def arrow_of(self, t: Span) -> Arrow:
        return self.arrow_at(*self._germ_of(t))

    def triple_of(self, a: Arrow) -> Span:
        """The triple of the first leg pair of the arrow's component."""
        ca, cb, i = self.arrow_component(a.component).label
        left, right = self.atlas.transport_table(ca, cb).legs[i]
        return Span(left.src, left.map.inverse()(a.point), left, right)

    # -- presentation interface ----------------------------------------------

    def unit_components(self):
        return list(self._units)

    def components_between(self, ca, cb):
        return self.atlas.transport_table(ca, cb).components

    def arrow_component(self, label):
        comp = self._components.get(label)
        if comp is None:
            try:
                ca, cb, i = label
                if i < 0:
                    raise IndexError(i)
                comp = self._components[label] = self.atlas.transport_table(ca, cb).components[i]
            except (TypeError, ValueError, IndexError):
                raise AtlasMismatchError(f"arrow component {label!r} is not over this atlas") from None
        return comp

    def identity(self, u: UnitPoint) -> Arrow:
        c, chart = u.component, self.atlas.chart(u.component)
        return Arrow((c, c, self.atlas.transport_table(c, c).exact(chart.identity(), chart.ball)), u.point)

    def inverse(self, a: Arrow) -> Arrow:
        """The component of the swapped first leg pair, at the target point."""
        ca, cb, i = self.arrow_component(a.component).label
        return Arrow((cb, ca, self.atlas.swapped(ca, cb, i)), self.target(a).point)

    def multiply(self, a: Arrow, b: Arrow) -> Arrow:
        """The first component from s(a)'s chart to t(b)'s chart carrying
        germ(b) . germ(a) whose ball holds s(a)."""
        if not self.composable(a, b):
            raise NotComposableError("t(first) != s(second)")
        germ = self.local_bisection(b).compose(self.local_bisection(a))
        ca = self.arrow_component(a.component).s_component
        return self.arrow_at(ca, self.arrow_component(b.component).t_component, germ, a.point)

    def multiply_triples(self, p: Span, q: Span, span=None) -> Span:
        """[left_p . f_left, x_f, right_q . f_right] for a span completion of the
        middle legs; the class does not depend on the completion chosen."""
        if span is None:
            span = common_span(self.atlas, p.right, p.point, q.left, q.point)
        left = self._compose_family(p.left, span.left)
        right = self._compose_family(q.right, span.right)
        return Span(span.chart, span.point, left, right)

    def _compose_family(self, outer: Embedding, inner: Embedding) -> Embedding:
        comp = outer.map.compose(inner.map)
        e = Embedding(inner.src, outer.dst, comp)
        if not self.atlas.in_family(e):
            raise InvalidAtlasError(
                f"composite embedding {inner.src}->{outer.dst} not representable"
            )
        return e

    def arrow_equal(self, a: Arrow, b: Arrow) -> bool:
        """Equal germs at one source point: equal points, then the same
        component or the same source chart, target chart and transition."""
        if a.point != b.point:
            return False
        if a.component == b.component:
            return True
        ca, cb = self.arrow_component(a.component), self.arrow_component(b.component)
        return ca.s_component == cb.s_component and ca.t_component == cb.t_component and ca.germ == cb.germ

    def triples_equal(self, p: Span, q: Span) -> bool:
        """The arrows of two triples are equal: the same charts, germ and
        source point."""
        return self._germ_of(p) == self._germ_of(q)

    def arrows_to(self, u: UnitPoint, cb: str) -> list[Arrow]:
        """The translates, by each element of cb's group in group order, of
        the first component of ``transport_table(u's chart, cb)`` whose ball
        holds u; on u's own chart, of the first whose germ also fixes u."""
        ca, x = u.component, u.point
        i = self.atlas.transport_table(ca, cb).first(x, x if ca == cb else None)
        return [] if i is None else [Arrow((ca, cb, j), x) for j in self.atlas.translates(ca, cb, i)]

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


class FunctorImage:
    """The functor F on atlases, compatible systems and their 2-cells, caching
    the groupoids and morphism images over a fixed fixture so that functor-law
    checks compare composites inside identical objects.  The caches are keyed
    by the atlas and system objects themselves, so F holds each of them for
    its own lifetime and a freed object's id cannot alias a later one."""

    def __init__(self):
        self._groupoids: dict[Atlas, TranslationGroupoid] = {}
        self._morphisms: dict[CompatibleSystem, GroupoidMorphism] = {}

    def on_atlas(self, atlas: Atlas) -> TranslationGroupoid:
        if atlas not in self._groupoids:
            self._groupoids[atlas] = TranslationGroupoid(atlas)
        return self._groupoids[atlas]

    def on_system(self, system: CompatibleSystem) -> GroupoidMorphism:
        """Units map by the lifts; an arrow over the component with first legs
        (left, right) maps to the germ of (F(left), F(right)) at the lifted
        point, which the cube condition F(left) . lift = lift . left makes
        F(left) of the lifted triple point."""
        if system not in self._morphisms:

            def germ_of(c: ArrowComponent) -> AffineMap:
                legs = system.src.transport_table(c.s_component, c.t_component).legs[c.label[2]]
                return _transition(*map(system.on_embedding, legs))

            unit_maps = {cid: (system.theta[cid], system.lift(cid)) for cid in system.src.chart_ids()}
            self._morphisms[system] = GroupoidMorphism.of_germs(
                self.on_atlas(system.src), self.on_atlas(system.dst), unit_maps, germ_of
            )
        return self._morphisms[system]

    def on_cell(self, delta) -> GrpNatTrans:
        """u -> the germ of the delta component at the lifted point (the arrow
        of [identity, lifted point, delta component])."""
        f_src = self.on_system(delta.src_sys)

        def component(u: UnitPoint) -> Arrow:
            d = delta.component(u.component)
            s, lift = f_src.unit_maps[u.component]
            return f_src.dst.arrow_at(s, d.dst, d.map, lift(u.point))

        return GrpNatTrans(f_src, self.on_system(delta.dst_sys), component)


def check_functor_laws(fixture, samples: int = 100, seed: int = 0) -> Report:
    """Composition, identity, vertical and horizontal compatibility of the
    atlas-to-groupoid assignment, verified pointwise with exact arrow equality.

    fixture: object with atlases U, V, W; systems f1, f2, f3: U->V and
    g1, g2, g3: V->W; cells delta: f1=>f2, sigma: f2=>f3, eta: g1=>g2,
    mu: g2=>g3.
    """
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
    rng = random.Random(seed)
    group = chart.group
    labels = [(cid, cid, atlas.transport_table(cid, cid).exact(g, chart.ball)) for g in group]

    def to_triple(x: Point, g_index: int) -> Arrow:
        return Arrow(labels[g_index], x)

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


_COMPLETIONS = 5


def multiplication_well_defined_report(atlas: Atlas, products: int = 50, seed: int = 0) -> Report:
    """Re-verifies that the product class does not depend on the span
    completion: alternative spans come from translating the completed span by
    elements of its chart group, the first ``_COMPLETIONS`` of them."""
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
        variants = [
            Span(
                base_span.chart,
                h(base_span.point),
                *(Embedding(e.src, e.dst, e.map.compose(h.inverse())) for e in (base_span.left, base_span.right)),
            )
            for h in chart.group
        ]
        for span in variants[:_COMPLETIONS]:
            assert p.right.map.compose(span.left.map) == q.left.map.compose(span.right.map)
            assert span.left(span.point) == p.point and span.right(span.point) == q.point
            other = tg.multiply_triples(p, q, span=span)
            tested += 1
            if not tg.triples_equal(base, other):
                ok = False
    rep.add(f"all {tested} alternative completions give equal products", ok)
    return rep
