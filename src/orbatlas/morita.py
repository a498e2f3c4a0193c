"""Morita equivalence checking, atlas equivalence, refinements, pushforwards,
and the groupoid-to-atlas reconstruction with its round trip.

The Morita checker certifies the two conditions on finite evidence: essential
surjectivity on the declared witness points of every target component, and
bijectivity of the arrow map on sampled source/target unit fibers, which is the
finite shadow of the cartesian square condition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .atlas import (
    Atlas,
    Chart,
    Embedding,
    Span,
    WitnessSpan,
    _composable_reps,
    find_conjugator,
    identity_span,
    separation_radius,
    validate_chart,
    validate_embedding,
)
from .errors import (
    InvalidAtlasError,
    NotASubAtlasError,
    NotEquivalentError,
    UnsupportedPresentationError,
    WitnessInvalidError,
)
from .field import CycNum
from .geometry import (
    AffineMap,
    Ball,
    Point,
    ball_in_ball,
    balls_disjoint,
    balls_equal,
    fixed_point,
    map_ball,
    point_in_ball,
)
from .groupoids import (
    GroupoidMorphism,
    GroupoidPresentation,
    UnitPoint,
)
from .report import Report
from .sampling import random_point_in_ball
from .translation import TranslationGroupoid


# -- sub-atlas inclusions -------------------------------------------------------


def is_subatlas(sub: Atlas, full: Atlas) -> bool:
    for cid, chart in sub.charts.items():
        if cid not in full.charts:
            return False
        other = full.chart(cid)
        if not balls_equal(chart.ball, other.ball) or set(chart.group) != set(other.group):
            return False
    for key, e in sub.reps.items():
        if key not in full.reps or not full.in_family(e):
            return False
    return True


def subatlas_inclusion_morphism(sub: Atlas, full: Atlas) -> GroupoidMorphism:
    """Units include component-wise; an arrow keeps its point and its germ."""
    if not is_subatlas(sub, full):
        raise NotASubAtlasError("first atlas is not contained in the second")
    ident = AffineMap.identity(full.conductor, full.dim)
    unit_maps = {cid: (cid, ident) for cid in sub.chart_ids()}
    return GroupoidMorphism.of_germs(TranslationGroupoid(sub), TranslationGroupoid(full), unit_maps)


# -- the Morita checker ----------------------------------------------------------


@dataclass
class MoritaReport:
    condition_i: Report
    condition_ii: Report

    @property
    def verdict(self) -> bool:
        return self.condition_i.ok and self.condition_ii.ok

    def lines(self) -> list[str]:
        out = self.condition_i.lines()[:-1] + self.condition_ii.lines()[:-1]
        out.append(f"verdict: {'pass' if self.verdict else 'fail'}")
        return out


def check_morita(m: GroupoidMorphism, samples: int = 100, seed: int = 0) -> MoritaReport:
    """Essential surjectivity onto declared target witness points plus
    sampled-fiber bijectivity of the arrow map."""
    rng = random.Random(seed)
    src, dst = m.src, m.dst

    cond1 = Report("condition (i): essential surjectivity")
    affs = [m.unit_maps[comp.label][1].to_affine() for comp in src.unit_components() if comp.ball.dim]
    etale_ok = all(aff is not None and aff.is_invertible() for aff in affs)
    cond1.add("unit map is an invertible similarity per component", etale_ok)

    unreached = []
    for w in dst.unit_witness_points():
        if _hits_witness(m, w):
            continue
        unreached.append(w)
    cond1.add(
        "every target witness point is reached from the source",
        not unreached,
        f"unreached {unreached[:3]}" if unreached else "",
    )

    cond2 = Report("condition (ii): arrow fibers")
    ok_inj = ok_sur = True
    inj_detail = sur_detail = ""
    for k in range(samples):
        u1 = src.random_unit(rng)
        if k % 2 == 0:
            u2 = src.target(rng.choice(src.arrows_from(u1)))
        else:
            u2 = src.random_unit(rng)
        fiber_src = src.arrows_between(u1, u2)
        fiber_dst = dst.arrows_between(m.psi(u1), m.psi(u2))
        images = [m.Psi(a) for a in fiber_src]
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if dst.arrow_equal(images[i], images[j]):
                    ok_inj = False
                    inj_detail = f"two arrows {u1}->{u2} collapse"
        for b in fiber_dst:
            if not any(dst.arrow_equal(b, img) for img in images):
                ok_sur = False
                sur_detail = f"target arrow over {u1}->{u2} not hit"
    cond2.add("arrow map injective on sampled fibers", ok_inj, inj_detail)
    cond2.add("arrow map onto sampled fibers", ok_sur, sur_detail)
    return MoritaReport(cond1, cond2)


def _hits_witness(m: GroupoidMorphism, w: UnitPoint) -> bool:
    """Does some source unit point map to a point connected to the witness?

    The witness itself is tested first, with no arrow built; the arrows out of
    it are built only when that misses, only into the components the unit map
    reaches, and the search stops at the first target reached."""
    dst = m.dst
    image = {label for label, _ in m.unit_maps.values()}
    targets = (c.label for c in dst.unit_components() if c.label in image)
    return _reaches(m, w) or any(_reaches(m, dst.target(a)) for c in targets for a in dst.arrows_to(w, c))


def _reaches(m: GroupoidMorphism, z: UnitPoint) -> bool:
    """Is z the image of a source unit point under the unit map?"""
    for comp in m.src.unit_components():
        label, mp = m.unit_maps[comp.label]
        if label != z.component:
            continue
        if comp.ball.dim == 0:
            if mp(comp.ball.center) == z.point:
                return True
            continue
        aff = mp.to_affine()
        if aff is not None and aff.is_invertible() and point_in_ball(aff.inverse()(z.point), comp.ball):
            return True
    return False


# -- atlas equivalence -----------------------------------------------------------


def validate_witness(w: WitnessSpan, u1: Atlas, u2: Atlas) -> list[str]:
    problems = []
    chart_report = validate_chart(w.chart)
    if not chart_report.ok:
        problems.append(f"witness chart invalid: {chart_report.failures()}")
    for leg, atlas, side in ((w.left, u1, "first"), (w.right, u2, "second")):
        if leg.dst not in atlas.charts:
            problems.append(f"{side} leg targets unknown chart {leg.dst}")
            continue
        sub = validate_embedding(leg, w.chart, atlas.chart(leg.dst))
        problems.extend(f"{side} leg: {name}" for name, _ in sub.failures())
    return problems


def _covered(atlas: Atlas, cid: str, x: Point, leg: Embedding, chart: Chart) -> bool:
    """Is (cid, x) identified with a point in the image of the witness leg?"""
    z = atlas.locate(cid, x, leg.dst)
    if z is None:
        return False
    image = map_ball(leg.map, chart.ball)
    return any(point_in_ball(g(z), image) for g in atlas.chart(leg.dst).group)


def atlases_equivalent(u1: Atlas, u2: Atlas, witnesses) -> Report:
    """Valid two-legged spans at every declared witness point of both atlases."""
    rep = Report("atlas equivalence")
    if u1.dim != u2.dim:
        rep.add("same dimension", False, f"{u1.dim} vs {u2.dim}")
        return rep
    if not witnesses:
        rep.add("witnesses provided", False)
        return rep
    for k, w in enumerate(witnesses):
        problems = validate_witness(w, u1, u2)
        rep.add(f"witness {k} valid", not problems, "; ".join(problems))
    if not rep.ok:
        return rep
    for atlas, side in ((u1, 0), (u2, 1)):
        for cid in atlas.chart_ids():
            for x in atlas.witness_points(cid):
                covered = any(
                    _covered(atlas, cid, x, (w.left, w.right)[side], w.chart)
                    for w in witnesses
                )
                rep.add(
                    f"point of {cid} in atlas {side + 1} witnessed",
                    covered,
                    "" if covered else f"{x!r}",
                )
    return rep


# -- refinements -------------------------------------------------------------------


@dataclass
class RefinementData:
    """A set map on chart ids together with one embedding per chart."""

    chart_map: dict[str, str]
    embeddings: dict[str, AffineMap]


def is_refinement(u: Atlas, v: Atlas, gamma: RefinementData) -> Report:
    rep = Report("refinement")
    for cid in u.chart_ids():
        if cid not in gamma.chart_map or cid not in gamma.embeddings:
            rep.add(f"chart {cid} carried", False, "missing assignment")
            continue
        target = gamma.chart_map[cid]
        if target not in v.charts:
            rep.add(f"chart {cid} carried", False, f"unknown target {target}")
            continue
        e = Embedding(cid, target, gamma.embeddings[cid])
        sub = validate_embedding(e, u.chart(cid), v.chart(target))
        rep.add(f"chart {cid} embeds into {target}", sub.ok, "; ".join(n for n, _ in sub.failures()))
    return rep


@dataclass
class CommonRefinement:
    atlas: Atlas
    into_first: RefinementData
    into_second: RefinementData


def common_refinement(u1: Atlas, u2: Atlas, witnesses) -> CommonRefinement:
    """Atlas assembled from the witness charts, related to each other by exact
    transports of the first atlas: every pair of witness charts must be nested
    or disjoint in the underlying space."""
    return _refinement(u1, witnesses, atlases_equivalent(u1, u2, witnesses))


def _refinement(u1: Atlas, witnesses, eq: Report) -> CommonRefinement:
    """``common_refinement`` given the atlases' equivalence report eq: a
    failed report raises NotEquivalentError."""
    if not eq.ok:
        raise NotEquivalentError("; ".join(n for n, _ in eq.failures()))
    charts = []
    seen = set()
    for w in witnesses:
        if w.chart.cid in seen:
            raise WitnessInvalidError(f"duplicate witness chart id {w.chart.cid}")
        seen.add(w.chart.cid)
        charts.append(w.chart)
    reps: dict[tuple[str, str], Embedding] = {}
    for wa in witnesses:
        for wb in witnesses:
            if wa.chart.cid == wb.chart.cid:
                continue
            rel = _relate_witness_charts(u1, wa, wb)
            if rel is not None:
                reps.setdefault((wa.chart.cid, wb.chart.cid), rel)
    reps = _close_reps(charts, reps)

    span_witnesses = [identity_span(c) for c in charts]
    for (a, b), e in reps.items():
        span_witnesses.append(identity_span(next(c for c in charts if c.cid == a), e))
    atlas = Atlas(
        u1.conductor,
        u1.dim,
        charts,
        list(reps.values()),
        witnesses=span_witnesses,
        unit_points={c.cid: (c.ball.center,) for c in charts},
    )
    gamma1 = RefinementData(
        {w.chart.cid: w.left.dst for w in witnesses},
        {w.chart.cid: w.left.map for w in witnesses},
    )
    gamma2 = RefinementData(
        {w.chart.cid: w.right.dst for w in witnesses},
        {w.chart.cid: w.right.map for w in witnesses},
    )
    return CommonRefinement(atlas, gamma1, gamma2)


def _relate_witness_charts(u1: Atlas, wa: WitnessSpan, wb: WitnessSpan) -> Embedding | None:
    """Embedding chart_a -> chart_b when the first sits inside the second,
    through the transports of the anchoring atlas; None when exactly disjoint;
    error on partial overlap."""
    footprint = map_ball(wa.left.map, wa.chart.ball)
    for c in u1.transport_table(wa.left.dst, wb.left.dst).components:
        if balls_disjoint(c.ball, footprint):
            continue
        s = wb.left.map.inverse().compose(c.germ).compose(wa.left.map)
        image = map_ball(s, wa.chart.ball)
        if balls_disjoint(image, wb.chart.ball):
            continue
        if ball_in_ball(image, wb.chart.ball):
            e = Embedding(wa.chart.cid, wb.chart.cid, s)
            if not validate_embedding(e, wa.chart, wb.chart).ok:
                raise WitnessInvalidError(
                    f"transport of {wa.chart.cid} into {wb.chart.cid} is not an embedding"
                )
            return e
        if ball_in_ball(wb.chart.ball, image):
            return None  # recorded from the other side
        raise WitnessInvalidError(
            f"witness charts {wa.chart.cid}, {wb.chart.cid} partially overlap"
        )
    return None


def _close_reps(charts, reps: dict) -> dict:
    """Complete stored representatives under composition; composites that hit an
    existing pair must already be representable there."""
    groups = {c.cid: c for c in charts}
    changed = True
    reps = dict(reps)
    while changed:
        changed = False
        for a, _, c, e1, e2 in _composable_reps(reps):
            comp = e2.map.compose(e1.map)
            if (a, c) in reps:
                find_conjugator(groups[c], reps[(a, c)].map, comp)
            else:
                reps[(a, c)] = Embedding(a, c, comp)
                changed = True
    return reps


def union_atlas(base: Atlas, extra: Atlas, anchor: RefinementData) -> Atlas:
    """Base atlas enlarged by the charts of a refinement, anchored by its
    embeddings; the span search answers identifications through the anchors."""
    overlap = set(base.charts) & set(extra.charts)
    if overlap:
        raise NotASubAtlasError(f"chart id clash {sorted(overlap)}")
    charts = list(base.charts.values()) + list(extra.charts.values())
    reps = {**base.reps, **extra.reps}
    for cid in extra.chart_ids():
        target = anchor.chart_map[cid]
        reps[(cid, target)] = Embedding(cid, target, anchor.embeddings[cid])
    reps = _close_reps(charts, reps)

    witnesses = list(base.witnesses) + list(extra.witnesses)
    for cid in extra.chart_ids():
        witnesses.append(identity_span(extra.chart(cid), reps[(cid, anchor.chart_map[cid])]))
    unit_points = {**base.unit_points, **extra.unit_points}
    return Atlas(
        base.conductor,
        base.dim,
        charts,
        list(reps.values()),
        witnesses=witnesses,
        unit_points=unit_points,
    )


# -- the key-point demonstration ----------------------------------------------------


@dataclass
class MoritaChain:
    """Sub-atlas inclusions realizing the Morita equivalence of two equivalent
    presentations through their common refinement and the two union atlases."""

    refinement: CommonRefinement
    reports: dict[str, MoritaReport]

    @property
    def verdict(self) -> bool:
        return all(r.verdict for r in self.reports.values())


def morita_equivalence_chain(
    u1: Atlas, u2: Atlas, witnesses, samples: int = 60, seed: int = 0, *, _equivalence: Report | None = None
) -> MoritaChain:
    """F(u1) ~ F(refinement) ~ F(u2): each step is a sub-atlas inclusion into a
    union atlas, checked by the Morita conditions.  ``bijection_demo`` passes
    the ``atlases_equivalent`` report it has already made as _equivalence, so
    the witnesses are checked once per demo."""
    if _equivalence is None:
        _equivalence = atlases_equivalent(u1, u2, witnesses)
    ref = _refinement(u1, witnesses, _equivalence)
    union1 = union_atlas(u1, ref.atlas, ref.into_first)
    union2 = union_atlas(u2, ref.atlas, ref.into_second)
    steps = {
        "refinement into first union": (ref.atlas, union1),
        "first atlas into first union": (u1, union1),
        "refinement into second union": (ref.atlas, union2),
        "second atlas into second union": (u2, union2),
    }
    reports = {
        name: check_morita(subatlas_inclusion_morphism(sub, full), samples, seed)
        for name, (sub, full) in steps.items()
    }
    return MoritaChain(ref, reports)


# -- pushforward ---------------------------------------------------------------------


def pushforward_atlas(h: AffineMap, atlas: Atlas) -> Atlas:
    """The atlas transported along an invertible similarity h of the ambient
    space: chart ids stay, balls map by h, chart group elements and embeddings
    become h . g . h^(-1), witness and unit points move by h and witness legs
    are conjugated.  An h that is not invertible raises InvalidAtlasError; one
    of another dimension or conductor raises the geometry layer's errors."""
    if not h.is_invertible():
        raise InvalidAtlasError("pushforward along a map that is not invertible")
    unh = h.inverse()

    def moved(e: Embedding) -> Embedding:
        return Embedding(e.src, e.dst, h.compose(e.map).compose(unh))

    charts = [
        Chart(c.cid, map_ball(h, c.ball), tuple(h.compose(g).compose(unh) for g in c.group))
        for c in atlas.charts.values()
    ]
    return Atlas(
        atlas.conductor,
        atlas.dim,
        charts,
        [moved(e) for e in atlas.reps.values()],
        witnesses=[Span(w.chart, h(w.point), moved(w.left), moved(w.right)) for w in atlas.witnesses],
        unit_points={cid: tuple(h(p) for p in pts) for cid, pts in atlas.unit_points.items()},
    )


# -- reconstruction -------------------------------------------------------------------


@dataclass
class Reconstruction:
    atlas: Atlas
    anchors: dict[str, str] = field(default_factory=dict)  # new chart id -> unit component


def reconstruct_atlas(
    g: GroupoidPresentation, samples: int = 3, seed: int = 0
) -> Reconstruction:
    """Charts at finitely many sampled points: the chart group is the germ
    group of the isotropy arrows, and the domain is the ball of
    ``separation_radius`` (from r2 = 1/4, inside the unit component) that
    every other transport of the component into itself moves off itself; the
    charts are then shrunk until distinct charts are disjoint."""
    rng = random.Random(seed)
    chosen: list[UnitPoint] = []
    for comp in g.unit_components():
        candidates = [UnitPoint(comp.label, comp.ball.center)]
        candidates += [u for u in g.unit_witness_points() if u.component == comp.label]
        for _ in range(samples):
            candidates.append(
                UnitPoint(comp.label, random_point_in_ball(rng, comp.ball, g.conductor))
            )
        for u in candidates:
            if not any(g.arrows_between(u, v) for v in chosen):
                chosen.append(u)
    entries = []
    for idx, u in enumerate(chosen):
        comp = g.unit_component(u.component)
        germs = [g.local_bisection(a) for a in g.isotropy(u)]
        r2 = separation_radius(u.point, Fraction(1, 4), comp.ball, _self_maps(g, u.component))
        if r2 is None:
            raise UnsupportedPresentationError("separation radius search failed")
        entries.append([f"r{idx}", u, r2, tuple(germs)])
    # shrink until distinct charts are exactly disjoint in the underlying space
    for i in range(len(entries)):
        for j in range(len(entries)):
            if i == j:
                continue
            ui, uj = entries[i][1], entries[j][1]
            components = g.components_between(ui.component, uj.component)
            for _ in range(256):
                r2i, r2j = entries[i][2], entries[j][2]
                bi = Ball(ui.point, CycNum.rational(g.conductor, r2i))
                bj = Ball(uj.point, CycNum.rational(g.conductor, r2j))
                clash = False
                for c in components:
                    if balls_disjoint(bi, c.ball):
                        continue
                    if not balls_disjoint(map_ball(c.germ, bi), bj):
                        clash = True
                        break
                if not clash:
                    break
                entries[i][2] = r2i / 4
                entries[j][2] = r2j / 4
            else:
                raise UnsupportedPresentationError("disjointness search failed")
    charts = []
    anchors = {}
    unit_points = {}
    for cid, u, r2, germs in entries:
        charts.append(Chart(cid, Ball(u.point, CycNum.rational(g.conductor, r2)), tuple(germs)))
        anchors[cid] = u.component
        unit_points[cid] = (u.point,)

    atlas = Atlas(
        g.conductor,
        g.dim,
        charts,
        [],
        witnesses=[identity_span(c) for c in charts],
        unit_points=unit_points,
    )
    return Reconstruction(atlas, anchors)


def reconstruction_morita_morphism(
    g: GroupoidPresentation, recon: Reconstruction | None = None
) -> GroupoidMorphism:
    """Morphism from the translation groupoid of the reconstructed atlas back to
    the source: units by inclusion, an arrow to the arrow of g with its germ."""
    if recon is None:
        recon = reconstruct_atlas(g)
    ident = AffineMap.identity(g.conductor, g.dim)
    unit_maps = {cid: (recon.anchors[cid], ident) for cid in recon.atlas.chart_ids()}
    return GroupoidMorphism.of_germs(TranslationGroupoid(recon.atlas), g, unit_maps)


def _self_maps(g: GroupoidPresentation, c: str) -> list[AffineMap]:
    """The distinct germs of g.components_between(c, c), in first-occurrence
    order; for the translation groupoid of a valid atlas, the chart group of c."""
    return list(dict.fromkeys(comp.germ for comp in g.components_between(c, c)))


# -- invariants and the bijection demonstration ----------------------------------------


def isotropy_signature(g: GroupoidPresentation) -> tuple[int, tuple[int, ...]]:
    """Dimension plus the set of isotropy orders at component centers, declared
    witness points, and fixed points of the germs of the arrow components from
    each unit component to itself: a Morita invariant at the sampled points."""
    orders = set()
    probes: list[UnitPoint] = list(g.unit_witness_points())
    for comp in g.unit_components():
        for t in _self_maps(g, comp.label):
            p = fixed_point(t)
            if p is not None and point_in_ball(p, comp.ball):
                probes.append(UnitPoint(comp.label, p))
    for u in probes:
        orders.add(len(g.isotropy(u)))
    return (g.dim, tuple(sorted(orders)))


@dataclass
class BijectionVerdict:
    atlas_side: str
    groupoid_side: str
    chain: MoritaChain | None
    details: Report

    @property
    def agreement(self) -> bool:
        if self.groupoid_side == "not found at this bound":
            return False
        return self.atlas_side == self.groupoid_side

    @property
    def verdicts_agree(self) -> bool:
        """The two sides agree, or the atlas side has no verdict to compare."""
        return self.agreement or self.atlas_side == "not determined"


def bijection_demo(
    u1: Atlas, u2: Atlas, witnesses=None, samples: int = 40, seed: int = 0
) -> BijectionVerdict:
    """Compare the atlas-side verdict (witnessed equivalence, or an invariant
    obstruction) with the groupoid-side verdict (invariants, then a bounded
    Morita search through the common refinement)."""
    details = Report("bijection demo")
    sig1 = isotropy_signature(TranslationGroupoid(u1))
    sig2 = isotropy_signature(TranslationGroupoid(u2))
    details.add("computed invariants", True, f"{sig1} vs {sig2}")
    if witnesses:
        eq = atlases_equivalent(u1, u2, witnesses)
        atlas_side = "equivalent" if eq.ok else "inequivalent"
        details.extend(eq)
    else:
        atlas_side = "inequivalent" if sig1 != sig2 else "not determined"
        details.add("no witnesses supplied", True)
    chain = None
    groupoid_side = "inequivalent" if sig1 != sig2 else "not found at this bound"
    if sig1 == sig2 and atlas_side == "equivalent":
        # a witness the atlas side refused is already reported there
        try:
            chain = morita_equivalence_chain(u1, u2, witnesses, samples=samples, seed=seed, _equivalence=eq)
            if chain.verdict:
                groupoid_side = "equivalent"
        except WitnessInvalidError as exc:
            details.warn(str(exc))
    verdict = BijectionVerdict(atlas_side, groupoid_side, chain, details)
    details.add("verdicts agree", verdict.verdicts_agree, f"atlas: {atlas_side}; groupoid: {groupoid_side}")
    return verdict
