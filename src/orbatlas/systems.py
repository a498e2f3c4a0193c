"""Morphisms of atlases (compatible systems) and their 2-cells, with the
executable law suite of the resulting 2-category.

A compatible system is a functor on charts and stored embeddings plus one
lift per chart (an ``AffineMap`` when a similarity, else a ``PolyMap``); the
lift determines the functor on chart groups by solving lift . g = h . lift
for the unique target element h, and the cube condition ties the lifts to the
embedding assignment.  All conditions are identities of canonical maps, so
validation is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .atlas import Atlas, Embedding, _composable_reps, find_conjugator
from .errors import (
    AtlasMismatchError,
    BoundaryMismatchError,
    IllTypedError,
    NoConjugatorError,
    NotUniqueError,
)
from .field import CycNum, sign_real
from .geometry import AffineMap, PolyMap, ball_in_ball, map_ball, point_in_ball
from .report import Report
from .sampling import random_point_in_ball


class CompatibleSystem:
    """theta: chart assignment; assign: images of stored representatives;
    lifts: one AffineMap or PolyMap per source chart into its target chart."""

    def __init__(self, src: Atlas, dst: Atlas, theta, assign, lifts):
        self.src = src
        self.dst = dst
        self.theta = dict(theta)
        self.assign = dict(assign)
        self.lifts = dict(lifts)
        self._group_maps: dict[str, dict[AffineMap, AffineMap]] = {}

    def lift(self, cid: str) -> AffineMap | PolyMap:
        return self.lifts[cid]

    def group_map(self, cid: str) -> dict[AffineMap, AffineMap]:
        """g -> f(g) on the chart group, pinned by lift . g = f(g) . lift.

        The image h . lift is composed once for every target element h, and
        lift . g once for every source element g; f(g) is the one target
        element whose image is lift . g, looked up by that map."""
        cached = self._group_maps.get(cid)
        if cached is not None:
            return cached
        target = self.dst.chart(self.theta[cid])
        lift = self.lift(cid)
        images: dict = {}
        for h in target.group:
            images.setdefault(lift.then(h), []).append(h)
        table = {}
        for g in self.src.chart(cid).group:
            hits = images.get(lift.compose(g), ())
            if not hits:
                raise NoConjugatorError(
                    f"no target element tracks {g!r} through the lift of {cid}"
                )
            if len(hits) > 1:
                raise NotUniqueError(f"degenerate lift on {cid}: group image ambiguous")
            table[g] = hits[0]
        self._group_maps[cid] = table
        return table

    def on_embedding(self, e: Embedding) -> Embedding:
        """Functor on an arbitrary stored embedding, via the torsor
        decomposition e = h . representative."""
        ti, tj = self.theta[e.src], self.theta[e.dst]
        if e.src == e.dst:
            return Embedding(ti, tj, self.group_map(e.src)[e.map])
        rep = self.src.reps[(e.src, e.dst)]
        assigned = self.assign[(e.src, e.dst)]
        h = find_conjugator(self.src.chart(e.dst), rep.map, e.map)
        return Embedding(ti, tj, self.group_map(e.dst)[h].compose(assigned.map))


def identity_system(atlas: Atlas) -> CompatibleSystem:
    theta = {cid: cid for cid in atlas.chart_ids()}
    lifts = {cid: AffineMap.identity(atlas.conductor, atlas.dim) for cid in atlas.chart_ids()}
    return CompatibleSystem(atlas, atlas, theta, atlas.reps, lifts)


def compose_compatible(g: CompatibleSystem, f: CompatibleSystem) -> CompatibleSystem:
    """g after f: chart maps compose, lifts compose, embedding images compose."""
    if not _same_atlas(f.dst, g.src):
        raise AtlasMismatchError("middle atlases do not match")
    theta = {cid: g.theta[f.theta[cid]] for cid in f.src.chart_ids()}
    assign = {}
    for key, e in f.assign.items():
        assign[key] = g.on_embedding(e)
    lifts = {
        cid: g.lift(f.theta[cid]).compose(f.lift(cid)) for cid in f.src.chart_ids()
    }
    return CompatibleSystem(f.src, g.dst, theta, assign, lifts)


def systems_equal(a: CompatibleSystem, b: CompatibleSystem) -> bool:
    if not (_same_atlas(a.src, b.src) and _same_atlas(a.dst, b.dst)):
        return False
    if a.theta != b.theta or a.lifts.keys() != b.lifts.keys():
        return False
    if any(a.lifts[c] != b.lifts[c] for c in a.lifts):
        return False
    if a.assign.keys() != b.assign.keys():
        return False
    return all(a.assign[k].map == b.assign[k].map for k in a.assign)


def validate_compatible_system(
    f: CompatibleSystem, samples: int = 20, seed: int = 0
) -> Report:
    """Functoriality, the cube condition per stored embedding, group tracking
    per chart, and containment of the lifted ball images."""
    rng = random.Random(seed)
    rep = Report("compatible system")
    src, dst = f.src, f.dst
    rep.add(
        "chart assignment total",
        set(f.theta.keys()) == set(src.chart_ids())
        and all(t in dst.charts for t in f.theta.values()),
    )
    for cid in src.chart_ids():
        if f.theta.get(cid) not in dst.charts:
            rep.add(f"chart {cid} assigned to a target chart", False)
            continue
        lift = f.lift(cid)
        ok_dims = lift.dim_in == src.dim and lift.dim_out == dst.dim
        rep.add(f"lift of {cid} has the right dimensions", ok_dims)
        if not ok_dims:
            continue
        target = dst.chart(f.theta[cid])
        pts = [src.chart(cid).ball.center] + [
            random_point_in_ball(rng, src.chart(cid).ball, src.conductor)
            for _ in range(samples)
        ]
        inside = all(point_in_ball(lift(p), target.ball) for p in pts)
        rep.add(f"lift of {cid} maps witness points into the target ball", inside)
        aff = lift.to_affine()
        if aff is not None:
            if not ball_in_ball(map_ball(aff, src.chart(cid).ball), target.ball):
                rep.warn(f"affine lift of {cid}: image ball not contained in the target")
        elif not _poly_ball_sufficient(lift, src.chart(cid).ball, target.ball):
            rep.warn(f"lift of {cid}: coefficient-norm containment bound not met")
        try:
            f.group_map(cid)
            rep.add(f"group of {cid} tracked through the lift", True)
        except (NoConjugatorError, NotUniqueError) as exc:
            rep.add(f"group of {cid} tracked through the lift", False, str(exc))
    rep.add(
        "embedding assignment covers the stored representatives",
        set(f.assign.keys()) == set(src.reps.keys()),
    )
    for key, e in f.assign.items():
        i, j = key
        ti, tj = f.theta[i], f.theta[j]
        ok = e.src == ti and e.dst == tj and dst.in_family(e)
        rep.add(f"image of representative {i}->{j} is a stored target embedding", ok)
        if not ok:
            continue
        # cube condition: lift_j . rep = image . lift_i
        lhs = f.lift(j).compose(src.reps[key].map)
        rhs = f.lift(i).then(e.map)
        rep.add(f"cube condition on {i}->{j}", lhs == rhs)
    # functoriality on composable representative pairs
    ok_func = True
    detail = ""
    for a, b, c, e1, e2 in _composable_reps(src.reps):
        comp = Embedding(a, c, e2.map.compose(e1.map))
        try:
            lhs = f.on_embedding(comp)
        except (NoConjugatorError, KeyError):
            ok_func, detail = False, f"composite {a}->{c} has no image"
            continue
        rhs = f.on_embedding(e2).map.compose(f.on_embedding(e1).map)
        if lhs.map != rhs:
            ok_func, detail = False, f"functoriality fails on {a}->{b}->{c}"
    rep.add("functoriality on composites", ok_func, detail)
    return rep


def _poly_ball_sufficient(lift: PolyMap, src_ball, dst_ball) -> bool:
    """Conservative coefficient-norm condition for lift(src ball) inside the
    target ball; |t| is overestimated by (1 + |t|^2)/2 to stay in the real
    subfield, so a failure only downgrades to a warning."""
    m = lift.m
    half = Fraction(1, 2)
    zero = CycNum.rational(m, 0)

    def mag_bound(x: CycNum) -> CycNum:  # scalar overestimate of |x|
        return (1 + x * x.conj()) * half

    radius = (1 + src_ball.r2) * half  # >= r exactly
    betas = [mag_bound(c) + radius for c in src_ball.center.coords]
    zero_exp = (0,) * lift.dim_in
    total = zero
    for i, poly in enumerate(lift.coords):
        const = poly.get(zero_exp, zero) - dst_ball.center.coords[i]
        total = total + mag_bound(const)
        for exps, c in poly.items():
            if exps == zero_exp:
                continue
            term = mag_bound(c)
            for b, e in zip(betas, exps):
                for _ in range(e):
                    term = term * b
            total = total + term
    return sign_real(dst_ball.r2 - total * total) >= 0


@dataclass
class OrbNatTrans:
    """2-cell between compatible systems: one target embedding per source chart."""

    src_sys: CompatibleSystem
    dst_sys: CompatibleSystem
    components: dict[str, Embedding]

    def component(self, cid: str) -> Embedding:
        return self.components[cid]


def identity_cell(f: CompatibleSystem) -> OrbNatTrans:
    comps = {
        cid: f.dst.identity_embedding(f.theta[cid]) for cid in f.src.chart_ids()
    }
    return OrbNatTrans(f, f, comps)


def validate_orb_nat_trans(delta: OrbNatTrans) -> Report:
    """Exact checks: lift intertwining per chart, and naturality against every
    stored embedding and every chart group element."""
    rep = Report("atlas 2-cell")
    f1, f2 = delta.src_sys, delta.dst_sys
    if not (_same_atlas(f1.src, f2.src) and _same_atlas(f1.dst, f2.dst)):
        rep.add("systems share source and target atlases", False)
        return rep
    src, dst = f1.src, f1.dst
    rep.add("one component per chart", set(delta.components.keys()) == set(src.chart_ids()))
    for cid in src.chart_ids():
        comp = delta.components.get(cid)
        if comp is None:
            continue
        ok_typ = comp.src == f1.theta[cid] and comp.dst == f2.theta[cid] and dst.in_family(comp)
        rep.add(f"component at {cid} is a stored target embedding", ok_typ)
        if not ok_typ:
            continue
        rep.add(
            f"second lift of {cid} factors as component . first lift",
            f2.lift(cid) == f1.lift(cid).then(comp.map),
        )
        # naturality against the chart group as self-embeddings
        ok_group = True
        gm1, gm2 = f1.group_map(cid), f2.group_map(cid)
        for g in src.chart(cid).group:
            if gm2[g].compose(comp.map) != comp.map.compose(gm1[g]):
                ok_group = False
        rep.add(f"naturality against the group of {cid}", ok_group)
    for key, e in src.reps.items():
        i, j = key
        ci, cj = delta.components.get(i), delta.components.get(j)
        if ci is None or cj is None:
            continue
        lhs = f2.on_embedding(e).map.compose(ci.map)
        rhs = cj.map.compose(f1.on_embedding(e).map)
        rep.add(f"naturality square for {i}->{j}", lhs == rhs)
    return rep


def _same_atlas(a: Atlas, b: Atlas) -> bool:
    """One atlas object, or two whose stored data are equal."""
    return a is b or all(
        getattr(a, k) == getattr(b, k)
        for k in ("conductor", "dim", "charts", "reps", "witnesses", "unit_points")
    )


def cells_equal(a: OrbNatTrans, b: OrbNatTrans) -> bool:
    return (
        systems_equal(a.src_sys, b.src_sys)
        and systems_equal(a.dst_sys, b.dst_sys)
        and a.components.keys() == b.components.keys()
        and all(a.components[c].map == b.components[c].map for c in a.components)
    )


def vcomp_orb(sigma: OrbNatTrans, delta: OrbNatTrans) -> OrbNatTrans:
    """(sigma . delta)_U = sigma_U after delta_U, componentwise."""
    if not systems_equal(sigma.src_sys, delta.dst_sys):
        raise BoundaryMismatchError("vertical composition boundary mismatch")
    dst = delta.src_sys.dst
    comps = {}
    for cid, d in delta.components.items():
        s = sigma.components[cid]
        comps[cid] = _family_member(dst, d.src, s.dst, s.map.compose(d.map))
    return OrbNatTrans(delta.src_sys, sigma.dst_sys, comps)


def hcomp_orb(eta: OrbNatTrans, delta: OrbNatTrans) -> OrbNatTrans:
    """(eta * delta)_U = eta at the second image chart, after g1 of delta's
    component."""
    f1 = delta.src_sys
    g1 = eta.src_sys
    if not _same_atlas(f1.dst, g1.src):
        raise BoundaryMismatchError("horizontal composition boundary mismatch")
    comps = {}
    for cid in f1.src.chart_ids():
        v2 = delta.dst_sys.theta[cid]
        part1 = g1.on_embedding(delta.components[cid])
        part2 = eta.components[v2]
        comps[cid] = _family_member(
            g1.dst, part1.src, part2.dst, part2.map.compose(part1.map)
        )
    return OrbNatTrans(
        compose_compatible(g1, f1), compose_compatible(eta.dst_sys, delta.dst_sys), comps
    )


def _family_member(atlas: Atlas, src: str, dst: str, mp: AffineMap) -> Embedding:
    e = Embedding(src, dst, mp)
    if not atlas.in_family(e):
        raise IllTypedError(f"composite 2-cell component {src}->{dst} not representable")
    return e


# -- law suite ------------------------------------------------------------------


@dataclass
class LawFixture:
    """A 3x3 pasting diagram: systems f1,f2,f3: U->V and g1,g2,g3: V->W with
    cells delta: f1=>f2, sigma: f2=>f3, eta: g1=>g2, mu: g2=>g3, plus one more
    system h1: W->Z for the threefold associativity check."""

    U: Atlas
    V: Atlas
    W: Atlas
    f1: CompatibleSystem
    f2: CompatibleSystem
    f3: CompatibleSystem
    g1: CompatibleSystem
    g2: CompatibleSystem
    g3: CompatibleSystem
    delta: OrbNatTrans
    sigma: OrbNatTrans
    eta: OrbNatTrans
    mu: OrbNatTrans
    h1: CompatibleSystem


def check_2cat_laws(fx: LawFixture) -> Report:
    """Associativity and unit laws in both directions plus the interchange law,
    all decided by canonical-form equality of the composites."""
    rep = Report("2-category laws")
    for cell, name in (
        (fx.delta, "delta"),
        (fx.sigma, "sigma"),
        (fx.eta, "eta"),
        (fx.mu, "mu"),
    ):
        sub = validate_orb_nat_trans(cell)
        rep.add(f"cell {name} valid", sub.ok, "; ".join(n for n, _ in sub.failures()))
    if not rep.ok:
        return rep

    gf = compose_compatible(fx.g1, fx.f1)
    rep.add(
        "composition of systems associative",
        systems_equal(
            compose_compatible(fx.h1, compose_compatible(fx.g1, fx.f1)),
            compose_compatible(compose_compatible(fx.h1, fx.g1), fx.f1),
        ),
    )
    rep.add(
        "identity systems are units",
        systems_equal(compose_compatible(fx.f1, identity_system(fx.U)), fx.f1)
        and systems_equal(compose_compatible(identity_system(fx.V), fx.f1), fx.f1),
    )
    rep.add(
        "vertical composition associative",
        cells_equal(
            vcomp_orb(fx.sigma, vcomp_orb(identity_cell(fx.f2), fx.delta)),
            vcomp_orb(vcomp_orb(fx.sigma, identity_cell(fx.f2)), fx.delta),
        ),
    )
    rep.add(
        "identity cells are vertical units",
        cells_equal(vcomp_orb(fx.delta, identity_cell(fx.f1)), fx.delta)
        and cells_equal(vcomp_orb(identity_cell(fx.f2), fx.delta), fx.delta),
    )
    idU = identity_cell(identity_system(fx.U))
    idV = identity_cell(identity_system(fx.V))
    rep.add(
        "identity 2-cells are horizontal units",
        cells_equal(hcomp_orb(fx.delta, idU), fx.delta)
        and cells_equal(hcomp_orb(idV, fx.delta), fx.delta),
    )
    ih1 = identity_cell(fx.h1)
    rep.add(
        "horizontal composition associative",
        cells_equal(
            hcomp_orb(hcomp_orb(ih1, fx.eta), fx.delta),
            hcomp_orb(ih1, hcomp_orb(fx.eta, fx.delta)),
        ),
    )
    rep.add(
        "horizontal composition of identities",
        cells_equal(
            hcomp_orb(identity_cell(fx.g1), identity_cell(fx.f1)), identity_cell(gf)
        ),
    )
    lhs = vcomp_orb(hcomp_orb(fx.mu, fx.sigma), hcomp_orb(fx.eta, fx.delta))
    rhs = hcomp_orb(vcomp_orb(fx.mu, fx.eta), vcomp_orb(fx.sigma, fx.delta))
    rep.add("interchange law", cells_equal(lhs, rhs))
    return rep


# -- rotation fixtures over gallery atlases ---------------------------------------


def rotation_system(atlas: Atlas, powers: dict[str, int]) -> CompatibleSystem:
    """Endosystem rotating each chart by an element of its own group.

    powers[cid] is an exponent of zeta_m; it must land the rotation inside the
    chart group (so trivial-group charts take exponent 0), which makes every
    embedding image representable and the cube conditions hold."""
    m = atlas.conductor
    rots = {
        cid: AffineMap.scaling(m, atlas.dim, _zeta_power(atlas, powers.get(cid, 0)))
        for cid in atlas.chart_ids()
    }
    theta = {cid: cid for cid in atlas.chart_ids()}
    assign = {}
    for key, e in atlas.reps.items():
        assign[key] = Embedding(
            e.src, e.dst, rots[e.dst].compose(e.map).compose(rots[e.src].inverse())
        )
    return CompatibleSystem(atlas, atlas, theta, assign, rots)


def _zeta_power(atlas: Atlas, power: int):
    if atlas.dim == 0:
        return CycNum.rational(atlas.conductor, 1)
    return CycNum.zeta(atlas.conductor, 1) ** power


def chart_rotation_steps(atlas: Atlas) -> dict[str, int]:
    """Smallest zeta exponent allowed per chart: m / |G| for the scalar cyclic
    gallery groups (trivial groups admit only the full turn)."""
    return {
        cid: atlas.conductor // len(atlas.chart(cid).group)
        for cid in atlas.chart_ids()
    }


def random_rotation_powers(atlas: Atlas, rng) -> dict[str, int]:
    steps = chart_rotation_steps(atlas)
    return {
        cid: steps[cid] * rng.randrange(0, max(1, atlas.conductor // steps[cid]))
        for cid in atlas.chart_ids()
    }


def rotation_fixture(atlas: Atlas, rng) -> LawFixture:
    """Random law fixture of per-chart rotation systems and connecting cells."""
    pf = [random_rotation_powers(atlas, rng) for _ in range(3)]
    pg = [random_rotation_powers(atlas, rng) for _ in range(3)]
    f1, f2, f3 = (rotation_system(atlas, p) for p in pf)
    g1, g2, g3 = (rotation_system(atlas, p) for p in pg)
    h1 = rotation_system(atlas, random_rotation_powers(atlas, rng))

    def cell(src_sys, dst_sys, p_from, p_to):
        comps = {}
        for cid in atlas.chart_ids():
            rot = AffineMap.scaling(
                atlas.conductor,
                atlas.dim,
                _zeta_power(atlas, p_to.get(cid, 0) - p_from.get(cid, 0)),
            )
            comps[cid] = Embedding(cid, cid, rot)
        return OrbNatTrans(src_sys, dst_sys, comps)

    return LawFixture(
        atlas,
        atlas,
        atlas,
        f1,
        f2,
        f3,
        g1,
        g2,
        g3,
        cell(f1, f2, pf[0], pf[1]),
        cell(f2, f3, pf[1], pf[2]),
        cell(g1, g2, pg[0], pg[1]),
        cell(g2, g3, pg[1], pg[2]),
        h1,
    )
