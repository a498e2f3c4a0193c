"""Worked-example atlases: cones, footballs, teardrops, global quotients and
the one-point atlas, plus builders for equivalent presentation pairs.

All gallery data is exact; positions and radii are chosen so that distinct
gluing charts are disjoint in the underlying space, keeping every
identification answerable by the one-step span search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .atlas import Atlas, Chart, Embedding, Span, identity_span, restrict_chart
from .errors import UnsupportedParamsError
from .field import SUPPORTED_CONDUCTORS, CycNum
from .geometry import AffineMap, Ball, Point, balls_disjoint, map_ball

GALLERY_NAMES = ("cone", "football", "teardrop", "global_quotient", "point")


@dataclass(frozen=True)
class GalleryParams:
    name: str
    p: int = 1
    q: int = 1
    dim: int = 1
    radius2: Fraction = Fraction(1)
    conductor: int | None = None

    def rotation_orders(self) -> list[int]:
        if self.name == "football":
            return [self.p, self.q]
        if self.name in ("cone", "teardrop", "global_quotient"):
            return [self.p]
        return [1]


def _conductor_for(params: GalleryParams) -> int:
    orders = params.rotation_orders()
    if min(orders) < 1:
        raise UnsupportedParamsError(f"rotation order {min(orders)} is below 1")
    want = math.lcm(*orders)
    m = params.conductor if params.conductor is not None else want
    if m not in SUPPORTED_CONDUCTORS:
        raise UnsupportedParamsError(f"conductor {m} outside supported set")
    if m % want:
        raise UnsupportedParamsError(f"conductor {m} does not contain the rotation orders")
    return m


def rotation_group(m: int, dim: int, order: int) -> tuple[AffineMap, ...]:
    """Cyclic group generated by the scalar rotation zeta_order * Id."""
    if order < 1 or m % order:
        raise UnsupportedParamsError(f"order {order} does not divide conductor {m}")
    zeta = CycNum.zeta(m, m // order)
    return tuple(AffineMap.scaling(m, dim, zeta**k) for k in range(order))


def _generic_point(m: int, dim: int, scale=Fraction(1, 4)) -> Point:
    coords = [CycNum.rational(m, scale)] + [CycNum.rational(m, 0)] * (dim - 1)
    return Point(tuple(coords))


def cone(p: int, radius2=Fraction(1), conductor: int | None = None) -> Atlas:
    return gallery(GalleryParams("cone", p=p, radius2=Fraction(radius2), conductor=conductor))


def football(p: int, q: int, conductor: int | None = None, glue_radius2=Fraction(1, 64)) -> Atlas:
    params = GalleryParams("football", p=p, q=q, conductor=conductor)
    return _football(params, Fraction(glue_radius2))


def teardrop(p: int, conductor: int | None = None, glue_radius2=Fraction(1, 64)) -> Atlas:
    params = GalleryParams("teardrop", p=p, q=1, conductor=conductor)
    return _football(params, Fraction(glue_radius2), south_trivial=True)


def global_quotient(order: int, dim: int, conductor: int | None = None) -> Atlas:
    return gallery(GalleryParams("global_quotient", p=order, dim=dim, conductor=conductor))


def point_atlas() -> Atlas:
    return gallery(GalleryParams("point"))


def gallery(params: GalleryParams) -> Atlas:
    """Build the named gallery atlas; always validated by construction."""
    if params.name not in GALLERY_NAMES:
        raise UnsupportedParamsError(f"unknown gallery atlas {params.name!r}")
    m = _conductor_for(params)
    if params.name == "point":
        chart = Chart("pt", Ball(Point(()), CycNum.rational(m, 1)), (AffineMap((), Point(())),))
        return Atlas(m, 0, [chart], [], witnesses=[identity_span(chart)])
    if params.name in ("cone", "global_quotient"):
        dim = 1 if params.name == "cone" else params.dim
        if dim < 1:
            raise UnsupportedParamsError(f"dimension {dim} is below 1")
        if params.radius2 <= 0:
            raise UnsupportedParamsError(f"squared radius {params.radius2} is not positive")
        cid = f"{params.name}{params.p}" if params.name == "cone" else f"quot{params.p}d{dim}"
        chart = Chart(
            cid,
            Ball(Point.origin(m, dim), CycNum.rational(m, params.radius2)),
            rotation_group(m, dim, params.p),
        )
        unit_points = {cid: (_generic_point(m, dim, params.radius2 / 4),)}
        return Atlas(
            m,
            dim,
            [chart],
            [],
            witnesses=[identity_span(chart)],
            unit_points=unit_points,
        )
    if params.name == "football":
        return _football(params, Fraction(1, 64))
    return _football(params, Fraction(1, 64), south_trivial=True)


def _football(params: GalleryParams, glue_r2: Fraction, south_trivial: bool = False) -> Atlas:
    """Two unit-ball cone charts glued along a trivial-group chart.

    The gluing chart sits at 5/8 on the real axis of the north chart and is
    carried into the south chart by a contraction; its group translates in both
    charts are pairwise disjoint, which the builder verifies exactly.
    """
    m = _conductor_for(params)
    p, q = params.p, (1 if south_trivial else params.q)
    north = Chart("north", Ball(Point.origin(m, 1), CycNum.rational(m, 1)), rotation_group(m, 1, p))
    south = Chart("south", Ball(Point.origin(m, 1), CycNum.rational(m, 1)), rotation_group(m, 1, q))
    c = Fraction(5, 8)
    glue = Chart("glue", Ball(_generic_point(m, 1, c), CycNum.rational(m, glue_r2)), (AffineMap.identity(m, 1),))
    to_north = Embedding("glue", "north", AffineMap.identity(m, 1))
    # south coordinates: contract around 5/8 by 1/2
    half = AffineMap.scaling(m, 1, Fraction(1, 2))
    shift = Point.of(m, c - c / 2)
    to_south = Embedding("glue", "south", half.shift(shift))
    _check_glue_translates(north, glue.ball, to_north.map)
    _check_glue_translates(south, glue.ball, to_south.map)
    witnesses = [
        identity_span(north),
        identity_span(south),
        Span("glue", glue.ball.center, to_north, to_south),
        identity_span(glue, to_north),
        identity_span(glue, to_south),
    ]
    unit_points = {
        "north": (_generic_point(m, 1),),
        "south": (_generic_point(m, 1),),
        "glue": (),
    }
    return Atlas(
        m,
        1,
        [north, south, glue],
        [to_north, to_south],
        witnesses=witnesses,
        unit_points=unit_points,
    )


def _check_glue_translates(target: Chart, ball: Ball, emb: AffineMap) -> None:
    image = map_ball(emb, ball)
    for g in target.group:
        if g.is_identity():
            continue
        if not balls_disjoint(map_ball(g, image), image):
            raise UnsupportedParamsError(
                f"gluing chart translates overlap in {target.cid}; adjust radii"
            )


# -- equivalent presentation pairs --------------------------------------------


def cone_pair(p: int, r2_small=Fraction(9, 16), conductor: int | None = None):
    """Two presentations of the same cone with different chart radii, plus
    witness spans at the origin and at a generic point."""
    u1 = cone(p, radius2=Fraction(1), conductor=conductor)
    u2 = cone(p, radius2=Fraction(r2_small), conductor=conductor)
    m = u1.conductor
    c1 = next(iter(u1.charts))
    c2 = next(iter(u2.charts))
    origin_chart, _ = restrict_chart(u1.chart(c1), Point.origin(m, 1), r2_small / 4, cid="w0")
    generic_chart, _ = restrict_chart(u1.chart(c1), _generic_point(m, 1), Fraction(1, 256), cid="w1")
    ident = AffineMap.identity(m, 1)
    witnesses = [
        WitnessSpan(origin_chart, Embedding("w0", c1, ident), Embedding("w0", c2, ident)),
        WitnessSpan(generic_chart, Embedding("w1", c1, ident), Embedding("w1", c2, ident)),
    ]
    return u1, u2, witnesses


def teardrop_pair(p: int, conductor: int | None = None):
    """The same teardrop presented with two different gluing-chart radii."""
    u1 = teardrop(p, conductor=conductor, glue_radius2=Fraction(1, 64))
    u2 = teardrop(p, conductor=conductor, glue_radius2=Fraction(1, 256))
    m = u1.conductor
    ident = AffineMap.identity(m, 1)
    w_north, _ = restrict_chart(u1.chart("north"), Point.origin(m, 1), Fraction(1, 4), cid="wN")
    w_south, _ = restrict_chart(u1.chart("south"), Point.origin(m, 1), Fraction(1, 4), cid="wS")
    w_glue, _ = restrict_chart(u2.chart("glue"), u2.chart("glue").ball.center, Fraction(1, 1024), cid="wG")
    witnesses = [
        WitnessSpan(w_north, Embedding("wN", "north", ident), Embedding("wN", "north", ident)),
        WitnessSpan(w_south, Embedding("wS", "south", ident), Embedding("wS", "south", ident)),
        WitnessSpan(w_glue, Embedding("wG", "glue", ident), Embedding("wG", "glue", ident)),
    ]
    return u1, u2, witnesses


@dataclass(frozen=True)
class WitnessSpan:
    """A chart embedded into one chart of each of two atlases."""

    chart: Chart
    left: Embedding  # into a chart of the first atlas
    right: Embedding  # into a chart of the second atlas


def pushforward_pair(base: Atlas):
    """An atlas together with its pushforward along the similarity
    z -> zeta_m z / 2 + (1/3, 0, ..., 0), and one witness per chart: a
    restriction at the chart's centre, its left leg the identity into the
    chart and its right leg that similarity into the pushed chart."""
    from .morita import pushforward_atlas

    m, dim = base.conductor, base.dim
    shift = Point(tuple(CycNum.rational(m, Fraction(1, 3) if i == 0 else 0) for i in range(dim)))
    h = AffineMap.scaling(m, dim, CycNum.zeta(m) * Fraction(1, 2)).shift(shift)
    witnesses = []
    for k, cid in enumerate(base.chart_ids()):
        chart = base.chart(cid)
        sub, _ = restrict_chart(chart, chart.ball.center, Fraction(1, 4), cid=f"wp{k}")
        witnesses.append(
            WitnessSpan(sub, Embedding(sub.cid, cid, AffineMap.identity(m, dim)), Embedding(sub.cid, cid, h))
        )
    return base, pushforward_atlas(h, base), witnesses
