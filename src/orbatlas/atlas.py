"""Charts, embeddings and atlases, with the span machinery that identifies
points across charts.

A chart is an open ball together with a finite faithful group of exact
isometries preserving it.  Embeddings between charts are injective similarity
maps; for a stored representative lambda the full set of embeddings between two
charts is the finite torsor {h . lambda : h in the target group}, which is how
an atlas keeps "all possible embeddings" in finite storage.

Two chart points are identified exactly when some chart embeds into both charts
carrying one marked point to each.  ``Atlas.refine`` and ``Atlas.locate`` are
the one place that decides this: a search over ``Atlas.transports``, then the
spans recorded in the atlas's oracle record (``orbatlas.oracles``), if any.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidAtlasError,
    NoConjugatorError,
    NotUniqueError,
    OracleRefusedError,
    PointOutsideDomainError,
)
from .field import CycNum, sign_real
from .geometry import (
    AffineMap,
    Ball,
    Point,
    ball_in_ball,
    balls_disjoint,
    balls_equal,
    map_ball,
    point_in_ball,
)
from .oracles import Oracle
from .report import Report


@dataclass(frozen=True)
class Chart:
    """Uniformizing system: ball domain plus a finite group of exact isometries."""

    cid: str
    ball: Ball
    group: tuple[AffineMap, ...]

    @property
    def dim(self) -> int:
        return self.ball.dim

    def identity(self) -> AffineMap:
        for g in self.group:
            if g.is_identity():
                return g
        raise InvalidAtlasError(f"chart {self.cid} has no identity element")

    def __repr__(self):
        return f"Chart({self.cid!r}, |G|={len(self.group)})"


@dataclass(frozen=True)
class Embedding:
    """A similarity embedding of one chart into another."""

    src: str
    dst: str
    map: AffineMap

    def __call__(self, p: Point) -> Point:
        return self.map(p)

    def __repr__(self):
        return f"Embedding({self.src}->{self.dst})"


@dataclass(frozen=True)
class Span:
    """A chart embedded into two charts, with a marked point.

    left : chart -> i  and  right : chart -> j, with left(point) and
    right(point) the identified pair.  Used both as oracle answer and as a
    stored coverage witness.
    """

    chart: str
    point: Point
    left: Embedding
    right: Embedding


@dataclass(frozen=True)
class Transport:
    """The transition right . left^(-1) from chart left.dst to chart right.dst
    through a common chart k, defined on the image of k's ball under left."""

    k: str
    left: Embedding
    right: Embedding
    map: AffineMap
    domain: Ball


class Atlas:
    """A finite family of charts with stored representative embeddings, the
    oracle record of its document, coverage witnesses and declared unit witness
    points."""

    def __init__(
        self,
        conductor: int,
        dim: int,
        charts,
        reps,
        oracle: Oracle = Oracle(),
        witnesses=(),
        unit_points=None,
    ):
        self.conductor = conductor
        self.dim = dim
        self.charts: dict[str, Chart] = {}
        for c in sorted(charts, key=lambda c: c.cid):
            if c.cid in self.charts:
                raise InvalidAtlasError(f"duplicate chart id {c.cid!r}")
            self.charts[c.cid] = c
        self.reps: dict[tuple[str, str], Embedding] = {}
        for e in reps:
            key = (e.src, e.dst)
            if e.src == e.dst:
                raise InvalidAtlasError("self representatives are implicit (the chart group)")
            if key in self.reps:
                raise InvalidAtlasError(f"duplicate representative for {key}")
            self.reps[key] = e
        self.oracle = oracle
        self.witnesses: tuple[Span, ...] = tuple(witnesses)
        self.unit_points: dict[str, tuple[Point, ...]] = {
            cid: tuple((unit_points or {}).get(cid, ())) for cid in self.charts
        }
        self._family_cache: dict[tuple[str, str], tuple[Embedding, ...]] = {}
        self._position_cache: dict[tuple[str, str], dict[AffineMap, int]] = {}
        self._transport_cache: dict[tuple[str, str], tuple[Transport, ...]] = {}

    # -- chart and embedding enumeration ------------------------------------

    def chart_ids(self) -> list[str]:
        return list(self.charts)

    def chart(self, cid: str) -> Chart:
        return self.charts[cid]

    def identity_embedding(self, cid: str) -> Embedding:
        return Embedding(cid, cid, self.charts[cid].identity())

    def family(self, src: str, dst: str) -> tuple[Embedding, ...]:
        """All embeddings src -> dst: the target-group torsor over the stored
        representative, or the chart group itself when src == dst."""
        key = (src, dst)
        cached = self._family_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            fam = tuple(Embedding(src, dst, g) for g in self.charts[src].group)
        elif key in self.reps:
            rep = self.reps[key]
            fam = tuple(
                Embedding(src, dst, h.compose(rep.map)) for h in self.charts[dst].group
            )
        else:
            fam = ()
        self._family_cache[key] = fam
        return fam

    def transports(self, ca: str, cb: str) -> tuple[Transport, ...]:
        """Every transition from chart ca to chart cb: k in chart order, then
        the invertible left legs k -> ca, then the right legs k -> cb, both in
        family order.  The span search, the common refinement and the
        translation groupoid's reconstruction data all read this one table."""
        key = (ca, cb)
        cached = self._transport_cache.get(key)
        if cached is not None:
            return cached
        table = []
        for k, chart in self.charts.items():
            rights = self.family(k, cb)
            for left in self.family(k, ca):
                if not left.map.is_invertible():
                    continue
                inv = left.map.inverse()
                domain = map_ball(left.map, chart.ball)
                table.extend(
                    Transport(k, left, right, right.map.compose(inv), domain) for right in rights
                )
        out = self._transport_cache[key] = tuple(table)
        return out

    def family_from(self, src: str) -> list[Embedding]:
        out = []
        for dst in self.charts:
            out.extend(self.family(src, dst))
        return out

    def _family_positions(self, src: str, dst: str) -> dict[AffineMap, int]:
        """map -> first position of that map in family(src, dst)."""
        positions = self._position_cache.get((src, dst))
        if positions is None:
            positions = {}
            for k, f in enumerate(self.family(src, dst)):
                positions.setdefault(f.map, k)
            self._position_cache[(src, dst)] = positions
        return positions

    def in_family(self, e: Embedding) -> bool:
        return e.map in self._family_positions(e.src, e.dst)

    def family_index(self, e: Embedding) -> int:
        k = self._family_positions(e.src, e.dst).get(e.map)
        if k is None:
            raise InvalidAtlasError(f"{e!r} is not a stored embedding of the atlas")
        return k

    # -- identification -----------------------------------------------------

    def refine(self, ci: str, x: Point, cj: str, y: Point) -> Span | None:
        """A span identifying (ci, x) with (cj, y), or None.

        First the search: some transport from ci to cj defined at x carries it
        to y; for a valid atlas the stored families realize every
        identification in one step.  Then the recorded spans, either way
        round, possibly after moving the span point by a span-chart element.
        """
        left = None
        for t in self.transports(ci, cj):
            if t.left is not left:
                left, inside = t.left, point_in_ball(x, t.domain)
            if inside and t.map(x) == y:
                return Span(t.k, left.map.inverse()(x), left, t.right)
        for span in self.oracle.spans or ():
            for left, right in ((span.left, span.right), (span.right, span.left)):
                if left.dst != ci or right.dst != cj:
                    continue
                for g in self.charts[span.chart].group:
                    z = g(span.point)
                    if left(z) == x and right(z) == y:
                        return Span(span.chart, z, left, right)
        return None

    def locate(self, ci: str, x: Point, cj: str) -> Point | None:
        """Some point of chart cj identified with (ci, x), or None: the same
        search, then the recorded spans forwards, then backwards."""
        if ci == cj:
            return x
        left = None
        for t in self.transports(ci, cj):
            # the first transport of each left leg uses the first right leg
            if t.left is not left:
                left = t.left
                if point_in_ball(x, t.domain):
                    return t.map(x)
        spans = self.oracle.spans or ()
        legs = [(s, s.left, s.right) for s in spans] + [(s, s.right, s.left) for s in spans]
        for span, left, right in legs:
            if left.dst != ci or right.dst != cj:
                continue
            for g in self.charts[span.chart].group:
                z = g(span.point)
                if left(z) == x:
                    return right(z)
        return None

    def witness_points(self, cid: str) -> list[Point]:
        """Declared unit witness points of a chart, always including the center."""
        pts = [self.charts[cid].ball.center]
        for p in self.unit_points.get(cid, ()):
            if p not in pts:
                pts.append(p)
        return pts


# -- chart-level operations ---------------------------------------------------


def validate_chart(chart: Chart) -> Report:
    """Check the uniformizing-system invariants; report-valued."""
    rep = Report(f"chart {chart.cid}")
    g = chart.group
    rep.add("nonempty group", len(g) > 0)
    if not g:
        return rep
    dim = chart.dim
    rep.add("dimensions agree", all(x.dim == dim for x in g))
    if dim > 0:
        rep.add("positive radius", sign_real(chart.ball.r2) > 0)
    has_id = any(x.is_identity() for x in g)
    rep.add("contains identity", has_id)
    dup = [
        (i, j)
        for i in range(len(g))
        for j in range(i + 1, len(g))
        if g[i] == g[j]
    ]
    rep.add("faithful (no duplicate maps)", not dup, f"duplicates {dup}" if dup else "")
    for x in g:
        ok = balls_equal(map_ball(x, chart.ball), chart.ball)
        if not ok:
            rep.add("domain preserved", False, f"{x!r} does not map the ball onto itself")
            break
    else:
        rep.add("domain preserved", True)
    closed = True
    detail = ""
    for x in g:
        if not x.is_invertible() or not any(x.inverse() == y for y in g):
            closed, detail = False, "missing inverse"
            break
        for y in g:
            if not any(x.compose(y) == z for z in g):
                closed, detail = False, "missing composite"
                break
        if not closed:
            break
    rep.add("closed under composition and inverse", closed, detail)
    return rep


def stabilizer(chart: Chart, x: Point) -> list[AffineMap]:
    if not point_in_ball(x, chart.ball):
        raise PointOutsideDomainError(f"{x!r} outside chart {chart.cid}")
    return [g for g in chart.group if g(x) == x]


def has_trivial_stabilizer(chart: Chart, x: Point) -> bool:
    return len(stabilizer(chart, x)) == 1


def embedding_conditions(f: AffineMap, src: Chart, dst: Chart) -> tuple[bool, bool, list[AffineMap]]:
    """The three conditions for f to embed chart src into chart dst: f is
    injective, f carries src's ball inside dst's, and the elements g of src's
    group with no h in dst's group such that f . g = h . f (empty when f is
    equivariant)."""
    inside = ball_in_ball(map_ball(f, src.ball), dst.ball)
    missing = []
    for g in src.group:
        lhs = f.compose(g)
        if not any(h.compose(f) == lhs for h in dst.group):
            missing.append(g)
    return f.is_invertible(), inside, missing


def validate_embedding(e: Embedding, atlas: Atlas) -> Report:
    injective, inside, missing = embedding_conditions(e.map, atlas.chart(e.src), atlas.chart(e.dst))
    rep = Report(f"embedding {e.src}->{e.dst}")
    rep.add("injective", injective)
    rep.add("image inside target domain", inside)
    rep.add(
        "equivariance witness for every group element",
        not missing,
        f"no target element matches {[repr(g) for g in missing]}" if missing else "",
    )
    return rep


def find_conjugator(dst_chart: Chart, lam: AffineMap, mu: AffineMap) -> AffineMap:
    """The unique h in the target group with mu = h . lam."""
    found = [h for h in dst_chart.group if h.compose(lam) == mu]
    if not found:
        raise NoConjugatorError(
            f"no element of G_{dst_chart.cid} carries the first map to the second"
        )
    if len(found) > 1:
        raise NotUniqueError(f"{len(found)} conjugators found; chart is not reduced")
    return found[0]


def induced_homomorphism(e: Embedding, atlas: Atlas) -> dict[AffineMap, AffineMap]:
    """g -> the unique h with e.map . g = h . e.map, for every g in the source group."""
    src = atlas.chart(e.src)
    dst = atlas.chart(e.dst)
    table = {}
    for g in src.group:
        table[g] = find_conjugator(dst, e.map, e.map.compose(g))
    return table


def overlap_transport(e: Embedding, h: AffineMap, atlas: Atlas) -> AffineMap | None:
    """If h moves the image ball off itself return None (exact disjointness);
    otherwise return the unique source element g with e.map . g = h . e.map."""
    src = atlas.chart(e.src)
    image = map_ball(e.map, src.ball)
    if balls_disjoint(map_ball(h, image), image):
        return None
    for g in src.group:
        if e.map.compose(g) == h.compose(e.map):
            return g
    raise InvalidAtlasError(
        f"{h!r} meets the image of {e!r} but is not induced by the source group"
    )


def _short_hash(*parts: str) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:8]


def separation_radius(x: Point, r2: Fraction, container: Ball, maps) -> Fraction | None:
    """The first r2 / 4^k (k < 256) whose ball about x lies inside the
    container and is disjoint from its image under every map that moves x, or
    None.  Chart restriction and groupoid reconstruction both size their
    charts here."""
    m = container.r2.m
    moved = [g for g in maps if g(x) != x]
    for _ in range(256):
        ball = Ball(x, CycNum.rational(m, r2))
        if ball_in_ball(ball, container) and all(
            balls_disjoint(map_ball(g, ball), ball) for g in moved
        ):
            return r2
        r2 /= 4
    return None


def restrict_chart(
    chart: Chart, x: Point, r2: Fraction, cid: str | None = None
) -> tuple[Chart, Embedding]:
    """Sub-chart at x: the stabilizer acting on the ball of
    ``separation_radius`` (from r2, inside the chart ball), which every other
    group element moves off itself."""
    stab = stabilizer(chart, x)
    r2 = separation_radius(x, Fraction(r2), chart.ball, chart.group)
    if r2 is None:
        raise InvalidAtlasError("restriction radius search did not terminate")
    m = chart.ball.r2.m
    if cid is None:
        cid = f"{chart.cid}~{_short_hash(chart.cid, repr(x), str(r2))}"
    sub = Chart(cid, Ball(x, CycNum.rational(m, r2)), tuple(stab))
    inclusion = Embedding(cid, chart.cid, AffineMap.identity(m, chart.dim))
    return sub, inclusion


def identity_span(chart: Chart, right: Embedding | None = None) -> Span:
    """The witness span at the chart's centre whose left leg is the chart's
    identity embedding; the right leg is that identity too unless given."""
    ident = Embedding(chart.cid, chart.cid, chart.identity())
    return Span(chart.cid, chart.ball.center, ident, right or ident)


def common_span(
    atlas: Atlas, lam_nl: Embedding, x_n: Point, lam_pl: Embedding, x_p: Point
) -> Span:
    """Complete two embeddings into a common target, with marked points mapping
    to the same image, to a commuting square on maps and marked points.

    The oracle supplies a raw span identifying the points; a conjugator in the
    target group measures the failure of the square, and the unique stabilizer
    element of the marked point repairs it.
    """
    if lam_nl.dst != lam_pl.dst:
        raise OracleRefusedError("embeddings do not share a target chart")
    if lam_nl(x_n) != lam_pl(x_p):
        raise OracleRefusedError("marked points are not identified in the target")
    raw = atlas.refine(lam_nl.src, x_n, lam_pl.src, x_p)
    if raw is None:
        raise OracleRefusedError(
            f"oracle did not identify ({lam_nl.src}, {x_n!r}) with ({lam_pl.src}, {x_p!r})"
        )
    target = atlas.chart(lam_nl.dst)
    alpha = lam_nl.map.compose(raw.left.map)
    beta = lam_pl.map.compose(raw.right.map)
    g = find_conjugator(target, alpha, beta)
    if g.is_identity():
        left = raw.left
    else:
        span_chart = atlas.chart(raw.chart)
        fixed = None
        for h in stabilizer(span_chart, raw.point):
            if alpha.compose(h) == g.compose(alpha):
                fixed = h
                break
        if fixed is None:
            raise InvalidAtlasError("no stabilizer element repairs the span")
        left = Embedding(raw.left.src, raw.left.dst, raw.left.map.compose(fixed))
    span = Span(raw.chart, raw.point, left, raw.right)
    # postcondition: both squares commute on maps and on marked points
    if lam_nl.map.compose(span.left.map) != lam_pl.map.compose(span.right.map):
        raise InvalidAtlasError("span square does not commute")
    if span.left(span.point) != x_n or span.right(span.point) != x_p:
        raise InvalidAtlasError("span does not hit the marked points")
    return span


def validate_span(atlas: Atlas, span: Span) -> Report:
    rep = Report(f"span at {span.chart}")
    if span.chart not in atlas.charts:
        rep.add("span chart in atlas", False, span.chart)
        return rep
    chart = atlas.chart(span.chart)
    rep.add("marked point in domain", point_in_ball(span.point, chart.ball))
    for leg in (span.left, span.right):
        if leg.src != span.chart:
            rep.add("leg source is span chart", False, repr(leg))
            continue
        rep.add(f"leg to {leg.dst} stored in the atlas", atlas.in_family(leg))
        if leg.dst not in atlas.charts:
            continue
        sub = validate_embedding(leg, atlas)
        rep.add(f"leg to {leg.dst} valid", sub.ok, "; ".join(n for n, _ in sub.failures()))
    return rep


def validate_atlas(atlas: Atlas, samples: int = 20, rng=None) -> Report:
    """Full structural validation: charts, stored embeddings, closure of the
    embedding family under composition, witnesses, and oracle determinism."""
    import random

    rng = rng or random.Random(0)
    rep = Report("atlas")
    rep.add("has charts", bool(atlas.charts))
    dims = {c.dim for c in atlas.charts.values()}
    rep.add("single dimension", dims == {atlas.dim}, f"dims {dims}")
    for chart in atlas.charts.values():
        sub = validate_chart(chart)
        rep.add(f"chart {chart.cid}", sub.ok, "; ".join(n for n, _ in sub.failures()))
    for (src, dst), e in atlas.reps.items():
        if src not in atlas.charts or dst not in atlas.charts:
            rep.add(f"representative {src}->{dst} endpoints exist", False)
            continue
        sub = validate_embedding(e, atlas)
        rep.add(f"representative {src}->{dst}", sub.ok, "; ".join(n for n, _ in sub.failures()))
    # closure: composites of stored representatives stay representable
    closure_ok = True
    detail = ""
    for (a, b), e1 in atlas.reps.items():
        for (b2, c), e2 in atlas.reps.items():
            if b2 != b or a == c:
                continue
            comp = e2.map.compose(e1.map)
            if (a, c) not in atlas.reps:
                closure_ok, detail = False, f"no representative for {a}->{c}"
                break
            try:
                find_conjugator(atlas.chart(c), atlas.reps[(a, c)].map, comp)
            except (NoConjugatorError, NotUniqueError):
                closure_ok, detail = False, f"composite {a}->{b}->{c} not representable"
                break
        if not closure_ok:
            break
    rep.add("embedding family closed under composition", closure_ok, detail)
    for w in atlas.witnesses:
        sub = validate_span(atlas, w)
        rep.add(
            f"witness {w.left.dst}|{w.right.dst} via {w.chart}",
            sub.ok,
            "; ".join(n for n, _ in sub.failures()),
        )
    for cid, pts in atlas.unit_points.items():
        rep.add(
            f"unit witness points of {cid} in domain",
            all(point_in_ball(p, atlas.chart(cid).ball) for p in pts),
        )
    # oracle determinism and span validity on witnessed and random queries
    queries = [(w.left.dst, w.left(w.point), w.right.dst, w.right(w.point)) for w in atlas.witnesses]
    for cid in atlas.chart_ids():
        for p in atlas.witness_points(cid):
            queries.append((cid, p, cid, p))
    det_ok = True
    span_ok = True
    for ci, x, cj, y in queries[: max(samples, len(queries))]:
        first = atlas.refine(ci, x, cj, y)
        second = atlas.refine(ci, x, cj, y)
        if (first is None) != (second is None):
            det_ok = False
        elif first is not None and (
            first.chart != second.chart
            or first.point != second.point
            or first.left.map != second.left.map
            or first.right.map != second.right.map
        ):
            det_ok = False
        if first is None:
            span_ok = False
        elif not validate_span(atlas, first).ok:
            span_ok = False
    rep.add("oracle deterministic", det_ok)
    rep.add("oracle spans valid", span_ok)
    return rep
