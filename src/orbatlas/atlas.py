"""Charts, embeddings and atlases, with the span machinery that identifies
points across charts.

A chart is an open ball together with a finite faithful group of exact
isometries preserving it.  Embeddings between charts are injective similarity
maps; for a stored representative lambda the full set of embeddings between two
charts is the finite torsor {h . lambda : h in the target group}, which is how
an atlas keeps "all possible embeddings" in finite storage.

Two chart points are identified exactly when some chart embeds into both charts
carrying one marked point to each, that is, when an arrow of the translation
groupoid joins them.  The chart pair's transport table (``TransportTable``)
lists those arrows once, as ``ArrowComponent``s: each distinct transition
right . left^(-1) through a common chart on the image of its left leg.  One
walk over the list (``TransportTable.first``) answers ``Atlas.refine``,
``Atlas.locate`` and the groupoid's ``arrows_to``; an arrow known by its germ
at a point, or exactly by its germ and ball, is looked up by germ.  Two
embeddings into one chart are completed to a commuting square
(``common_span``) by searching the stored legs out of the chart of the span
``Atlas.refine`` finds.  The stored charts and embeddings are an atlas's only
identification data: a witness span must have stored legs, and nothing else
is recorded.
"""

from __future__ import annotations

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
        ident = AffineMap.identity(self.ball.r2.m, self.dim)
        if ident not in self.group:
            raise InvalidAtlasError(f"chart {self.cid} has no identity element")
        return ident

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
    right(point) the identified pair.  ``Atlas.refine`` answers with one, an
    atlas stores its coverage witnesses as spans of stored embeddings, and the
    translation groupoid takes one as the triple (left, point, right) of an
    arrow.
    """

    chart: str
    point: Point
    left: Embedding
    right: Embedding


@dataclass(frozen=True)
class ArrowComponent:
    """One labeled piece of a groupoid's arrow space: a ball of the source unit
    component and the similarity germ carrying it into the target one.  The
    arrow over the component at x has source (s_component, x) and target
    (t_component, germ(x))."""

    label: object
    ball: Ball
    germ: AffineMap
    s_component: str
    t_component: str


@dataclass(frozen=True)
class WitnessSpan:
    """A chart embedded into one chart of each of two atlases: the evidence
    ``atlases_equivalent`` reads at a declared witness point."""

    chart: Chart
    left: Embedding  # into a chart of the first atlas
    right: Embedding  # into a chart of the second atlas


class Atlas:
    """A finite family of charts with stored representative embeddings,
    coverage witnesses and declared unit witness points."""

    def __init__(self, conductor: int, dim: int, charts, reps, witnesses=(), unit_points=None):
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
        self.witnesses: tuple[Span, ...] = tuple(witnesses)
        self.unit_points: dict[str, tuple[Point, ...]] = {
            cid: tuple((unit_points or {}).get(cid, ())) for cid in self.charts
        }
        self._family_cache: dict[tuple[str, str], tuple[Embedding, ...]] = {}
        self._member_cache: dict[tuple[str, str], frozenset[AffineMap]] = {}
        self._transport_cache: dict[tuple[str, str], TransportTable] = {}
        self._swap_cache: dict[tuple[str, str, int], int] = {}
        self._translate_cache: dict[tuple[str, str, int], tuple[int, ...]] = {}

    # -- chart and embedding enumeration ------------------------------------

    def chart_ids(self) -> list[str]:
        return list(self.charts)

    def chart(self, cid: str) -> Chart:
        return self.charts[cid]

    def identity_embedding(self, cid: str) -> Embedding:
        return Embedding(cid, cid, self.charts[cid].identity())

    def family(self, src: str, dst: str) -> tuple[Embedding, ...]:
        """All embeddings src -> dst: the target-group torsor over the stored
        representative, or the chart group itself when src == dst.  Cached
        per chart pair; an id outside the atlas has the empty family and
        leaves no cache entry."""
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
        if src in self.charts and dst in self.charts:
            self._family_cache[key] = fam
        return fam

    def transport_table(self, ca: str, cb: str) -> TransportTable:
        """The transport table from chart ca to chart cb, built on first use
        and cached per chart pair; the empty table of an id outside the atlas
        is built afresh on each call, so unknown ids leave no cache entry."""
        table = self._transport_cache.get((ca, cb))
        if table is None:
            table = TransportTable(self, ca, cb)
            if ca in self.charts and cb in self.charts:
                self._transport_cache[(ca, cb)] = table
        return table

    def swapped(self, ca: str, cb: str, i: int) -> int:
        """The index, in ``transport_table(cb, ca)``, of the inverse of
        component i of ``transport_table(ca, cb)``: the inverse germ on
        germ(ball), which is the image of the component's right leg; memoized
        per component."""
        if (ca, cb, i) not in self._swap_cache:
            c = self.transport_table(ca, cb).components[i]
            if not c.germ.is_invertible():
                raise InvalidAtlasError(f"the germ of transport component {(ca, cb, i)} is not invertible")
            back = self.transport_table(cb, ca)
            self._swap_cache[(ca, cb, i)] = back.exact(c.germ.inverse(), map_ball(c.germ, c.ball))
        return self._swap_cache[(ca, cb, i)]

    def translates(self, ca: str, cb: str, i: int) -> tuple[int, ...]:
        """For each h of cb's group, in group order, the index of the
        component (h . germ, ball) of component i of ``transport_table(ca,
        cb)``; memoized per component."""
        if (ca, cb, i) not in self._translate_cache:
            table = self.transport_table(ca, cb)
            c = table.components[i]
            self._translate_cache[(ca, cb, i)] = tuple(
                table.exact(h.compose(c.germ), c.ball) for h in self.charts[cb].group
            )
        return self._translate_cache[(ca, cb, i)]

    def in_family(self, e: Embedding) -> bool:
        key = (e.src, e.dst)
        members = self._member_cache.get(key)
        if members is None:
            members = frozenset(f.map for f in self.family(*key))
            if e.src in self.charts and e.dst in self.charts:
                self._member_cache[key] = members
        return e.map in members

    # -- identification -----------------------------------------------------

    def refine(self, ci: str, x: Point, cj: str, y: Point) -> Span | None:
        """A span identifying (ci, x) with (cj, y), or None: the first leg
        pair of the first component of ``transport_table(ci, cj)`` whose ball
        holds x and whose germ carries x to y.  For a valid atlas the stored
        families realize every identification in one step, so this is the
        whole search; the answer depends only on the stored charts and
        embeddings."""
        table = self.transport_table(ci, cj)
        i = table.first(x, y)
        if i is None:
            return None
        left, right = table.legs[i]
        return Span(left.src, left.map.inverse()(x), left, right)

    def locate(self, ci: str, x: Point, cj: str) -> Point | None:
        """Some point of chart cj identified with (ci, x), or None: x itself
        when ci == cj, else the image of x under the first component of
        ``transport_table(ci, cj)`` whose ball holds x."""
        if ci == cj:
            return x
        table = self.transport_table(ci, cj)
        i = table.first(x)
        return None if i is None else table.components[i].germ(x)

    def witness_points(self, cid: str) -> list[Point]:
        """Declared unit witness points of a chart, always including the center."""
        pts = [self.charts[cid].ball.center]
        for p in self.unit_points.get(cid, ()):
            if p not in pts:
                pts.append(p)
        return pts


class TransportTable:
    """The arrow components from chart ca to chart cb.

    ``components`` lists each distinct transition right . left^(-1) through a
    common chart k, on the ball left(ball of k), once: over the invertible
    legs left : k -> ca whose chart k has right legs into cb, k in chart order
    and then family order, and the right legs k -> cb in family order, in
    first-occurrence order.  Component i is labelled (ca, cb, i), and
    ``legs[i]`` is the first leg pair (left, right) giving it.  Components
    first met on one left leg share that leg's ball object.  A chart id
    outside the atlas has no legs, so its tables are empty."""

    def __init__(self, atlas: Atlas, ca: str, cb: str):
        exact: dict[tuple[AffineMap, Ball], int] = {}
        components, legs = [], []
        for k, chart in atlas.charts.items():
            rights = atlas.family(k, cb)
            for left in atlas.family(k, ca) if rights else ():
                if not left.map.is_invertible():
                    continue
                unleft, ball = left.map.inverse(), map_ball(left.map, chart.ball)
                for right in rights:
                    germ = right.map.compose(unleft)
                    if (germ, ball) not in exact:
                        exact[(germ, ball)] = len(components)
                        components.append(ArrowComponent((ca, cb, len(components)), ball, germ, ca, cb))
                        legs.append((left, right))
        self.route = (ca, cb)
        self.components: tuple[ArrowComponent, ...] = tuple(components)
        self.legs: tuple[tuple[Embedding, Embedding], ...] = tuple(legs)
        self._exact = exact
        self._by_germ: dict[AffineMap, list[ArrowComponent]] = {}
        for c in components:
            self._by_germ.setdefault(c.germ, []).append(c)

    def first(self, x: Point, y: Point | None = None) -> int | None:
        """The index of the first component whose ball holds x and, given y,
        whose germ carries x to y; None when none does."""
        for i, c in enumerate(self.components):
            if point_in_ball(x, c.ball) and (y is None or c.germ(x) == y):
                return i
        return None

    def index(self, germ: AffineMap, x: Point) -> int:
        """The index of the first component carrying germ on a ball holding x."""
        for c in self._by_germ.get(germ, ()):
            if point_in_ball(x, c.ball):
                return c.label[2]
        raise self._missing()

    def exact(self, germ: AffineMap, ball: Ball) -> int:
        """The index of the component carrying germ on exactly this ball."""
        i = self._exact.get((germ, ball))
        if i is None:
            raise self._missing()
        return i

    def _missing(self) -> InvalidAtlasError:
        return InvalidAtlasError("no transport {}->{} carries this germ there".format(*self.route))


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
    members, detail = set(g), ""
    for x in g:
        if not x.is_invertible() or x.inverse() not in members:
            detail = "missing inverse"
        elif any(x.compose(y) not in members for y in g):
            detail = "missing composite"
        if detail:
            break
    rep.add("closed under composition and inverse", not detail, detail)
    return rep


def stabilizer(chart: Chart, x: Point) -> list[AffineMap]:
    """The elements of the chart group fixing x, in group order."""
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
    images = {h.compose(f) for h in dst.group}
    missing = [g for g in src.group if f.compose(g) not in images]
    return f.is_invertible(), inside, missing


def validate_embedding(e: Embedding, src: Chart, dst: Chart) -> Report:
    """The three embedding conditions on e : src -> dst, one check each; every
    validator of embeddings, witness legs and refinements reads this report."""
    injective, inside, missing = embedding_conditions(e.map, src, dst)
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
    moved = h.compose(e.map)
    for g in src.group:
        if e.map.compose(g) == moved:
            return g
    raise InvalidAtlasError(f"{h!r} meets the image of {e!r} but is not induced by the source group")


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


def restrict_chart(chart: Chart, x: Point, r2: Fraction, cid: str) -> tuple[Chart, Embedding]:
    """Sub-chart cid at x: the stabilizer acting on the ball of
    ``separation_radius`` (from r2, inside the chart ball), which every other
    group element moves off itself."""
    stab = stabilizer(chart, x)
    r2 = separation_radius(x, Fraction(r2), chart.ball, chart.group)
    if r2 is None:
        raise InvalidAtlasError("restriction radius search did not terminate")
    m = chart.ball.r2.m
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

    The raw span ``Atlas.refine`` finds keeps its chart, point and left leg;
    the right leg is the first stored leg into lam_pl's source chart, in
    family order, that carries the point to x_p and closes the square.  In a
    valid atlas one always does: the raw composites alpha (left) and beta
    (right) differ by some g of the target group fixing their common image,
    g . alpha = alpha . s for an s fixing the point, and the raw right leg
    composed with s^(-1) is such a leg.
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
    alpha = lam_nl.map.compose(raw.left.map)
    for right in atlas.family(raw.chart, lam_pl.src):
        if right(raw.point) == x_p and lam_pl.map.compose(right.map) == alpha:
            return Span(raw.chart, raw.point, raw.left, right)
    raise InvalidAtlasError("no stored leg closes the span square")


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
        sub = validate_embedding(leg, chart, atlas.chart(leg.dst))
        rep.add(f"leg to {leg.dst} valid", sub.ok, "; ".join(n for n, _ in sub.failures()))
    return rep


def _composable_reps(reps: dict):
    """(a, b, c, e1, e2) for stored representatives e1: a -> b and e2: b -> c
    with a != c, in storage order.  The inner pass re-reads ``reps``, so a
    representative the caller stores mid-walk is seen by later inner passes."""
    for (a, b), e1 in list(reps.items()):
        for (b2, c), e2 in list(reps.items()):
            if b2 == b and a != c:
                yield a, b, c, e1, e2


def validate_atlas(atlas: Atlas, samples: int = 20, rng=None) -> Report:
    """Full structural validation: charts, stored embeddings, closure of the
    embedding family under composition, witnesses (each a valid span of stored
    embeddings), and the span search on the queries of the valid witnesses and
    the unit witness points: one ``refine`` per query, and "oracle spans
    valid" asks a valid span for every query.  "oracle deterministic" holds by
    construction, because ``refine`` is a pure function of the stored charts
    and embeddings.  Every witness and unit witness point is queried, so
    ``samples`` and ``rng`` are accepted and unused."""
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
        sub = validate_embedding(e, atlas.chart(src), atlas.chart(dst))
        rep.add(f"representative {src}->{dst}", sub.ok, "; ".join(n for n, _ in sub.failures()))
    # closure: composites of stored representatives stay representable
    closure_ok = True
    detail = ""
    for a, b, c, e1, e2 in _composable_reps(atlas.reps):
        if (a, c) not in atlas.reps:
            closure_ok, detail = False, f"no representative for {a}->{c}"
            break
        try:
            find_conjugator(atlas.chart(c), atlas.reps[(a, c)].map, e2.map.compose(e1.map))
        except (NoConjugatorError, NotUniqueError):
            closure_ok, detail = False, f"composite {a}->{b}->{c} not representable"
            break
    rep.add("embedding family closed under composition", closure_ok, detail)
    valid_witnesses = []
    for w in atlas.witnesses:
        sub = validate_span(atlas, w)
        rep.add(
            f"witness {w.left.dst}|{w.right.dst} via {w.chart}",
            sub.ok,
            "; ".join(n for n, _ in sub.failures()),
        )
        if sub.ok:
            valid_witnesses.append(w)
    for cid, pts in atlas.unit_points.items():
        rep.add(
            f"unit witness points of {cid} in domain",
            all(point_in_ball(p, atlas.chart(cid).ball) for p in pts),
        )
    # span validity on the queries of the valid witnesses (an invalid one has
    # failed above) and the unit witness points
    queries = [(w.left.dst, w.left(w.point), w.right.dst, w.right(w.point)) for w in valid_witnesses]
    for cid in atlas.chart_ids():
        for p in atlas.witness_points(cid):
            queries.append((cid, p, cid, p))
    spans = [atlas.refine(*q) for q in queries]
    # refine reads only the stored charts and embeddings, so it cannot answer
    # one query two ways
    rep.add("oracle deterministic", True)
    rep.add("oracle spans valid", all(s is not None and validate_span(atlas, s).ok for s in spans))
    return rep
