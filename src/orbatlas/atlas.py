"""Charts, embeddings and atlases, with the span machinery that identifies
points across charts.

A chart is an open ball together with a finite faithful group of exact
isometries preserving it.  Embeddings between charts are injective similarity
maps; for a stored representative lambda the full set of embeddings between two
charts is the finite torsor {h . lambda : h in the target group}, which is how
an atlas keeps "all possible embeddings" in finite storage.

Two chart points are identified exactly when some chart embeds into both charts
carrying one marked point to each.  One walk over the invertible legs into the
first chart (``Atlas._legs``) decides this; ``Atlas.refine``, ``Atlas.locate``
and the translation groupoid's arrow builders read it.  Two embeddings into one
chart are completed to a commuting square (``common_span``) by searching the
stored legs out of the chart of the span ``Atlas.refine`` finds.  The stored
charts and embeddings are an atlas's only identification data: a witness span
must have stored legs, and nothing else is recorded.
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
    right(point) the identified pair.  ``Atlas.refine`` answers with one, and
    an atlas stores its coverage witnesses as spans of stored embeddings.
    """

    chart: str
    point: Point
    left: Embedding
    right: Embedding


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
        self._leg_cache: dict[str, tuple[tuple[str, Embedding, Ball], ...]] = {}
        self._transport_cache: dict[tuple[str, str], TransportTable] = {}
        self._swap_cache: dict[tuple[str, str, int], int] = {}

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

    def _legs(self, ca: str) -> tuple[tuple[str, Embedding, Ball], ...]:
        """(k, left, left(ball of k)) for every invertible embedding left of a
        chart k into ca: k in chart order, then family order.  The span search
        walks this table; built on first use and cached per chart."""
        cached = self._leg_cache.get(ca)
        if cached is None:
            cached = self._leg_cache[ca] = tuple(
                (k, left, map_ball(left.map, chart.ball))
                for k, chart in self.charts.items()
                for left in self.family(k, ca)
                if left.map.is_invertible()
            )
        return cached

    def transports(self, ca: str, cb: str) -> tuple[tuple[AffineMap, Ball], ...]:
        """The entries of ``transport_table(ca, cb)``."""
        return self.transport_table(ca, cb).entries

    def transport_table(self, ca: str, cb: str) -> TransportTable:
        """The transport table from chart ca to chart cb, built on first use
        and cached per chart pair."""
        table = self._transport_cache.get((ca, cb))
        if table is None:
            table = self._transport_cache[(ca, cb)] = TransportTable(self, ca, cb)
        return table

    def swapped(self, ca: str, cb: str, i: int) -> int:
        """The index, in ``transport_table(cb, ca)``, of the entry of entry i
        of ``transport_table(ca, cb)`` with its first leg pair swapped: the
        inverse germ on the right leg's image; memoized per entry."""
        if (ca, cb, i) not in self._swap_cache:
            (germ, _), (_, right) = self.transports(ca, cb)[i], self.transport_table(ca, cb).legs[i]
            if not germ.is_invertible():
                raise InvalidAtlasError(f"{right!r} is not invertible")
            domain = map_ball(right.map, self.charts[right.src].ball)
            self._swap_cache[(ca, cb, i)] = self.transport_table(cb, ca).index(germ.inverse(), domain=domain)
        return self._swap_cache[(ca, cb, i)]

    def in_family(self, e: Embedding) -> bool:
        members = self._member_cache.get((e.src, e.dst))
        if members is None:
            members = self._member_cache[(e.src, e.dst)] = frozenset(f.map for f in self.family(e.src, e.dst))
        return e.map in members

    # -- identification -----------------------------------------------------

    def _walk(self, ci: str, x: Point, cj: str):
        """(k, left^(-1)(x), left, its image, family(k, cj)) for each leg left :
        k -> ci whose image holds x and whose chart k has right legs into cj,
        in leg table order.  Every identification is read from this walk."""
        for k, left, domain in self._legs(ci):
            rights = self.family(k, cj)
            if rights and point_in_ball(x, domain):
                yield k, left.map.inverse()(x), left, domain, rights

    def refine(self, ci: str, x: Point, cj: str, y: Point) -> Span | None:
        """A span identifying (ci, x) with (cj, y), or None: at the first leg
        of the walk with a right leg carrying left^(-1)(x) to y, the first
        such right leg.  For a valid atlas the stored families realize every
        identification in one step, so this is the whole search."""
        for k, z, left, _, rights in self._walk(ci, x, cj):
            for right in rights:
                if right(z) == y:
                    return Span(k, z, left, right)
        return None

    def locate(self, ci: str, x: Point, cj: str) -> Point | None:
        """Some point of chart cj identified with (ci, x), or None: x itself
        when ci == cj, else the image under the first right leg at the first
        leg of the walk."""
        if ci == cj:
            return x
        for _, z, _, _, rights in self._walk(ci, x, cj):
            return rights[0](z)
        return None

    def witness_points(self, cid: str) -> list[Point]:
        """Declared unit witness points of a chart, always including the center."""
        pts = [self.charts[cid].ball.center]
        for p in self.unit_points.get(cid, ()):
            if p not in pts:
                pts.append(p)
        return pts


class TransportTable:
    """Each distinct (right . left^(-1), left(ball of k)) from chart ca to
    chart cb through a common chart k, in first-occurrence order over the
    legs into ca (``Atlas._legs`` order), then the right legs k -> cb in
    family order, with the first leg pair (left, right) giving each entry:
    the translation groupoid's arrow components."""

    def __init__(self, atlas: Atlas, ca: str, cb: str):
        first: dict = {}
        for k, left, domain in atlas._legs(ca):
            unleft = left.map.inverse()
            for right in atlas.family(k, cb):
                first.setdefault((right.map.compose(unleft), domain), (left, right))
        self.route, self.group = (ca, cb), atlas.chart(cb).group
        self.entries: tuple[tuple[AffineMap, Ball], ...] = tuple(first)
        self.legs: tuple[tuple[Embedding, Embedding], ...] = tuple(first.values())
        self._by_germ: dict[AffineMap, list[tuple[int, Ball]]] = {}
        for i, (germ, d) in enumerate(self.entries):
            self._by_germ.setdefault(germ, []).append((i, d))
        self._translates: dict[int, tuple[int, ...]] = {}

    def index(self, germ: AffineMap, x: Point | None = None, domain: Ball | None = None) -> int:
        """The index of the first entry carrying germ on the given domain or,
        with none given, on a domain holding x."""
        for i, d in self._by_germ.get(germ, ()):
            if d == domain if domain is not None else point_in_ball(x, d):
                return i
        raise InvalidAtlasError("no transport {}->{} carries this germ there".format(*self.route))

    def translates(self, i: int) -> tuple[int, ...]:
        """For each h of the target chart group, in group order, the index of
        the entry (h . germ, domain) of entry i = (germ, domain); memoized."""
        if i not in self._translates:
            germ, domain = self.entries[i]
            self._translates[i] = tuple(self.index(h.compose(germ), domain=domain) for h in self.group)
        return self._translates[i]


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


def stabilizer_indices(chart: Chart, x: Point) -> list[int]:
    """Positions in the chart group of the elements fixing x."""
    if not point_in_ball(x, chart.ball):
        raise PointOutsideDomainError(f"{x!r} outside chart {chart.cid}")
    return [i for i, g in enumerate(chart.group) if g(x) == x]


def stabilizer(chart: Chart, x: Point) -> list[AffineMap]:
    return [chart.group[i] for i in stabilizer_indices(chart, x)]


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
    moved = h.compose(e.map)
    for g in src.group:
        if e.map.compose(g) == moved:
            return g
    raise InvalidAtlasError(f"{h!r} meets the image of {e!r} but is not induced by the source group")


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
        sub = validate_embedding(leg, atlas)
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
    the unit witness points: "oracle deterministic" asks the same answer
    twice, "oracle spans valid" a valid span for every query.  Every witness
    and unit witness point is queried, so ``samples`` and ``rng`` are accepted
    and unused."""
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
    # oracle determinism and span validity on the queries of the valid
    # witnesses (an invalid one has failed above) and the unit witness points
    queries = [(w.left.dst, w.left(w.point), w.right.dst, w.right(w.point)) for w in valid_witnesses]
    for cid in atlas.chart_ids():
        for p in atlas.witness_points(cid):
            queries.append((cid, p, cid, p))
    det_ok = True
    span_ok = True
    for ci, x, cj, y in queries:
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
