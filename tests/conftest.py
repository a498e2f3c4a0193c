"""Shared gallery fixtures for the test suite."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import pytest

from orbatlas.atlas import Atlas, Chart, Embedding, Span, find_conjugator, restrict_chart, stabilizer
from orbatlas.errors import DimensionMismatchError
from orbatlas.field import CycNum, _make, _real_nums, real_parts, sign_quadratic, sign_real
from orbatlas.gallery import cone, football, global_quotient, point_atlas, teardrop
from orbatlas.geometry import AffineMap, Ball, Point, _dist2_nums, _dot, map_ball, point_in_ball
from orbatlas.groupoids import ActionGroupoid, Arrow

M = 12


@pytest.fixture(scope="session")
def cone3():
    return cone(3)


@pytest.fixture(scope="session")
def football23():
    return football(2, 3)


@pytest.fixture(scope="session")
def teardrop3():
    return teardrop(3)


@pytest.fixture(scope="session")
def quotient22():
    return global_quotient(2, 2)


@pytest.fixture(scope="session")
def point_chart_atlas():
    return point_atlas()


def z3_action():
    """z/3 acting on the unit disc by rotations."""
    m = 3
    ball = Ball(Point.origin(m, 1), CycNum.rational(m, 1))
    z = CycNum.zeta(3)
    return ActionGroupoid(m, ball, [(f"g{k}", AffineMap.scaling(m, 1, z**k)) for k in range(3)])


def z4_by_sign():
    """z/4 acting on the unit disc through z/2: g1 and g3 both act by -1, so
    the action is not faithful."""
    m = 2
    ball = Ball(Point.origin(m, 1), CycNum.rational(m, 1))
    ident, minus = AffineMap.identity(m, 1), AffineMap.scaling(m, 1, -1)
    labels = [f"g{k}" for k in range(4)]
    mult = {(labels[j], labels[i]): labels[(i + j) % 4] for i in range(4) for j in range(4)}
    inv = {labels[k]: labels[-k % 4] for k in range(4)}
    return ActionGroupoid(m, ball, [(lab, minus if k % 2 else ident) for k, lab in enumerate(labels)], mult, inv)


def make_sub_full_pair(p: int = 3):
    """A cone(p) atlas alone, and the same atlas enlarged by a restricted chart
    at the origin: the standard sub-atlas inclusion example."""
    base = cone(p)
    m = base.conductor
    cid = base.chart_ids()[0]
    chart = base.chart(cid)
    half, inc = restrict_chart(chart, Point.origin(m, 1), Fraction(1, 4), cid="half")
    witnesses = list(base.witnesses) + [
        Span("half", Point.origin(m, 1), Embedding("half", "half", half.identity()), inc)
    ]
    unit_points = {**base.unit_points, "half": (Point.of(m, Fraction(1, 8)),)}
    full = Atlas(
        m, 1, [chart, half], [inc],
        witnesses=witnesses, unit_points=unit_points,
    )
    sub = Atlas(
        m, 1, [chart], [],
        witnesses=base.witnesses, unit_points=base.unit_points,
    )
    return sub, full


def two_disc_table_atlas(unit_points=None):
    """Two discs with no stored embedding between them and a witness span
    that claims to identify them at one point: its leg into b is not stored."""
    ident = AffineMap.identity(M, 1)
    a = Chart("a", Ball.of(M, [0], 1), (ident,))
    b = Chart("b", Ball.of(M, [0], 1), (ident,))
    p = Point.of(M, Fraction(1, 3))
    entry = Span("a", p, Embedding("a", "a", ident), Embedding("a", "b", ident))
    return Atlas(M, 1, [a, b], [], witnesses=[entry], unit_points=unit_points), entry


def three_disc_table_atlas():
    """Three discs with no stored embeddings; witness spans, two of them
    through a chart whose group is {1, -1}, claim to identify a and b in both
    directions and some pairs twice, though none of their cross-chart legs is
    stored."""
    ident, neg = AffineMap.identity(M, 1), AffineMap.scaling(M, 1, CycNum.zeta(M, 6))
    c = Chart("c", Ball.of(M, [0], 1), (ident, neg))
    charts = [Chart(cid, Ball.of(M, [0], 1), (ident,)) for cid in "ab"] + [c]
    p = Point.of(M, Fraction(1, 3))
    entries = (
        Span("c", p, Embedding("c", "b", neg), Embedding("c", "a", ident)),
        Span("c", p, Embedding("c", "b", ident), Embedding("c", "a", ident)),
        Span("a", p, Embedding("a", "a", ident), Embedding("a", "b", ident)),
    )
    return Atlas(M, 1, charts, [], witnesses=entries), entries


class ReferenceTransport(NamedTuple):
    """One record of the former transport table: the transition
    right . left^(-1) through chart k, on the domain left(ball of k)."""

    k: str
    left: Embedding
    right: Embedding
    map: AffineMap
    domain: Ball


def reference_transports(atlas, ca, cb):
    """The former record table of transports(ca, cb), written out: k in chart
    order, the invertible left legs k -> ca, then the right legs k -> cb, one
    record per leg pair, duplicates included."""
    table = []
    for k, chart in atlas.charts.items():
        rights = atlas.family(k, cb)
        for left in atlas.family(k, ca):
            if not left.map.is_invertible():
                continue
            inv = left.map.inverse()
            domain = map_ball(left.map, chart.ball)
            table.extend(
                ReferenceTransport(k, left, right, right.map.compose(inv), domain) for right in rights
            )
    return table


def component_index(atlas, ca, cb, germ, ball):
    """The index of the component of ``transport_table(ca, cb)`` with this
    germ and ball, found by scanning the component list."""
    return [(c.germ, c.ball) for c in atlas.transport_table(ca, cb).components].index((germ, ball))


def record_arrows(g, u):
    """The arrow of every former transport record out of u's chart whose
    domain holds u, labelled by the table component of the record's (map,
    domain): every arrow out of u, under each of its labels."""
    ca = u.component
    return [
        Arrow((ca, cj, component_index(g.atlas, ca, cj, t.map, t.domain)), u.point)
        for cj in g.atlas.chart_ids()
        for t in reference_transports(g.atlas, ca, cj)
        if point_in_ball(u.point, t.domain)
    ]


def reference_arrow(g, ca, cb, germ, x):
    """The arrow of germ at x as the former record scan found it: the first
    record from ca to cb with this map whose domain holds x, labelled by the
    table component of its (map, domain); None when no record carries it."""
    for t in reference_transports(g.atlas, ca, cb):
        if t.map == germ and point_in_ball(x, t.domain):
            return Arrow((ca, cb, component_index(g.atlas, ca, cb, t.map, t.domain)), x)
    return None


def reference_row_walk(atlas, ci, x, cj, y=None):
    """The former row walk of the transport table, written out: over the
    rows, one per invertible leg left : k -> ci whose chart k has right legs
    into cj (k in chart order, then family order), whose domain left(ball of
    k) holds x, in row order, the first right leg k -> cj (in family order)
    carrying left^(-1)(x) to y, or any right leg when y is None.  Returns
    (left, right, domain), or None."""
    for k, chart in atlas.charts.items():
        rights = atlas.family(k, cj)
        for left in atlas.family(k, ci):
            if not (rights and left.map.is_invertible()):
                continue
            domain = map_ball(left.map, chart.ball)
            if point_in_ball(x, domain):
                z = left.map.inverse()(x)
                for right in rights:
                    if y is None or right(z) == y:
                        return left, right, domain
    return None


def reference_refine(atlas, ci, x, cj, y):
    """``Atlas.refine`` as the row walk answered it."""
    hit = reference_row_walk(atlas, ci, x, cj, y)
    if hit is None:
        return None
    left, right, _ = hit
    return Span(left.src, left.map.inverse()(x), left, right)


def reference_locate(atlas, ci, x, cj):
    """``Atlas.locate`` as the row walk answered it: the first right leg of
    the first row holding x."""
    if ci == cj:
        return x
    hit = reference_row_walk(atlas, ci, x, cj)
    return None if hit is None else hit[1](hit[0].map.inverse()(x))


def reference_arrows_to(g, u, cb):
    """``arrows_to`` as the row walk answered it: at the first row holding u,
    its first right leg (on u's own chart the first one carrying
    left^(-1)(u) back to u); the component of h . right . left^(-1) on the
    row's domain for each h of cb's group, in group order."""
    atlas, ca, x = g.atlas, u.component, u.point
    hit = reference_row_walk(atlas, ca, x, cb, x if ca == cb else None)
    if hit is None:
        return []
    left, right, domain = hit
    germ = right.map.compose(left.map.inverse())
    return [Arrow((ca, cb, component_index(atlas, ca, cb, h.compose(germ), domain)), x) for h in atlas.chart(cb).group]


def distinct_transports(records):
    """The (map, domain) pairs of the records, each once, in first-occurrence
    order."""
    return tuple(dict.fromkeys((t.map, t.domain) for t in records))


def reference_common_span(atlas, lam_nl, x_n, lam_pl, x_p):
    """The former span completion, written out: the span of ``Atlas.refine``,
    with its left leg repaired by the stabilizer element s of the marked point
    with alpha . s = g . alpha, where alpha is the left composite and g the
    conjugator in the target group carrying it to the right composite."""
    raw = atlas.refine(lam_nl.src, x_n, lam_pl.src, x_p)
    alpha = lam_nl.map.compose(raw.left.map)
    g = find_conjugator(atlas.chart(lam_nl.dst), alpha, lam_pl.map.compose(raw.right.map))
    if g.is_identity():
        return raw
    s = next(s for s in stabilizer(atlas.chart(raw.chart), raw.point) if alpha.compose(s) == g.compose(alpha))
    return Span(raw.chart, raw.point, Embedding(raw.left.src, raw.left.dst, raw.left.map.compose(s)), raw.right)


@pytest.fixture(scope="session")
def sub_full_cone3():
    return make_sub_full_pair(3)


def reference_dist2(p, q):
    """|p - q|^2 from field arithmetic on CycNum values, coordinate by coordinate."""
    total = CycNum.rational(p.coords[0].m, 0)
    for a, b in zip(p.coords, q.coords):
        total = total + (a - b) * (a - b).conj()
    return total


def reference_apply(f, p):
    """f(p) computed afresh on every call, one ``_dot`` per row, as
    ``AffineMap.__call__`` computes an image it has not stored."""
    z = p.coords
    if len(z) != f.dim:
        raise DimensionMismatchError(f"point of dim {len(z)} under map of dim {f.dim}")
    return Point(tuple(_dot(bi, row, z) for bi, row in zip(f.b.coords, f.a)))


def reference_point_in_ball(p, ball):
    """|p - c|^2 < r2 decided afresh on every call from the integer numerators,
    as ``point_in_ball`` decides an answer it has not stored."""
    if ball.dim == p.dim == 0:
        return True
    r2 = ball.r2
    nums, den = _dist2_nums(p, ball.center, r2.m)
    rd = r2._d
    diff = [den * a - rd * b for a, b in zip(r2._n, nums)]
    return sign_quadratic(*_real_nums(r2.m, diff)) > 0


def reference_ball_in_ball(b1, b2):
    """The CycNum formula for open b1 inside open b2: s = r2 - r1 - d^2 and
    two sign_real calls."""
    if b1.dim == 0:
        return True
    d2 = reference_dist2(b1.center, b2.center)
    s = b2.r2 - b1.r2 - d2
    if sign_real(s) < 0:
        return False
    return sign_real(s * s - 4 * d2 * b1.r2) >= 0


def reference_balls_disjoint(b1, b2):
    """The CycNum formula for disjoint open balls: t = d^2 - r1 - r2 and two
    sign_real calls."""
    if b1.dim == 0:
        return False
    d2 = reference_dist2(b1.center, b2.center)
    t = d2 - b1.r2 - b2.r2
    if sign_real(t) < 0:
        return False
    return sign_real(t * t - 4 * b1.r2 * b2.r2) >= 0


def reference_power_rows(phi, m):
    """zeta_m^k for k = 0..m-1 reduced by the monic integer polynomial phi
    (ascending coefficients), as sparse rows ((i, v), ...) of the nonzero
    coefficients: the loop the field kernel used before its generated code."""
    d = len(phi) - 1
    row = [1] + [0] * (d - 1)
    rows = []
    for _ in range(m):
        rows.append(tuple((i, v) for i, v in enumerate(row) if v))
        lead = row[-1]
        row = [r - lead * c for r, c in zip([0] + row[:-1], phi)]
    return tuple(rows)


def reference_combine(phi, m, a, nums):
    """Canonical numerators of sum_k nums[k] * zeta^(a k), one sparse row per
    nonzero power."""
    rows = reference_power_rows(phi, m)
    out = [0] * (len(phi) - 1)
    for k, c in enumerate(nums):
        if c:
            for i, v in rows[a * k % m]:
                out[i] += c * v
    return out


def reference_mul_nums(phi, m, a, b):
    """Canonical numerators of a product: the full convolution, then
    ``reference_combine``."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    return reference_combine(phi, m, 1, conv)


def reference_add(x, y):
    """The former sum: every pair of numerators over the product of the two
    denominators, then reduced."""
    da, db = x._d, y._d
    return _make(x.m, [a * db + b * da for a, b in zip(x._n, y._n)], da * db)


def reference_sub(x, y):
    """The former difference, over the product of the two denominators."""
    da, db = x._d, y._d
    return _make(x.m, [a * db - b * da for a, b in zip(x._n, y._n)], da * db)


def reference_sign(x):
    """The former sign route of an element of the real subfield: its integer
    parts, then the sign of a + b sqrt d; NotRealError for any other x."""
    a, b, d, _ = real_parts(x)
    return sign_quadratic(a, b, d)


def reference_cell_to_doc(delta):
    """The former 2-cell writer: every atlas reference of both systems
    written and hashed afresh."""
    from orbatlas.serialize import affine_to_doc, atlas_to_doc, doc_hash, poly_to_doc

    def system(f):
        src_doc, dst_doc = atlas_to_doc(f.src), atlas_to_doc(f.dst)
        return {
            "kind": "system",
            "src": {"inline": src_doc, "hash": doc_hash(src_doc)},
            "dst": {"inline": dst_doc, "hash": doc_hash(dst_doc)},
            "theta": dict(sorted(f.theta.items())),
            "assignment": [
                {"pair": [i, j], "dst_pair": [e.src, e.dst], **affine_to_doc(e.map)}
                for (i, j), e in sorted(f.assign.items())
            ],
            "lifts": {cid: poly_to_doc(p) for cid, p in sorted(f.lifts.items())},
        }

    return {
        "kind": "cell",
        "src_system": system(delta.src_sys),
        "dst_system": system(delta.dst_sys),
        "components": {
            cid: {"src": e.src, "dst": e.dst, **affine_to_doc(e.map)}
            for cid, e in sorted(delta.components.items())
        },
    }
