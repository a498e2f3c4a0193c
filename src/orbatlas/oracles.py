"""Refinement oracles: the decision procedures identifying points across charts.

The span-search oracle derives every identification from the stored data (chart
groups and representative embeddings) by a deterministic one-step search; it
covers global quotients and all glued galleries.  The span-table oracle answers
only from a finite recorded table and serves user-supplied atlases.  The
pushforward wrapper renames the underlying space without changing any answer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .errors import InvalidRelabelingError
from .geometry import Point, point_in_ball

# imported lazily by type checkers only; Span/Atlas come from .atlas at runtime


class RefinementOracle(ABC):
    @abstractmethod
    def refine(self, atlas, ci: str, x: Point, cj: str, y: Point):
        """Span identifying (ci, x) with (cj, y), or None."""

    @abstractmethod
    def locate(self, atlas, ci: str, x: Point, cj: str):
        """Some point of chart cj identified with (ci, x), or None."""


class SpanSearchOracle(RefinementOracle):
    """One-step search over the atlas's transport table.

    Two points are identified iff some chart embeds into both of their charts
    carrying one marked point to each, that is, iff some transport between the
    two charts is defined at the first point and carries it to the second; for
    a valid atlas the stored families realize every identification in one step.
    """

    def refine(self, atlas, ci, x, cj, y):
        from .atlas import Span

        left = None
        for t in atlas.transports(ci, cj):
            if t.left is not left:
                left, inside = t.left, point_in_ball(x, t.domain)
            if inside and t.map(x) == y:
                return Span(t.k, left.map.inverse()(x), left, t.right)
        return None

    def locate(self, atlas, ci, x, cj):
        if ci == cj:
            return x
        left = None
        for t in atlas.transports(ci, cj):
            # the first transport of each left leg uses the first right leg
            if t.left is not left:
                left = t.left
                if point_in_ball(x, t.domain):
                    return t.map(x)
        return None


class SpanTableOracle(RefinementOracle):
    """Finite recorded identification table for user atlases.

    Entries are spans; a query matches when both legs hit the queried points,
    possibly after translating the span point by a span-chart group element.
    """

    def __init__(self, entries=()):
        self.entries = tuple(entries)

    def _matches(self, atlas, span, ci, x, cj, y):
        if span.left.dst != ci or span.right.dst != cj:
            return None
        for g in atlas.chart(span.chart).group:
            z = g(span.point)
            if span.left(z) == x and span.right(z) == y:
                from .atlas import Span

                return Span(span.chart, z, span.left, span.right)
        return None

    def refine(self, atlas, ci, x, cj, y):
        fallback = SpanSearchOracle().refine(atlas, ci, x, cj, y)
        if fallback is not None:
            return fallback
        for span in self.entries:
            hit = self._matches(atlas, span, ci, x, cj, y)
            if hit is not None:
                return hit
            hit = self._matches(atlas, span, cj, y, ci, x)
            if hit is not None:
                return _flip(hit)
        return None

    def locate(self, atlas, ci, x, cj):
        found = SpanSearchOracle().locate(atlas, ci, x, cj)
        if found is not None:
            return found
        for span in list(self.entries) + [_flip(s) for s in self.entries]:
            if span.left.dst != ci or span.right.dst != cj:
                continue
            for g in atlas.chart(span.chart).group:
                z = g(span.point)
                if span.left(z) == x:
                    return span.right(z)
        return None


def _flip(span):
    from .atlas import Span

    return Span(span.chart, span.point, span.right, span.left)


class PushforwardOracle(RefinementOracle):
    """Oracle of a pushed-forward atlas: identifications are unchanged because
    the relabeling homeomorphism is bijective; only the space labels move."""

    def __init__(self, inner: RefinementOracle, relabel: dict[str, str]):
        values = list(relabel.values())
        if len(set(values)) != len(values):
            raise InvalidRelabelingError("relabeling is not injective")
        self.inner = inner
        self.relabel = dict(relabel)

    def refine(self, atlas, ci, x, cj, y):
        return self.inner.refine(atlas, ci, x, cj, y)

    def locate(self, atlas, ci, x, cj):
        return self.inner.locate(atlas, ci, x, cj)

