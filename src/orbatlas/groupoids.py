"""Internal groupoids presented by finite component tables.

The unit space is a finite disjoint union of tagged balls; the arrow space is a
finite union of labeled components, each a ball in its source unit component
carrying one similarity, the germ of every arrow over it.  An arrow is stored
at its source point, so the source is free and the target is the germ at that
point; every presentation here is etale by construction.  Composability is the
decidable predicate t(g) = s(h); fiber products are never materialized.

A presentation answers one arrow query, ``arrows_to(u, c)``: the arrows from
the unit point u into the unit component c.  ``arrows_from`` (those lists over
the unit components, in order) and ``arrows_between`` (the arrows of
``arrows_to`` into u2's component whose target is u2) are derived from it once,
for every presentation.  It answers one component query likewise,
``components_between(ca, cb)``: the arrow components from unit component ca
to cb, in label order; ``arrow_components`` is those lists over every pair of
unit components, in order.  ``ArrowComponent`` is defined in ``atlas``, whose
transport tables build the translation groupoid's components.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .atlas import ArrowComponent
from .errors import (
    AtlasMismatchError,
    BoundaryMismatchError,
    NotComposableError,
    PointOutsideDomainError,
    UnsupportedPresentationError,
)
from .geometry import AffineMap, Ball, Point, point_in_ball
from .report import Report
from .sampling import random_point_in_ball


@dataclass(frozen=True)
class UnitPoint:
    component: str
    point: Point


@dataclass(frozen=True)
class UnitComponent:
    label: str
    ball: Ball


@dataclass(frozen=True)
class Arrow:
    """The arrow of a component at its source point."""

    component: object
    point: Point


class GroupoidPresentation(ABC):
    """Interface shared by translation groupoids and builtin action groupoids."""

    strategy: str = "abstract"
    conductor: int
    dim: int

    # -- structure ----------------------------------------------------------

    @abstractmethod
    def unit_components(self) -> list[UnitComponent]: ...

    @abstractmethod
    def components_between(self, ca: str, cb: str) -> tuple[ArrowComponent, ...]:
        """The arrow components from unit component ca to cb, in label order;
        empty when either is not a unit component of the presentation."""

    @abstractmethod
    def arrow_component(self, label) -> ArrowComponent: ...

    @abstractmethod
    def identity(self, u: UnitPoint) -> Arrow: ...

    @abstractmethod
    def inverse(self, a: Arrow) -> Arrow: ...

    @abstractmethod
    def multiply(self, a: Arrow, b: Arrow) -> Arrow:
        """m(a, b) for t(a) = s(b): the arrow running a first, then b."""

    @abstractmethod
    def arrow_equal(self, a: Arrow, b: Arrow) -> bool: ...

    @abstractmethod
    def arrows_to(self, u: UnitPoint, c: str) -> list[Arrow]:
        """The arrows from the unit point u into the unit component c; empty
        when either component is not a unit component of the presentation."""

    @abstractmethod
    def arrow_at(self, s: str, t: str, germ: AffineMap, x: Point) -> Arrow:
        """The arrow from (s, x) to t that carries germ; an OrbAtlasError when
        no arrow does."""

    # -- shared derived operations -------------------------------------------

    def unit_component(self, label: str) -> UnitComponent:
        for comp in self.unit_components():
            if comp.label == label:
                return comp
        raise PointOutsideDomainError(f"no unit component {label!r}")

    def arrow_components(self) -> list[ArrowComponent]:
        units = [comp.label for comp in self.unit_components()]
        return [comp for ca in units for cb in units for comp in self.components_between(ca, cb)]

    def source(self, a: Arrow) -> UnitPoint:
        return UnitPoint(self.arrow_component(a.component).s_component, a.point)

    def target(self, a: Arrow) -> UnitPoint:
        comp = self.arrow_component(a.component)
        return UnitPoint(comp.t_component, comp.germ(a.point))

    def arrows_from(self, u: UnitPoint) -> list[Arrow]:
        return [a for comp in self.unit_components() for a in self.arrows_to(u, comp.label)]

    def arrows_between(self, u1: UnitPoint, u2: UnitPoint) -> list[Arrow]:
        return [a for a in self.arrows_to(u1, u2.component) if self.target(a) == u2]

    def unit_equal(self, u1: UnitPoint, u2: UnitPoint) -> bool:
        return u1.component == u2.component and u1.point == u2.point

    def composable(self, a: Arrow, b: Arrow) -> bool:
        return self.unit_equal(self.target(a), self.source(b))

    def local_bisection(self, a: Arrow) -> AffineMap:
        """Germ of the arrow: the similarity of its component."""
        return self.arrow_component(a.component).germ

    def isotropy(self, u: UnitPoint) -> list[Arrow]:
        if not point_in_ball(u.point, self.unit_component(u.component).ball):
            raise PointOutsideDomainError(f"{u!r} outside the unit space")
        return self.arrows_between(u, u)

    def unit_witness_points(self) -> list[UnitPoint]:
        return [UnitPoint(comp.label, comp.ball.center) for comp in self.unit_components()]

    def random_unit(self, rng: random.Random) -> UnitPoint:
        comp = rng.choice(self.unit_components())
        return UnitPoint(comp.label, random_point_in_ball(rng, comp.ball, self.conductor))

    def random_composable_pair(self, rng: random.Random) -> tuple[Arrow, Arrow]:
        a = rng.choice(self.arrows_from(self.random_unit(rng)))
        b = rng.choice(self.arrows_from(self.target(a)))
        return a, b


# -- builtin action groupoids --------------------------------------------------


class ActionGroupoid(GroupoidPresentation):
    """Finite group acting on a ball: arrows are literal pairs (label, point).

    Elements carry abstract labels with an explicit multiplication table, with a
    representation by affine maps; a non-injective representation gives the
    standard non-effective test double.
    """

    strategy = "action"

    def __init__(self, conductor: int, ball: Ball, elements, mult=None, inv=None):
        """elements: list of (label, AffineMap); identity label must come first.

        An omitted mult is derived from the representative maps (the label of
        each composite), which is only valid when the representation is
        faithful; an omitted inv is read off mult: the inverse of l is the first
        label l' with mult[(l', l)] the identity label.  A table passed in is
        kept."""
        self.conductor = conductor
        self.dim = ball.dim
        self.ball = ball
        self.labels = [lab for lab, _ in elements]
        self.rep = {lab: g for lab, g in elements}
        if mult is None:
            labels_of: dict[AffineMap, list] = {}
            for lab, g in elements:
                labels_of.setdefault(g, []).append(lab)
            mult = {}
            for la, ga in elements:
                for lb, gb in elements:
                    hits = labels_of.get(gb.compose(ga), ())
                    if len(hits) != 1:
                        raise BoundaryMismatchError(
                            "ambiguous multiplication table; pass mult explicitly"
                        )
                    mult[(lb, la)] = hits[0]
        if inv is None:
            e = self.labels[0]
            inv = {la: next((lb for lb in self.labels if mult.get((lb, la)) == e), None) for la in self.labels}
            if None in inv.values():
                raise BoundaryMismatchError("a label has no inverse in mult; pass inv explicitly")
        self.mult = mult
        self.inv_table = inv
        self._components = tuple(ArrowComponent(lab, ball, self.rep[lab], "U", "U") for lab in self.labels)

    def unit_components(self):
        return [UnitComponent("U", self.ball)]

    def components_between(self, ca, cb):
        return self._components if ca == cb == "U" else ()

    def arrow_component(self, label):
        try:
            return self._components[self.labels.index(label)]
        except ValueError:
            raise AtlasMismatchError(f"arrow component {label!r} is not an element of this action") from None

    def identity(self, u):
        return Arrow(self.labels[0], u.point)

    def inverse(self, a):
        return Arrow(self.inv_table[a.component], self.rep[a.component](a.point))

    def multiply(self, a, b):
        if not self.composable(a, b):
            raise NotComposableError("t(first) != s(second)")
        return Arrow(self.mult[(b.component, a.component)], a.point)

    def arrow_equal(self, a, b):
        return a.component == b.component and a.point == b.point

    def arrows_to(self, u, c):
        return [Arrow(lab, u.point) for lab in self.labels] if u.component == c == "U" else []

    def arrow_at(self, s, t, germ, x):
        """The first label, in label order, whose map is germ."""
        for lab in self.labels:
            if self.rep[lab] == germ:
                return Arrow(lab, x)
        raise UnsupportedPresentationError("no element of the action carries this germ")

    def is_faithful(self) -> bool:
        return len(set(self.rep.values())) == len(self.rep)


# -- axiom suite ----------------------------------------------------------------


def check_groupoid_axioms(g: GroupoidPresentation, samples: int = 200, seed: int = 0) -> Report:
    """Internal-groupoid axioms plus the inversion-of-products identity, checked
    exactly on sampled units, arrows, composable pairs and triples.  A product
    that is not composable fails its axiom, and the detail names the first
    sample where that happened."""
    rng = random.Random(seed)
    eq = g.arrow_equal
    ueq = g.unit_equal
    section, ends, assoc, unit, inv, lemma = names = (
        "identity is a section of source and target",
        "source/target of products",
        "associativity",
        "unit laws",
        "inverse laws",
        "inverse of a product is the reversed product of inverses",
    )
    ok = dict.fromkeys(names, True)
    detail = dict.fromkeys(names, "")

    def attempt(name, i, step):
        """step(), or None after failing name when a product in it is not
        composable."""
        try:
            return step()
        except NotComposableError as exc:
            ok[name] = False
            detail[name] = detail[name] or f"sample {i}: {exc}"
            return None

    def holds(name, i, test) -> None:
        if not attempt(name, i, test):
            ok[name] = False

    for i in range(samples):
        u = g.random_unit(rng)
        e = g.identity(u)
        holds(section, i, lambda: ueq(g.source(e), u) and ueq(g.target(e), u))
        a, b = g.random_composable_pair(rng)
        ab = attempt(ends, i, lambda: g.multiply(a, b))
        if ab is not None:
            holds(ends, i, lambda: ueq(g.source(ab), g.source(a)) and ueq(g.target(ab), g.target(b)))
        c = rng.choice(g.arrows_from(g.target(b)))
        holds(assoc, i, lambda: eq(g.multiply(g.multiply(a, b), c), g.multiply(a, g.multiply(b, c))))
        holds(unit, i, lambda: eq(g.multiply(g.identity(g.source(a)), a), a))
        holds(unit, i, lambda: eq(g.multiply(a, g.identity(g.target(a))), a))
        ia = g.inverse(a)
        holds(inv, i, lambda: eq(g.inverse(ia), a))
        if not (ueq(g.source(ia), g.target(a)) and ueq(g.target(ia), g.source(a))):
            ok[inv] = False
        else:
            holds(inv, i, lambda: eq(g.multiply(a, ia), g.identity(g.source(a))))
            holds(inv, i, lambda: eq(g.multiply(ia, a), g.identity(g.target(a))))
        holds(lemma, i, lambda: eq(
            g.multiply(g.inverse(b), g.inverse(a)), g.inverse(ab if ab is not None else g.multiply(a, b))
        ))
    rep = Report("groupoid axioms")
    for name in names:
        rep.add(name, ok[name], detail[name])
    return rep


# -- morphisms -------------------------------------------------------------------


class GroupoidMorphism:
    """A pair of maps (units, arrows) commuting with all structure maps.

    unit_maps: {src unit component -> (dst unit component, AffineMap or PolyMap)};
    arrow_map: a callable Arrow -> Arrow.  ``of_germs`` builds the arrow map
    of an effective target from the germ of each source component's image.
    """

    def __init__(self, src, dst, unit_maps, arrow_map):
        self.src = src
        self.dst = dst
        self.unit_maps = unit_maps
        self.arrow_map = arrow_map

    def psi(self, u: UnitPoint) -> UnitPoint:
        comp, mp = self.unit_maps[u.component]
        return UnitPoint(comp, mp(u.point))

    def Psi(self, a: Arrow) -> Arrow:
        return self.arrow_map(a)

    @classmethod
    def of_germs(cls, src, dst, unit_maps, germ_of=lambda comp: comp.germ) -> GroupoidMorphism:
        """The morphism whose image of an arrow over the component c at x is
        the arrow of dst carrying germ_of(c) from the image of (c's source, x):
        an arrow of an effective groupoid is a germ at its source point."""

        def arrow_map(a: Arrow) -> Arrow:
            c = src.arrow_component(a.component)
            s, mp = unit_maps[c.s_component]
            return dst.arrow_at(s, unit_maps[c.t_component][0], germ_of(c), mp(a.point))

        return cls(src, dst, unit_maps, arrow_map)

    def compose(self, other: GroupoidMorphism) -> GroupoidMorphism:
        """self after other."""
        if other.dst is not self.src:
            raise BoundaryMismatchError("morphism composition boundary mismatch")
        return GroupoidMorphism(
            other.src,
            self.dst,
            {
                lab: _compose_component(self.unit_maps, other.unit_maps[lab])
                for lab in other.unit_maps
            },
            lambda a: self.Psi(other.Psi(a)),
        )

    @classmethod
    def identity_on(cls, g: GroupoidPresentation) -> GroupoidMorphism:
        unit_maps = {
            comp.label: (comp.label, AffineMap.identity(g.conductor, g.dim))
            for comp in g.unit_components()
        }
        return cls(g, g, unit_maps, lambda a: a)


def _compose_component(outer_maps, inner):
    comp, mp = inner
    comp2, mp2 = outer_maps[comp]
    return comp2, mp2.compose(mp)


def validate_groupoid_morphism(m: GroupoidMorphism, samples: int = 100, seed: int = 0) -> Report:
    """The five structure identities, plus the redundancy psi = s'.Psi.e."""
    rng = random.Random(seed)
    rep = Report("groupoid morphism")
    src, dst = m.src, m.dst
    ok_s = ok_t = ok_e = ok_m = ok_i = ok_red = True
    for _ in range(samples):
        a, b = src.random_composable_pair(rng)
        if not dst.unit_equal(dst.source(m.Psi(a)), m.psi(src.source(a))):
            ok_s = False
        if not dst.unit_equal(dst.target(m.Psi(a)), m.psi(src.target(a))):
            ok_t = False
        u = src.random_unit(rng)
        if not dst.arrow_equal(m.Psi(src.identity(u)), dst.identity(m.psi(u))):
            ok_e = False
        try:
            if not dst.arrow_equal(m.Psi(src.multiply(a, b)), dst.multiply(m.Psi(a), m.Psi(b))):
                ok_m = False
        except NotComposableError:
            ok_m = False
        if not dst.arrow_equal(m.Psi(src.inverse(a)), dst.inverse(m.Psi(a))):
            ok_i = False
        if not dst.unit_equal(dst.source(m.Psi(src.identity(u))), m.psi(u)):
            ok_red = False
    rep.add("source compatibility", ok_s)
    rep.add("target compatibility", ok_t)
    rep.add("identity compatibility", ok_e)
    rep.add("multiplication compatibility", ok_m)
    rep.add("inverse compatibility", ok_i)
    rep.add("unit map recovered from arrow map", ok_red)
    return rep


# -- natural transformations ------------------------------------------------------


class GrpNatTrans:
    """A 2-cell between groupoid morphisms: a map from units to target arrows."""

    def __init__(self, src_mor: GroupoidMorphism, dst_mor: GroupoidMorphism, component_fn):
        if src_mor.src is not dst_mor.src or src_mor.dst is not dst_mor.dst:
            raise BoundaryMismatchError("2-cell boundary mismatch")
        self.src_mor = src_mor
        self.dst_mor = dst_mor
        self._fn = component_fn

    def __call__(self, u: UnitPoint) -> Arrow:
        return self._fn(u)

    @classmethod
    def identity_cell(cls, m: GroupoidMorphism) -> GrpNatTrans:
        return cls(m, m, lambda u: m.dst.identity(m.psi(u)))


def validate_grp_nat_trans(alpha: GrpNatTrans, samples: int = 100, seed: int = 0) -> Report:
    rng = random.Random(seed)
    rep = Report("groupoid 2-cell")
    m1, m2 = alpha.src_mor, alpha.dst_mor
    src, dst = m1.src, m1.dst
    ok_bound = ok_nat = True
    for _ in range(samples):
        u = src.random_unit(rng)
        arr = alpha(u)
        if not (
            dst.unit_equal(dst.source(arr), m1.psi(u))
            and dst.unit_equal(dst.target(arr), m2.psi(u))
        ):
            ok_bound = False
        a = rng.choice(src.arrows_from(u))
        try:
            lhs = dst.multiply(alpha(src.source(a)), m2.Psi(a))
            rhs = dst.multiply(m1.Psi(a), alpha(src.target(a)))
            if not dst.arrow_equal(lhs, rhs):
                ok_nat = False
        except NotComposableError:
            ok_nat = False
    rep.add("boundaries match the two morphisms", ok_bound)
    rep.add("naturality square", ok_nat)
    return rep


def _same_boundary(a: GroupoidMorphism, b: GroupoidMorphism) -> bool:
    return a.src is b.src and a.dst is b.dst


def vcomp_grp(beta: GrpNatTrans, alpha: GrpNatTrans) -> GrpNatTrans:
    """Vertical composite: pointwise product m'(alpha(u), beta(u))."""
    if not _same_boundary(alpha.dst_mor, beta.src_mor):
        raise BoundaryMismatchError("vertical composition boundary mismatch")
    dst = alpha.src_mor.dst
    return GrpNatTrans(
        alpha.src_mor, beta.dst_mor, lambda u: dst.multiply(alpha(u), beta(u))
    )


def hcomp_grp(beta: GrpNatTrans, alpha: GrpNatTrans) -> GrpNatTrans:
    """Horizontal composite m''(Phi1(alpha(u)), beta(psi2(u)))."""
    if alpha.src_mor.dst is not beta.src_mor.src:
        raise BoundaryMismatchError("horizontal composition boundary mismatch")
    phi1 = beta.src_mor
    psi2 = alpha.dst_mor
    dst = beta.src_mor.dst
    return GrpNatTrans(
        phi1.compose(alpha.src_mor),
        beta.dst_mor.compose(psi2),
        lambda u: dst.multiply(phi1.Psi(alpha(u)), beta(psi2.psi(u))),
    )


def nat_trans_equal(a: GrpNatTrans, b: GrpNatTrans, samples: int = 50, seed: int = 0) -> bool:
    rng = random.Random(seed)
    src = a.src_mor.src
    dst = a.src_mor.dst
    return all(
        dst.arrow_equal(a(u), b(u))
        for u in (src.random_unit(rng) for _ in range(samples))
    )


def morphisms_equal(a: GroupoidMorphism, b: GroupoidMorphism, samples: int = 50, seed: int = 0) -> bool:
    rng = random.Random(seed)
    src, dst = a.src, a.dst
    if src is not b.src or dst is not b.dst:
        return False
    for _ in range(samples):
        u = src.random_unit(rng)
        if not dst.unit_equal(a.psi(u), b.psi(u)):
            return False
        arr = rng.choice(src.arrows_from(u))
        if not dst.arrow_equal(a.Psi(arr), b.Psi(arr)):
            return False
    return True


# -- structural predicates ---------------------------------------------------------


def structural_predicates(g: GroupoidPresentation, samples: int = 50, seed: int = 0) -> Report:
    """Etale (structural), proper (sampled covering argument) and effective
    (germ injectivity on sampled isotropy) checks."""
    rng = random.Random(seed)
    rep = Report("structural predicates")

    etale_ok = True
    for comp in g.arrow_components():
        if not comp.germ.is_invertible():
            etale_ok = False
    rep.add("etale: source/target invertible similarities per component", etale_ok)

    proper_ok = True
    detail = ""
    for _ in range(samples):
        u1 = g.random_unit(rng)
        arrows = g.arrows_from(u1)
        if not arrows:
            continue
        pivot = rng.choice(arrows)
        u2 = g.target(pivot)
        allowed = _nearby_components(g, pivot)
        comp = g.arrow_component(pivot.component)
        y = random_point_in_ball(rng, comp.ball, g.conductor)
        near1 = UnitPoint(comp.s_component, y)
        near2 = UnitPoint(comp.t_component, comp.germ(y))
        for q in g.arrows_between(near1, near2):
            if not _covered_by(g, q, allowed):
                proper_ok = False
                detail = f"arrow escapes the finite cover near {u2!r}"
    rep.add("proper: preimages of product neighborhoods stay in finitely many components", proper_ok, detail)

    eff_ok = True
    detail = ""
    for u in [g.random_unit(rng) for _ in range(samples)] + g.unit_witness_points():
        iso = g.isotropy(u)
        germs = [g.local_bisection(a) for a in iso]
        for i in range(len(germs)):
            for j in range(i + 1, len(germs)):
                if germs[i] == germs[j]:
                    eff_ok = False
                    detail = f"two isotropy arrows at {u!r} share a germ"
    rep.add("effective: germ map injective on isotropy", eff_ok, detail)
    return rep


def _nearby_components(g: GroupoidPresentation, pivot: Arrow) -> list:
    """Components of the arrows between the pivot's endpoints: the finite cover
    of a product neighborhood around (s, t) of the pivot."""
    u1, u2 = g.source(pivot), g.target(pivot)
    return [a.component for a in g.arrows_between(u1, u2)]


def _covered_by(g: GroupoidPresentation, arrow: Arrow, allowed: list) -> bool:
    # equality may route through equivalent representatives in other components
    src = g.source(arrow)
    return arrow.component in allowed or any(
        comp.s_component == src.component
        and point_in_ball(src.point, comp.ball)
        and g.arrow_equal(arrow, Arrow(comp.label, src.point))
        for comp in map(g.arrow_component, allowed)
    )
