"""Internal groupoids presented by finite component tables.

The unit space is a finite disjoint union of tagged balls; the arrow space is a
finite union of labeled components, each a parameter ball with source and
target given by invertible similarity maps, so every presentation here is etale
by construction.  Composability is the decidable predicate t(g) = s(h); fiber
products are never materialized.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BoundaryMismatchError,
    NotComposableError,
    PointOutsideDomainError,
)
from .geometry import AffineMap, Ball, Point, PolyMap, point_in_ball
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
class ArrowComponent:
    """One labeled piece of the arrow space: a parameter ball with source and
    target acting by invertible similarities."""

    label: object
    ball: Ball
    s_map: AffineMap
    t_map: AffineMap
    s_component: str
    t_component: str

    @cached_property
    def germ(self) -> AffineMap:
        """t . s^(-1): the germ of every arrow over this component, computed
        on first use."""
        return self.t_map.compose(self.s_map.inverse())


@dataclass(frozen=True)
class Arrow:
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
    def arrow_components(self) -> list[ArrowComponent]: ...

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
    def arrows_between(self, u1: UnitPoint, u2: UnitPoint) -> list[Arrow]: ...

    @abstractmethod
    def arrows_from(self, u: UnitPoint) -> list[Arrow]: ...

    @abstractmethod
    def transports(self, ca: str, cb: str) -> list[tuple[AffineMap, Ball]]:
        """(map, domain ball) pairs carrying identifications from unit
        component ca to cb."""

    # -- shared derived operations -------------------------------------------

    def unit_component(self, label: str) -> UnitComponent:
        for comp in self.unit_components():
            if comp.label == label:
                return comp
        raise PointOutsideDomainError(f"no unit component {label!r}")

    def source(self, a: Arrow) -> UnitPoint:
        comp = self.arrow_component(a.component)
        return UnitPoint(comp.s_component, comp.s_map(a.point))

    def target(self, a: Arrow) -> UnitPoint:
        comp = self.arrow_component(a.component)
        return UnitPoint(comp.t_component, comp.t_map(a.point))

    def unit_equal(self, u1: UnitPoint, u2: UnitPoint) -> bool:
        return u1.component == u2.component and u1.point == u2.point

    def composable(self, a: Arrow, b: Arrow) -> bool:
        return self.unit_equal(self.target(a), self.source(b))

    def local_bisection(self, a: Arrow) -> AffineMap:
        """Germ of the arrow: t . (s restricted to the component)^(-1)."""
        return self.arrow_component(a.component).germ

    def isotropy(self, u: UnitPoint) -> list[Arrow]:
        if not point_in_ball(u.point, self.unit_component(u.component).ball):
            raise PointOutsideDomainError(f"{u!r} outside the unit space")
        return self.arrows_between(u, u)

    def unit_witness_points(self) -> list[UnitPoint]:
        out = []
        for comp in self.unit_components():
            out.append(UnitPoint(comp.label, comp.ball.center))
        return out

    def random_unit(self, rng: random.Random) -> UnitPoint:
        comp = rng.choice(self.unit_components())
        return UnitPoint(comp.label, random_point_in_ball(rng, comp.ball, self.conductor))

    def random_arrow(self, rng: random.Random) -> Arrow:
        u = self.random_unit(rng)
        choices = self.arrows_from(u)
        return rng.choice(choices)

    def random_composable_pair(self, rng: random.Random) -> tuple[Arrow, Arrow]:
        a = self.random_arrow(rng)
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

        mult/inv default to composing representative maps, which is only valid
        when the representation is faithful."""
        self.conductor = conductor
        self.dim = ball.dim
        self.ball = ball
        self.labels = [lab for lab, _ in elements]
        self.rep = {lab: g for lab, g in elements}
        if mult is None:
            mult = {}
            for la, ga in elements:
                for lb, gb in elements:
                    comp = gb.compose(ga)
                    hits = [lc for lc, gc in elements if gc == comp]
                    if len(hits) != 1:
                        raise BoundaryMismatchError(
                            "ambiguous multiplication table; pass mult explicitly"
                        )
                    mult[(lb, la)] = hits[0]
            inv = {}
            for la, ga in elements:
                inv[la] = next(lc for lc, gc in elements if gc == ga.inverse())
        self.mult = mult
        self.inv_table = inv
        self._components = [
            ArrowComponent(lab, ball, _identity_like(self.rep[lab]), self.rep[lab], "U", "U")
            for lab in self.labels
        ]

    def unit_components(self):
        return [UnitComponent("U", self.ball)]

    def arrow_components(self):
        return list(self._components)

    def arrow_component(self, label):
        return self._components[self.labels.index(label)]

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

    def arrows_between(self, u1, u2):
        return [
            Arrow(lab, u1.point)
            for lab in self.labels
            if self.rep[lab](u1.point) == u2.point
        ]

    def arrows_from(self, u):
        return [Arrow(lab, u.point) for lab in self.labels]

    def transports(self, ca, cb):
        return [(self.rep[lab], self.ball) for lab in self.labels]

    def is_faithful(self) -> bool:
        maps = list(self.rep.values())
        return all(maps[i] != maps[j] for i in range(len(maps)) for j in range(i + 1, len(maps)))


def _identity_like(g: AffineMap) -> AffineMap:
    if g.dim == 0:
        return g
    return AffineMap.identity(g.b.coords[0].m, g.dim)


# -- axiom suite ----------------------------------------------------------------


def check_groupoid_axioms(g: GroupoidPresentation, samples: int = 200, seed: int = 0) -> Report:
    """Internal-groupoid axioms plus the inversion-of-products identity, checked
    exactly on sampled units, arrows, composable pairs and triples."""
    rng = random.Random(seed)
    rep = Report("groupoid axioms")
    eq = g.arrow_equal
    ueq = g.unit_equal
    ok_e = ok_st = ok_assoc = ok_unit = ok_inv = ok_lemma = True
    for _ in range(samples):
        u = g.random_unit(rng)
        e = g.identity(u)
        if not (ueq(g.source(e), u) and ueq(g.target(e), u)):
            ok_e = False
        a, b = g.random_composable_pair(rng)
        ab = g.multiply(a, b)
        if not (ueq(g.source(ab), g.source(a)) and ueq(g.target(ab), g.target(b))):
            ok_st = False
        c = rng.choice(g.arrows_from(g.target(b)))
        if not eq(g.multiply(g.multiply(a, b), c), g.multiply(a, g.multiply(b, c))):
            ok_assoc = False
        if not eq(g.multiply(g.identity(g.source(a)), a), a):
            ok_unit = False
        if not eq(g.multiply(a, g.identity(g.target(a))), a):
            ok_unit = False
        ia = g.inverse(a)
        if not eq(g.inverse(ia), a):
            ok_inv = False
        if not (ueq(g.source(ia), g.target(a)) and ueq(g.target(ia), g.source(a))):
            ok_inv = False
        else:
            if not eq(g.multiply(a, ia), g.identity(g.source(a))):
                ok_inv = False
            if not eq(g.multiply(ia, a), g.identity(g.target(a))):
                ok_inv = False
        try:
            if not eq(g.multiply(g.inverse(b), g.inverse(a)), g.inverse(ab)):
                ok_lemma = False
        except NotComposableError:
            ok_lemma = False
    rep.add("identity is a section of source and target", ok_e)
    rep.add("source/target of products", ok_st)
    rep.add("associativity", ok_assoc)
    rep.add("unit laws", ok_unit)
    rep.add("inverse laws", ok_inv)
    rep.add("inverse of a product is the reversed product of inverses", ok_lemma)
    return rep


# -- morphisms -------------------------------------------------------------------


class GroupoidMorphism:
    """A pair of maps (units, arrows) commuting with all structure maps.

    unit_maps: {src unit component -> (dst unit component, PolyMap)};
    arrow_map: a callable Arrow -> Arrow.
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
            comp.label: (comp.label, PolyMap.identity(g.conductor, g.dim))
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
        if not (comp.s_map.is_invertible() and comp.t_map.is_invertible()):
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
        near1 = UnitPoint(comp.s_component, comp.s_map(y))
        near2 = UnitPoint(comp.t_component, comp.t_map(y))
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
    if arrow.component in allowed:
        return True
    # equality may route through equivalent representatives in other components
    src = g.source(arrow)
    for lab in allowed:
        comp = g.arrow_component(lab)
        if comp.s_component != src.component or not comp.s_map.is_invertible():
            continue
        y = comp.s_map.inverse()(src.point)
        if point_in_ball(y, comp.ball) and g.arrow_equal(arrow, Arrow(lab, y)):
            return True
    return False
