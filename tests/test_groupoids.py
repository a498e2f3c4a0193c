"""Groupoid presentations: axiom suite, morphisms, 2-cells, predicates."""

import random
from fractions import Fraction

import pytest

from orbatlas.errors import AtlasMismatchError, BoundaryMismatchError, NotComposableError, OrbAtlasError, ParseError, UnsupportedParamsError
from orbatlas.field import CycNum
from orbatlas.gallery import cone, football, global_quotient, point_atlas, teardrop
from orbatlas.geometry import AffineMap, Ball, Point
from orbatlas.groupoids import (
    ActionGroupoid,
    Arrow,
    GroupoidMorphism,
    GrpNatTrans,
    UnitPoint,
    check_groupoid_axioms,
    hcomp_grp,
    nat_trans_equal,
    structural_predicates,
    validate_groupoid_morphism,
    validate_grp_nat_trans,
    vcomp_grp,
)
from orbatlas.translation import FunctorImage, TranslationGroupoid, Triple, build_translation_groupoid
from orbatlas.systems import rotation_fixture

from conftest import z3_action


def z2_ball_action(dim=2):
    m = 2
    ball = Ball(Point.origin(m, dim), CycNum.rational(m, 1))
    minus = AffineMap.scaling(m, dim, -1)
    return ActionGroupoid(m, ball, [("e", AffineMap.identity(m, dim)), ("s", minus)])


def noneffective_double():
    """Z2 acting trivially: two labels, both represented by the identity."""
    m = 2
    ball = Ball(Point.origin(m, 1), CycNum.rational(m, 1))
    ident = AffineMap.identity(m, 1)
    mult = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    inv = {"e": "e", "s": "s"}
    return ActionGroupoid(m, ball, [("e", ident), ("s", ident)], mult=mult, inv=inv)


def z3_action_g2_as_zeta():
    """z/3 with its multiplication and inverse tables, and the map of g2
    replaced by zeta: products by the table land off the next arrow's source."""
    g = z3_action()
    elements = [(lab, g.rep[lab]) for lab in g.labels]
    elements[2] = ("g2", g.rep["g1"])
    return ActionGroupoid(g.conductor, g.ball, elements, mult=g.mult, inv=g.inv_table)


class BrokenInverse(ActionGroupoid):
    """Test double: inversion redefined as the identity map on arrows."""

    def inverse(self, a):
        return a


class TestAxioms:
    def test_z2_ball_action(self):
        rep = check_groupoid_axioms(z2_ball_action(), samples=40, seed=0)
        assert rep.ok, rep.failures()

    def test_translation_groupoid_cone3(self):
        g = build_translation_groupoid(cone(3))
        rep = check_groupoid_axioms(g, samples=60, seed=1)
        assert rep.ok, rep.failures()

    def test_non_composable_products_fail_their_axioms(self):
        rep = check_groupoid_axioms(z3_action_g2_as_zeta(), samples=20, seed=0)
        failures = dict(rep.failures())
        assert not rep.ok and "associativity" in failures
        for name, detail in failures.items():
            if not detail:
                continue
            # the detail names the first sample with a non-composable product
            index, message = detail.removeprefix("sample ").split(": ")
            assert message == "t(first) != s(second)"
            before = check_groupoid_axioms(z3_action_g2_as_zeta(), samples=int(index), seed=0)
            assert all(d == "" for n, _, d in before.checks if n == name)

    def test_broken_inverse_detected(self):
        m = 3
        g = BrokenInverse(
            m,
            Ball(Point.origin(m, 1), CycNum.rational(m, 1)),
            [(f"g{k}", AffineMap.scaling(m, 1, CycNum.zeta(3) ** k)) for k in range(3)],
        )
        rep = check_groupoid_axioms(g, samples=30, seed=2)
        assert not rep.ok
        assert any("inverse" in name for name, _ in rep.failures())

    def test_not_composable(self):
        g = z3_action()
        a = Arrow("g1", Point.of(3, Fraction(1, 4)))
        b = Arrow("g1", Point.of(3, Fraction(1, 8)))
        with pytest.raises(NotComposableError):
            g.multiply(a, b)


class TestMorphisms:
    def test_identity_morphism(self):
        g = z3_action()
        rep = validate_groupoid_morphism(GroupoidMorphism.identity_on(g), samples=30, seed=0)
        assert rep.ok

    def test_deck_swap_breaks_target_compatibility(self):
        g = z2_ball_action(dim=1)
        minus = g.rep["s"]
        ident = AffineMap.identity(2, 1)
        unit_maps = {"U": ("U", ident)}

        def bad_arrow_map(a):
            # re-route every arrow through the deck swap on one component
            if a.component == "s":
                return Arrow("s", minus(a.point))
            return a

        bad = GroupoidMorphism(g, g, unit_maps, bad_arrow_map)
        rep = validate_groupoid_morphism(bad, samples=40, seed=1)
        assert not rep.ok

    def test_composition_of_morphisms(self):
        g = z3_action()
        ident = GroupoidMorphism.identity_on(g)
        comp = ident.compose(ident)
        rep = validate_groupoid_morphism(comp, samples=20, seed=2)
        assert rep.ok


class TestNatTrans:
    def test_identity_cell(self):
        g = z3_action()
        cell = GrpNatTrans.identity_cell(GroupoidMorphism.identity_on(g))
        rep = validate_grp_nat_trans(cell, samples=25, seed=0)
        assert rep.ok

    def test_functor_image_cells_and_unit_laws(self):
        atlas = cone(3)
        rng = random.Random(3)
        fx = rotation_fixture(atlas, rng)
        F = FunctorImage()
        alpha = F.on_cell(fx.delta)
        beta = F.on_cell(fx.sigma)
        rep = validate_grp_nat_trans(alpha, samples=20, seed=1)
        assert rep.ok, rep.failures()
        comp = vcomp_grp(beta, alpha)
        rep = validate_grp_nat_trans(comp, samples=20, seed=2)
        assert rep.ok
        ident = GrpNatTrans.identity_cell(alpha.src_mor)
        assert nat_trans_equal(vcomp_grp(alpha, ident), alpha, samples=20, seed=3)
        identity_right = GrpNatTrans.identity_cell(alpha.dst_mor)
        assert nat_trans_equal(vcomp_grp(identity_right, alpha), alpha, samples=20, seed=4)

    def test_vcomp_of_rotation_cells_is_double_rotation(self):
        atlas = cone(3)
        from orbatlas.systems import OrbNatTrans, rotation_system
        from orbatlas.atlas import Embedding

        f = [rotation_system(atlas, {"cone3": k}) for k in range(3)]
        z = lambda k: Embedding(
            "cone3", "cone3", AffineMap.scaling(atlas.conductor, 1, CycNum.zeta(3) ** k)
        )
        delta = OrbNatTrans(f[0], f[1], {"cone3": z(1)})
        sigma = OrbNatTrans(f[1], f[2], {"cone3": z(1)})
        direct = OrbNatTrans(f[0], f[2], {"cone3": z(2)})
        F = FunctorImage()
        lhs = vcomp_grp(F.on_cell(sigma), F.on_cell(delta))
        assert nat_trans_equal(lhs, F.on_cell(direct), samples=25, seed=5)

    def test_hcomp_identity_cells(self):
        atlas = cone(3)
        rng = random.Random(4)
        fx = rotation_fixture(atlas, rng)
        F = FunctorImage()
        i_f = GrpNatTrans.identity_cell(F.on_system(fx.f1))
        i_g = GrpNatTrans.identity_cell(F.on_system(fx.g1))
        comp = hcomp_grp(i_g, i_f)
        want = GrpNatTrans.identity_cell(F.on_system(fx.g1).compose(F.on_system(fx.f1)))
        assert nat_trans_equal(comp, want, samples=20, seed=6)


class TestGermCalculus:
    def test_isotropy_counts(self):
        g = build_translation_groupoid(cone(3))
        origin = UnitPoint("cone3", Point.origin(3, 1))
        generic = UnitPoint("cone3", Point.of(3, Fraction(1, 4)))
        iso = g.isotropy(origin)
        assert len(iso) == 3
        germs = sorted(repr(g.local_bisection(a)) for a in iso)
        want = sorted(repr(AffineMap.scaling(3, 1, CycNum.zeta(3) ** k)) for k in range(3))
        assert germs == want
        assert len(g.isotropy(generic)) == 1
        assert g.local_bisection(g.isotropy(generic)[0]).is_identity()

    def test_germ_functoriality_and_inverse(self):
        rng = random.Random(7)
        for g, count in (
            (build_translation_groupoid(football(2, 3), validate=False), 300),
            (build_translation_groupoid(cone(4), validate=False), 200),
        ):
            for _ in range(count):
                a, b = g.random_composable_pair(rng)
                prod = g.multiply(a, b)
                assert g.local_bisection(b).compose(g.local_bisection(a)) == g.local_bisection(prod)
                assert g.local_bisection(g.inverse(a)) == g.local_bisection(a).inverse()

    def test_isotropy_matches_stabilizer(self):
        atlas = cone(6)
        g = build_translation_groupoid(atlas)
        from orbatlas.atlas import stabilizer
        from orbatlas.sampling import random_chart_point

        rng = random.Random(8)
        for _ in range(20):
            p = random_chart_point(rng, atlas, "cone6")
            u = UnitPoint("cone6", p)
            assert len(g.isotropy(u)) == len(stabilizer(atlas.chart("cone6"), p))


def germ_presentations():
    """Every gallery translation groupoid plus the builtin action groupoids."""
    atlases = (
        cone(2), cone(3), cone(4), cone(6), cone(4, conductor=12), football(2, 3),
        teardrop(3), global_quotient(2, 2), point_atlas(),
    )
    return [build_translation_groupoid(a) for a in atlases] + [
        z3_action(), z2_ball_action(), noneffective_double(),
    ]


class TestComponentGerm:
    """An arrow's germ depends on its component alone, and the arrow sits at
    its source point: the germ carries that point to the target."""

    def test_local_bisection_is_target_after_inverse_source(self):
        for g in germ_presentations():
            for comp in g.arrow_components():
                a = Arrow(comp.label, comp.ball.center)
                assert g.source(a) == UnitPoint(comp.s_component, a.point)
                assert g.target(a) == UnitPoint(comp.t_component, g.local_bisection(a)(a.point))
            if isinstance(g, TranslationGroupoid):
                # a triple (l, z, r) is the arrow at l(z) with germ r . l^(-1),
                # for every pair of stored legs out of a chart
                for k in g.atlas.chart_ids():
                    legs = [e for c in g.atlas.chart_ids() for e in g.atlas.family(k, c)]
                    z = g.atlas.chart(k).ball.center
                    for left in legs:
                        for right in legs:
                            a = g.arrow_of(Triple(left, z, right))
                            assert g.source(a) == UnitPoint(left.dst, left(z))
                            assert g.local_bisection(a) == right.map.compose(left.map.inverse())
                            assert g.target(a) == UnitPoint(right.dst, right(z))

    def test_germ_is_computed_once(self):
        for g in germ_presentations():
            for comp in g.arrow_components():
                germ = comp.germ
                assert comp.germ is germ
                assert g.local_bisection(Arrow(comp.label, comp.ball.center)) is germ


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


class TestArrowAt:
    def test_non_faithful_action_takes_the_first_label_carrying_the_germ(self):
        g = z4_by_sign()
        assert not g.is_faithful()
        minus = g.rep["g1"]
        for x in (Point.origin(2, 1), Point.of(2, Fraction(1, 3))):
            assert g.arrow_at("U", "U", g.rep["g0"], x) == Arrow("g0", x)
            assert g.arrow_at("U", "U", minus, x) == Arrow("g1", x)
            # the arrow the reconstruction morphism once scanned arrows_between for
            u1, u2 = UnitPoint("U", x), UnitPoint("U", minus(x))
            scan = [a for a in g.arrows_between(u1, u2) if g.local_bisection(a) == minus]
            assert g.arrow_at("U", "U", minus, x) == scan[0]

    @pytest.mark.parametrize(
        "make, component",
        [(z3_action, "U"), (lambda: TranslationGroupoid(cone(3)), "cone3")],
        ids=["action", "translation"],
    )
    def test_germ_no_arrow_carries_is_an_orbatlas_error(self, make, component):
        g = make()
        flip = AffineMap.scaling(g.conductor, 1, -1)
        with pytest.raises(OrbAtlasError) as info:
            g.arrow_at(component, component, flip, Point.of(g.conductor, Fraction(1, 3)))
        # the CLI exits 2 only for these two classes, and 1 for every other
        assert not isinstance(info.value, (ParseError, UnsupportedParamsError))


class TestActionComponents:
    """An action groupoid has the one unit component "U" and answers about no
    other."""

    def test_no_arrows_into_an_unknown_component(self):
        g = z3_action()
        x = Point.origin(g.conductor, 1)
        assert g.arrows_between(UnitPoint("U", x), UnitPoint("V", x)) == []

    def test_no_arrows_from_an_unknown_component(self):
        g = z3_action()
        assert g.arrows_from(UnitPoint("V", Point.origin(g.conductor, 1))) == []

    def test_transports_only_within_its_component(self):
        g = z3_action()
        assert len(g.transports("U", "U")) == 3
        assert g.transports("U", "V") == g.transports("V", "U") == []

    def test_unknown_label_is_an_atlas_mismatch(self):
        with pytest.raises(AtlasMismatchError, match="g3"):
            z3_action().arrow_component("g3")


class TestActionTables:
    """Each omitted table of an action groupoid is derived on its own from the
    representative maps; a table passed in is kept."""

    def test_mult_alone_derives_inv(self):
        g = z3_action()
        elements = [(lab, g.rep[lab]) for lab in g.labels]
        h = ActionGroupoid(g.conductor, g.ball, elements, mult=g.mult)
        assert h.mult is g.mult and h.inv_table == {"g0": "g0", "g1": "g2", "g2": "g1"}
        assert check_groupoid_axioms(h, samples=10, seed=0).ok

    def test_inv_alone_is_kept(self):
        g = z3_action()
        elements = [(lab, g.rep[lab]) for lab in g.labels]
        inv = {"g0": "g0", "g1": "g1", "g2": "g2"}
        h = ActionGroupoid(g.conductor, g.ball, elements, inv=inv)
        assert h.inv_table is inv and h.mult == g.mult

    def test_repeated_map_is_ambiguous_without_mult(self):
        m = 2
        ident = AffineMap.identity(m, 1)
        with pytest.raises(BoundaryMismatchError, match="ambiguous multiplication table"):
            ActionGroupoid(m, Ball(Point.origin(m, 1), CycNum.rational(m, 1)), [("e", ident), ("s", ident)])

    def test_unrepresented_inverse_needs_inv(self):
        # z/2 represented by the rotation zeta_3 with its table passed in:
        # zeta_3^(-1) is no element's map
        m = 3
        elements = [("g0", AffineMap.identity(m, 1)), ("g1", AffineMap.scaling(m, 1, CycNum.zeta(3)))]
        mult = {("g0", "g0"): "g0", ("g0", "g1"): "g1", ("g1", "g0"): "g1", ("g1", "g1"): "g0"}
        with pytest.raises(BoundaryMismatchError, match="pass inv explicitly"):
            ActionGroupoid(m, Ball.of(m, [0], 1), elements, mult=mult)


class TestPredicates:
    def test_gallery_groupoids_pass(self):
        for g in (
            build_translation_groupoid(football(2, 3)),
            build_translation_groupoid(cone(4)),
            z2_ball_action(),
        ):
            rep = structural_predicates(g, samples=12, seed=0)
            assert rep.ok, rep.failures()

    def test_noneffective_double_detected(self):
        rep = structural_predicates(noneffective_double(), samples=10, seed=1)
        assert not rep.ok
        assert any("effective" in name for name, _ in rep.failures())
        assert not noneffective_double().is_faithful()

    def test_one_point_groupoid(self):
        m = 1
        ball = Ball(Point(()), CycNum.rational(m, 1))
        g = ActionGroupoid(m, ball, [("e", AffineMap((), Point(())))])
        assert check_groupoid_axioms(g, samples=5, seed=0).ok
        assert structural_predicates(g, samples=5, seed=0).ok
