"""Compatible systems, their 2-cells, and the 2-category law suite."""

import json
import random
from fractions import Fraction

import pytest

from orbatlas.atlas import Embedding
from orbatlas.errors import AtlasMismatchError, BoundaryMismatchError, NoConjugatorError, NotUniqueError
from orbatlas.field import CycNum
from orbatlas.gallery import cone, football, global_quotient, point_atlas, teardrop
from orbatlas.geometry import AffineMap, PolyMap
from orbatlas.systems import (
    CompatibleSystem,
    OrbNatTrans,
    check_2cat_laws,
    compose_compatible,
    cells_equal,
    hcomp_orb,
    identity_cell,
    identity_system,
    rotation_fixture,
    rotation_system,
    systems_equal,
    validate_compatible_system,
    validate_orb_nat_trans,
    vcomp_orb,
)


@pytest.fixture(scope="module")
def a3():
    return cone(3)


def square_system(atlas):
    m = atlas.conductor
    cid = atlas.chart_ids()[0]
    sq = PolyMap(m, 1, 1, [{(2,): 1}])
    return CompatibleSystem(atlas, atlas, {cid: cid}, {}, {cid: sq})


class TestCompatibleSystems:
    def test_identity_system_valid(self, a3):
        assert validate_compatible_system(identity_system(a3)).ok

    def test_square_lift_valid(self, a3):
        f = square_system(a3)
        rep = validate_compatible_system(f)
        assert rep.ok, rep.failures()
        z3 = AffineMap.scaling(a3.conductor, 1, CycNum.zeta(3))
        assert f.group_map("cone3")[z3] == AffineMap.scaling(a3.conductor, 1, CycNum.zeta(3) ** 2)

    def test_translation_lift_invalid(self, a3):
        m = a3.conductor
        shift = PolyMap(m, 1, 1, [{(1,): 1, (0,): Fraction(1, 10)}])
        f = CompatibleSystem(a3, a3, {"cone3": "cone3"}, {}, {"cone3": shift})
        assert not validate_compatible_system(f).ok

    def test_non_similarity_affine_lift_reported(self):
        a = global_quotient(2, 2)
        cid = a.chart_ids()[0]
        diag = PolyMap(a.conductor, 2, 2, [{(1, 0): Fraction(1, 2)}, {(0, 1): Fraction(1, 4)}])
        rep = validate_compatible_system(CompatibleSystem(a, a, {cid: cid}, {}, {cid: diag}))
        assert rep.ok, rep.failures()
        assert rep.warnings == [f"lift of {cid}: coefficient-norm containment bound not met"]

    def test_identity_is_unit(self, a3):
        f = square_system(a3)
        assert systems_equal(compose_compatible(f, identity_system(a3)), f)
        assert systems_equal(compose_compatible(identity_system(a3), f), f)

    def test_square_composition_is_fourth_power(self, a3):
        f = square_system(a3)
        comp = compose_compatible(f, f)
        assert comp.lift("cone3").coords[0] == {(4,): CycNum.rational(a3.conductor, 1)}
        assert validate_compatible_system(comp).ok

    def test_composition_associative_on_rotations(self, a3):
        rng = random.Random(0)
        fx = rotation_fixture(a3, rng)
        lhs = compose_compatible(fx.h1, compose_compatible(fx.g1, fx.f1))
        rhs = compose_compatible(compose_compatible(fx.h1, fx.g1), fx.f1)
        assert systems_equal(lhs, rhs)

    def test_football_rotation_system(self):
        fb = football(2, 3)
        f = rotation_system(fb, {"north": 3, "south": 2, "glue": 0})
        rep = validate_compatible_system(f)
        assert rep.ok, rep.failures()


class TestNatTrans:
    def test_identity_cell_valid(self, a3):
        f = square_system(a3)
        assert validate_orb_nat_trans(identity_cell(f)).ok

    def test_rotation_cell_between_lifts(self, a3):
        # first system: identity lifts; second: z -> zeta_3 z; cell = zeta_3
        f1 = rotation_system(a3, {"cone3": 0})
        f2 = rotation_system(a3, {"cone3": 1})
        z3 = Embedding("cone3", "cone3", AffineMap.scaling(a3.conductor, 1, CycNum.zeta(3)))
        delta = OrbNatTrans(f1, f2, {"cone3": z3})
        assert validate_orb_nat_trans(delta).ok

    def test_wrong_component_detected(self, a3):
        f1 = rotation_system(a3, {"cone3": 0})
        f2 = rotation_system(a3, {"cone3": 1})
        z3sq = Embedding(
            "cone3", "cone3", AffineMap.scaling(a3.conductor, 1, CycNum.zeta(3) ** 2)
        )
        delta = OrbNatTrans(f1, f2, {"cone3": z3sq})
        rep = validate_orb_nat_trans(delta)
        assert not rep.ok
        assert any("factors" in name for name, _ in rep.failures())

    @pytest.mark.parametrize(
        "make", [lambda: cone(3), lambda: football(2, 3)], ids=["cone3", "football23"]
    )
    def test_systems_parsed_apart_share_atlases_by_value(self, make):
        from orbatlas.serialize import serialize, system_from_doc

        fx = rotation_fixture(make(), random.Random(1))
        f1, f2 = (system_from_doc(json.loads(serialize(f))) for f in (fx.f1, fx.f2))
        assert f1.src is not f2.src
        rep = validate_orb_nat_trans(OrbNatTrans(f1, f2, fx.delta.components))
        assert rep.ok, rep.failures()

    def test_systems_over_different_atlases_refused(self):
        a, b = cone(3), cone(3, radius2=Fraction(1, 2))
        f1 = rotation_system(a, {"cone3": 0})
        f2 = rotation_system(b, {"cone3": 1})
        z3 = Embedding("cone3", "cone3", AffineMap.scaling(a.conductor, 1, CycNum.zeta(3)))
        rep = validate_orb_nat_trans(OrbNatTrans(f1, f2, {"cone3": z3}))
        assert [name for name, _ in rep.failures()] == ["systems share source and target atlases"]

    @pytest.mark.parametrize("case", ["compose_compatible", "hcomp_orb", "systems_equal", "cells_equal"])
    def test_atlases_sharing_only_chart_ids_do_not_match(self, case):
        # cone(3) at two radii has one chart id and two different charts; a
        # second cone(3) object with equal data matches the first
        small, other = identity_system(cone(3, radius2=Fraction(1, 2))), identity_system(cone(3))
        f = identity_system(cone(3))
        if case == "compose_compatible":
            with pytest.raises(AtlasMismatchError):
                compose_compatible(small, f)
            assert systems_equal(compose_compatible(other, f), f)
        elif case == "hcomp_orb":
            with pytest.raises(BoundaryMismatchError):
                hcomp_orb(identity_cell(small), identity_cell(f))
            assert cells_equal(hcomp_orb(identity_cell(other), identity_cell(f)), identity_cell(f))
        elif case == "systems_equal":
            assert not systems_equal(small, f) and systems_equal(other, f)
        else:
            assert not cells_equal(identity_cell(small), identity_cell(f))
            assert cells_equal(identity_cell(other), identity_cell(f))

    def test_vertical_composition(self, a3):
        f = [rotation_system(a3, {"cone3": k}) for k in range(3)]
        z = lambda k: Embedding(
            "cone3", "cone3", AffineMap.scaling(a3.conductor, 1, CycNum.zeta(3) ** k)
        )
        delta = OrbNatTrans(f[0], f[1], {"cone3": z(1)})
        sigma = OrbNatTrans(f[1], f[2], {"cone3": z(1)})
        comp = vcomp_orb(sigma, delta)
        assert comp.components["cone3"].map == z(2).map
        assert validate_orb_nat_trans(comp).ok
        assert cells_equal(vcomp_orb(delta, identity_cell(f[0])), delta)
        assert cells_equal(vcomp_orb(identity_cell(f[1]), delta), delta)

    def test_vcomp_boundary_mismatch(self, a3):
        f = [rotation_system(a3, {"cone3": k}) for k in range(3)]
        z1 = Embedding("cone3", "cone3", AffineMap.scaling(a3.conductor, 1, CycNum.zeta(3)))
        delta = OrbNatTrans(f[0], f[1], {"cone3": z1})
        with pytest.raises(BoundaryMismatchError):
            vcomp_orb(delta, delta)

    def test_hcomp_identity_cells(self, a3):
        f = square_system(a3)
        g = rotation_system(a3, {"cone3": 1})
        lhs = hcomp_orb(identity_cell(g), identity_cell(f))
        assert cells_equal(lhs, identity_cell(compose_compatible(g, f)))

    def test_composition_outputs_revalidate(self, a3):
        # closure: vertical and horizontal composites are valid 2-cells
        rng = random.Random(17)
        fx = rotation_fixture(a3, rng)
        assert validate_orb_nat_trans(vcomp_orb(fx.sigma, fx.delta)).ok
        assert validate_orb_nat_trans(hcomp_orb(fx.eta, fx.delta)).ok


class TestLawSuite:
    def test_all_identity_fixture(self, a3):
        rng = random.Random(99)
        fx = rotation_fixture(a3, rng)
        rep = check_2cat_laws(fx)
        assert rep.ok, rep.failures()

    @pytest.mark.parametrize("p", [2, 3, 4, 6])
    def test_random_squares_per_cone(self, p):
        atlas = cone(p)
        rng = random.Random(p)
        for _ in range(5):
            rep = check_2cat_laws(rotation_fixture(atlas, rng))
            assert rep.ok, rep.failures()

    def test_corrupted_fixture_detected(self, a3):
        rng = random.Random(1)
        fx = rotation_fixture(a3, rng)
        wrong = Embedding(
            "cone3",
            "cone3",
            fx.delta.components["cone3"].map.compose(
                AffineMap.scaling(a3.conductor, 1, CycNum.zeta(3))
            ),
        )
        fx.delta.components["cone3"] = wrong
        rep = check_2cat_laws(fx)
        assert not rep.ok


def _reference_group_map(f, cid):
    """group_map as first written: both composites recomputed for every
    (g, h) pair."""
    chart = f.src.chart(cid)
    target = f.dst.chart(f.theta[cid])
    lift = f.lift(cid)
    table = {}
    for g in chart.group:
        hits = [h for h in target.group if lift.compose(g) == lift.then(h)]
        if not hits:
            raise NoConjugatorError(f"no target element tracks {g!r} through the lift of {cid}")
        if len(hits) > 1:
            raise NotUniqueError(f"degenerate lift on {cid}: group image ambiguous")
        table[g] = hits[0]
    return table


def _outcome(fn):
    try:
        return list(fn().items())
    except (NoConjugatorError, NotUniqueError) as exc:
        return type(exc), str(exc)


LAWS_GALLERY = [
    cone(2), cone(3), cone(4), cone(6), football(2, 3), teardrop(3),
    global_quotient(2, 2), point_atlas(), cone(4, conductor=12), football(3, 4, conductor=12),
]


class TestGroupMapReference:
    @pytest.mark.parametrize("k", range(len(LAWS_GALLERY)))
    def test_rotation_fixture_systems(self, k):
        atlas = LAWS_GALLERY[k]
        for seed in range(3):
            fx = rotation_fixture(atlas, random.Random(1000 * k + seed))
            systems = [fx.f1, fx.f2, fx.f3, fx.g1, fx.g2, fx.g3, fx.h1, compose_compatible(fx.g1, fx.f1)]
            for f in systems:
                for cid in atlas.chart_ids():
                    assert list(f.group_map(cid).items()) == list(_reference_group_map(f, cid).items())

    @pytest.mark.parametrize("p", [2, 3, 4, 6])
    def test_square_lift_squares_the_group(self, p):
        a = cone(p)
        f = square_system(a)
        cid = a.chart_ids()[0]
        table = f.group_map(cid)
        assert list(table.items()) == list(_reference_group_map(f, cid).items())
        assert all(h == g.compose(g) for g, h in table.items())

    @pytest.mark.parametrize("p", [2, 3])
    def test_failures_match_reference(self, p):
        a = cone(p)
        m, cid = a.conductor, a.chart_ids()[0]
        lifts = {
            NotUniqueError: PolyMap(m, 1, 1, [{(0,): 0}]),  # constant at the fixed point
            NoConjugatorError: PolyMap(m, 1, 1, [{(1,): 1, (0,): Fraction(1, 10)}]),
        }
        for error, lift in lifts.items():
            f = CompatibleSystem(a, a, {cid: cid}, {}, {cid: lift})
            got = _outcome(lambda: f.group_map(cid))
            assert got[0] is error
            assert got == _outcome(lambda: _reference_group_map(f, cid))


def _one_chart_atlas(cid, group):
    """A one-chart atlas over the unit disc of conductor 3 with the given group."""
    from orbatlas.atlas import Atlas, Chart
    from orbatlas.geometry import Ball

    return Atlas(3, 1, [Chart(cid, Ball.of(3, [0], 1), tuple(group))], [])


class TestGroupMapSolve:
    """group_map scans the images h . lift for every lift; its outcomes, the
    failures and the report details are those of the reference scan."""

    ZETA = AffineMap.scaling(3, 1, CycNum.zeta(3))
    LIFTS = {
        "identity": PolyMap.identity(3, 1),
        "similarity": PolyMap(3, 1, 1, [{(1,): CycNum.zeta(3) * Fraction(1, 2)}]),
        "constant at the fixed point": PolyMap(3, 1, 1, [{(0,): 0}]),
        "constant off it": PolyMap(3, 1, 1, [{(0,): Fraction(1, 3)}]),
        "z^2": PolyMap(3, 1, 1, [{(2,): 1}]),
    }
    TARGETS = {
        "the cone group": lambda z: (z.compose(z).compose(z), z, z.compose(z)),
        "zeta listed twice": lambda z: (z.compose(z).compose(z), z, z.compose(z), z),
        "trivial": lambda z: (z.compose(z).compose(z),),
    }

    def _system(self, lift, target):
        src = cone(3)
        dst = _one_chart_atlas("t", self.TARGETS[target](self.ZETA))
        return CompatibleSystem(src, dst, {"cone3": "t"}, {}, {"cone3": lift})

    @pytest.mark.parametrize("lift", LIFTS, ids=LIFTS.keys())
    @pytest.mark.parametrize("target", TARGETS, ids=TARGETS.keys())
    def test_outcomes_match_the_scan(self, lift, target):
        f = self._system(self.LIFTS[lift], target)
        reference = self._system(self.LIFTS[lift], target)
        assert _outcome(lambda: f.group_map("cone3")) == _outcome(lambda: _reference_group_map(reference, "cone3"))

    def test_report_details(self):
        doubled = validate_compatible_system(self._system(self.LIFTS["similarity"], "zeta listed twice"))
        missing = validate_compatible_system(self._system(self.LIFTS["similarity"], "trivial"))
        name = "group of cone3 tracked through the lift"
        assert (name, "degenerate lift on cone3: group image ambiguous") in doubled.failures()
        assert (name, f"no target element tracks {self.ZETA!r} through the lift of cone3") in missing.failures()
        # the constant lift at a point off the fixed point tracks every g to 1
        flat = self._system(self.LIFTS["constant off it"], "the cone group")
        assert all(h.is_identity() for h in flat.group_map("cone3").values())


def _conjugation_group_map(f, cid):
    """The conjugation solve group_map once used beside the scan: for an
    invertible similarity lift L of positive dimension, f(g) is the target
    element equal to L . g . L^(-1)."""
    aff = f.lift(cid).to_affine()
    inv = aff.inverse()
    target = f.dst.chart(f.theta[cid])
    table = {}
    for g in f.src.chart(cid).group:
        w = aff.compose(g).compose(inv)
        (table[g],) = [h for h in target.group if h == w]
    return table


def _invertible_lift_charts(f):
    for cid, lift in f.lifts.items():
        aff = lift.to_affine()
        if aff is not None and aff.dim and aff.is_invertible():
            yield cid


class TestGroupMapOnePath:
    """The one image scan of group_map gives the tables of the conjugation
    solve on every invertible lift, and the scan's failures on the others."""

    POSITIVE_DIM = [a for a in LAWS_GALLERY if a.dim]

    @pytest.mark.parametrize("k", range(len(POSITIVE_DIM)))
    def test_rotation_fixture_lifts_match_the_conjugation_solve(self, k):
        atlas = self.POSITIVE_DIM[k]
        checked = 0
        for seed in range(3):
            fx = rotation_fixture(atlas, random.Random(1000 * k + seed))
            systems = [fx.f1, fx.f2, fx.f3, fx.g1, fx.g2, fx.g3, fx.h1, compose_compatible(fx.g1, fx.f1)]
            for f in systems:
                for cid in _invertible_lift_charts(f):
                    assert list(f.group_map(cid).items()) == list(_conjugation_group_map(f, cid).items())
                    checked += 1
        assert checked

    @pytest.mark.parametrize("k", range(len(POSITIVE_DIM)))
    def test_parsed_system_matches_the_conjugation_solve(self, k):
        from orbatlas.serialize import serialize, system_from_doc

        fx = rotation_fixture(self.POSITIVE_DIM[k], random.Random(7 + k))
        f = system_from_doc(json.loads(serialize(compose_compatible(fx.g1, fx.f1))))
        cids = list(_invertible_lift_charts(f))
        assert cids == f.src.chart_ids()
        for cid in cids:
            assert list(f.group_map(cid).items()) == list(_conjugation_group_map(f, cid).items())
