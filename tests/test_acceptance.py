"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The per-criterion lines bypass pytest's capture so they are visible in any run
mode.  Every tolerance is zero: all comparisons are exact canonical-form
equalities."""

import random
import sys

import mpmath
import pytest

from orbatlas.atlas import Embedding, stabilizer, validate_atlas
from orbatlas.field import CycNum, sign_real
from orbatlas.gallery import (
    WitnessSpan,
    cone,
    cone_pair,
    football,
    global_quotient,
    point_atlas,
    pushforward_pair,
    teardrop,
    teardrop_pair,
)
from orbatlas.geometry import AffineMap, Point, PolyMap
from orbatlas.groupoids import (
    GroupoidMorphism,
    UnitPoint,
    check_groupoid_axioms,
)
from orbatlas.morita import (
    atlases_equivalent,
    bijection_demo,
    check_morita,
    morita_equivalence_chain,
    reconstruct_atlas,
    reconstruction_morita_morphism,
    subatlas_inclusion_morphism,
)
from orbatlas.sampling import random_chart_point
from orbatlas.systems import check_2cat_laws, rotation_fixture
from orbatlas.translation import (
    TranslationGroupoid,
    action_groupoid_oracle_report,
    check_functor_laws,
    multiplication_well_defined_report,
)

from conftest import make_sub_full_pair


def announce(number: int, ok: bool, text: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} -- {text}"
    print(line)
    print(line, file=sys.__stdout__)  # visible even under capture
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def gallery_atlases():
    return {
        "cone2": cone(2),
        "cone3": cone(3),
        "cone4": cone(4),
        "cone6": cone(6),
        "football23": football(2, 3),
        "teardrop3": teardrop(3),
        "quotient22": global_quotient(2, 2),
        "point": point_atlas(),
    }


@pytest.fixture(scope="module")
def gallery_groupoids(gallery_atlases):
    return {name: TranslationGroupoid(atlas) for name, atlas in gallery_atlases.items()}


def test_criterion_1_action_groupoid_equivalence(gallery_atlases):
    """Single-chart translation groupoids match the explicit action groupoid."""
    ok = True
    for name in ("cone2", "cone3", "cone4", "cone6", "quotient22"):
        rep = action_groupoid_oracle_report(gallery_atlases[name], samples=200, seed=101)
        if not rep.ok:
            ok = False
    announce(1, ok, "arrows of cone(p) and the dim-2 quotient biject with the action groupoid at 200 points each, m/i/e exact")


def test_criterion_2_groupoid_axioms(gallery_groupoids):
    ok = True
    for name, g in gallery_groupoids.items():
        rep = check_groupoid_axioms(g, samples=1000, seed=102)
        if not rep.ok:
            ok = False
    announce(2, ok, "all groupoid axioms plus the product-inversion identity on 1000 composable tuples per gallery groupoid")


def test_criterion_3_multiplication_well_defined(gallery_atlases):
    rep = multiplication_well_defined_report(
        gallery_atlases["cone6"], products=200, seed=103
    )
    announce(3, rep.ok, "200 products x 5 independent span completions all give equal classes")


def test_criterion_4_isotropy_orders(gallery_atlases, gallery_groupoids):
    rng = random.Random(104)
    ok = True
    for name, atlas in gallery_atlases.items():
        g = gallery_groupoids[name]
        for cid in atlas.chart_ids():
            points = list(atlas.witness_points(cid))
            points += [random_chart_point(rng, atlas, cid) for _ in range(25)]
            for p in points:
                want = len(stabilizer(atlas.chart(cid), p))
                got = len(g.isotropy(UnitPoint(cid, p)))
                if want != got:
                    ok = False
    announce(4, ok, "isotropy arrow counts equal chart stabilizer orders at every sampled point")


def test_criterion_5_two_category_laws(gallery_atlases):
    rng = random.Random(105)
    ok = True
    for name, atlas in gallery_atlases.items():
        for _ in range(100):
            rep = check_2cat_laws(rotation_fixture(atlas, rng))
            if not rep.ok:
                ok = False
    # corrupted fixtures are detected
    atlas = gallery_atlases["cone3"]
    fx = rotation_fixture(atlas, rng)
    fx.delta.components["cone3"] = Embedding(
        "cone3",
        "cone3",
        fx.delta.components["cone3"].map.compose(
            AffineMap.scaling(atlas.conductor, 1, CycNum.zeta(3))
        ),
    )
    detected = not check_2cat_laws(fx).ok
    announce(
        5,
        ok and detected,
        "associativity, units and the interchange law on 100 rotation squares per gallery atlas; corrupted fixtures detected",
    )


def test_criterion_6_functor_laws(gallery_atlases):
    rng = random.Random(106)
    ok = True
    for name in ("cone3", "football23"):
        fx = rotation_fixture(gallery_atlases[name], rng)
        rep = check_functor_laws(fx, samples=500, seed=106)
        if not rep.ok:
            ok = False
    announce(6, ok, "composition, identities, vertical and horizontal compositions preserved on 500 samples per fixture")


def test_criterion_7_morita_positive_negative():
    sub, full = make_sub_full_pair(3)
    pos = check_morita(subatlas_inclusion_morphism(sub, full), samples=100, seed=107)
    tg = TranslationGroupoid(cone(3))
    pt = TranslationGroupoid(point_atlas())
    m = tg.atlas.conductor
    const = PolyMap(m, 0, 1, [{(): 0}])
    origin = UnitPoint("cone3", Point.origin(m, 1))
    neg = check_morita(
        GroupoidMorphism(pt, tg, {"pt": ("cone3", const)}, lambda a: tg.identity(origin)),
        samples=20,
        seed=107,
    )
    unreached_named = any("unreached" in d for _, d in neg.condition_i.failures())
    announce(
        7,
        pos.verdict and not neg.condition_i.ok and unreached_named,
        "sub-atlas inclusion passes both conditions; the point-to-cone morphism fails (i) with a named unreached witness",
    )


def test_criterion_8_equivalence_implies_morita():
    u1, u2, ws = cone_pair(3)
    chain = morita_equivalence_chain(u1, u2, ws, samples=60, seed=108)
    announce(
        8,
        chain.verdict,
        "two cone(3) presentations: common refinement built, both inclusion morphisms pass the Morita conditions",
    )


def test_criterion_9_surjectivity_up_to_morita(gallery_atlases, gallery_groupoids):
    ok = True
    for name, g in gallery_groupoids.items():
        rec = reconstruct_atlas(g, samples=2, seed=109)
        if not validate_atlas(rec.atlas).ok:
            ok = False
        mor = reconstruction_morita_morphism(g, rec)
        if not check_morita(mor, samples=40, seed=109).verdict:
            ok = False
    # and the reconstructed atlas is equivalent to the original
    for name in ("cone3", "football23"):
        atlas = gallery_atlases[name]
        g = gallery_groupoids[name]
        rec = reconstruct_atlas(g, samples=2, seed=110)
        ws = [
            WitnessSpan(
                rec.atlas.chart(cid),
                Embedding(cid, cid, rec.atlas.chart(cid).identity()),
                Embedding(cid, rec.anchors[cid], AffineMap.identity(atlas.conductor, atlas.dim)),
            )
            for cid in rec.atlas.chart_ids()
        ]
        if not atlases_equivalent(rec.atlas, atlas, ws).ok:
            ok = False
    announce(
        9,
        ok,
        "reconstruction round trip passes the Morita conditions for every gallery groupoid; reconstructed atlases are equivalent to their sources",
    )


def test_criterion_10_bijection_coherence():
    equivalent_pairs = [cone_pair(3), teardrop_pair(3), pushforward_pair(football(2, 3))]
    inequivalent_pairs = [
        (cone(3, conductor=6), cone(2, conductor=6)),
        (cone(3), point_atlas()),
        (football(2, 3, conductor=6), cone(2, conductor=6)),
    ]
    ok = True
    for u1, u2, ws in equivalent_pairs:
        v = bijection_demo(u1, u2, ws, samples=30, seed=110)
        if not (v.agreement and v.atlas_side == "equivalent" and v.groupoid_side == "equivalent"):
            ok = False
    for u1, u2 in inequivalent_pairs:
        v = bijection_demo(u1, u2, None, samples=10, seed=110)
        if not (v.agreement and v.atlas_side == "inequivalent" and v.groupoid_side == "inequivalent"):
            ok = False
    announce(10, ok, "atlas-side and groupoid-side verdicts agree on 3 equivalent and 3 inequivalent gallery pairs")


def test_criterion_11_exact_kernel():
    rng = random.Random(111)
    m = 12
    from orbatlas.sampling import random_cycnum

    ok = True
    one = CycNum.rational(m, 1)
    for _ in range(10_000):
        a, b, c = (random_cycnum(rng, m, size=6) for _ in range(3))
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            ok = False
        if a * (b + c) != a * b + a * c:
            ok = False
        if not a.is_zero() and a * a.inv() != one:
            ok = False
    # sign determination vs a fixed 256-bit interval oracle
    old = mpmath.iv.prec
    mpmath.iv.prec = 256
    cos_cache = {
        k: mpmath.iv.cos(2 * mpmath.iv.pi * k / m) for k in range(4)
    }
    mismatches = 0
    checked = 0
    try:
        while checked < 10_000:
            x = random_cycnum(rng, m, size=9)
            x = x + x.conj()
            if x.is_zero():
                continue
            box = mpmath.iv.mpf(0)
            for k, c in enumerate(x.reduced):
                box += cos_cache[k] * int(c.numerator) / int(c.denominator)
            want = 1 if box.a > 0 else (-1 if box.b < 0 else 0)
            if want == 0:
                continue
            checked += 1
            if sign_real(x) != want:
                mismatches += 1
    finally:
        mpmath.iv.prec = old
    announce(
        11,
        ok and mismatches == 0,
        f"field laws on 10^4 random triples and sign determination on 10^4 nonzero real elements: {mismatches} mismatches",
    )
