"""The four benchmark workloads.

Each workload builds its inputs in ``setup`` (gallery atlases written as
canonical JSON and parsed back, validated groupoids, fixtures) and then hands
out ops one round at a time.  A round holds every op kind of the workload once,
so a run that stops at a round boundary always runs the same mix.

An op is ``Op(key, run, verify)``: ``run()`` calls the program and is the only
timed part; ``verify(result)`` turns the result into a canonical report
document and returns ``(doc, problem)``, where ``problem`` is ``None`` when the
verdict is the expected one.  ``key`` names the op in ``golden.json``.  Every
key a run can produce lies in a finite pool (``pool()``), which is what
``golden.py`` records.

All program calls go through module attributes (``morita.check_morita``) so
that the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath

import orbatlas.atlas as atlas_mod
import orbatlas.field as field
import orbatlas.gallery as gallery
import orbatlas.geometry as geometry
import orbatlas.groupoids as groupoids
import orbatlas.morita as morita
import orbatlas.serialize as serialize
import orbatlas.systems as systems
import orbatlas.translation as translation
from orbatlas.field import CycNum  # a class: its traced methods are wrapped in place


class Op(NamedTuple):
    key: str
    run: Callable[[], object]
    verify: Callable[[object], tuple]


def canonical(doc) -> bytes:
    """The benchmark's own canonical JSON, independent of orbatlas.serialize."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def digest(doc) -> str:
    return hashlib.sha256(canonical(doc)).hexdigest()[:16]


def report_doc(*reports) -> dict:
    return {
        "checks": [[r.title, name, ok, detail] for r in reports for name, ok, detail in r.checks],
        "warnings": [[r.title, w] for r in reports for w in r.warnings],
    }


def _failures(*reports) -> str:
    return "; ".join(
        f"{r.title}: {name}" + (f" ({detail})" if detail else "") for r in reports for name, detail in r.failures()
    )


def expect_pass(*reports):
    doc = report_doc(*reports)
    if all(r.ok for r in reports):
        return doc, None
    return doc, "expected pass, got fail: " + _failures(*reports)


def canonical_input(atlas):
    """Write an atlas as canonical JSON and parse it back: the program only
    ever sees the parsed copy."""
    payload = serialize.serialize(atlas)
    parsed = serialize.atlas_from_doc(json.loads(payload))
    if serialize.serialize(parsed) != payload:
        raise RuntimeError("canonical JSON round trip changed the bytes of an input atlas")
    return parsed


def _perm(seed: int, salt: str, n: int) -> list[int]:
    return random.Random(f"{salt}:{seed}").sample(range(n), n)


class Seeds:
    """One seeded order of a pool of sample seeds per op kind, so that the
    ops of one round do not share random draws (which would make their costs
    rise and fall together)."""

    def __init__(self, seed: int, size: int):
        self.seed = seed
        self.size = size
        self._orders: dict[str, list[int]] = {}

    def __call__(self, kind: str, r: int) -> int:
        order = self._orders.get(kind)
        if order is None:
            order = self._orders[kind] = _perm(self.seed, kind, self.size)
        return order[r % self.size]


# -- axioms ----------------------------------------------------------------------

AXIOM_GALLERY = {
    "cone3": lambda: gallery.cone(3),
    "cone6": lambda: gallery.cone(6),
    "football23": lambda: gallery.football(2, 3),
    "teardrop3": lambda: gallery.teardrop(3),
    "quot22": lambda: gallery.global_quotient(2, 2),
    "cone4m12": lambda: gallery.cone(4, conductor=12),
    "football34m12": lambda: gallery.football(3, 4, conductor=12),
    "quot42m8": lambda: gallery.global_quotient(4, 2, conductor=8),
}


class Axioms:
    """The suites of ``orbatlas groupoid`` at small sample counts, one suite
    call per op, rotating over eight gallery groupoids."""

    name = "axioms"
    uses_golden = True
    POOL = 16  # sample seeds per (groupoid, suite)
    NOMINAL_ROUND_S = 1.2
    SUITES = {
        "axioms": lambda g, s: groupoids.check_groupoid_axioms(g, samples=2, seed=s),
        "predicates": lambda g, s: groupoids.structural_predicates(g, samples=1, seed=s),
        "products": lambda g, s: translation.multiplication_well_defined_report(g.atlas, products=1, seed=s),
        "action": lambda g, s: translation.action_groupoid_oracle_report(g.atlas, samples=1, seed=s),
    }

    def setup(self, seed: int, full: bool = False) -> None:
        self.seeds = Seeds(seed, self.POOL)
        self.groupoids = {
            name: translation.build_translation_groupoid(canonical_input(make()), validate=True)
            for name, make in AXIOM_GALLERY.items()
        }
        self.kinds = [
            (f"{name}/{suite}", g, fn)
            for name, g in self.groupoids.items()
            for suite, fn in self.SUITES.items()
            if suite != "action" or len(g.atlas.charts) == 1
        ]

    @staticmethod
    def _op(kind: str, g, fn, s: int) -> Op:
        return Op(f"{kind}/s{s}", lambda: fn(g, s), expect_pass)

    def round(self, r: int) -> list[Op]:
        return [self._op(kind, g, fn, self.seeds(kind, r)) for kind, g, fn in self.kinds]

    def pool(self):
        for s in range(self.POOL):
            for kind, g, fn in self.kinds:
                yield self._op(kind, g, fn, s)


# -- reconstruct -------------------------------------------------------------------

RECONSTRUCT_GALLERY = {
    "cone3": lambda: gallery.cone(3),
    "cone6": lambda: gallery.cone(6),
    "football23": lambda: gallery.football(2, 3),
    "teardrop3": lambda: gallery.teardrop(3),
    "quot22": lambda: gallery.global_quotient(2, 2),
    "cone4m12": lambda: gallery.cone(4, conductor=12),
}


def _verify_reconstruction(result):
    rec, rep, payload = result
    doc = {
        "atlas": hashlib.sha256(payload).hexdigest(),
        "anchors": dict(sorted(rec.anchors.items())),
        "report": report_doc(rep),
    }
    return doc, None if rep.ok else "reconstructed atlas fails validation: " + _failures(rep)


def _verify_morita(result):
    return expect_pass(result.condition_i, result.condition_ii)


def _verify_point_to_cone(result):
    """Criterion 7's negative control: condition (i) fails and names an
    unreached witness."""
    doc = report_doc(result.condition_i, result.condition_ii)
    unreached = any("unreached" in d for _, d in result.condition_i.failures())
    if result.condition_i.ok or not unreached:
        return doc, "point-to-cone morphism was not rejected on condition (i) with an unreached witness"
    return doc, None


class Reconstruct:
    """Per groupoid, one reconstruct-and-validate op, then check_morita ops on
    the reconstruction morphism; plus criterion 7's point-to-cone morphism as
    a negative control.  Every BLOCK rounds each groupoid is reconstructed
    again with the next reconstruction seed, the groupoids staggered across
    the block, so the share of reconstruction ops (and of cold-cache first
    checks) is the same however many rounds a run completes.  The seed orders
    the sample seeds of the checks.  A run goes more than twice through the
    pool of 32, and the reconstructions are the same in every run: a check's
    cost ranges over 50x with its sample, more than a run can average out."""

    name = "reconstruct"
    uses_golden = True
    RECON_POOL = 4  # reconstruction seeds per groupoid
    BLOCK = 16  # rounds per reconstruction
    POOL = 32  # sample seeds of the morita ops
    NOMINAL_ROUND_S = 0.25

    def setup(self, seed: int, full: bool = False) -> None:
        self.groupoids = {
            name: translation.build_translation_groupoid(canonical_input(make()), validate=True)
            for name, make in RECONSTRUCT_GALLERY.items()
        }
        self.seeds = Seeds(seed, self.POOL)
        self.recons: dict = {}
        self.point_to_cone = self._point_to_cone()

    @staticmethod
    def _point_to_cone():
        tg = translation.TranslationGroupoid(canonical_input(gallery.cone(3)))
        pt = translation.TranslationGroupoid(canonical_input(gallery.point_atlas()))
        m = tg.atlas.conductor
        const = geometry.PolyMap(m, 0, 1, [{(): 0}])
        origin = groupoids.UnitPoint("cone3", geometry.Point.origin(m, 1))
        return groupoids.GroupoidMorphism(pt, tg, {"pt": ("cone3", const)}, lambda a: tg.identity(origin))

    def _recon_op(self, name: str, rs: int) -> Op:
        g = self.groupoids[name]

        def run():
            rec = morita.reconstruct_atlas(g, samples=2, seed=rs)
            rep = atlas_mod.validate_atlas(rec.atlas, samples=20, rng=random.Random(rs))
            self.recons[(name, rs)] = rec
            return rec, rep, serialize.serialize(rec.atlas)

        return Op(f"{name}/recon/r{rs}", run, _verify_reconstruction)

    def _morita_op(self, name: str, rs: int, s: int) -> Op:
        g = self.groupoids[name]

        def run():
            rec = self.recons[(name, rs)]
            return morita.check_morita(morita.reconstruction_morita_morphism(g, rec), samples=1, seed=s)

        return Op(f"{name}/morita/r{rs}/s{s}", run, _verify_morita)

    def _control_op(self, s: int) -> Op:
        return Op(
            f"point-to-cone/s{s}",
            lambda: morita.check_morita(self.point_to_cone, samples=1, seed=s),
            _verify_point_to_cone,
        )

    def round(self, r: int) -> list[Op]:
        ops = []
        for k, name in enumerate(self.groupoids):
            phase = r + k * self.BLOCK // len(self.groupoids)
            rs = phase // self.BLOCK % self.RECON_POOL
            if r == 0 or phase % self.BLOCK == 0:
                ops.append(self._recon_op(name, rs))
            ops.append(self._morita_op(name, rs, self.seeds(name, r)))
        ops.append(self._control_op(self.seeds("point-to-cone", r)))
        return ops

    def pool(self):
        for name in self.groupoids:
            for rs in range(self.RECON_POOL):
                yield self._recon_op(name, rs)
                for s in range(self.POOL):
                    yield self._morita_op(name, rs, s)
        for s in range(self.POOL):
            yield self._control_op(s)


# -- laws --------------------------------------------------------------------------

LAWS_GALLERY = {
    "cone2": lambda: gallery.cone(2),
    "cone3": lambda: gallery.cone(3),
    "cone4": lambda: gallery.cone(4),
    "cone6": lambda: gallery.cone(6),
    "football23": lambda: gallery.football(2, 3),
    "teardrop3": lambda: gallery.teardrop(3),
    "quot22": lambda: gallery.global_quotient(2, 2),
    "point": lambda: gallery.point_atlas(),
    "cone4m12": lambda: gallery.cone(4, conductor=12),
    "football34m12": lambda: gallery.football(3, 4, conductor=12),
}

# Criterion 10's pairs: three equivalent (with witnesses), three inequivalent.
EQUIVALENT_PAIRS = {
    "cone-pair": lambda: gallery.cone_pair(3),
    "teardrop-pair": lambda: gallery.teardrop_pair(3),
    "pushforward-pair": lambda: gallery.pushforward_pair(gallery.football(2, 3)),
}
INEQUIVALENT_PAIRS = {
    "cone3-cone2": lambda: (gallery.cone(3, conductor=6), gallery.cone(2, conductor=6)),
    "cone3-point": lambda: (gallery.cone(3), gallery.point_atlas()),
    "football23-cone2": lambda: (gallery.football(2, 3, conductor=6), gallery.cone(2, conductor=6)),
}


def _verify_roundtrip(result):
    first, second = result
    doc = {"bytes": hashlib.sha256(first).hexdigest(), "length": len(first), "match": first == second}
    return doc, None if first == second else "2-cell bytes changed across serialize -> parse -> serialize"


def _verify_bijection(expected: str):
    def verify(v):
        doc = {
            "atlas_side": v.atlas_side,
            "groupoid_side": v.groupoid_side,
            "agreement": v.agreement,
            "details": report_doc(v.details),
        }
        if v.agreement and v.atlas_side == expected and v.groupoid_side == expected:
            return doc, None
        return doc, f"expected both sides {expected}, got atlas {v.atlas_side!r}, groupoid {v.groupoid_side!r}"

    return verify


def _verify_corrupted(rep):
    doc = report_doc(rep)
    return doc, "corrupted 2-cell fixture passed the 2-category laws" if rep.ok else None


def _witnesses_input(witnesses, m: int):
    payload = serialize.canonical_bytes(serialize.witnesses_to_doc(witnesses))
    return serialize.witnesses_from_doc(json.loads(payload), m)


class Laws:
    """2-category laws, functor laws and 2-cell round trips on rotation
    fixtures, and criterion 10's bijection demos; the corrupted 2-cell of
    criterion 5 and the inequivalent pairs are negative controls."""

    name = "laws"
    uses_golden = True
    FIXTURE_POOL = 32  # fixture indices per atlas
    FIXTURES_PER_RUN = 8
    BIJECTION_POOL = 8  # seeds of the bijection demos
    NOMINAL_ROUND_S = 1.1

    def setup(self, seed: int, full: bool = False) -> None:
        self.atlases = {name: canonical_input(make()) for name, make in LAWS_GALLERY.items()}
        for a in self.atlases.values():
            translation.build_translation_groupoid(a, validate=True)
        count = self.FIXTURE_POOL if full else self.FIXTURES_PER_RUN
        self.fixture_ids = {name: _perm(seed, name, self.FIXTURE_POOL)[:count] for name in self.atlases}
        self.fixtures = {
            (name, f): systems.rotation_fixture(a, random.Random(1000 * k + f))
            for k, (name, a) in enumerate(self.atlases.items())
            for f in self.fixture_ids[name]
        }
        self.corrupted = {f: self._corrupt(self.fixtures[("cone3", f)]) for f in self.fixture_ids["cone3"]}
        self.pairs = {}
        for name, make in EQUIVALENT_PAIRS.items():
            u1, u2, ws = make()
            self.pairs[name] = ("equivalent", canonical_input(u1), canonical_input(u2), _witnesses_input(ws, u1.conductor))
        for name, make in INEQUIVALENT_PAIRS.items():
            u1, u2 = make()
            self.pairs[name] = ("inequivalent", canonical_input(u1), canonical_input(u2), None)
        self.bijection_seeds = Seeds(seed, self.BIJECTION_POOL)

    def _corrupt(self, fx):
        """Criterion 5's corruption: one 2-cell component rotated by zeta_3."""
        m = fx.U.conductor
        comps = dict(fx.delta.components)
        bad = comps["cone3"].map.compose(geometry.AffineMap.scaling(m, 1, CycNum.zeta(3)))
        comps["cone3"] = atlas_mod.Embedding("cone3", "cone3", bad)
        return dataclasses.replace(fx, delta=systems.OrbNatTrans(fx.delta.src_sys, fx.delta.dst_sys, comps))

    def _fixture_ops(self, name: str, f: int) -> list[Op]:
        fx = self.fixtures[(name, f)]

        def roundtrip():
            first = serialize.serialize(fx.delta)
            second = serialize.serialize(serialize.cell_from_doc(json.loads(first)))
            return first, second

        return [
            Op(f"{name}/2cat/f{f}", lambda: systems.check_2cat_laws(fx), expect_pass),
            Op(f"{name}/functor/f{f}", lambda: translation.check_functor_laws(fx, samples=3, seed=f), expect_pass),
            Op(f"{name}/roundtrip/f{f}", roundtrip, _verify_roundtrip),
        ]

    def _bijection_op(self, name: str, s: int) -> Op:
        expected, u1, u2, ws = self.pairs[name]
        samples = 2 if ws else 1
        return Op(
            f"{name}/bijection/s{s}",
            lambda: morita.bijection_demo(u1, u2, ws, samples=samples, seed=s),
            _verify_bijection(expected),
        )

    def _corrupted_op(self, f: int) -> Op:
        fx = self.corrupted[f]
        return Op(f"cone3/corrupted/f{f}", lambda: systems.check_2cat_laws(fx), _verify_corrupted)

    def round(self, r: int) -> list[Op]:
        ops = []
        for name, ids in self.fixture_ids.items():
            ops += self._fixture_ops(name, ids[r % len(ids)])
        ops += [self._bijection_op(name, self.bijection_seeds(name, r)) for name in self.pairs]
        cone3 = self.fixture_ids["cone3"]
        ops.append(self._corrupted_op(cone3[r % len(cone3)]))
        return ops

    def pool(self):
        for name, ids in self.fixture_ids.items():
            for f in ids:
                yield from self._fixture_ops(name, f)
        for f in self.fixture_ids["cone3"]:
            yield self._corrupted_op(f)
        for s in range(self.BIJECTION_POOL):
            for name in self.pairs:
                yield self._bijection_op(name, s)


# -- kernel ------------------------------------------------------------------------

KERNEL_CONDUCTORS = (8, 12)
KERNEL_DEGREE = 4  # phi(8) = phi(12) = 4


class SignOracle:
    """The benchmark's own sign oracle: x + conj(x) = 2 sum c_k cos(2 pi k/m),
    enclosed by 256-bit interval arithmetic from the generated coefficients."""

    PREC = 256

    def __init__(self):
        old = mpmath.iv.prec
        mpmath.iv.prec = self.PREC
        try:
            self.cos = {
                m: [mpmath.iv.cos(2 * mpmath.iv.pi * k / m) for k in range(KERNEL_DEGREE)]
                for m in KERNEL_CONDUCTORS
            }
        finally:
            mpmath.iv.prec = old

    def sign(self, m: int, coeffs) -> int:
        """+1 or -1, or 0 when the enclosure straddles zero (the element is 0)."""
        old = mpmath.iv.prec
        mpmath.iv.prec = self.PREC
        try:
            box = mpmath.iv.mpf(0)
            for c, cos in zip(coeffs, self.cos[m]):
                if c:
                    box += cos * mpmath.iv.mpf(c.numerator) / c.denominator
        finally:
            mpmath.iv.prec = old
        return 1 if box.a > 0 else (-1 if box.b < 0 else 0)


class Kernel:
    """Field-law triples and sign determinations on fresh real elements
    x + conj(x) at m = 8 and m = 12, with coefficients drawn by the benchmark,
    so the sign cache stays cold."""

    name = "kernel"
    uses_golden = False
    TRIPLES = 4  # per conductor per op
    SIGNS = 64  # per conductor per op
    OPS_PER_ROUND = 10
    NOMINAL_ROUND_S = 0.8

    def setup(self, seed: int, full: bool = False) -> None:
        self.seed = seed
        self.oracle = SignOracle()
        self.one = {m: CycNum.rational(m, 1) for m in KERNEL_CONDUCTORS}

    @staticmethod
    def _coeffs(rng: random.Random) -> list[Fraction]:
        return [Fraction(rng.randint(-64, 64), rng.randint(1, 8)) for _ in range(KERNEL_DEGREE)]

    def round(self, r: int) -> list[Op]:
        return [self._op(f"{r}.{j}") for j in range(self.OPS_PER_ROUND)]

    def _op(self, index: str) -> Op:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        batches = []
        expected = {}
        for m in KERNEL_CONDUCTORS:
            triples = [tuple(CycNum(m, self._coeffs(rng)) for _ in range(3)) for _ in range(self.TRIPLES)]
            elements, signs = [], []
            while len(elements) < self.SIGNS:
                coeffs = self._coeffs(rng)
                want = self.oracle.sign(m, coeffs)
                if want:  # an exactly zero real part has no sign to check
                    elements.append(CycNum(m, coeffs))
                    signs.append(want)
            batches.append((m, triples, elements))
            expected[str(m)] = {"laws": [[True] * 4] * self.TRIPLES, "signs": signs}

        def run():
            out = {}
            for m, triples, elements in batches:
                one = self.one[m]
                laws = [
                    [
                        (a + b) + c == a + (b + c),
                        (a * b) * c == a * (b * c),
                        a * (b + c) == a * b + a * c,
                        a.is_zero() or a * a.inv() == one,
                    ]
                    for a, b, c in triples
                ]
                signs = [field.sign_real(x + x.conj()) for x in elements]
                out[str(m)] = {"laws": laws, "signs": signs}
            return out

        def verify(result):
            if result == expected:
                return result, None
            return result, "field laws or signs differ from the 256-bit interval oracle"

        return Op(f"kernel/{self.seed}/{index}", run, verify)


WORKLOADS = {w.name: w for w in (Axioms, Reconstruct, Laws, Kernel)}
