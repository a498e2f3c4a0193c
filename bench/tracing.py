"""Per-layer tracing of orbatlas from outside the package.

The tracer replaces functions and methods of the layer modules with wrappers
that count calls and time layer boundaries.  Nothing under ``src/`` knows about
it.  Two kinds of layer are traced differently:

* ``field`` and ``geometry`` are called hundreds of thousands of times per run,
  so their wrappers record no spans: they only count calls and add their time to
  the layer's total on the shared parent stack.
* the layers from ``sampling`` upward record one span per call that enters the
  layer from another layer.  A span is ``(name, start, end, parent, op)``.

A call made from inside the same layer only bumps its counter, so the cost of a
layer's internal helpers is charged to the boundary frame that entered it.  The
self time of a layer is the time of its boundary frames minus the time their
child frames (other layers) cover.

``from .x import y`` copies a binding into the importing module, so every
attribute of every ``orbatlas`` module that *is* an original function is
rebound to its wrapper; aliases such as ``__rmul__ = __mul__`` are rebound the
same way on the class.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# Layers whose calls are counted and timed but never recorded as spans.
ACCUMULATE = ("field", "geometry")
# Layers that record a span for every call entering them.
SPANNED = ("sampling", "oracles", "atlas", "translation", "groupoids", "systems", "morita", "serialize")
LAYERS = ACCUMULATE + SPANNED

# Dunder methods wrapped when a (non-dataclass) class defines them.
_DUNDERS = (
    "__init__", "__call__", "__eq__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__neg__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
)
# Trivial accessors left unwrapped: a frame would cost more than the call.
_SKIP = {
    "orbatlas.field": {"CycNum.is_zero", "CycNum.is_rational", "CycNum.as_rational"},
    "orbatlas.geometry": {"AffineMap.is_invertible"},
    "orbatlas.atlas": {"Atlas.chart", "Atlas.chart_ids", "Atlas.family", "Atlas.identity_embedding"},
    "orbatlas.translation": {
        "TranslationGroupoid.arrow_component",
        "TranslationGroupoid.unit_components",
        "TranslationGroupoid.arrow_components",
    },
    "orbatlas.groupoids": {"GroupoidPresentation.unit_equal", "GroupoidPresentation.unit_component"},
    "orbatlas.systems": {"CompatibleSystem.lift", "OrbNatTrans.component"},
}
# Private helpers that are layer entry points in their own right.
_PRIVATE = {"orbatlas.field": ("_interval_value",)}

# (module, qualified name) -> counter.  Counters count every call.
COUNTERS = {
    ("orbatlas.field", "CycNum.__mul__"): "field.mul.calls",
    ("orbatlas.field", "CycNum.__add__"): "field.add.calls",
    ("orbatlas.field", "CycNum.inv"): "field.inv.calls",
    ("orbatlas.field", "CycNum.conj"): "field.conj.calls",
    ("orbatlas.field", "sign_real"): "field.sign.calls",
    ("orbatlas.field", "_interval_value"): "field.sign.interval_evals",
    ("orbatlas.geometry", "AffineMap.__call__"): "geometry.apply.calls",
    ("orbatlas.geometry", "PolyMap.__call__"): "geometry.apply.calls",
    ("orbatlas.geometry", "AffineMap.compose"): "geometry.compose.calls",
    ("orbatlas.geometry", "PolyMap.compose"): "geometry.compose.calls",
    ("orbatlas.geometry", "AffineMap.inverse"): "geometry.inverse.calls",
    ("orbatlas.geometry", "point_in_ball"): "geometry.point_in_ball.calls",
    ("orbatlas.geometry", "ball_in_ball"): "geometry.ball_predicates.calls",
    ("orbatlas.geometry", "balls_disjoint"): "geometry.ball_predicates.calls",
    ("orbatlas.geometry", "balls_equal"): "geometry.ball_predicates.calls",
    ("orbatlas.sampling", "random_point_in_ball"): "sampling.points",
    ("orbatlas.atlas", "Atlas.refine"): "oracles.refine.calls",
    ("orbatlas.atlas", "Atlas.locate"): "oracles.locate.calls",
    ("orbatlas.atlas", "common_span"): "atlas.common_span.calls",
    ("orbatlas.atlas", "find_conjugator"): "atlas.find_conjugator.calls",
    ("orbatlas.atlas", "Atlas.in_family"): "atlas.in_family.calls",
    ("orbatlas.translation", "TranslationGroupoid.multiply"): "translation.multiply.calls",
    ("orbatlas.translation", "TranslationGroupoid.arrow_equal"): "translation.arrow_equal.calls",
    ("orbatlas.translation", "TranslationGroupoid.arrows_from"): "translation.arrows_from.calls",
    ("orbatlas.translation", "TranslationGroupoid.arrows_between"): "translation.arrows_between.calls",
    ("orbatlas.systems", "check_2cat_laws"): "systems.check_2cat_laws.calls",
    ("orbatlas.systems", "compose_compatible"): "systems.compose.calls",
    ("orbatlas.systems", "vcomp_orb"): "systems.compose.calls",
    ("orbatlas.systems", "hcomp_orb"): "systems.compose.calls",
    ("orbatlas.morita", "check_morita"): "morita.check_morita.calls",
    ("orbatlas.morita", "reconstruct_atlas"): "morita.reconstruct.calls",
    ("orbatlas.morita", "morita_equivalence_chain"): "morita.chain.calls",
}
# Counters that count only calls entering the layer: one per document handed
# to the parsers, however many nested documents it holds.
ENTRY_COUNTERS = {
    ("orbatlas.serialize", "parse_any"): "serialize.parse.calls",
    ("orbatlas.serialize", "atlas_from_doc"): "serialize.parse.calls",
    ("orbatlas.serialize", "groupoid_from_doc"): "serialize.parse.calls",
    ("orbatlas.serialize", "system_from_doc"): "serialize.parse.calls",
    ("orbatlas.serialize", "cell_from_doc"): "serialize.parse.calls",
    ("orbatlas.serialize", "witnesses_from_doc"): "serialize.parse.calls",
}
# The oracle is reached only through Atlas.refine / Atlas.locate, so those two
# methods are the oracles layer's entry points although they live in atlas.py.
LAYER_OVERRIDE = {
    ("orbatlas.atlas", "Atlas.refine"): "oracles",
    ("orbatlas.atlas", "Atlas.locate"): "oracles",
}


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans: list = []
        # frame: [layer, index of the enclosing span, time covered by children]
        self.stack = [["root", -1, 0.0]]
        self.op_id = None

    # -- frames -------------------------------------------------------------

    def begin(self, name: str, op_id) -> None:
        """Open the root span of one op (or of set-up); calls outside
        begin/end are not traced."""
        self.op_id = op_id
        self.stack.append(["op", len(self.spans), 0.0, perf_counter(), name])
        self.spans.append(None)

    def end(self) -> None:
        t1 = perf_counter()
        _, index, _, t0, name = self.stack.pop()
        self.spans[index] = (name, t0, t1, -1, self.op_id)
        self.op_id = None

    def _make(self, fn, layer: str, name: str, counter, entry_counter, spanned: bool):
        stack = self.stack
        counts = self.counts
        self_s = self.self_s
        spans = self.spans
        root = stack[0]
        tracer = self

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top is root:  # outside set-up and ops: the benchmark's own calls
                return fn(*args, **kwargs)
            if counter is not None:
                counts[counter] += 1
            if top[0] == layer:
                return fn(*args, **kwargs)
            if entry_counter is not None:
                counts[entry_counter] += 1
            if spanned:
                frame = [layer, len(spans), 0.0]
                spans.append(None)
            else:
                frame = [layer, top[1], 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                top[2] += dt
                self_s[layer] += dt - frame[2]
                if spanned:
                    spans[frame[1]] = (name, t0, t1, top[1], tracer.op_id)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable of the orbatlas layer modules."""
        for layer in LAYERS:
            importlib.import_module(f"orbatlas.{layer}")
        replaced = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"orbatlas.{layer}"]
            for qual, owner, attr, raw in _targets(mod):
                key = (mod.__name__, qual)
                wl = LAYER_OVERRIDE.get(key, layer)
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                wrapped = self._make(
                    fn, wl, f"{wl}.{qual}", COUNTERS.get(key), ENTRY_COUNTERS.get(key), wl in SPANNED
                )
                replaced[id(fn)] = (fn, wrapped)
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, attr, type(raw)(wrapped))
        self._rebind(replaced)
        self._install_hooks()

    def _rebind(self, replaced: dict) -> None:
        """Point every binding of an original (module attributes, class
        attributes and aliases) at its wrapper."""
        for mod in [m for n, m in sys.modules.items() if n == "orbatlas" or n.startswith("orbatlas.")]:
            for name, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    for attr, member in list(vars(value).items()):
                        hit = replaced.get(id(member))
                        if hit is not None and hit[0] is member:
                            setattr(value, attr, hit[1])

    def _install_hooks(self) -> None:
        """Counters that need a call's result or the state around it."""
        from orbatlas import atlas, field, sampling, serialize

        counts = self.counts
        self._sign_cache0 = field._sign_cached.cache_info()

        # proposals: sampling's own binding of point_in_ball is called once per proposal
        in_ball = sampling.point_in_ball

        def proposal(p, ball):
            counts["sampling.proposals"] += 1
            ok = in_ball(p, ball)
            if ok:
                counts["sampling.accepted"] += 1
            return ok

        sampling.point_in_ball = proposal

        # center fallbacks: calls that made proposals and accepted none of them
        draw = sampling.random_point_in_ball

        def random_point_in_ball(rng, ball, conductor):
            before = counts["sampling.proposals"]
            hits = counts["sampling.accepted"]
            p = draw(rng, ball, conductor)
            if counts["sampling.proposals"] > before and counts["sampling.accepted"] == hits:
                counts["sampling.center_fallbacks"] += 1
            return p

        self._rebind({id(draw): (draw, random_point_in_ball)})

        refine = atlas.Atlas.refine

        def refine_hits(self_, ci, x, cj, y):
            span = refine(self_, ci, x, cj, y)
            if span is not None:
                counts["oracles.refine.hits"] += 1
            return span

        atlas.Atlas.refine = refine_hits

        emit = serialize.canonical_bytes

        def canonical_bytes(doc):
            out = emit(doc)
            counts["serialize.bytes"] += len(out)
            return out

        self._rebind({id(emit): (emit, canonical_bytes)})

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        from orbatlas import field

        c = self.counts
        info = field._sign_cached.cache_info()
        hits = info.hits - self._sign_cache0.hits
        lookups = hits + info.misses - self._sign_cache0.misses
        out = {name: c[name] for name in sorted(set(COUNTERS.values()) | set(ENTRY_COUNTERS.values()))}
        out.update(
            {
                "field.sign.cache_lookups": lookups,
                "field.sign.cache_hit_ratio": _ratio(hits, lookups),
                "sampling.proposals": c["sampling.proposals"],
                "sampling.accept_ratio": _ratio(c["sampling.accepted"], c["sampling.proposals"]),
                "sampling.center_fallbacks": c["sampling.center_fallbacks"],
                "oracles.refine.hit_ratio": _ratio(c["oracles.refine.hits"], c["oracles.refine.calls"]),
                "serialize.bytes": c["serialize.bytes"],
            }
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out

    def write_spans(self, path) -> None:
        """Spans as columns; times are seconds from the first span's start."""
        spans = [s for s in self.spans if s is not None]
        t0 = min((s[1] for s in spans), default=0.0)
        names = sorted({s[0] for s in spans})
        index = {n: k for k, n in enumerate(names)}
        doc = {
            "columns": ["name", "start", "end", "parent", "op"],
            "names": names,
            "spans": [[index[n], round(a - t0, 7), round(b - t0, 7), p, op] for n, a, b, p, op in spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _targets(mod):
    """(qualified name, owner, attribute, raw object) for every callable of
    the module that the tracer wraps."""
    skip = _SKIP.get(mod.__name__, set())
    out = []
    for name, value in list(vars(mod).items()):
        if inspect.isfunction(value) and value.__module__ == mod.__name__:
            if not name.startswith("_") or name in _PRIVATE.get(mod.__name__, ()):
                out.append((name, mod, name, value))
        elif inspect.isclass(value) and value.__module__ == mod.__name__:
            is_dc = dataclasses.is_dataclass(value)
            for attr, raw in list(vars(value).items()):
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if not inspect.isfunction(fn):
                    continue
                if attr.startswith("__"):
                    if is_dc or attr not in _DUNDERS:
                        continue
                    if attr != fn.__name__:
                        continue  # an alias: rebound together with its original
                elif attr.startswith("_"):
                    continue
                qual = f"{value.__name__}.{attr}"
                if qual in skip:
                    continue
                out.append((qual, value, attr, raw))
    return out
