"""Canonical JSON serialization for atlases, groupoid presentations, compatible
systems, 2-cells and witness files.

Rationals travel as "p/q" strings and field elements as length-m coefficient
arrays; documents are emitted with sorted keys and no whitespace, so
parse -> serialize -> parse is the identity and serialization after parsing is
byte-identical to the canonical form.  A system or 2-cell document writes
each distinct atlas once and repeats its bytes under every reference.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from pathlib import Path

from .atlas import Atlas, Chart, Embedding, Span, WitnessSpan
from .errors import DimensionMismatchError, NotSimilarityError, ParseError
from .field import SUPPORTED_CONDUCTORS, CycNum, _degree, _make
from .geometry import AffineMap, Ball, Point, PolyMap
from .groupoids import ActionGroupoid, GroupoidPresentation
from .oracles import SPAN_SEARCH
from .systems import CompatibleSystem, OrbNatTrans
from .translation import TranslationGroupoid


# -- scalars -----------------------------------------------------------------


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+/[0-9]+")


# Documents repeat a handful of coefficient strings many times over.
@lru_cache(maxsize=1024)
def _canonical_fraction(s: str) -> Fraction | None:
    """The rational named by a string of the form ``_frac_str`` writes, "n/d"
    with d >= 1 and gcd(n, d) = 1; None for any other string."""
    if not _RATIONAL.fullmatch(s):
        return None
    try:
        f = Fraction(s)
    except (ValueError, ZeroDivisionError):  # d = 0, or more digits than int() reads
        return None
    return f if _frac_str(f) == s else None


def _parse_frac(s, where="rational") -> Fraction:
    f = _canonical_fraction(s) if isinstance(s, str) else None
    if f is None:
        raise ParseError(f"bad rational {s!r}: expected a string n/d in lowest terms, d >= 1", where)
    return f


def cyc_to_doc(x: CycNum) -> list[str]:
    """The length-m power-basis coefficients as reduced "n/d" strings, read
    off the numerators over the common denominator."""
    d = x._d
    out = []
    for n in x._n:
        g = gcd(n, d)
        out.append(f"{n // g}/{d // g}")
    return out + ["0/1"] * (x.m - len(out))


def _typed(value, kind: type, what: str):
    """value when it is a JSON object, list or string (kind dict, list or
    str); anything else is a ParseError."""
    if not isinstance(value, kind):
        raise ParseError(f"{what} is a JSON {type(value).__name__}, not a {kind.__name__}")
    return value


def _integer(value, what: str) -> int:
    """A JSON integer; a string, a float or a boolean is a ParseError."""
    if type(value) is not int:
        raise ParseError(f"{what} {value!r} is not a JSON integer")
    return value


def _conductor(value) -> int:
    m = _integer(value, "conductor")
    if m not in SUPPORTED_CONDUCTORS:
        raise ParseError(f"unsupported conductor {m}")
    return m


def cyc_from_doc(m: int, doc, where="scalar") -> CycNum:
    """The element of a length-m coefficient array as ``cyc_to_doc`` writes
    it: every entry from the cyclotomic degree on is "0/1"."""
    if not isinstance(doc, list):
        raise ParseError("expected coefficient array", where)
    if len(doc) != m:
        raise ParseError(f"coefficient array of length {len(doc)}, expected {m}", where)
    coeffs = [_parse_frac(c, where) for c in doc]
    d = _degree(m)
    if any(coeffs[d:]):
        raise ParseError(f"coefficient array is not reduced below degree {d}", where)
    # the entries from d on are zero, so the first d are already canonical: nothing is left to reduce mod Phi_m
    den = lcm(*(q.denominator for q in coeffs[:d]))
    return _make(m, [q.numerator * (den // q.denominator) for q in coeffs[:d]], den)


def point_to_doc(p: Point) -> list:
    return [cyc_to_doc(c) for c in p.coords]


def point_from_doc(m: int, doc, where="point") -> Point:
    return Point(tuple(cyc_from_doc(m, c, where) for c in _typed(doc, list, where)))


def affine_to_doc(f: AffineMap) -> dict:
    return {
        "A": [[cyc_to_doc(c) for c in row] for row in f.a],
        "b": point_to_doc(f.b),
    }


def affine_from_doc(m: int, doc, where="map") -> AffineMap:
    try:
        a = tuple(tuple(cyc_from_doc(m, c, where) for c in row) for row in _typed(doc["A"], list, where))
        b = point_from_doc(m, doc["b"], where)
        return AffineMap(a, b)
    except (KeyError, TypeError, DimensionMismatchError, NotSimilarityError) as exc:
        raise ParseError(f"malformed affine map: {exc}", where) from exc


def _embedding(m: int, src, dst, doc, where: str) -> Embedding:
    """An embedding between the charts named by the strings src and dst,
    its map read from doc."""
    return Embedding(_typed(src, str, where), _typed(dst, str, where), affine_from_doc(m, doc, where))


def poly_to_doc(p: AffineMap | PolyMap) -> dict:
    coords = []
    for poly in p.coords:
        coords.append(
            [
                {"exps": list(e), "coeff": cyc_to_doc(c)}
                for e, c in sorted(poly.items())
            ]
        )
    return {"dim_in": p.dim_in, "dim_out": p.dim_out, "coords": coords}


def poly_from_doc(m: int, doc, where="lift") -> AffineMap | PolyMap:
    """A lift as ``poly_to_doc`` writes it (a similarity is its AffineMap):
    per coordinate, nonzero terms in strictly increasing exponent order."""
    try:
        coords = []
        for poly in _typed(doc["coords"], list, where):
            terms = {}
            for t in _typed(poly, list, where):
                exps = tuple(_typed(t["exps"], list, where))
                if any(type(e) is not int or e < 0 for e in exps) or terms and exps <= max(terms):
                    raise ParseError(f"exponents {t['exps']!r} not increasing naturals", where)
                terms[exps] = cyc_from_doc(m, t["coeff"], where)
                if terms[exps].is_zero():
                    raise ParseError("term with a zero coefficient", where)
            coords.append(terms)
        return PolyMap(m, _integer(doc["dim_in"], "dim_in"), _integer(doc["dim_out"], "dim_out"), coords)
    except (KeyError, TypeError, DimensionMismatchError) as exc:
        raise ParseError(f"malformed polynomial map: {exc}", where) from exc


# -- atlases -----------------------------------------------------------------


def _radius_to_doc(r2: CycNum):
    return _frac_str(r2.as_rational()) if r2.is_rational() else cyc_to_doc(r2)


def _radius_from_doc(m: int, doc, where: str) -> CycNum:
    """A rational radius is an "n/d" string, any other a coefficient array."""
    if isinstance(doc, str):
        return CycNum.rational(m, _parse_frac(doc, where))
    r2 = cyc_from_doc(m, doc, where)
    if r2.is_rational():
        raise ParseError("rational squared radius written as a coefficient array", where)
    return r2


def chart_to_doc(c: Chart) -> dict:
    return {
        "id": c.cid,
        "center": point_to_doc(c.ball.center),
        "radius2": _radius_to_doc(c.ball.r2),
        "group": [affine_to_doc(g) for g in c.group],
    }


def chart_from_doc(m: int, doc) -> Chart:
    try:
        cid = doc["id"]
        center = point_from_doc(m, doc["center"], f"chart {cid}")
        r2 = _radius_from_doc(m, doc["radius2"], f"chart {cid} radius")
        where = f"chart {cid} group"
        group = tuple(affine_from_doc(m, g, where) for g in _typed(doc["group"], list, where))
    except KeyError as exc:
        raise ParseError(f"chart missing field {exc}") from exc
    if not isinstance(cid, str):
        raise ParseError(f"chart id {cid!r} is not a string")
    return Chart(cid, Ball(center, r2), group)


def span_to_doc(s: Span) -> dict:
    return {
        "chart": s.chart,
        "point": point_to_doc(s.point),
        "left": {"dst": s.left.dst, **affine_to_doc(s.left.map)},
        "right": {"dst": s.right.dst, **affine_to_doc(s.right.map)},
    }


def span_from_doc(m: int, doc) -> Span:
    try:
        chart = doc["chart"]
        point = point_from_doc(m, doc["point"], "witness point")
        left = _embedding(m, chart, doc["left"]["dst"], doc["left"], "witness leg")
        right = _embedding(m, chart, doc["right"]["dst"], doc["right"], "witness leg")
    except KeyError as exc:
        raise ParseError(f"witness missing field {exc}") from exc
    return Span(chart, point, left, right)


def atlas_to_doc(atlas: Atlas) -> dict:
    return {
        "kind": "atlas",
        "conductor": atlas.conductor,
        "dimension": atlas.dim,
        "charts": [chart_to_doc(c) for c in atlas.charts.values()],
        "embeddings": [
            {"src": e.src, "dst": e.dst, **affine_to_doc(e.map)}
            for (_, _), e in sorted(atlas.reps.items())
        ],
        "oracle": dict(SPAN_SEARCH, params={}),
        "witnesses": [span_to_doc(w) for w in atlas.witnesses],
        "unit_points": {
            cid: [point_to_doc(p) for p in pts]
            for cid, pts in sorted(atlas.unit_points.items())
            if pts
        },
    }


def _kind(doc):
    """The "kind" field of a document, which must be a JSON object."""
    return _typed(doc, dict, "document").get("kind")


def atlas_from_doc(doc) -> Atlas:
    if _kind(doc) != "atlas":
        raise ParseError("document is not an atlas")
    try:
        m = _conductor(doc["conductor"])
        dim = _integer(doc["dimension"], "dimension")
        charts = [chart_from_doc(m, c) for c in _typed(doc["charts"], list, "charts")]
        reps = [
            _embedding(m, e["src"], e["dst"], e, "embedding")
            for e in _typed(doc.get("embeddings", []), list, "embeddings")
        ]
        witnesses = [span_from_doc(m, w) for w in _typed(doc.get("witnesses", []), list, "witnesses")]
        unit_points = {
            cid: tuple(point_from_doc(m, p, "unit point") for p in pts)
            for cid, pts in _typed(doc.get("unit_points", {}), dict, "unit_points").items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed atlas document: {exc}") from exc
    if doc.get("oracle", SPAN_SEARCH) != SPAN_SEARCH:
        raise ParseError(f"oracle section other than {SPAN_SEARCH}")
    if not charts:
        raise ParseError("atlas has no charts")
    ids = [c.cid for c in charts]
    repeated = sorted({cid for cid in ids if ids.count(cid) > 1})
    if repeated:
        raise ParseError(f"repeated chart ids {repeated}")
    unknown = sorted(set(unit_points) - {c.cid for c in charts})
    if unknown:
        raise ParseError(f"unit points name unknown charts {unknown}")
    empty = sorted(cid for cid, pts in unit_points.items() if not pts)
    if empty:
        # the writer omits a chart without unit points, so an empty list has no canonical form
        raise ParseError(f"unit points of charts {empty} are empty lists")
    # a map's matrix is square of its translation's length by construction
    points = [("unit point", q) for pts in unit_points.values() for q in pts]
    for c in charts:
        if not c.group:
            raise ParseError(f"chart {c.cid} has an empty group")
        points += [(f"chart {c.cid}", q) for q in (c.ball.center, *(g.b for g in c.group))]
    points += [(f"embedding {e.src}->{e.dst}", e.map.b) for e in reps]
    points += [(f"span via {w.chart}", q) for w in witnesses for q in (w.point, w.left.map.b, w.right.map.b)]
    for where, q in points:
        if q.dim != dim:
            raise ParseError(f"length {q.dim}, expected dimension {dim}", where)
    return Atlas(m, dim, charts, reps, witnesses=witnesses, unit_points=unit_points)


# -- groupoid presentations ------------------------------------------------------


def _component_table(g: TranslationGroupoid) -> list:
    """Each arrow component under its label (source, target, index): a
    component of the transport table between the two charts, its germ and
    its ball."""
    return [
        dict(zip(("source", "target", "index"), c.label), germ=affine_to_doc(c.germ),
             center=point_to_doc(c.ball.center), radius2=_radius_to_doc(c.ball.r2))
        for c in g.arrow_components()
    ]


def groupoid_to_doc(g: GroupoidPresentation) -> dict:
    if isinstance(g, TranslationGroupoid):
        atlas_doc = atlas_to_doc(g.atlas)
        return {
            "kind": "groupoid",
            "strategy": "translation",
            "atlas": atlas_doc,
            "atlas_hash": doc_hash(atlas_doc),
            "components": _component_table(g),
        }
    if isinstance(g, ActionGroupoid):
        return {
            "kind": "groupoid",
            "strategy": "action",
            "conductor": g.conductor,
            "ball": {"center": point_to_doc(g.ball.center), "radius2": _radius_to_doc(g.ball.r2)},
            "elements": [{"label": lab, **affine_to_doc(g.rep[lab])} for lab in g.labels],
            "mult": {f"{a}|{b}": c for (a, b), c in sorted(g.mult.items())},
            "inv": dict(sorted(g.inv_table.items())),
        }
    raise ParseError(f"unserializable groupoid strategy {g.strategy!r}")


def groupoid_from_doc(doc) -> GroupoidPresentation:
    if _kind(doc) != "groupoid":
        raise ParseError("document is not a groupoid presentation")
    strategy = doc.get("strategy")
    if strategy not in ("translation", "action"):
        raise ParseError(f"unknown groupoid strategy {strategy!r}")
    try:
        if strategy == "translation":
            atlas_doc = doc["atlas"]
            if "atlas_hash" in doc and doc_hash(atlas_doc) != doc["atlas_hash"]:
                raise ParseError("atlas hash mismatch in groupoid document")
            g = TranslationGroupoid(atlas_from_doc(atlas_doc))
            # compared as JSON, where false is not 0
            stated = doc.get("components")
            if stated is not None and canonical_bytes(stated) != canonical_bytes(_component_table(g)):
                raise ParseError("component table does not match the atlas")
            return g
        m = _conductor(doc["conductor"])
        ball = Ball(
            point_from_doc(m, doc["ball"]["center"], "ball"),
            _radius_from_doc(m, doc["ball"]["radius2"], "ball radius"),
        )
        elements = [
            (_typed(e["label"], str, "element label"), affine_from_doc(m, e, "element"))
            for e in _typed(doc["elements"], list, "elements")
        ]
        labels = [lab for lab, _ in elements]
        mult = {tuple(key.split("|")): val for key, val in _typed(doc["mult"], dict, "mult").items()}
        inv = _typed(doc["inv"], dict, "inv")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed groupoid document: {exc}") from exc
    # a label holding the separator "|" leaves its pairs out of mult's keys
    tables_total = mult.keys() == {(a, b) for a in labels for b in labels} and inv.keys() == set(labels)
    if not labels or len(set(labels)) < len(labels) or not tables_total:
        raise ParseError(f"mult and inv are not total tables on distinct element labels {labels}")
    if not all(v in labels for v in (*mult.values(), *inv.values())):
        raise ParseError("mult or inv names an unknown element label")
    if any(f.dim != ball.dim for _, f in elements):
        raise ParseError(f"an element map is not of the ball's dimension {ball.dim}")
    return ActionGroupoid(m, ball, elements, mult=mult, inv=inv)


# -- compatible systems and 2-cells -------------------------------------------------


def _atlas_ref(atlas: Atlas, written: dict) -> dict:
    """A fresh inline reference to atlas; written maps each Atlas already
    written in the same document to its (doc, doc_hash) pair, so an atlas is
    written and hashed once and its references share the one doc."""
    if atlas not in written:
        doc = atlas_to_doc(atlas)
        written[atlas] = doc, doc_hash(doc)
    doc, h = written[atlas]
    return {"inline": doc, "hash": h}


def system_to_doc(f: CompatibleSystem, written: dict | None = None) -> dict:
    """A compatible system; written (Atlas -> (doc, doc_hash)) is shared by
    the two systems of one 2-cell document."""
    written = {} if written is None else written
    return {
        "kind": "system",
        "src": _atlas_ref(f.src, written),
        "dst": _atlas_ref(f.dst, written),
        "theta": dict(sorted(f.theta.items())),
        "assignment": [
            {"pair": [i, j], "dst_pair": [e.src, e.dst], **affine_to_doc(e.map)}
            for (i, j), e in sorted(f.assign.items())
        ],
        "lifts": {cid: poly_to_doc(p) for cid, p in sorted(f.lifts.items())},
    }


def _atlas_ref_from_doc(ref, base_dir: Path | None, parsed: dict):
    """The atlas a reference names.  parsed maps doc_hash to the atlases
    already read from the same document, so equal references share one
    Atlas, and each path under base_dir to its loaded (doc, doc_hash) pair,
    so a file is read once per document."""
    if "inline" in _typed(ref, dict, "atlas reference"):
        doc = ref["inline"]
        h = doc_hash(doc)
    elif "path" in ref:
        if base_dir is None:
            raise ParseError("atlas reference by path needs a base directory")
        path = base_dir / _typed(ref["path"], str, "atlas path")
        if path not in parsed:
            doc = load_document(path)
            parsed[path] = doc, doc_hash(doc)
        doc, h = parsed[path]
    else:
        raise ParseError("atlas reference needs 'inline' or 'path'")
    if "hash" in ref and h != ref["hash"]:
        raise ParseError("atlas reference hash mismatch")
    if h not in parsed:
        parsed[h] = atlas_from_doc(doc)
    return parsed[h]


def system_from_doc(doc, base_dir: Path | None = None, parsed: dict | None = None) -> CompatibleSystem:
    """A compatible system; parsed (doc_hash -> Atlas, path -> (doc,
    doc_hash)) is shared by the two systems of one 2-cell document."""
    if _kind(doc) != "system":
        raise ParseError("document is not a compatible system")
    parsed = {} if parsed is None else parsed
    try:
        src = _atlas_ref_from_doc(doc["src"], base_dir, parsed)
        dst = _atlas_ref_from_doc(doc["dst"], base_dir, parsed)
        m = dst.conductor
        assign = {}
        for entry in _typed(doc.get("assignment", []), list, "assignment"):
            i, j = _typed(entry["pair"], list, "assignment pair")
            ti, tj = _typed(entry["dst_pair"], list, "assignment pair")
            assign[(i, j)] = _embedding(m, ti, tj, entry, "assignment")
        lifts = {cid: poly_from_doc(m, p) for cid, p in _typed(doc["lifts"], dict, "lifts").items()}
        theta = _typed(doc["theta"], dict, "theta")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed system document: {exc}") from exc
    targets_known = all(isinstance(t, str) and t in dst.charts for t in theta.values())
    if theta.keys() != src.charts.keys() or lifts.keys() != src.charts.keys() or not targets_known:
        raise ParseError("theta and lifts do not map each source chart once, theta to target charts")
    if not assign.keys() <= src.reps.keys():
        raise ParseError("an assigned pair is not a stored representative of the source")
    return CompatibleSystem(src, dst, theta, assign, lifts)


def cell_to_doc(delta: OrbNatTrans) -> dict:
    written: dict = {}
    return {
        "kind": "cell",
        "src_system": system_to_doc(delta.src_sys, written),
        "dst_system": system_to_doc(delta.dst_sys, written),
        "components": {
            cid: {"src": e.src, "dst": e.dst, **affine_to_doc(e.map)}
            for cid, e in sorted(delta.components.items())
        },
    }


def cell_from_doc(doc, base_dir: Path | None = None) -> OrbNatTrans:
    if _kind(doc) != "cell":
        raise ParseError("document is not a 2-cell")
    try:
        parsed: dict = {}
        f1 = system_from_doc(doc["src_system"], base_dir, parsed)
        f2 = system_from_doc(doc["dst_system"], base_dir, parsed)
        m = f1.dst.conductor
        comps = {
            cid: _embedding(m, e["src"], e["dst"], e, "component")
            for cid, e in _typed(doc["components"], dict, "components").items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed 2-cell document: {exc}") from exc
    return OrbNatTrans(f1, f2, comps)


def witnesses_to_doc(witnesses) -> dict:
    return {
        "kind": "witnesses",
        "spans": [
            {
                "chart": chart_to_doc(w.chart),
                "left": {"dst": w.left.dst, **affine_to_doc(w.left.map)},
                "right": {"dst": w.right.dst, **affine_to_doc(w.right.map)},
            }
            for w in witnesses
        ],
    }


def witnesses_from_doc(doc, m: int) -> list[WitnessSpan]:
    if _kind(doc) != "witnesses":
        raise ParseError("document is not a witness file")
    spans = doc.get("spans")
    if not isinstance(spans, list):
        raise ParseError("witness document has no list of spans")
    out = []
    try:
        for entry in spans:
            chart = chart_from_doc(m, entry["chart"])
            left = _embedding(m, chart.cid, entry["left"]["dst"], entry["left"], "leg")
            right = _embedding(m, chart.cid, entry["right"]["dst"], entry["right"], "leg")
            out.append(WitnessSpan(chart, left, right))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed witness document: {exc}") from exc
    return out


# -- canonical bytes -----------------------------------------------------------------


def canonical_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def doc_hash(doc: dict) -> str:
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


def serialize(obj) -> bytes:
    if isinstance(obj, Atlas):
        return canonical_bytes(atlas_to_doc(obj))
    if isinstance(obj, GroupoidPresentation):
        return canonical_bytes(groupoid_to_doc(obj))
    if isinstance(obj, CompatibleSystem):
        return canonical_bytes(system_to_doc(obj))
    if isinstance(obj, OrbNatTrans):
        return canonical_bytes(cell_to_doc(obj))
    if isinstance(obj, dict):
        return canonical_bytes(obj)
    raise ParseError(f"no serialization for {type(obj).__name__}")


def load_document(path) -> dict:
    try:
        return json.loads(Path(path).read_bytes())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"JSON in {path} is nested too deeply") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def parse_atlas(path) -> Atlas:
    return atlas_from_doc(load_document(path))


def parse_any(path, base_dir: Path | None = None):
    doc = load_document(path)
    kind = _kind(doc)
    base = base_dir if base_dir is not None else Path(path).parent
    if kind == "atlas":
        return atlas_from_doc(doc)
    if kind == "groupoid":
        return groupoid_from_doc(doc)
    if kind == "system":
        return system_from_doc(doc, base)
    if kind == "cell":
        return cell_from_doc(doc, base)
    raise ParseError(f"unknown document kind {kind!r}")
