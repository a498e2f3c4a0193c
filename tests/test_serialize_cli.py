"""Document round trips, parse errors, and the command-line surface."""

import contextlib
import functools
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbatlas.errors import ParseError
from orbatlas.field import SUPPORTED_CONDUCTORS, CycNum
from orbatlas.gallery import cone, cone_pair, football, global_quotient, point_atlas, pushforward_pair, teardrop
from orbatlas.geometry import AffineMap, Ball, Point, PolyMap
from orbatlas.groupoids import ActionGroupoid
from orbatlas.serialize import (
    _parse_frac,
    atlas_from_doc,
    canonical_bytes,
    cell_from_doc,
    cyc_from_doc,
    cyc_to_doc,
    doc_hash,
    groupoid_from_doc,
    load_document,
    parse_any,
    parse_atlas,
    serialize,
    system_from_doc,
    witnesses_from_doc,
    witnesses_to_doc,
)
from orbatlas.systems import CompatibleSystem, rotation_fixture
from orbatlas.translation import TranslationGroupoid

from conftest import two_disc_table_atlas


class TestRoundTrips:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: cone(3),
            lambda: football(2, 3),
            lambda: point_atlas(),
            lambda: global_quotient(2, 2),
            lambda: pushforward_pair(football(2, 3))[1],
        ],
    )
    def test_atlas_bit_exact(self, make):
        atlas = make()
        raw = serialize(atlas)
        back = atlas_from_doc(json.loads(raw))
        assert serialize(back) == raw
        assert back.charts.keys() == atlas.charts.keys()
        assert back.reps.keys() == atlas.reps.keys()

    @pytest.mark.parametrize(
        "oracle",
        [lambda doc: {"kind": "span_search", "params": {}}],
        ids=["span-search"],
    )
    def test_oracle_forms_bit_exact(self, oracle):
        doc = json.loads(serialize(cone(3)))
        assert doc["witnesses"]
        doc["oracle"] = oracle(doc)
        raw = canonical_bytes(doc)
        back = atlas_from_doc(json.loads(raw))
        assert serialize(back) == raw

    def test_missing_oracle_section_reads_as_span_search(self):
        doc = json.loads(serialize(cone(3)))
        del doc["oracle"]
        assert serialize(atlas_from_doc(doc)) == serialize(cone(3))

    def test_non_canonical_input_is_canonicalized(self):
        # an unreduced power-basis array would re-serialize to other bytes, so
        # it is refused: zeta_12^4 is written below the cyclotomic degree
        raw = ["0/1"] * 12
        raw[4] = "1/1"
        with pytest.raises(ParseError, match="not reduced"):
            cyc_from_doc(12, raw)
        assert cyc_from_doc(12, cyc_to_doc(CycNum.zeta(12, 4))) == CycNum.zeta(12, 4)
        # a non-canonical JSON layout parses to the canonical bytes
        atlas = cone(3)
        doc = json.loads(serialize(atlas))
        messy = json.dumps(doc, indent=2)  # non-canonical layout
        back = atlas_from_doc(json.loads(messy))
        assert serialize(back) == serialize(atlas)

    def test_groupoid_documents(self):
        tg = TranslationGroupoid(cone(3))
        raw = serialize(tg)
        back = groupoid_from_doc(json.loads(raw))
        assert serialize(back) == raw

    def test_groupoid_component_table_checked(self):
        tg = TranslationGroupoid(cone(3))
        doc = json.loads(serialize(tg))
        doc["components"] = doc["components"][:-1]
        with pytest.raises(ParseError):
            groupoid_from_doc(doc)

    def test_system_and_cell_documents(self):
        fx = rotation_fixture(cone(3), random.Random(0))
        raw = serialize(fx.f1)
        assert serialize(system_from_doc(json.loads(raw))) == raw
        rawc = serialize(fx.delta)
        assert serialize(cell_from_doc(json.loads(rawc))) == rawc

    @pytest.mark.parametrize(
        "make", [lambda: cone(3), lambda: football(2, 3), lambda: teardrop(3)],
        ids=["cone3", "football23", "teardrop3"],
    )
    def test_parsed_cell_shares_atlases_and_validates(self, make):
        from orbatlas.systems import validate_orb_nat_trans

        raw = serialize(rotation_fixture(make(), random.Random(1)).delta)
        delta = cell_from_doc(json.loads(raw))
        f1, f2 = delta.src_sys, delta.dst_sys
        assert f1.src is f2.src and f1.dst is f2.dst
        rep = validate_orb_nat_trans(delta)
        assert rep.ok, rep.failures()
        assert serialize(delta) == raw

    def test_system_with_path_references(self, tmp_path):
        from orbatlas.serialize import doc_hash

        fx = rotation_fixture(cone(3), random.Random(1))
        doc = json.loads(serialize(fx.f1))
        atlas_doc = doc["src"]["inline"]
        (tmp_path / "base.json").write_bytes(canonical_bytes(atlas_doc))
        ref = {"path": "base.json", "hash": doc_hash(atlas_doc)}
        doc["src"] = ref
        doc["dst"] = dict(ref)
        back = system_from_doc(doc, base_dir=tmp_path)
        assert serialize(back) == serialize(fx.f1)
        doc["src"] = {"path": "base.json", "hash": "0" * 64}
        with pytest.raises(ParseError):
            system_from_doc(doc, base_dir=tmp_path)

    def test_witness_documents(self):
        from orbatlas.gallery import cone_pair

        u1, u2, ws = cone_pair(3)
        doc = witnesses_to_doc(ws)
        back = witnesses_from_doc(json.loads(canonical_bytes(doc)), u1.conductor)
        assert canonical_bytes(witnesses_to_doc(back)) == canonical_bytes(doc)


class TestGalleryParams:
    def test_unsupported_order_rejected(self):
        from orbatlas.errors import UnsupportedParamsError

        with pytest.raises(UnsupportedParamsError):
            cone(5)
        with pytest.raises(UnsupportedParamsError):
            cone(3, conductor=4)

    def test_non_positive_radius_and_dimension_rejected(self):
        from orbatlas.errors import UnsupportedParamsError

        for r2 in (0, -1):
            with pytest.raises(UnsupportedParamsError):
                cone(3, radius2=r2)
        with pytest.raises(UnsupportedParamsError):
            global_quotient(2, 0)
        assert global_quotient(2, 1).dim == 1


class TestCoefficientStrings:
    """The coefficient strings against the Fraction route they replace."""

    @pytest.mark.parametrize("m", SUPPORTED_CONDUCTORS)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_cyc_to_doc_matches_fraction_route(self, m, data):
        coeffs = data.draw(st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=2 * m))
        scale = data.draw(st.integers(min_value=1, max_value=10**30))
        x = CycNum(m, [c * scale for c in coeffs])
        assert cyc_to_doc(x) == [f"{c.numerator}/{c.denominator}" for c in x.coeffs]

    CANONICAL = ["0/1", "-3/4", "12/1", "1/1000000007"]

    @pytest.mark.parametrize(
        "text",
        ["3", " -2/4 ", "1.5", "1e2", "1/0", "abc", ""]
        + ["-2/4", "0/2", "-0/1", "01/2", "+1/2", "1/-2", "1/02", "١/٢", "1/2 ", "1" * 5000 + "/1"]
        + CANONICAL,
    )
    def test_parse_frac_matches_fraction(self, text):
        """Exactly the strings cyc_to_doc writes, "n/d" with d >= 1 and
        gcd(n, d) = 1, parse, to Fraction(text); any other is a ParseError."""
        for _ in range(2):  # the second call is answered from the memo
            if text in self.CANONICAL:
                got = _parse_frac(text)
                assert got == Fraction(text) and type(got) is Fraction
            else:
                with pytest.raises(ParseError):
                    _parse_frac(text)

    @pytest.mark.parametrize("value", [3, 1.5, True, None, ["1/2"], {"n": 1}])
    def test_parse_frac_refuses_non_strings(self, value):
        with pytest.raises(ParseError):
            _parse_frac(value)

    @pytest.mark.parametrize("centre", [[0, 0, 0], [0.0, 0, 0], ["0", "0", "0"], ["0/2", "0/1", "0/1"]])
    def test_lenient_rationals_in_a_document_are_parse_errors(self, centre):
        doc = json.loads(serialize(cone(3)))
        doc["charts"][0]["center"] = [centre]
        with pytest.raises(ParseError, match="bad rational"):
            atlas_from_doc(doc)

    def test_radius_has_one_form(self):
        doc = json.loads(serialize(cone(3)))
        doc["charts"][0]["radius2"] = ["1/1", "0/1", "0/1"]
        with pytest.raises(ParseError, match="rational squared radius"):
            atlas_from_doc(doc)


class TestParseErrors:
    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            cyc_from_doc(3, "1/0")

    def test_not_an_atlas(self):
        with pytest.raises(ParseError):
            atlas_from_doc({"kind": "something"})

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            parse_atlas(p)

    def test_non_object_documents(self):
        for parse in (atlas_from_doc, groupoid_from_doc, system_from_doc, cell_from_doc):
            with pytest.raises(ParseError):
                parse([])
        with pytest.raises(ParseError):
            witnesses_from_doc("witnesses", 3)

    def test_repeated_chart_id(self):
        doc = json.loads(serialize(cone(3)))
        doc["charts"].append({**doc["charts"][0], "radius2": "1/9"})
        with pytest.raises(ParseError, match="repeated chart ids"):
            atlas_from_doc(doc)

    def test_coefficient_array_length(self):
        with pytest.raises(ParseError):
            cyc_from_doc(3, ["1/1"])
        assert cyc_from_doc(3, ["1/1", "0/1", "0/1"]) == CycNum.rational(3, 1)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: {"kind": "witnesses"},
            lambda doc: {**doc, "spans": [{k: v for k, v in doc["spans"][0].items() if k != "left"}]},
            lambda doc: {**doc, "spans": {}},
        ],
        ids=["missing-spans", "span-without-left", "spans-not-a-list"],
    )
    def test_malformed_witness_document(self, mutate):
        from orbatlas.gallery import cone_pair

        u1, _, ws = cone_pair(3)
        doc = json.loads(canonical_bytes(witnesses_to_doc(ws)))
        with pytest.raises(ParseError):
            witnesses_from_doc(mutate(doc), u1.conductor)

    def test_hash_mismatch(self):
        tg = TranslationGroupoid(cone(3))
        doc = json.loads(serialize(tg))
        doc["atlas_hash"] = "0" * 64
        with pytest.raises(ParseError):
            groupoid_from_doc(doc)

    @pytest.mark.parametrize(
        "source, path, value",
        [
            ("witnesses of cone_pair(3)", ("spans", 0, "right", "dst"), []),
            ("system over cone(3)", ("src", "inline", "witnesses"), {}),
            ("system over cone(3)", ("src", "inline", "oracle"), {}),
            ("system over cone(3)", ("dst", "inline", "oracle", "params"), {"x": 1}),
            ("system over cone(3)", ("src",), {"path": "missing.json"}),
            ("system over cone(3)", ("theta", "cone3"), ["cone3"]),
            ("system over cone(3)", ("theta", "cone3"), "nope"),
            ("system over cone(3)", ("lifts",), []),
            ("system over cone(3)", ("lifts",), {}),
            ("system over cone(3)", ("lifts", "cone3", "coords", 0, 0, "exps", 0), -1),
            ("system over cone(3)", ("lifts", "cone3", "coords", 0, 0, "coeff"), ["0/1"] * 3),
            ("system over football(2, 3)", ("assignment", 0, "pair"), "ab"),
            ("2-cell over cone(3)", ("components",), None),
            ("translation groupoid of cone(3)", ("components", 0, "index"), False),
            ("translation groupoid of cone(3)", ("atlas_hash",), None),
            ("translation groupoid of football(2, 3)", ("atlas", "embeddings", 0, "A"), [[["0/1"] * 6]]),
            ("action groupoid of z/3", ("elements", 1, "label"), ["g1"]),
            ("action groupoid of z/3", ("mult", "g1|g2"), "g7"),
            ("action groupoid of z/3", ("inv",), []),
            ("action groupoid of z/3", ("ball", "center"), []),
        ],
        ids=[
            "witness-leg-to-a-list",
            "witnesses-an-object",
            "oracle-without-kind",
            "oracle-params-of-another-kind",
            "atlas-path-to-a-missing-file",
            "theta-value-a-list",
            "theta-value-unknown",
            "lifts-a-list",
            "lift-missing",
            "negative-exponent",
            "zero-term",
            "assignment-pair-a-string",
            "components-null",
            "component-index-false",
            "atlas-hash-null",
            "embedding-matrix-zero",
            "label-a-list",
            "mult-names-unknown-label",
            "inv-a-list",
            "ball-of-another-dimension",
        ],
    )
    def test_mutant_found_by_the_fuzz_is_a_parse_error(self, source, path, value, tmp_path):
        """Each of these once parsed to an object that re-serialized to other
        bytes or raised another exception in `validate`."""
        doc = json.loads(other_document(source))
        _at(doc, path[:-1])[path[-1]] = value
        rehash_inline_atlases(doc, path)
        target = tmp_path / "mutant.json"
        target.write_bytes(canonical_bytes(doc))
        with pytest.raises(ParseError):
            if doc["kind"] == "witnesses":
                witnesses_from_doc(doc, 3)
            else:
                parse_any(target)


SRC = Path(__file__).resolve().parents[1] / "src"


def cli_env(**extra):
    """The environment for a child interpreter: this checkout's absolute ``src``
    goes in front of any inherited PYTHONPATH, so the child imports the package
    under test whatever its working directory."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_cli(*argv, cwd, **env):
    return subprocess.run(
        [sys.executable, "-m", "orbatlas.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(**env),
        timeout=600,
    )


def leg_pair_table(atlas):
    """The component table of groupoid documents written when components were
    labelled by pairs of stored legs: one row per pair of legs out of a chart,
    each leg as [target chart, family position]."""
    rows = []
    for k in atlas.chart_ids():
        legs = [[c, j] for c in atlas.chart_ids() for j in range(len(atlas.family(k, c)))]
        rows += [{"chart": k, "left": left, "right": right} for left in legs for right in legs]
    return rows


def test_leg_pair_component_table_is_refused(tmp_path):
    # the entry table passes validate and the groupoid suites; a document
    # holding the leg-pair table exits 2 with a parse error, not a traceback
    doc = json.loads(serialize(TranslationGroupoid(football(2, 3))))
    assert {"source", "target", "index", "germ", "center", "radius2"} == set(doc["components"][0])
    good = tmp_path / "f23.json"
    good.write_bytes(canonical_bytes(doc))
    for command in ("validate", "groupoid"):
        out = run_cli(command, str(good), cwd=tmp_path)
        assert out.returncode == 0, out.stderr
    doc["components"] = leg_pair_table(football(2, 3))
    old = tmp_path / "legs.json"
    old.write_bytes(canonical_bytes(doc))
    out = run_cli("validate", str(old), cwd=tmp_path)
    assert out.returncode == 2
    assert "component table does not match the atlas" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    out = run_cli("gallery", "cone", "--p", "3", "--out", "cone3.json", cwd=d)
    assert out.returncode == 0, out.stderr
    return d


class TestCli:
    def test_gallery_and_validate(self, cli_dir):
        out = run_cli("validate", "cone3.json", "--samples", "20", cwd=cli_dir)
        assert out.returncode == 0, out.stderr
        assert "verdict: pass" in out.stdout

    def test_validate_cell_document(self, cli_dir):
        raw = serialize(rotation_fixture(cone(3), random.Random(1)).delta)
        (cli_dir / "cell.json").write_bytes(raw)
        out = run_cli("validate", "cell.json", cwd=cli_dir)
        assert out.returncode == 0, out.stdout + out.stderr
        assert "[FAIL]" not in out.stdout and "verdict: pass" in out.stdout

    def test_groupoid_suite(self, cli_dir):
        out = run_cli(
            "groupoid", "cone3.json", "--samples", "40", "--seed", "1",
            "--out", "report.json", cwd=cli_dir,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        doc = json.loads((cli_dir / "report.json").read_text())
        assert doc["verdict"] == "pass"
        assert doc["counterexamples"] == []

    def test_laws(self, cli_dir):
        out = run_cli("laws", "cone3.json", "--samples", "100", "--seed", "2", cwd=cli_dir)
        assert out.returncode == 0, out.stderr
        assert "interchange" in out.stdout

    def test_morita_pair(self, cli_dir, sub_full_cone3):
        sub, full = sub_full_cone3
        (cli_dir / "sub.json").write_bytes(serialize(sub))
        (cli_dir / "full.json").write_bytes(serialize(full))
        out = run_cli("morita", "sub.json", "full.json", "--samples", "30", cwd=cli_dir)
        assert out.returncode == 0, out.stdout + out.stderr
        assert "verdict: pass" in out.stdout

    def test_reconstruct(self, cli_dir):
        out = run_cli("reconstruct", "cone3.json", "--samples", "60", cwd=cli_dir)
        assert out.returncode == 0, out.stdout + out.stderr

    def test_bijection_inequivalent_exits_zero(self, cli_dir):
        out = run_cli("gallery", "cone", "--p", "2", "--conductor", "6", "--out", "cone2.json", cwd=cli_dir)
        assert out.returncode == 0, out.stderr
        out = run_cli("gallery", "cone", "--p", "3", "--conductor", "6", "--out", "cone3c6.json", cwd=cli_dir)
        assert out.returncode == 0, out.stderr
        out = run_cli(
            "bijection", "cone3c6.json", "cone2.json", "--samples", "10",
            "--out", "bij.json", cwd=cli_dir,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        doc = json.loads((cli_dir / "bij.json").read_text())
        assert doc["atlas_side"] == "inequivalent"
        assert doc["groupoid_side"] == "inequivalent"
        assert doc["agreement"] is True

    def test_bijection_with_witness_file(self, cli_dir):
        from orbatlas.gallery import cone_pair

        u1, u2, ws = cone_pair(3)
        (cli_dir / "u1.json").write_bytes(serialize(u1))
        (cli_dir / "u2.json").write_bytes(serialize(u2))
        (cli_dir / "w.json").write_bytes(canonical_bytes(witnesses_to_doc(ws)))
        out = run_cli(
            "bijection", "u1.json", "u2.json", "--witness", "w.json",
            "--samples", "15", cwd=cli_dir,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "atlas side: equivalent" in out.stdout
        assert "groupoid side: equivalent" in out.stdout

    def test_determinism(self, cli_dir):
        a = run_cli("groupoid", "cone3.json", "--samples", "25", "--seed", "7", cwd=cli_dir)
        b = run_cli("groupoid", "cone3.json", "--samples", "25", "--seed", "7", cwd=cli_dir)
        assert a.stdout == b.stdout

    def test_usage_error_exit_code(self, cli_dir):
        out = run_cli("bogus-subcommand", cwd=cli_dir)
        assert out.returncode == 2

    def test_missing_file_is_parse_error(self, cli_dir):
        out = run_cli("validate", "missing.json", cwd=cli_dir)
        assert out.returncode == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: [],
            lambda doc: {**doc, "conductor": 5},
            lambda doc: {**doc, "charts": [{**doc["charts"][0], "center": [doc["charts"][0]["center"][0][:1]]}]},
            lambda doc: {"kind": "cell"},
            lambda doc: {"kind": "system"},
            lambda doc: {"kind": "groupoid", "strategy": "action", "conductor": 3},
            lambda doc: {"kind": "groupoid", "strategy": "translation"},
            lambda doc: {**doc, "dimension": 2},
            lambda doc: {**doc, "charts": [{**doc["charts"][0], "group": []}]},
            lambda doc: {**doc, "charts": []},
            lambda doc: {**doc, "charts": [{**doc["charts"][0], "center": []}]},
            lambda doc: {**doc, "unit_points": {**doc["unit_points"], "nowhere": doc["unit_points"]["cone3"]}},
            lambda doc: {**doc, "charts": [{**doc["charts"][0], "id": ["cone3"]}]},
            lambda doc: {**doc, "charts": [doc["charts"][0], {**doc["charts"][0], "radius2": "1/9"}]},
            lambda doc: {**doc, "oracle": []},
            lambda doc: {**doc, "oracle": "x"},
            lambda doc: {**doc, "oracle": {"kind": "span_table", "params": []}},
            lambda doc: {**doc, "oracle": {"kind": "pushforward", "params": {"relabel": [], "inner": doc["oracle"]}}},
            lambda doc: {**doc, "oracle": {"kind": "pushforward", "params": {"relabel": {}, "inner": []}}},
            lambda doc: {**doc, "unit_points": []},
            lambda doc: {**doc, "unit_points": {"cone3": []}},
        ],
        ids=[
            "non-object",
            "unsupported-conductor",
            "short-coefficient-array",
            "cell-missing-fields",
            "system-missing-fields",
            "action-groupoid-missing-fields",
            "translation-groupoid-missing-atlas",
            "dimension-mismatch",
            "empty-group",
            "no-charts",
            "empty-centre",
            "unknown-unit-point-chart",
            "non-string-chart-id",
            "repeated-chart-id",
            "oracle-list",
            "oracle-string",
            "oracle-params-list",
            "pushforward-relabel-list",
            "pushforward-inner-list",
            "unit-points-list",
            "empty-unit-point-list",
        ],
    )
    def test_malformed_document_is_parse_error(self, cli_dir, mutate):
        doc = json.loads((cli_dir / "cone3.json").read_text())
        (cli_dir / "bad.json").write_text(json.dumps(mutate(doc)))
        out = run_cli("validate", "bad.json", cwd=cli_dir)
        assert out.returncode == 2, out.stderr
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr

    @pytest.mark.parametrize("field", ["conductor", "dimension"])
    @pytest.mark.parametrize("value", ["3", 3.0, True], ids=["string", "float", "bool"])
    def test_non_integer_conductor_or_dimension_is_parse_error(self, cli_dir, field, value):
        doc = json.loads((cli_dir / "cone3.json").read_text())
        doc[field] = value
        with pytest.raises(ParseError, match="not a JSON integer"):
            atlas_from_doc(doc)
        (cli_dir / "non_integer.json").write_text(json.dumps(doc))
        out = run_cli("validate", "non_integer.json", cwd=cli_dir)
        assert out.returncode == 2, out.stdout + out.stderr
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr

    @pytest.mark.parametrize(
        "nested",
        [
            '{"kind":"pushforward","params":{"relabel":{},"inner":' * 20000 + '{"kind":"span_search"}' + "}}" * 20000,
            "[" * 100000 + "]" * 100000,
        ],
        ids=["nested-pushforwards", "nested-arrays"],
    )
    def test_deeply_nested_document_is_parse_error(self, cli_dir, nested):
        doc = json.loads((cli_dir / "cone3.json").read_text())
        doc["oracle"] = "@"
        (cli_dir / "deep.json").write_text(json.dumps(doc).replace('"@"', nested))
        out = run_cli("validate", "deep.json", cwd=cli_dir)
        assert out.returncode == 2, out.stderr
        assert out.stderr.splitlines() == ["error: JSON in deep.json is nested too deeply"], out.stderr

    @pytest.mark.parametrize(
        "oracle",
        [
            lambda doc: {"kind": "span_table", "params": {"spans": []}},
            lambda doc: {"kind": "span_table", "params": {"spans": doc["witnesses"]}},
            lambda doc: {"kind": "pushforward", "params": {"relabel": {"cone3": "apex"}, "inner": doc["oracle"]}},
            lambda doc: {"kind": "pushforward", "params": {"relabel": {"a": "x", "b": "x"}, "inner": doc["oracle"]}},
            lambda doc: {
                "kind": "pushforward",
                "params": {
                    "relabel": {"cone3": "apex"},
                    "inner": {
                        "kind": "pushforward",
                        "params": {
                            "relabel": {"cone3": "tip", "elsewhere": "there"},
                            "inner": {"kind": "span_table", "params": {"spans": doc["witnesses"]}},
                        },
                    },
                },
            },
            lambda doc: {"kind": "global_quotient"},
            lambda doc: {"kind": "gluing"},
            lambda doc: {"kind": "global_quotient", "params": {}},
            lambda doc: {"kind": "span_search"},
            lambda doc: {"kind": "span_search", "params": {"spans": []}},
        ],
        ids=[
            "empty-span_table", "span_table", "pushforward", "pushforward-non-injective-relabel",
            "pushforward-2-deep", "global_quotient", "gluing",
            "global_quotient-with-params", "span_search-without-params", "span_search-with-params",
        ],
    )
    def test_retired_oracle_section_exits_2(self, cli_dir, oracle):
        # the one section an atlas document may carry is the plain span search
        doc = json.loads((cli_dir / "cone3.json").read_text())
        doc["oracle"] = oracle(doc)
        (cli_dir / "retired.json").write_text(json.dumps(doc))
        out = run_cli("validate", "retired.json", cwd=cli_dir)
        assert out.returncode == 2, out.stdout + out.stderr
        assert out.stdout == "", out.stdout
        assert out.stderr.splitlines() == [
            "error: oracle section other than {'kind': 'span_search', 'params': {}}"
        ], out.stderr

    @pytest.fixture(scope="class")
    def bad_football(self, cli_dir):
        """football(2, 3) with the glue chart's radius2 raised to 100: it parses,
        but the glue embeddings leave their target domains."""
        payload = serialize(football(2, 3))
        (cli_dir / "fb.json").write_bytes(payload)
        doc = json.loads(payload)
        for chart in doc["charts"]:
            if chart["id"] == "glue":
                chart["radius2"] = "100/1"
        (cli_dir / "fb_bad.json").write_bytes(canonical_bytes(doc))
        tg = TranslationGroupoid(atlas_from_doc(doc))
        (cli_dir / "fb_bad_groupoid.json").write_bytes(serialize(tg))

    @pytest.mark.parametrize(
        "argv",
        [
            ("laws", "fb_bad.json"),
            ("groupoid", "fb_bad.json"),
            ("groupoid", "fb_bad_groupoid.json"),
            ("reconstruct", "fb_bad.json"),
            ("morita", "fb_bad.json", "fb.json"),
            ("bijection", "fb.json", "fb_bad.json"),
            ("validate", "fb_bad_groupoid.json"),
        ],
        ids=["laws", "groupoid", "groupoid-document", "reconstruct", "morita", "bijection", "validate-groupoid-document"],
    )
    def test_invalid_atlas_fails_before_any_suite(self, cli_dir, bad_football, argv):
        out = run_cli(*argv, "--samples", "20", cwd=cli_dir)
        assert out.returncode == 1, out.stdout + out.stderr
        assert out.stdout == "", out.stdout
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr
        assert "image inside target domain" in lines[0], out.stderr

    @pytest.fixture(scope="class")
    def unrealized_table(self, cli_dir):
        """Two discs whose witness span uses an embedding a -> b the atlas
        does not store, with unit witness points at that span's point."""
        p = Point.of(12, Fraction(1, 3))
        atlas, _ = two_disc_table_atlas(unit_points={"a": (p,), "b": (p,)})
        (cli_dir / "table.json").write_bytes(serialize(atlas))

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "table.json"),
            ("groupoid", "table.json"),
            ("reconstruct", "table.json"),
            ("morita", "table.json", "table.json"),
            ("bijection", "table.json", "table.json"),
        ],
        ids=["validate", "groupoid", "reconstruct", "morita", "bijection"],
    )
    def test_unrealized_recorded_span_fails(self, cli_dir, unrealized_table, argv):
        out = run_cli(*argv, "--samples", "10", cwd=cli_dir)
        assert out.returncode == 1, out.stdout + out.stderr
        assert "Traceback" not in out.stderr, out.stderr
        if argv[0] == "validate":
            assert out.stderr == "", out.stderr
            assert out.stdout.count("[FAIL]") == 1, out.stdout
            assert "[FAIL] witness a|b via a -- leg to b stored in the atlas" in out.stdout
        else:
            assert out.stdout == "", out.stdout
            lines = out.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: invalid atlas: witness a|b via a"), out.stderr

    @pytest.fixture(scope="class")
    def unknown_leg_targets(self, cli_dir):
        """cone(3) documents whose first witness has its left or right leg
        pointing at a chart id the atlas does not have."""
        for side in ("left", "right"):
            doc = json.loads((cli_dir / "cone3.json").read_text())
            doc["witnesses"][0][side]["dst"] = "nope"
            (cli_dir / f"leg_{side}.json").write_text(json.dumps(doc))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_witness_leg_to_unknown_chart_fails_validation(self, cli_dir, unknown_leg_targets, side):
        out = run_cli("validate", f"leg_{side}.json", "--samples", "10", cwd=cli_dir)
        assert out.returncode == 1, out.stdout + out.stderr
        assert out.stderr == "", out.stderr
        assert "[FAIL] witness" in out.stdout and "leg to nope stored in the atlas" in out.stdout, out.stdout
        assert "verdict: fail" in out.stdout

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_witness_leg_to_unknown_chart_is_one_failed_check(self, cli_dir, unknown_leg_targets, side):
        from orbatlas.atlas import validate_atlas

        atlas = atlas_from_doc(json.loads((cli_dir / f"leg_{side}.json").read_text()))
        failures = validate_atlas(atlas, samples=10).failures()
        assert len(failures) == 1, failures
        name, detail = failures[0]
        assert name.startswith("witness ") and "leg to nope stored in the atlas" in detail, failures

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("suite", ["groupoid", "laws", "reconstruct"])
    def test_witness_leg_to_unknown_chart_fails_before_any_suite(self, cli_dir, unknown_leg_targets, suite, side):
        out = run_cli(suite, f"leg_{side}.json", "--samples", "10", cwd=cli_dir)
        assert out.returncode == 1, out.stdout + out.stderr
        assert out.stdout == "", out.stdout
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: invalid atlas: "), out.stderr
        assert "leg to nope stored in the atlas" in lines[0], out.stderr

    @pytest.mark.parametrize(
        "witness",
        [
            lambda doc: {"kind": "witnesses"},
            lambda doc: {**doc, "spans": [{k: v for k, v in doc["spans"][0].items() if k != "left"}]},
            lambda doc: {**doc, "spans": "none"},
        ],
        ids=["missing-spans", "span-without-left", "spans-not-a-list"],
    )
    def test_malformed_witness_file_is_parse_error(self, cli_dir, witness):
        from orbatlas.gallery import cone_pair

        u1, u2, ws = cone_pair(3)
        (cli_dir / "wu1.json").write_bytes(serialize(u1))
        (cli_dir / "wu2.json").write_bytes(serialize(u2))
        doc = json.loads(canonical_bytes(witnesses_to_doc(ws)))
        (cli_dir / "w_bad.json").write_text(json.dumps(witness(doc)))
        out = run_cli("bijection", "wu1.json", "wu2.json", "--witness", "w_bad.json", cwd=cli_dir)
        assert out.returncode == 2, out.stdout + out.stderr
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr

    def test_samples_environment_variable(self, cli_dir):
        env = cli_env(ORBATLAS_SAMPLES="17")
        code = "from orbatlas import cli; print(cli.build_parser().parse_args(['validate', 'x.json']).samples)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.stdout.strip() == "17", out.stderr

    @pytest.mark.parametrize(
        "argv, env",
        [
            (("validate", "cone3.json"), {"ORBATLAS_SAMPLES": "abc"}),
            (("groupoid", "cone3.json"), {"ORBATLAS_SAMPLES": "-4"}),
            (("groupoid", "cone3.json", "--samples", "-3"), {}),
            (("validate", "cone3.json", "--samples", "0"), {}),
            (("validate", "cone3.json", "--samples", "2.5"), {}),
        ],
        ids=["env-not-integer", "env-negative", "option-negative", "option-zero", "option-not-integer"],
    )
    def test_bad_sample_count_is_usage_error(self, cli_dir, argv, env):
        out = run_cli(*argv, cwd=cli_dir, **env)
        assert out.returncode == 2, out.stdout + out.stderr
        assert "sample count" in out.stderr and "Traceback" not in out.stderr, out.stderr

    def test_samples_option_overrides_environment(self, cli_dir):
        out = run_cli("validate", "cone3.json", "--samples", "5", cwd=cli_dir, ORBATLAS_SAMPLES="abc")
        assert out.returncode == 0, out.stdout + out.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("cone", "--p", "5"),
            ("cone", "--p", "3", "--radius2", "-1"),
            ("cone", "--p", "3", "--radius2", "1/0"),
            ("global_quotient", "--p", "2", "--dim", "0"),
            ("point", "--conductor", "5"),
            ("cone", "--p", "0", "--conductor", "6"),
            ("football", "--p", "2", "--q", "0", "--conductor", "6"),
        ],
        ids=[
            "unsupported-order", "negative-radius", "radius-not-rational", "dimension-zero",
            "point-conductor", "cone-order-zero", "football-order-zero",
        ],
    )
    def test_gallery_usage_error(self, cli_dir, argv):
        out = run_cli("gallery", *argv, cwd=cli_dir)
        assert out.returncode == 2, out.stdout + out.stderr
        assert out.stdout == "" and "Traceback" not in out.stderr, out.stderr

    @pytest.mark.parametrize("q", ["5", "2"])
    def test_teardrop_ignores_q(self, cli_dir, q):
        out = run_cli("gallery", "teardrop", "--p", "3", "--out", "td.json", cwd=cli_dir)
        assert out.returncode == 0, out.stderr
        out = run_cli("gallery", "teardrop", "--p", "3", "--q", q, "--out", "td_q.json", cwd=cli_dir)
        assert out.returncode == 0, out.stdout + out.stderr
        assert (cli_dir / "td_q.json").read_bytes() == (cli_dir / "td.json").read_bytes()


class TestInternalError:
    def test_unexpected_exception_is_one_line_exit_1(self, cli_dir, monkeypatch, capsys):
        import orbatlas.groupoids
        from orbatlas.cli import main

        def suite(*args, **kwargs):
            raise RuntimeError("suite fault\non two lines")

        monkeypatch.setattr(orbatlas.groupoids, "check_groupoid_axioms", suite)
        assert main(["groupoid", str(cli_dir / "cone3.json"), "--samples", "10"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: internal error: RuntimeError: suite fault on two lines"]


MUTATION_SOURCES = {
    "cone(3)": lambda: cone(3),
    "football(2, 3)": lambda: football(2, 3),
    "teardrop(3)": lambda: teardrop(3),
    "global_quotient(2, 2)": lambda: global_quotient(2, 2),
    "cone(4, m=12)": lambda: cone(4, conductor=12),
}


@functools.lru_cache(maxsize=None)
def canonical_document(name):
    return serialize(MUTATION_SOURCES[name]())


RATIONAL_LEAF = re.compile(r"-?[0-9]+/[0-9]+")


def mutable_leaves(doc, path=()):
    """Paths to the coefficient strings (every "n/d" leaf), to the top-level
    conductor and dimension of an atlas document, and to each unit-point list,
    each unit point and each of its coordinates."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path] if isinstance(doc, str) and RATIONAL_LEAF.fullmatch(doc) else []
    found = [(k,) for k in ("conductor", "dimension") if not path and k in doc]
    if path[:1] == ("unit_points",) and len(path) in (2, 3, 4):
        found.append(path)
    for key, value in items:
        found += mutable_leaves(value, path + (key,))
    return found


mutant_texts = st.one_of(
    st.text(max_size=8),
    st.fractions(max_denominator=64).map(lambda f: f"{f.numerator}/{f.denominator}"),
    st.sampled_from(["0", "0.0", "0/2", "-0/1", "01/1", "1e2", " 1/2", "3"]),
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 13)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | mutant_texts,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


class TestDocumentMutationFuzz:
    """One coefficient string, conductor, dimension, unit-point list, unit
    point or unit-point coordinate of a canonical gallery document replaced by
    any JSON value: the parser refuses the mutant with a
    ParseError or re-serializes it to its own canonical bytes, and `validate`
    exits 0, 1 or 2 without an internal error."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutant_is_refused_or_canonical(self, data, cli_dir):
        from orbatlas.cli import main

        name = data.draw(st.sampled_from(sorted(MUTATION_SOURCES)), label="source")
        mutant = json.loads(canonical_document(name))
        leaves = mutable_leaves(mutant)
        # unit-point leaves are few among the coefficient strings; draw them as often
        unit_leaves = [p for p in leaves if p[0] == "unit_points" and len(p) < 5]
        path = data.draw(st.sampled_from(leaves) | st.sampled_from(unit_leaves), label="leaf")
        value = data.draw(json_values, label="value")
        parent = mutant
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        raw = canonical_bytes(mutant)
        try:
            atlas = atlas_from_doc(json.loads(raw))
        except ParseError:
            pass
        else:
            assert serialize(atlas) == raw
        target = cli_dir / "mutant.json"
        target.write_bytes(raw)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", str(target), "--samples", "5"])
        assert code in (0, 1, 2)
        assert "internal error" not in err.getvalue()

    def test_action_groupoid_with_g2_mapped_to_zeta_fails_its_axioms(self, cli_dir):
        """This mutant once raised NotComposableError out of the axiom suite,
        and `validate` printed it as an error."""
        from orbatlas.cli import main

        target = cli_dir / "mutant.json"
        target.write_bytes(other_document("action groupoid of z/3 with g2 mapped to zeta"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", str(target), "--samples", "5"])
        assert code == 1
        assert "error:" not in err.getvalue()
        assert "[FAIL] associativity -- sample 0: t(first) != s(second)" in out.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_document_mutant_is_refused_or_canonical(self, data, cli_dir):
        """The same over system, 2-cell, witness and groupoid documents, with
        any node below the root as the mutated one (a coefficient string as
        often as any other).  The hash of an inline atlas the mutant changes
        is recomputed, so the mutation reaches the atlas parser; a mutated
        witness document is read by `bijection --witness`."""
        from orbatlas.cli import main

        name = data.draw(st.sampled_from(sorted(DOCUMENT_SOURCES)), label="source")
        mutant = json.loads(other_document(name))
        paths = node_paths(mutant)
        rationals = [p for p in paths if isinstance(_at(mutant, p), str) and RATIONAL_LEAF.fullmatch(_at(mutant, p))]
        others = [p for p in paths if p not in rationals]
        path = data.draw(st.sampled_from(rationals) | st.sampled_from(others), label="node")
        value = data.draw(json_values, label="value")
        _at(mutant, path[:-1])[path[-1]] = value
        rehash_inline_atlases(mutant, path)
        raw = canonical_bytes(mutant)
        target = cli_dir / "mutant.json"
        target.write_bytes(raw)
        witnesses = mutant.get("kind") == "witnesses"
        try:
            if witnesses:
                back = canonical_bytes(witnesses_to_doc(witnesses_from_doc(json.loads(raw), 3)))
            else:
                back = serialize(parse_any(target))
        except ParseError:
            pass
        else:
            assert back == raw
        if witnesses:
            pair = [cli_dir / "pair1.json", cli_dir / "pair2.json"]
            for path, atlas in zip(pair, cone_pair(3)):
                path.write_bytes(serialize(atlas))
            argv = ["bijection", *map(str, pair), "--witness", str(target)]
        else:
            argv = ["validate", str(target)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--samples", "5"])
        assert code in (0, 1, 2)
        assert "internal error" not in err.getvalue()


def _z3_action():
    z = CycNum.zeta(3)
    ball = Ball(Point.origin(3, 1), CycNum.rational(3, 1))
    return ActionGroupoid(3, ball, [(f"g{k}", AffineMap.scaling(3, 1, z**k)) for k in range(3)])


def _z3_action_g2_as_zeta():
    """The z/3 action groupoid document with the map of g2 replaced by zeta
    (the map of g1); its multiplication table no longer matches its maps."""
    doc = json.loads(serialize(_z3_action()))
    doc["elements"][2]["A"] = doc["elements"][1]["A"]
    return canonical_bytes(doc)


def _diag_system():
    """The global_quotient(2, 2) endosystem lifted by diag(1/2, 1/4), an affine
    map that is not a similarity."""
    a = global_quotient(2, 2)
    cid = a.chart_ids()[0]
    diag = PolyMap(a.conductor, 2, 2, [{(1, 0): Fraction(1, 2)}, {(0, 1): Fraction(1, 4)}])
    return serialize(CompatibleSystem(a, a, {cid: cid}, {}, {cid: diag}))


DOCUMENT_SOURCES = {
    "system over cone(3)": lambda: serialize(rotation_fixture(cone(3), random.Random(1)).f1),
    "system over football(2, 3)": lambda: serialize(rotation_fixture(football(2, 3), random.Random(1)).f2),
    "system lifted by diag(1/2, 1/4)": _diag_system,
    "2-cell over cone(3)": lambda: serialize(rotation_fixture(cone(3), random.Random(1)).delta),
    "witnesses of cone_pair(3)": lambda: canonical_bytes(witnesses_to_doc(cone_pair(3)[2])),
    "translation groupoid of cone(3)": lambda: serialize(TranslationGroupoid(cone(3))),
    "translation groupoid of football(2, 3)": lambda: serialize(TranslationGroupoid(football(2, 3))),
    "action groupoid of z/3": lambda: serialize(_z3_action()),
    "action groupoid of z/3 with g2 mapped to zeta": _z3_action_g2_as_zeta,
}


@functools.lru_cache(maxsize=None)
def other_document(name):
    return DOCUMENT_SOURCES[name]()


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def node_paths(doc, path=()):
    """The path to every node of a document below its root."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    return [p for key, value in items for p in [path + (key,), *node_paths(value, path + (key,))]]


def rehash_inline_atlases(doc, path):
    """Recompute the hash of the inline atlas (system reference "inline", or
    groupoid "atlas") that path runs through, unless path is that hash."""
    for depth, key in enumerate(path[:-1]):
        parent = _at(doc, path[:depth])
        hash_key = {"inline": "hash", "atlas": "atlas_hash"}.get(key)
        if isinstance(parent, dict) and hash_key in parent:
            parent[hash_key] = doc_hash(parent[key])
