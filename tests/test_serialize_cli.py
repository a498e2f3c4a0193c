"""Document round trips, parse errors, and the command-line surface."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbatlas.errors import ParseError
from orbatlas.field import SUPPORTED_CONDUCTORS, CycNum
from orbatlas.gallery import cone, football, global_quotient, point_atlas
from orbatlas.morita import pushforward_atlas
from orbatlas.serialize import (
    _parse_frac,
    atlas_from_doc,
    canonical_bytes,
    cell_from_doc,
    cyc_from_doc,
    cyc_to_doc,
    groupoid_from_doc,
    load_document,
    parse_atlas,
    serialize,
    system_from_doc,
    witnesses_from_doc,
    witnesses_to_doc,
)
from orbatlas.systems import rotation_fixture
from orbatlas.translation import TranslationGroupoid


class TestRoundTrips:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: cone(3),
            lambda: football(2, 3),
            lambda: point_atlas(),
            lambda: global_quotient(2, 2),
            lambda: pushforward_atlas({"north": "south", "south": "north", "glue": "glue"}, football(2, 3)),
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
        [
            lambda doc: {"kind": "span_search", "params": {}},
            lambda doc: {"kind": "span_table", "params": {"spans": []}},
            lambda doc: {"kind": "span_table", "params": {"spans": doc["witnesses"]}},
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
        ],
        ids=["span-search", "empty-span-table", "span-table", "pushforward-2-deep"],
    )
    def test_oracle_forms_bit_exact(self, oracle):
        doc = json.loads(serialize(cone(3)))
        assert doc["witnesses"]
        doc["oracle"] = oracle(doc)
        raw = canonical_bytes(doc)
        back = atlas_from_doc(json.loads(raw))
        assert serialize(back) == raw

    @pytest.mark.parametrize("kind", ["global_quotient", "gluing"])
    def test_oracle_aliases_parse_as_span_search(self, kind):
        atlas = cone(3)
        doc = json.loads(serialize(atlas))
        doc["oracle"] = {"kind": kind}
        back = atlas_from_doc(doc)
        assert back.oracle == atlas.oracle
        assert serialize(back) == serialize(atlas)

    def test_non_canonical_input_is_canonicalized(self):
        # pre-reduction accepted: zeta_12^4 given in the raw power basis reduces
        # to its canonical form below the cyclotomic degree
        from orbatlas.field import CycNum

        raw = ["0/1"] * 12
        raw[4] = "1/1"
        parsed = cyc_from_doc(12, raw)
        assert parsed == CycNum.zeta(12, 4)
        assert all(c == 0 for c in parsed.coeffs[4:])
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

    @pytest.mark.parametrize("text", ["3", " -2/4 ", "1.5", "1e2", "1/0", "abc", ""])
    def test_parse_frac_matches_fraction(self, text):
        try:
            expected = Fraction(str(text))
        except (ValueError, ZeroDivisionError):
            expected = ParseError
        for _ in range(2):  # the second call is answered from the memo
            try:
                got = _parse_frac(text)
            except ParseError:
                got = ParseError
            assert got == expected and type(got) is type(expected)


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
        assert cyc_from_doc(3, ["1/1", "0/1", "0/1"]) == cyc_from_doc(3, "1")

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
        ],
    )
    def test_malformed_document_is_parse_error(self, cli_dir, mutate):
        doc = json.loads((cli_dir / "cone3.json").read_text())
        (cli_dir / "bad.json").write_text(json.dumps(mutate(doc)))
        out = run_cli("validate", "bad.json", cwd=cli_dir)
        assert out.returncode == 2, out.stderr
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

    def test_non_injective_relabel_fails_check(self, cli_dir):
        doc = json.loads((cli_dir / "cone3.json").read_text())
        relabel = {"a": "x", "b": "x"}
        doc["oracle"] = {"kind": "pushforward", "params": {"relabel": relabel, "inner": doc["oracle"]}}
        (cli_dir / "bad_relabel.json").write_text(json.dumps(doc))
        out = run_cli("validate", "bad_relabel.json", cwd=cli_dir)
        assert out.returncode == 1, out.stderr
        assert out.stderr.splitlines() == ["error: relabeling is not injective"], out.stderr

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
