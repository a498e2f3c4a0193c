"""Command-line surface: validation, groupoid construction, law suites, Morita
checks, reconstruction round trips and the bijection demo.

Reports are deterministic for a fixed command line and seed: the text goes to
stdout and a machine-readable JSON document (with a verdict field and the
failing checks as counterexample blocks) can be written with --out.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from .errors import OrbAtlasError, ParseError, UnsupportedParamsError
from .gallery import GalleryParams, gallery
from .report import Report
from .serialize import (
    atlas_to_doc,
    canonical_bytes,
    groupoid_to_doc,
    load_document,
    parse_any,
    serialize,
    witnesses_from_doc,
)

DEFAULT_SAMPLES = 500


def _sample_count(text: str) -> int:
    """A --samples value or ORBATLAS_SAMPLES: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"sample count {text!r} (from --samples or ORBATLAS_SAMPLES) is not an integer >= 1"
        )
    return n


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None


def _reports_to_doc(reports: list[Report], strict: bool) -> dict:
    checks = []
    counterexamples = []
    for rep in reports:
        for name, ok, detail in rep.checks:
            checks.append({"suite": rep.title, "name": name, "ok": ok, "detail": detail})
            if not ok:
                counterexamples.append({"suite": rep.title, "name": name, "detail": detail})
        for w in rep.warnings:
            checks.append({"suite": rep.title, "name": w, "ok": not strict, "detail": "warning"})
    verdict = all(c["ok"] for c in checks)
    return {"verdict": "pass" if verdict else "fail", "checks": checks, "counterexamples": counterexamples}


def _emit(reports: list[Report], args) -> int:
    for rep in reports:
        for line in rep.lines(strict=args.strict)[:-1]:
            print(line)
    doc = _reports_to_doc(reports, args.strict)
    print(f"verdict: {doc['verdict']}")
    if args.out:
        Path(args.out).write_bytes(canonical_bytes(doc))
    return 0 if doc["verdict"] == "pass" else 1


def _load_atlas(path: str):
    obj = parse_any(path)
    from .atlas import Atlas

    if not isinstance(obj, Atlas):
        raise ParseError(f"{path} is not an atlas document")
    return obj


def _load_groupoid(path: str):
    from .atlas import Atlas
    from .groupoids import GroupoidPresentation
    from .translation import TranslationGroupoid

    obj = parse_any(path)
    if isinstance(obj, Atlas):
        return TranslationGroupoid(obj)
    if isinstance(obj, GroupoidPresentation):
        return obj
    raise ParseError(f"{path} is not an atlas or groupoid document")


def cmd_gallery(args) -> int:
    params = GalleryParams(
        name=args.name,
        p=args.p,
        q=args.q,
        dim=args.dim,
        radius2=args.radius2,
        conductor=args.conductor,
    )
    atlas = gallery(params)
    payload = serialize(atlas)
    if args.out:
        Path(args.out).write_bytes(payload)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(payload.decode())
    return 0


def cmd_validate(args) -> int:
    from .atlas import Atlas, validate_atlas
    from .groupoids import GroupoidPresentation, check_groupoid_axioms
    from .systems import CompatibleSystem, OrbNatTrans, validate_compatible_system, validate_orb_nat_trans

    obj = parse_any(args.file)
    rng = random.Random(args.seed)
    if isinstance(obj, Atlas):
        reports = [validate_atlas(obj, samples=min(args.samples, 50), rng=rng)]
    elif isinstance(obj, GroupoidPresentation):
        reports = [check_groupoid_axioms(obj, samples=min(args.samples, 100), seed=args.seed)]
    elif isinstance(obj, CompatibleSystem):
        reports = [validate_compatible_system(obj, samples=min(args.samples, 50), seed=args.seed)]
    elif isinstance(obj, OrbNatTrans):
        reports = [validate_orb_nat_trans(obj)]
    else:
        raise ParseError("unsupported document")
    return _emit(reports, args)


def cmd_groupoid(args) -> int:
    from .groupoids import check_groupoid_axioms, structural_predicates
    from .translation import (
        TranslationGroupoid,
        action_groupoid_oracle_report,
        multiplication_well_defined_report,
    )

    g = _load_groupoid(args.file)
    reports = [
        check_groupoid_axioms(g, samples=args.samples, seed=args.seed),
        structural_predicates(g, samples=max(10, args.samples // 10), seed=args.seed),
    ]
    if isinstance(g, TranslationGroupoid):
        reports.append(
            multiplication_well_defined_report(
                g.atlas, products=max(10, args.samples // 10), seed=args.seed
            )
        )
        if len(g.atlas.charts) == 1:
            reports.append(
                action_groupoid_oracle_report(
                    g.atlas, samples=max(10, args.samples // 10), seed=args.seed
                )
            )
    return _emit(reports, args)


def cmd_laws(args) -> int:
    from .systems import check_2cat_laws, rotation_fixture
    from .translation import check_functor_laws

    atlas = _load_atlas(args.file)
    rng = random.Random(args.seed)
    squares = max(1, args.samples // 100)
    reports = []
    for k in range(squares):
        fx = rotation_fixture(atlas, rng)
        rep = check_2cat_laws(fx)
        rep.title = f"2-category laws (square {k})"
        reports.append(rep)
    fx = rotation_fixture(atlas, rng)
    rep = check_functor_laws(fx, samples=min(args.samples, 100), seed=args.seed)
    reports.append(rep)
    return _emit(reports, args)


def cmd_morita(args) -> int:
    from .morita import check_morita, subatlas_inclusion_morphism

    sub = _load_atlas(args.sub)
    full = _load_atlas(args.full)
    report = check_morita(
        subatlas_inclusion_morphism(sub, full), samples=args.samples, seed=args.seed
    )
    return _emit([report.condition_i, report.condition_ii], args)


def cmd_reconstruct(args) -> int:
    from .atlas import validate_atlas
    from .morita import check_morita, reconstruct_atlas, reconstruction_morita_morphism

    g = _load_groupoid(args.file)
    recon = reconstruct_atlas(g, samples=max(1, min(5, args.samples // 100)), seed=args.seed)
    reports = [validate_atlas(recon.atlas, samples=20, rng=random.Random(args.seed))]
    mr = check_morita(
        reconstruction_morita_morphism(g, recon), samples=args.samples, seed=args.seed
    )
    reports += [mr.condition_i, mr.condition_ii]
    if args.atlas_out:
        Path(args.atlas_out).write_bytes(serialize(recon.atlas))
    return _emit(reports, args)


def cmd_bijection(args) -> int:
    from .morita import bijection_demo

    u1 = _load_atlas(args.first)
    u2 = _load_atlas(args.second)
    witnesses = None
    if args.witness:
        doc = load_document(args.witness)
        witnesses = witnesses_from_doc(doc, u1.conductor)
    verdict = bijection_demo(u1, u2, witnesses, samples=args.samples, seed=args.seed)
    print("\n".join(verdict.details.lines(strict=args.strict)[:-1]))
    doc = _reports_to_doc([verdict.details], args.strict)
    doc["verdict"] = "pass" if verdict.details.ok else "fail"
    doc["atlas_side"] = verdict.atlas_side
    doc["groupoid_side"] = verdict.groupoid_side
    doc["agreement"] = verdict.agreement or verdict.atlas_side == "not determined"
    print(f"atlas side: {verdict.atlas_side}")
    print(f"groupoid side: {verdict.groupoid_side}")
    print(f"verdict: {doc['verdict']}")
    if args.out:
        Path(args.out).write_bytes(canonical_bytes(doc))
    return 0 if doc["verdict"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # a string default goes through _sample_count too, so a bad ORBATLAS_SAMPLES
    # is a usage error; an explicit --samples takes precedence over it
    common.add_argument(
        "--samples",
        type=_sample_count,
        default=os.environ.get("ORBATLAS_SAMPLES", str(DEFAULT_SAMPLES)),
        help=f"samples per check, at least 1 (default: ORBATLAS_SAMPLES or {DEFAULT_SAMPLES})",
    )
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="write the machine-readable report here")
    common.add_argument("--strict", action="store_true", help="warnings become failures")
    parser = argparse.ArgumentParser(
        prog="orbatlas",
        description="Exact checks for orbifold atlases, translation groupoids and Morita equivalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    g = sub.add_parser("gallery", help="emit a worked-example atlas", parents=[common])
    g.add_argument("name", choices=("cone", "football", "teardrop", "global_quotient", "point"))
    g.add_argument("--p", type=int, default=1)
    g.add_argument("--q", type=int, default=1)
    g.add_argument("--dim", type=int, default=1)
    g.add_argument("--radius2", type=_fraction, default="1")
    g.add_argument("--conductor", type=int, default=None)
    g.set_defaults(fn=cmd_gallery)

    v = sub.add_parser("validate", parents=[common], help="validate a document")
    v.add_argument("file")
    v.set_defaults(fn=cmd_validate)

    gr = sub.add_parser("groupoid", parents=[common], help="build the groupoid and run the axiom suite")
    gr.add_argument("file")
    gr.set_defaults(fn=cmd_groupoid)

    lw = sub.add_parser("laws", parents=[common], help="2-category and functor law suites")
    lw.add_argument("file")
    lw.set_defaults(fn=cmd_laws)

    mo = sub.add_parser("morita", parents=[common], help="check a sub-atlas inclusion for Morita equivalence")
    mo.add_argument("sub")
    mo.add_argument("full")
    mo.set_defaults(fn=cmd_morita)

    rc = sub.add_parser("reconstruct", parents=[common], help="atlas reconstruction round trip")
    rc.add_argument("file")
    rc.add_argument("--atlas-out", default=None)
    rc.set_defaults(fn=cmd_reconstruct)

    bj = sub.add_parser("bijection", parents=[common], help="compare atlas-side and groupoid-side verdicts")
    bj.add_argument("first")
    bj.add_argument("second")
    bj.add_argument("--witness", default=None)
    bj.set_defaults(fn=cmd_bijection)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, UnsupportedParamsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrbAtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
