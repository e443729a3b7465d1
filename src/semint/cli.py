"""Command-line surface over a plain-text store.

Exit codes: 0 success, 1 domain or validation failure, 2 usage error,
3 parse or IO failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import documents, service, store
from .errors import (
    InvalidGupri,
    IoFailure,
    MalformedContent,
    MalformedRecord,
    ParseFailure,
    SemintError,
)
from .fdo import StatementCategory


def _strategy(text: str) -> str:
    if text == "pairwise" or text.startswith("hub="):
        return text
    raise argparse.ArgumentTypeError(f"{text!r} is not 'pairwise' or 'hub=<schema-id>'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semint",
        description="Semantic interoperability store: terms, mappings, schemas, crosswalks, operations, FAIR records.",
    )
    parser.add_argument("--store", default=".", help="store root directory (default: current directory)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("init", help="create an empty store layout")

    p_import = sub.add_parser("import", help="import a file into the store")
    p_import.add_argument(
        "kind", choices=["terms", "mappings", "schema", "crosswalk", "operation", "fdo"]
    )
    p_import.add_argument("file")
    p_import.add_argument(
        "--table1-direction",
        action="store_true",
        help="read subClassOf/subPropertyOf rows with the subject as the parent",
    )

    sub.add_parser("export", help="rewrite the store in canonical form")
    sub.add_parser("closure", help="print the terminology closure snapshot")

    p_interop = sub.add_parser("interop", help="interoperability verdict for two terms")
    p_interop.add_argument("a")
    p_interop.add_argument("b")
    p_interop.add_argument("--min-confidence", type=float, default=None)

    p_validate = sub.add_parser("validate", help="validate an instance document")
    p_validate.add_argument("instance_file")
    p_validate.add_argument("--strict", action="store_true", help="accept only ontological equivalence")

    p_cw = sub.add_parser("crosswalk", help="check, classify, compose, or invert crosswalks")
    cw_sub = p_cw.add_subparsers(dest="crosswalk_command", required=True)
    for name in ("check", "classify", "invert"):
        p = cw_sub.add_parser(name)
        p.add_argument("crosswalk", help="registered crosswalk id or path to a crosswalk document")
    p_compose = cw_sub.add_parser("compose")
    p_compose.add_argument("first")
    p_compose.add_argument("second")

    p_transform = sub.add_parser("transform", help="translate an instance across a crosswalk")
    p_transform.add_argument("instance_file")
    p_transform.add_argument("crosswalk")
    p_transform.add_argument("--min-confidence", type=float, default=None)
    p_transform.add_argument(
        "--no-referential",
        action="store_true",
        help="fail instead of rewriting to merely referential equivalents",
    )

    p_plan = sub.add_parser("plan", help="plan pairwise or hub crosswalk coverage")
    p_plan.add_argument(
        "--strategy", default="pairwise", type=_strategy, help="pairwise or hub=<schema-id>"
    )
    p_plan.add_argument("schemas", nargs="+")

    p_ops = sub.add_parser("ops", help="operation queries")
    ops_sub = p_ops.add_subparsers(dest="ops_command", required=True)
    p_applicable = ops_sub.add_parser("applicable")
    p_applicable.add_argument("schema")
    p_applicable.add_argument("--reachable", action="store_true", help="include crosswalk-reachable operations")

    p_assess = sub.add_parser("assess", help="assess a registered FAIR record")
    p_assess.add_argument("gupri")

    p_find = sub.add_parser("find", help="find FAIR records")
    p_find.add_argument("--term")
    p_find.add_argument("--expand", choices=["none", "ontological", "referential"], default="none")
    p_find.add_argument("--statement-type")
    p_find.add_argument("--category", choices=[c.value for c in StatementCategory])

    p_serve = sub.add_parser("serve", help="run the HTTP facade")
    p_serve.add_argument("--bind", default="127.0.0.1:8402")

    return parser


def _emit(doc) -> None:
    sys.stdout.write(documents.render(doc))


def _read_json_file(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        return documents.load_json(text)
    except ValueError as exc:
        raise ParseFailure(path, 1, str(exc)) from None


def _run(args: argparse.Namespace) -> int:
    root = args.store
    if args.command == "init":
        layout = store.init_store(root)
        _emit({"initialized": str(layout.root)})
        return 0

    engine = store.load_store(root)
    pm = engine.prefix_map

    if args.command == "import":
        return _run_import(args, engine, root)
    if args.command == "export":
        layout = store.export_store(engine, root)
        _emit({"exported": str(layout.root)})
        return 0
    if args.command == "closure":
        _emit(engine.terminology.compute_closure().to_doc())
        return 0
    if args.command == "interop":
        a, b = pm.gupri(args.a), pm.gupri(args.b)
        verdict = engine.terminology.interop_level(a, b, args.min_confidence)
        _emit(documents.verdict_to_doc(a, b, verdict, pm))
        return 0
    if args.command == "validate":
        inst = documents.instance_from_doc(_read_json_file(args.instance_file), pm)
        report = engine.schemas.validate_instance(inst, strict=args.strict)
        _emit(documents.validation_to_doc(report))
        return 0 if report.valid else 1
    if args.command == "crosswalk":
        return _run_crosswalk(args, engine)
    if args.command == "transform":
        inst = documents.instance_from_doc(_read_json_file(args.instance_file), pm)
        out = engine.crosswalks.transform_instance(
            inst,
            args.crosswalk,
            min_confidence=args.min_confidence,
            allow_referential=not args.no_referential,
        )
        _emit(documents.instance_to_doc(out, pm))
        return 0
    if args.command == "plan":
        strategy, hub = args.strategy, None
        if strategy.startswith("hub="):
            strategy, hub = "hub", strategy[len("hub=") :]
        report = engine.crosswalks.plan_crosswalks(args.schemas, strategy=strategy, hub=hub)
        _emit(documents.plan_to_doc(report, pm))
        return 0
    if args.command == "ops":
        entries, degree = engine.operations.applicable_operations(
            args.schema, include_reachable=args.reachable
        )
        _emit(documents.applicable_to_doc(entries, degree, pm))
        return 0
    if args.command == "assess":
        report = engine.fdos.assess_fdo(args.gupri)
        _emit(documents.assessment_to_doc(report, pm))
        return 0
    if args.command == "find":
        _emit(store.find_document(engine, vars(args)))
        return 0
    if args.command == "serve":
        service.serve(engine, args.bind)
        return 0
    raise AssertionError(f"unhandled command {args.command}")


def _run_import(args: argparse.Namespace, engine, root: str) -> int:
    pm = engine.prefix_map
    if args.kind == "terms":
        try:
            text = Path(args.file).read_text(encoding="utf-8")
        except OSError as exc:
            raise IoFailure(f"cannot read {args.file}: {exc}") from exc
        count = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = documents.term_from_doc(documents.load_json(line), pm)
            except (ValueError, MalformedContent, MalformedRecord, InvalidGupri) as exc:
                raise ParseFailure(args.file, lineno, str(exc)) from None
            engine.terminology.register_term(record)
            count += 1
        store.export_store(engine, root)
        _emit({"imported_terms": count})
        return 0
    if args.kind == "mappings":
        try:
            data = Path(args.file).read_bytes()
        except OSError as exc:
            raise IoFailure(f"cannot read {args.file}: {exc}") from exc
        report = engine.terminology.import_mappings_tsv(data, table1_direction=args.table1_direction)
        store.export_store(engine, root)
        _emit(documents.import_report_to_doc(report))
        return 0
    doc = _read_json_file(args.file)
    parse, register = {
        "schema": (documents.schema_from_doc, engine.schemas.register_schema),
        "crosswalk": (documents.crosswalk_from_doc, engine.crosswalks.register_crosswalk),
        "operation": (documents.operation_from_doc, engine.operations.register_operation),
        "fdo": (documents.fdo_from_doc, engine.fdos.register_fdo),
    }[args.kind]
    try:
        parsed = parse(doc, pm)
    except (MalformedContent, MalformedRecord, InvalidGupri) as exc:
        raise ParseFailure(args.file, 1, str(exc)) from None
    registered = register(parsed)
    store.export_store(engine, root)
    _emit({"registered": pm.compress(registered.canonical)})
    return 0


def _run_crosswalk(args: argparse.Namespace, engine) -> int:
    pm = engine.prefix_map

    def resolve(ref: str):
        if Path(ref).is_file():
            return documents.crosswalk_from_doc(_read_json_file(ref), pm)
        return engine.crosswalks.crosswalk(ref)

    if args.crosswalk_command == "check":
        report = engine.crosswalks.check_crosswalk(resolve(args.crosswalk))
        _emit(documents.crosswalk_report_to_doc(report, pm))
        return 0 if report.clean else 1
    if args.crosswalk_command == "classify":
        level = engine.crosswalks.classify_crosswalk(resolve(args.crosswalk))
        _emit({"level": level.label})
        return 0
    if args.crosswalk_command == "invert":
        inverted = engine.crosswalks.invert_crosswalk(resolve(args.crosswalk))
        _emit(documents.crosswalk_to_doc(inverted, pm))
        return 0
    composed = engine.crosswalks.compose_crosswalks(resolve(args.first), resolve(args.second))
    _emit(documents.crosswalk_to_doc(composed, pm))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except SemintError as exc:
        sys.stderr.write(documents.render({"error": exc.tag, "message": str(exc)}))
        return 3 if isinstance(exc, (ParseFailure, IoFailure)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
