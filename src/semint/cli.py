"""Command-line surface over a plain-text store.

Exit codes: 0 success, 1 domain or validation failure, 2 usage error, 3 parse
or IO failure. A store file that cannot be parsed fails every command that
reads it, and an input file that does not decode as the kind of document its
command reads fails that command. Every command but ``init`` reads
``prefixes``, ``terms`` and ``mappings.tsv``, and a ``terms`` line that is not
JSON fails it; the term records are built only by the commands that read them
(``assess``, ``import terms``, ``export``) and by ``serve``, so a line that is
JSON but no term record fails only those. A document directory is read, and
its registry's module imported, only by the commands that read that registry
or one built over it, and by ``serve``: ``schemas/`` by all but ``interop``,
``closure``, ``import terms`` and ``import mappings``; ``crosswalks/`` by the
same less ``validate`` and ``import schema``; ``operations/`` by ``ops``,
``import operation`` and ``export``; ``fdos/`` by the commands that read FAIR
records (``assess``, ``find``, ``import fdo``, ``export``). ``assess`` and
``import fdo`` parse every record file but build only the records stored under
the id they assess or import. An ``import`` writes only the store file of what
it added: the ``terms`` or ``mappings.tsv`` file, rewritten whole in canonical
form, or the one document of the record it registered. ``export`` rewrites
the whole store in canonical form.

``python -m semint.cli`` and the ``semint`` script run :func:`entry`, which
returns :func:`main`'s exit code after ``gc.freeze()``: the process is about
to end, and the collections at interpreter exit then skip the loaded store.
:func:`main` itself never touches the collector, and ``serve`` never returns
to the entry.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import documents, store
from .errors import (
    IoFailure,
    ParseFailure,
    SemintError,
    UnknownCrosswalk,
    UnknownFdo,
    UnknownOperation,
    UnknownSchema,
)


def _strategy(text: str) -> str:
    if text == "pairwise" or text.startswith("hub="):
        return text
    raise argparse.ArgumentTypeError(f"{text!r} is not 'pairwise' or 'hub=<schema-id>'")


def _category(text: str) -> str:
    from .fdo import StatementCategory  # only find --category imports the categories

    values = [c.value for c in StatementCategory]
    if text in values:
        return text
    raise argparse.ArgumentTypeError(f"{text!r} is not one of {', '.join(values)}")


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
    p_find.add_argument("--category", type=_category, help="a statement category of the FAIR records")

    p_serve = sub.add_parser("serve", help="run the HTTP facade")
    p_serve.add_argument("--bind", default="127.0.0.1:8402")

    return parser


def _emit(doc) -> None:
    sys.stdout.write(documents.render(doc))


def _read_record(path: str, parse, pm):
    """The record of the document in the file at ``path``, which
    ``parse`` decodes (:func:`store.read_json`, :func:`store.decode`)."""
    return store.decode(parse, store.read_json(path, path), pm, path)


def _run(args: argparse.Namespace) -> int:
    root = Path(args.store)
    if args.command == "init":
        _emit({"initialized": str(store.init_store(root))})
        return 0

    # serve builds every registry and reads every section before it binds, so
    # no handler thread reads a deferred one; any other command imports,
    # reads and builds only what it reads
    engine = store.load_store(root) if args.command == "serve" else store.open_store(root)
    pm = engine.prefix_map

    if args.command == "import":
        return _run_import(args, engine, root)
    if args.command == "export":
        _emit({"exported": str(store.export_store(engine, root))})
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
        inst = _read_record(args.instance_file, documents.instance_from_doc, pm)
        report = engine.schemas.validate_instance(inst, strict=args.strict)
        _emit(documents.validation_to_doc(report))
        return 0 if report.valid else 1
    if args.command == "crosswalk":
        return _run_crosswalk(args, engine)
    if args.command == "transform":
        inst = _read_record(args.instance_file, documents.instance_from_doc, pm)
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
        gupri = pm.gupri(args.gupri)
        # no check reads another record, so only the records of this id are built
        store.defer_fdos(engine.fdos, root, pm, only=gupri)
        report = engine.fdos.assess_fdo(gupri)
        _emit(documents.assessment_to_doc(report, pm))
        return 0
    if args.command == "find":
        _emit(store.find_document(engine, vars(args)))
        return 0
    if args.command == "serve":
        # only serve needs the facade and http.server; importing them costs every other command
        from . import service

        service.serve(engine, args.bind)
        return 0
    raise AssertionError(f"unhandled command {args.command}")


def _run_import(args: argparse.Namespace, engine, root: Path) -> int:
    """Register the file's records and write only the store file that they
    change; a registration that stores nothing new writes nothing."""
    pm = engine.prefix_map
    if args.kind == "terms":
        count, added = 0, False
        for _, record in store.term_records(store.read_file(args.file, args.file).splitlines(), args.file, pm):
            added = added or not engine.terminology.has_term(record.id)
            engine.terminology.register_term(record)
            count += 1
        if added:
            store.export_store(engine, root, changed="terms")
        _emit({"imported_terms": count})
        return 0
    if args.kind == "mappings":
        held = len(engine.terminology.mapping_rows())
        report = engine.terminology.import_mappings_tsv(
            store.read_file(args.file, args.file), table1_direction=args.table1_direction
        )
        if len(engine.terminology.mapping_rows()) > held:
            store.export_store(engine, root, changed="mappings.tsv")
        _emit(documents.import_report_to_doc(report))
        return 0
    # the directory is also the engine's registry, which the first access builds
    directory, parse, register, lookup = {
        "schema": ("schemas", documents.schema_from_doc, "register_schema", "schema"),
        "crosswalk": ("crosswalks", documents.crosswalk_from_doc, "register_crosswalk", "crosswalk"),
        "operation": ("operations", documents.operation_from_doc, "register_operation", "operation"),
        "fdo": ("fdos", documents.fdo_from_doc, "register_fdo", "record"),
    }[args.kind]
    parsed = _read_record(args.file, parse, pm)
    registry = getattr(engine, directory)
    if args.kind == "fdo":
        # only a stored record of the same id, under any file name, can conflict
        store.defer_fdos(registry, root, pm, only=parsed.gupri)
    lookup = getattr(registry, lookup)
    held = _held(lookup, parsed.gupri if args.kind == "fdo" else parsed.id)
    registered = getattr(registry, register)(parsed)
    if not held:
        store.export_store(engine, root, changed=(directory, lookup(registered)))
    _emit({"registered": pm.compress(registered.canonical)})
    return 0


def _held(lookup, id) -> bool:
    """Whether the engine already holds a record under ``id``."""
    try:
        lookup(id)
    except (UnknownSchema, UnknownCrosswalk, UnknownOperation, UnknownFdo):
        return False
    return True


def _run_crosswalk(args: argparse.Namespace, engine) -> int:
    pm = engine.prefix_map

    def resolve(ref: str):
        if Path(ref).is_file():
            return _read_record(ref, documents.crosswalk_from_doc, pm)
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


def entry() -> int:
    """The process entry of ``python -m semint.cli`` and the ``semint``
    script: :func:`main`'s exit code, returned after ``gc.freeze()``, so the
    collections at interpreter exit skip the loaded store. :func:`main`
    leaves the collector alone, since in-process callers share it."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
