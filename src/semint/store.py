"""Plain-text persistent store with canonical, diff-friendly exports.

Layout under the store root:

* ``prefixes``      prefix map, one ``prefix<TAB>iri`` per line
* ``terms``         one term record per line (JSON)
* ``mappings.tsv``  entity mappings, tab-separated
* ``schemas/``, ``crosswalks/``, ``operations/``, ``fdos/``
                    one JSON document per file

Exports are canonical: records sorted by canonical identifier, documents
emitted with fixed key order, so export-import-export is byte-stable.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

from . import documents
from .engine import Engine
from .errors import EmptyQuery, IoFailure, ParseFailure, SemintError
from .fdo import StatementCategory
from .identifiers import Gupri, PrefixMap
from .terminology import InteropLevel, TerminologyRegistry

__all__ = ["StoreLayout", "init_store", "load_store", "export_store", "FindQuery", "ExpandMode", "find", "find_document"]

_MAPPING_COLUMNS = TerminologyRegistry.REQUIRED_COLUMNS + TerminologyRegistry.OPTIONAL_COLUMNS


@dataclass(frozen=True)
class StoreLayout:
    root: Path

    @property
    def prefixes_path(self) -> Path:
        return self.root / "prefixes"

    @property
    def terms_path(self) -> Path:
        return self.root / "terms"

    @property
    def mappings_path(self) -> Path:
        return self.root / "mappings.tsv"

    @property
    def schemas_dir(self) -> Path:
        return self.root / "schemas"

    @property
    def crosswalks_dir(self) -> Path:
        return self.root / "crosswalks"

    @property
    def operations_dir(self) -> Path:
        return self.root / "operations"

    @property
    def fdos_dir(self) -> Path:
        return self.root / "fdos"

    def document_dirs(self) -> list[Path]:
        return [self.schemas_dir, self.crosswalks_dir, self.operations_dir, self.fdos_dir]


def init_store(path: str | Path) -> StoreLayout:
    """Create an empty canonical layout; refuses to clobber an existing store."""
    layout = StoreLayout(Path(path))
    if layout.prefixes_path.exists() or layout.mappings_path.exists():
        raise IoFailure(f"store already initialized at {layout.root}")
    try:
        layout.root.mkdir(parents=True, exist_ok=True)
        for d in layout.document_dirs():
            d.mkdir(exist_ok=True)
        layout.prefixes_path.write_text("", encoding="utf-8")
        layout.terms_path.write_text("", encoding="utf-8")
        layout.mappings_path.write_text("\t".join(_MAPPING_COLUMNS) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot initialize store at {layout.root}: {exc}") from exc
    return layout


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise IoFailure(f"missing store file {path}") from None
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def load_store(path: str | Path) -> Engine:
    """Parse every store file into a fresh engine.

    Errors carry file and line context. Crosswalk documents are loaded with
    structural checks only; semantic re-validation is the job of
    ``crosswalk check``, so a store whose mapping set changed still loads.
    """
    layout = StoreLayout(Path(path))
    if not layout.root.is_dir():
        raise IoFailure(f"no store at {layout.root}")
    prefix_map = PrefixMap()
    for lineno, line in enumerate(_read_text(layout.prefixes_path).splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseFailure("prefixes", lineno, f"expected 'prefix<TAB>iri', got {line!r}")
        try:
            prefix_map.register(parts[0].strip(), parts[1].strip())
        except SemintError as exc:
            raise ParseFailure("prefixes", lineno, str(exc)) from None
    engine = Engine.empty(prefix_map)

    if layout.terms_path.exists():
        for lineno, line in enumerate(_read_text(layout.terms_path).splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = documents.term_from_doc(documents.load_json(line), prefix_map)
                engine.terminology.register_term(record)
            except (SemintError, ValueError) as exc:
                raise ParseFailure("terms", lineno, str(exc)) from None

    if layout.mappings_path.exists():
        try:
            report = engine.terminology.import_mappings_tsv(_read_text(layout.mappings_path))
        except SemintError as exc:
            raise ParseFailure("mappings.tsv", 1, str(exc)) from None
        if report.rejected:
            first = report.rejected[0]
            raise ParseFailure("mappings.tsv", first.line, first.reason)

    for directory, parse, register in (
        (layout.schemas_dir, documents.schema_from_doc, engine.schemas.register_schema),
        (layout.crosswalks_dir, documents.crosswalk_from_doc, engine.crosswalks._insert_trusted),
        (layout.operations_dir, documents.operation_from_doc, engine.operations.register_operation),
        (layout.fdos_dir, documents.fdo_from_doc, engine.fdos.register_fdo),
    ):
        for file, doc in _documents_in(directory):
            try:
                register(parse(doc, prefix_map))
            except SemintError as exc:
                raise ParseFailure(file, 1, str(exc)) from None
    return engine


def _documents_in(directory: Path):
    if not directory.is_dir():
        return
    for file in sorted(directory.glob("*.json")):
        try:
            yield str(file.relative_to(directory.parent)), documents.load_json(file.read_text(encoding="utf-8"))
        except OSError as exc:
            raise IoFailure(f"cannot read {file}: {exc}") from exc
        except ValueError as exc:
            raise ParseFailure(str(file.relative_to(directory.parent)), 1, str(exc)) from None


_SLUG_RE = re.compile(r"[^A-Za-z0-9._-]+")


def _filename(compact_id: str, canonical: str) -> str:
    slug = _SLUG_RE.sub("_", compact_id).strip("_") or "record"
    digest = hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:8]
    return f"{slug[:80]}-{digest}.json"


def _write_replacing(target: Path, text: str, listed: bool) -> None:
    """Write through a temporary file in the same directory, so ``target``
    holds either its old or its new content, never a part of either. The
    temporary name does not match ``*.json``, so a load never reads it.

    A ``listed`` file, one the export found before it wrote anything, is left
    alone when it already holds ``text``: an export changes few files, and on
    ext4 a rename over an existing file also starts writing the new data out,
    so replacing unchanged files costs more than comparing them. A file not
    listed is new, so it is written without reading it first.
    """
    data = text.encode("utf-8")
    try:
        if listed and target.read_bytes() == data:
            return
    except FileNotFoundError:
        pass
    temporary = target.with_name(target.name + ".tmp")
    try:
        temporary.write_bytes(data)
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def export_store(engine: Engine, path: str | Path) -> StoreLayout:
    """Write the engine's full contents in canonical form.

    Every file whose content changes is replaced whole, and documents of
    records the engine no longer holds are deleted only after every write
    succeeded, so an export that fails partway leaves each record of the
    store loadable. Each directory is listed once, before any write.
    """
    layout = StoreLayout(Path(path))
    pm = engine.prefix_map
    try:
        layout.root.mkdir(parents=True, exist_ok=True)
        for d in layout.document_dirs():
            d.mkdir(exist_ok=True)
        listed_documents = {f for d in layout.document_dirs() for f in d.glob("*.json")}
        listed = listed_documents | set(layout.root.iterdir())
        written: set[Path] = set()

        def write(target: Path, text: str) -> None:
            _write_replacing(target, text, target in listed)
            written.add(target)

        prefix_lines = [f"{prefix}\t{iri}" for prefix, iri in pm.bindings()]
        write(layout.prefixes_path, "\n".join(prefix_lines) + ("\n" if prefix_lines else ""))

        term_lines = [
            documents.render_line(documents.term_to_doc(t, pm)) for t in engine.terminology.terms()
        ]
        write(layout.terms_path, "\n".join(term_lines) + ("\n" if term_lines else ""))

        rows = ["\t".join(_MAPPING_COLUMNS)]
        for m in engine.terminology.mappings():
            rows.append(
                "\t".join(
                    [
                        pm.compress(m.subject.canonical),
                        m.predicate.curie,
                        pm.compress(m.object.canonical),
                        m.justification,
                        repr(m.confidence),
                        m.comment or "",
                        m.author or "",
                    ]
                )
            )
        write(layout.mappings_path, "\n".join(rows) + "\n")

        def write_document(directory: Path, doc: dict, id_field: str, canonical: str) -> None:
            write(directory / _filename(doc[id_field], canonical), documents.render(doc))

        for schema in engine.schemas.schemas():
            write_document(layout.schemas_dir, documents.schema_to_doc(schema, pm), "id", schema.id.canonical)
        for cw in engine.crosswalks.crosswalks():
            write_document(layout.crosswalks_dir, documents.crosswalk_to_doc(cw, pm), "id", cw.id.canonical)
        for op in engine.operations.operations():
            write_document(layout.operations_dir, documents.operation_to_doc(op, pm), "id", op.id.canonical)
        for record in engine.fdos.records():
            write_document(layout.fdos_dir, documents.fdo_to_doc(record, pm), "gupri", record.gupri.canonical)
        for stale in sorted(listed_documents - written):
            stale.unlink()
    except OSError as exc:
        raise IoFailure(f"cannot export store to {layout.root}: {exc}") from exc
    return layout


# ---------------------------------------------------------------------------
# findability


class ExpandMode(Enum):
    NONE = "none"
    ONTOLOGICAL = "ontological"
    REFERENTIAL = "referential"


@dataclass(frozen=True)
class FindQuery:
    term: Gupri | None = None
    expand: ExpandMode = ExpandMode.NONE
    statement_type: Gupri | None = None
    category: StatementCategory | None = None


def find(engine: Engine, query: FindQuery) -> list[Gupri]:
    """FDO gupris whose content matches the query, in canonical order.

    Term matching honors the expansion mode: with referential expansion an FDO
    using any term from the query term's referential equivalence class is
    found, independent of the vocabulary its author chose.
    """
    if query.term is None and query.statement_type is None and query.category is None:
        raise EmptyQuery("set at least one of term, statement_type, category")
    snap = engine.terminology.compute_closure()
    wanted_terms: frozenset[str] | None = None
    if query.term is not None:
        term = engine.prefix_map.gupri(query.term)
        if query.expand is ExpandMode.NONE:
            wanted_terms = frozenset({term.canonical})
        else:
            level = (
                InteropLevel.ONTOLOGICAL
                if query.expand is ExpandMode.ONTOLOGICAL
                else InteropLevel.REFERENTIAL
            )
            wanted_terms = snap.equivalence_class(term, level)
    wanted_schemas: set[str] | None = None
    if query.statement_type is not None:
        statement_type = engine.prefix_map.gupri(query.statement_type)
        wanted_schemas = {s.canonical for s in engine.schemas.schemas_for_statement_type_at(snap, statement_type)}
    results = []
    for record in engine.fdos.records():
        if wanted_terms is not None:
            mentioned = {t.canonical for t in record.content_terms()}
            if not mentioned & wanted_terms:
                continue
        if wanted_schemas is not None:
            used = {inst.schema_id.canonical for inst in record.instances()}
            if not used & wanted_schemas:
                continue
        if query.category is not None and record.category is not query.category:
            continue
        results.append(record.gupri)
    return results


def find_document(engine: Engine, params: Mapping[str, str | None]) -> dict:
    """:func:`find` for query text, as the CLI options and the facade's query
    parameters give it, answered as the ``{"results": [...]}`` document both
    emit. Absent or empty text leaves a criterion unset."""
    pm = engine.prefix_map
    category = params.get("category")
    query = FindQuery(
        expand=documents.decode_enum(ExpandMode, params.get("expand") or "none", "bad expand mode"),
        category=documents.decode_enum(StatementCategory, category, "bad category") if category else None,
        term=pm.gupri(params["term"]) if params.get("term") else None,
        statement_type=pm.gupri(params["statement_type"]) if params.get("statement_type") else None,
    )
    return {"results": [pm.compress(g.canonical) for g in find(engine, query)]}
