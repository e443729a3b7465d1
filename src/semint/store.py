"""Plain-text persistent store with canonical, diff-friendly exports.

Layout under the store root:

* ``prefixes``      prefix map, one ``prefix<TAB>iri`` per line
* ``terms``         one term record per line (JSON)
* ``mappings.tsv``  entity mappings, tab-separated
* ``schemas/``, ``crosswalks/``, ``operations/``, ``fdos/``
                    one JSON document per file

``load_store`` reads every section into an engine. ``open_store`` reads
every section but ``fdos/``, which the first access to the engine's FAIR
records reads, and builds the term records from the lines of ``terms`` on the
first access to a term, so a caller that never reads a record never pays for
building it.

Exports are canonical: records sorted by canonical identifier, documents
emitted with fixed key order, so export-import-export is byte-stable.
``export_store`` rewrites every file, or with ``changed`` only the one file an
import changed, rendering only the mapping rows an import added, so an import
into a canonical store leaves it equal to a full export, and only a full
export canonicalizes files edited by hand.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import operator
import os
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Container, Mapping

from . import documents
from .engine import Engine
from .errors import (
    EmptyQuery,
    InvalidGupri,
    IoFailure,
    MalformedContent,
    MalformedRecord,
    NotUtf8,
    ParseFailure,
    SemintError,
    decode_utf8,
)
from .fdo import StatementCategory
from .identifiers import Gupri, PrefixMap
from .terminology import EntityMapping, InteropLevel, TerminologyRegistry, mapping_order

__all__ = ["StoreLayout", "init_store", "open_store", "load_store", "export_store", "FindQuery", "ExpandMode", "find", "find_document"]

_MAPPINGS_HEADER = "\t".join(TerminologyRegistry.REQUIRED_COLUMNS + TerminologyRegistry.OPTIONAL_COLUMNS)


@dataclass(frozen=True)
class StoreLayout:
    """The paths of a store's files and directories under its root."""

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
        layout.mappings_path.write_text(_MAPPINGS_HEADER + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot initialize store at {layout.root}: {exc}") from exc
    return layout


def read_text(path: str | Path, name: str) -> str:
    """A file from outside the process as UTF-8 text. A file that cannot be
    read raises :class:`OSError`; bytes that are not UTF-8 raise
    :class:`ParseFailure` naming ``name`` and the line of the first bad byte."""
    with open(path, "rb") as file:
        data = file.read()
    try:
        return decode_utf8(data)
    except NotUtf8 as exc:
        raise ParseFailure(name, exc.line, exc.reason) from None


def read_file(path: str | Path, name: str) -> str:
    """:func:`read_text`, where a file that cannot be read raises
    :class:`IoFailure`."""
    try:
        return read_text(path, name)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read_json(path: str | Path, name: str):
    """The JSON document in the file at ``path``: :func:`read_file`, where a
    text that is not JSON raises :class:`ParseFailure` naming ``name``."""
    text = read_file(path, name)
    try:
        return documents.load_json(text)
    except ValueError as exc:
        raise ParseFailure(name, 1, str(exc)) from None


def decode(parse, doc, pm: PrefixMap, name: str, line: int = 1):
    """``parse(doc, pm)``, the record of a document read from ``name``; a
    document that does not decode as its kind raises :class:`ParseFailure`
    naming ``name`` and ``line``."""
    try:
        return parse(doc, pm)
    except (MalformedContent, MalformedRecord, InvalidGupri) as exc:
        raise ParseFailure(name, line, str(exc)) from None


def term_records(lines: list[str], name: str, pm: PrefixMap):
    """Each non-blank line of a terms file with its number, decoded as a term
    record; a line that is not JSON or not a term record raises
    :class:`ParseFailure` naming ``name`` and the line."""
    for lineno, doc in _term_documents(lines, name):
        yield lineno, decode(documents.term_from_doc, doc, pm, name, lineno)


def open_store(path: str | Path) -> Engine:
    """Parse the store into a fresh engine, leaving the term and FAIR records
    unbuilt.

    Prefixes, mappings, schemas, crosswalks and operations are read now;
    errors carry file and line context. Crosswalk documents are loaded with
    structural checks only; semantic re-validation is the job of ``crosswalk
    check``, so a store whose mapping set changed still loads.

    ``terms`` is read and each line parsed as JSON now, so a file that is not
    UTF-8 or a line that is not JSON fails here, but the term records are
    built from the lines by the first access to the engine's terms (a term
    by id, ``has_term``, a listing, a registration, an assessment or an
    export). The ``fdos/`` section is read by the first access to the
    engine's FAIR records (a record, a listing, ``find``, an assessment by
    id, a registration or a full export). Each deferred section is read once
    and raises its :class:`ParseFailure` there, again at every later access,
    so an engine that never reads a record never builds it.
    """
    return _read_store(Path(path), eager=False)


def load_store(path: str | Path) -> Engine:
    """Parse every store file into a fresh engine: :func:`open_store`, with
    each deferred section read at once where the layout puts it, so the
    sections are read in layout order and fail with the same errors as by one
    eager reader."""
    return _read_store(Path(path), eager=True)


def _read_store(root: Path, eager: bool) -> Engine:
    layout = StoreLayout(root)
    if not layout.root.is_dir():
        raise IoFailure(f"no store at {layout.root}")
    prefix_map = PrefixMap()
    for lineno, line in enumerate(read_file(layout.prefixes_path, "prefixes").splitlines(), start=1):
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
        lines = read_file(layout.terms_path, "terms").splitlines()
        # each line is parsed now and again by the fill, which builds the
        # records: the lines take less memory than their documents
        for _ in _term_documents(lines, "terms"):
            pass
        engine.terminology.defer_terms(functools.partial(_register_terms, engine, lines))
        if eager:
            engine.terminology.terms()

    if layout.mappings_path.exists():
        text = read_file(layout.mappings_path, "mappings.tsv")
        try:
            report = engine.terminology.import_mappings_tsv(text)
        except SemintError as exc:
            raise ParseFailure("mappings.tsv", 1, str(exc)) from None
        if report.rejected:
            first = report.rejected[0]
            raise ParseFailure("mappings.tsv", first.line, first.reason)

    for directory, parse, register in (
        (layout.schemas_dir, documents.schema_from_doc, engine.schemas.register_schema),
        (layout.crosswalks_dir, documents.crosswalk_from_doc, engine.crosswalks._insert_trusted),
        (layout.operations_dir, documents.operation_from_doc, engine.operations.register_operation),
    ):
        _register_documents(directory, parse, register, prefix_map)
    defer_fdos(engine, layout.root)
    if eager:
        engine.fdos.records()
    return engine


def _term_documents(lines: list[str], name: str):
    """Each non-blank line of a terms file with its number, parsed as JSON."""
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                yield lineno, documents.load_json(line)
            except ValueError as exc:
                raise ParseFailure(name, lineno, str(exc)) from None


def _register_terms(engine: Engine, lines: list[str]) -> None:
    for lineno, record in term_records(lines, "terms", engine.prefix_map):
        try:
            engine.terminology.register_term(record)
        except SemintError as exc:
            raise ParseFailure("terms", lineno, str(exc)) from None


def defer_fdos(engine: Engine, path: str | Path, only: Gupri | None = None) -> None:
    """Leave the engine's FAIR records to the first access to them, which
    reads every file under ``fdos/`` of the store at ``path``.

    With ``only``, that access still reads every file and parses it as JSON,
    and a file that fails fails the access, but it builds and registers only
    the documents whose id is ``only``: the records that a record of that id
    can conflict with, under whatever file name. A document whose id cannot
    be read fails too. The engine then holds no other record, so it serves
    one registration of ``only`` and the write of its one file, never a
    listing or a full export.
    """
    fdos_dir = StoreLayout(Path(path)).fdos_dir
    pm = engine.prefix_map
    wanted = None if only is None else lambda doc: documents.fdo_gupri(doc, pm) == only
    engine.fdos.defer(lambda: _register_documents(fdos_dir, documents.fdo_from_doc, engine.fdos.register_fdo, pm, wanted))


def _register_documents(directory: Path, parse, register, prefix_map: PrefixMap, wanted=None) -> None:
    """Register each document under ``directory``; with ``wanted``, only
    those it holds true, though every file is still read and parsed."""
    for file, doc in _documents_in(directory):
        try:
            if wanted is None or wanted(doc):
                register(parse(doc, prefix_map))
        except SemintError as exc:
            raise ParseFailure(file, 1, str(exc)) from None


def _json_names(directory: Path) -> list[str]:
    """The names in ``directory`` that end ``.json``, sorted: those that
    ``Path.glob("*.json")`` finds, dot-files and directories so named
    included, without building a path for every entry."""
    return sorted(name for name in os.listdir(directory) if name.endswith(".json"))


def _documents_in(directory: Path):
    if not directory.is_dir():
        return
    for entry in _json_names(directory):
        name = f"{directory.name}/{entry}"
        yield name, read_json(directory / entry, name)


_SLUG_RE = re.compile(r"[^A-Za-z0-9._-]+")


def _filename(compact_id: str, canonical: str) -> str:
    slug = _SLUG_RE.sub("_", compact_id).strip("_") or "record"
    digest = hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:8]
    return f"{slug[:80]}-{digest}.json"


def _write_replacing(target: Path, text: str, listed: bool) -> None:
    """Write through a temporary file in the same directory, so ``target``
    holds either its old or its new content, never a part of either. The
    temporary name does not match ``*.json``, so a load never reads it.

    A ``listed`` file, one the writer knows to exist, is left alone when it
    already holds ``text``: a write changes few files, and on ext4 a rename
    over an existing file also starts writing the new data out, so replacing
    unchanged files costs more than comparing them. A file not listed is new,
    so it is written without reading it first.
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


def _prefixes_text(engine: Engine) -> str:
    lines = [f"{prefix}\t{iri}" for prefix, iri in engine.prefix_map.bindings()]
    return "\n".join(lines) + ("\n" if lines else "")


def _terms_text(engine: Engine) -> str:
    pm = engine.prefix_map
    lines = [documents.render_line(documents.term_to_doc(t, pm)) for t in engine.terminology.terms()]
    return "\n".join(lines) + ("\n" if lines else "")


def _mapping_line(m: EntityMapping, pm: PrefixMap) -> str:
    return "\t".join(
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


def _mappings_text(engine: Engine) -> str:
    pm = engine.prefix_map
    lines = [_MAPPINGS_HEADER, *(_mapping_line(m, pm) for m in engine.terminology.mappings())]
    return "\n".join(lines) + "\n"


def _merged_mappings_text(engine: Engine, stored: str, held: int) -> str:
    """``mappings.tsv`` after an import: the ``stored`` text with the lines of
    the rows after the first ``held`` of the table merged in, when the text
    is the canonical header and one line for each of those ``held`` rows, in
    canonical order; else :func:`_mappings_text`.

    The engine was opened from ``stored``, so a line could store at most one
    row, and ``held`` rows from as many lines after the header means each
    line stored one, in table order. A new row that ties with a stored one
    goes after it, as the stable sort of the table puts it, so a canonical
    text stays equal to a full render while only the new rows are rendered.
    """
    lines = stored.splitlines()
    rows = engine.terminology.mapping_rows()
    if lines[:1] != [_MAPPINGS_HEADER] or len(lines) != held + 1 or stored != "\n".join(lines) + "\n":
        return _mappings_text(engine)
    keys = [mapping_order(m) for m in rows[:held]]
    if any(a > b for a, b in itertools.pairwise(keys)):
        return _mappings_text(engine)
    pm = engine.prefix_map
    added = sorted(((mapping_order(m), _mapping_line(m, pm)) for m in rows[held:]), key=operator.itemgetter(0))
    merged = heapq.merge(zip(keys, lines[1:]), added, key=operator.itemgetter(0))
    return "\n".join([_MAPPINGS_HEADER, *(line for _, line in merged)]) + "\n"


#: the files of the layout that hold one text each, and how to render it
_FILES = {"prefixes": _prefixes_text, "terms": _terms_text, "mappings.tsv": _mappings_text}

#: the directories of the layout that hold one document per record: how to
#: list the engine's records in canonical order and render one; the
#: document's id field, also the record's attribute, names its file
_DOCUMENTS = {
    "schemas": (lambda e: e.schemas.schemas(), lambda r, pm: documents.schema_to_doc(r, pm), "id"),
    "crosswalks": (lambda e: e.crosswalks.crosswalks(), lambda r, pm: documents.crosswalk_to_doc(r, pm), "id"),
    "operations": (lambda e: e.operations.operations(), lambda r, pm: documents.operation_to_doc(r, pm), "id"),
    "fdos": (lambda e: e.fdos.records(), lambda r, pm: documents.fdo_to_doc(r, pm), "gupri"),
}


def _write_document(layout: StoreLayout, directory: str, record, pm: PrefixMap, listed: Container[Path]) -> Path:
    _, to_doc, id_field = _DOCUMENTS[directory]
    doc = to_doc(record, pm)
    target = layout.root / directory / _filename(doc[id_field], getattr(record, id_field).canonical)
    _write_replacing(target, documents.render(doc), target in listed)
    return target


def export_store(engine: Engine, path: str | Path, *, changed: str | tuple[str, object] | None = None) -> StoreLayout:
    """Write the engine's full contents in canonical form, or with
    ``changed`` only what an import changed.

    A full export replaces every file whose content changes whole, and
    deletes documents of records the engine no longer holds only after every
    write succeeded, so an export that fails partway leaves each record of the
    store loadable. Each directory is listed once, before any write, and
    after the FAIR records are read: an engine from :func:`open_store` reads
    ``fdos/`` there, so it never rewrites or deletes a record file it has not
    read, and a failed read writes nothing.

    ``changed`` names one entry of the layout: ``"terms"`` or
    ``"mappings.tsv"``, rewritten whole; ``("mappings.tsv", held)``, for an
    engine opened from this store that held ``held`` mapping rows before an
    import added the rows after them in table order; or a directory and the
    record the engine holds whose document is new in it, as ``("crosswalks",
    record)``. That one file is written and nothing is listed or deleted, so a
    store that was canonical before stays equal to a full export, and a file
    edited by hand elsewhere stays as it is. With ``held``, only the added
    rows are rendered, and their lines are merged into the stored ones
    (:func:`_merged_mappings_text`); a ``mappings.tsv`` that is not one
    sorted line per row, such as one with comments, is rewritten whole.
    """
    layout = StoreLayout(Path(path))
    try:
        if changed is None:
            _export_all(engine, layout)
        elif isinstance(changed, str):
            _write_replacing(layout.root / changed, _FILES[changed](engine), listed=True)
        elif changed[0] == "mappings.tsv":
            target = layout.mappings_path
            try:
                text = _merged_mappings_text(engine, read_text(target, "mappings.tsv"), changed[1])
            except FileNotFoundError:
                text = _mappings_text(engine)
            _write_replacing(target, text, listed=True)
        else:
            directory, record = changed
            (layout.root / directory).mkdir(exist_ok=True)
            _write_document(layout, directory, record, engine.prefix_map, listed=())
    except OSError as exc:
        raise IoFailure(f"cannot export store to {layout.root}: {exc}") from exc
    return layout


def _export_all(engine: Engine, layout: StoreLayout) -> None:
    # every section is read, in layout order, before anything is listed or written
    texts = {name: text(engine) for name, text in _FILES.items()}
    records = {directory: listing(engine) for directory, (listing, *_) in _DOCUMENTS.items()}
    layout.root.mkdir(parents=True, exist_ok=True)
    for d in layout.document_dirs():
        d.mkdir(exist_ok=True)
    listed_documents = {d / name for d in layout.document_dirs() for name in _json_names(d)}
    listed = listed_documents | set(layout.root.iterdir())
    written: set[Path] = set()
    for name, text in texts.items():
        target = layout.root / name
        _write_replacing(target, text, target in listed)
        written.add(target)
    for directory, held in records.items():
        for record in held:
            written.add(_write_document(layout, directory, record, engine.prefix_map, listed))
    for stale in sorted(listed_documents - written):
        stale.unlink()


# ---------------------------------------------------------------------------
# findability


class ExpandMode(Enum):
    NONE = "none"
    ONTOLOGICAL = "ontological"
    REFERENTIAL = "referential"


@dataclass(frozen=True)
class FindQuery:
    """The criteria of a FAIR record search; each one set narrows it."""

    term: Gupri | None = None
    expand: ExpandMode = ExpandMode.NONE
    statement_type: Gupri | None = None
    category: StatementCategory | None = None


def find(engine: Engine, query: FindQuery) -> list[Gupri]:
    """FDO gupris whose content matches the query, in canonical order.

    Term matching honors the expansion mode: with referential expansion an FDO
    using any term from the query term's referential equivalence class is
    found, independent of the vocabulary its author chose. A term query reads
    the records from the FDO table's term index; a query without a term scans
    every record.
    """
    if query.term is None and query.statement_type is None and query.category is None:
        raise EmptyQuery("set at least one of term, statement_type, category")
    snap = engine.terminology.compute_closure()
    wanted_terms: frozenset[str] | None = None
    if query.term is not None:
        if query.expand is ExpandMode.NONE:
            wanted_terms = frozenset({query.term.canonical})
        else:
            level = (
                InteropLevel.ONTOLOGICAL
                if query.expand is ExpandMode.ONTOLOGICAL
                else InteropLevel.REFERENTIAL
            )
            wanted_terms = snap.equivalence_class(query.term, level)
    wanted_schemas: set[str] | None = None
    if query.statement_type is not None:
        wanted_schemas = {s.canonical for s in engine.schemas.schemas_for_statement_type(query.statement_type, snap=snap)}
    candidates = engine.fdos.records() if wanted_terms is None else engine.fdos.records_mentioning(wanted_terms)
    results = []
    for record in candidates:
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
