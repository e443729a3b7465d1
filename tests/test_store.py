from __future__ import annotations

import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import documents
from semint import (
    DatatypeTag,
    ExpandMode,
    FdoRecord,
    FindQuery,
    MappingPredicate,
    OperationKind,
    OperationParam,
    SlotFill,
    SlotKind,
    SlotSpec,
    StatementCategory,
    StatementInstance,
    StatementSchema,
    TermRecord,
    export_store,
    find,
    init_store,
    load_store,
)
from semint.crosswalks import AlignmentStatus
from semint.errors import EmptyQuery, IoFailure, MalformedRecord, ParseFailure
from semint import store
from semint.store import open_store

from conftest import add_mapping, build_weight_fixture, make_engine
from oracles import find_scan, mappings_between_scan


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def populated_fixture():
    """Weight fixture plus a second record whose content uses the other vocabulary."""
    fx = build_weight_fixture()
    engine = fx.engine
    pm = engine.prefix_map
    oboe_instance = engine.crosswalks.transform_instance(fx.instance, fx.crosswalk_id)
    engine.fdos.register_fdo(
        replace(
            fx.golden,
            gupri=pm.gupri("ex:fdo-apple-weight-oboe"),
            content=oboe_instance,
            schema_ref=fx.oboe_schema,
        )
    )
    return fx


# ---------------------------------------------------------------------------
# init / load / export


def test_init_then_load_empty(tmp_path):
    init_store(tmp_path / "store")
    engine = load_store(tmp_path / "store")
    assert engine.terminology.terms() == []
    assert engine.terminology.mappings() == []
    assert engine.schemas.schemas() == []
    assert engine.crosswalks.crosswalks() == []
    assert engine.operations.operations() == []
    assert engine.fdos.records() == []


def test_init_refuses_existing_store(tmp_path):
    init_store(tmp_path / "store")
    with pytest.raises(IoFailure):
        init_store(tmp_path / "store")


def test_load_missing_store(tmp_path):
    with pytest.raises(IoFailure):
        load_store(tmp_path / "nowhere")


def test_export_import_export_byte_stable(tmp_path):
    fx = populated_fixture()
    first = tmp_path / "first"
    second = tmp_path / "second"
    export_store(fx.engine, first)
    reloaded = load_store(first)
    export_store(reloaded, second)
    assert tree_bytes(first) == tree_bytes(second)


def test_int_confidence_keeps_its_id_through_the_store(tmp_path):
    # confidence=1 is stored as 1.0: the id is that of the same TSV row, and
    # export -> load -> export is byte-identical from the first export
    engine = make_engine()
    mapping_id = add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b", confidence=1)
    from_row = make_engine()
    from_row.terminology.import_mappings_tsv(
        "subject_id\tpredicate_id\tobject_id\tconfidence\nex:a\towl:sameAs\tex:b\t1\n"
    )
    assert [m.id for m in from_row.terminology.mappings()] == [mapping_id]
    first, second = tmp_path / "first", tmp_path / "second"
    export_store(engine, first)
    reloaded = load_store(first)
    assert [m.id for m in reloaded.terminology.mappings()] == [mapping_id]
    export_store(reloaded, second)
    assert tree_bytes(first) == tree_bytes(second)


@pytest.mark.parametrize("fail_at", [1, 2])
def test_failed_export_keeps_every_record(tmp_path, monkeypatch, fail_at):
    # an export that fails partway must not lose what the store held
    fx = populated_fixture()
    root = tmp_path / "store"
    export_store(fx.engine, root)
    before = tree_bytes(root)
    calls: list[int] = []
    fdo_to_doc = documents.fdo_to_doc

    def failing(record, pm):
        calls.append(1)
        if len(calls) == fail_at:
            raise RuntimeError("export interrupted")
        return fdo_to_doc(record, pm)

    monkeypatch.setattr(documents, "fdo_to_doc", failing)
    with pytest.raises(RuntimeError):
        export_store(fx.engine, root)
    monkeypatch.undo()
    reloaded = load_store(root)
    assert [r.gupri for r in reloaded.fdos.records()] == [r.gupri for r in fx.engine.fdos.records()]
    assert len(reloaded.terminology.mappings()) == len(fx.engine.terminology.mappings())
    assert tree_bytes(root) == before


def test_export_replaces_only_changed_files(tmp_path):
    fx = populated_fixture()
    root = tmp_path / "store"
    export_store(fx.engine, root)
    before = [p for p in root.rglob("*") if p.is_file()]
    for p in before:
        os.utime(p, ns=(0, 0))  # any write or replacement sets a current mtime
    engine = load_store(root)
    engine.fdos.register_fdo(replace(fx.golden, gupri=engine.prefix_map.gupri("ex:fdo-new")))
    export_store(engine, root)
    assert [p for p in before if p.stat().st_mtime_ns != 0] == []
    assert len(list((root / "fdos").glob("*.json"))) == 3
    assert not list(root.rglob("*.tmp"))


def test_export_into_empty_directory_reads_no_file(tmp_path, monkeypatch):
    # a target the export did not list before writing is new: no read probe
    fx = populated_fixture()
    reads: list[Path] = []
    read_bytes = Path.read_bytes

    def counting(self):
        reads.append(self)
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counting)
    export_store(fx.engine, tmp_path / "store")
    assert reads == []
    export_store(fx.engine, tmp_path / "store")
    assert len(reads) == len([p for p in (tmp_path / "store").rglob("*") if p.is_file()])
    monkeypatch.undo()
    assert tree_bytes(tmp_path / "store") == tree_bytes(export_store(fx.engine, tmp_path / "copy").root)


def test_export_deletes_documents_of_dropped_records(tmp_path):
    fx = populated_fixture()
    root = tmp_path / "store"
    export_store(fx.engine, root)
    export_store(build_weight_fixture(register_golden=False).engine, root)
    assert load_store(root).fdos.records() == []
    assert list((root / "fdos").iterdir()) == []


def test_reload_preserves_logical_content(tmp_path):
    fx = populated_fixture()
    export_store(fx.engine, tmp_path / "store")
    reloaded = load_store(tmp_path / "store")
    assert len(reloaded.terminology.terms()) == len(fx.engine.terminology.terms())
    assert len(reloaded.terminology.mappings()) == len(fx.engine.terminology.mappings())
    assert [s.id for s in reloaded.schemas.schemas()] == [s.id for s in fx.engine.schemas.schemas()]
    assert reloaded.fdos.assess_fdo(fx.golden.gupri).score == 1.0


def test_corrupt_mapping_row_parse_failure(tmp_path):
    fx = populated_fixture()
    export_store(fx.engine, tmp_path / "store")
    mappings = tmp_path / "store" / "mappings.tsv"
    lines = mappings.read_text().splitlines()
    lines.insert(3, "only-two\tfields")
    mappings.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseFailure) as excinfo:
        load_store(tmp_path / "store")
    assert excinfo.value.file == "mappings.tsv"
    assert excinfo.value.line == 4


def test_corrupt_term_line_parse_failure(tmp_path):
    fx = populated_fixture()
    export_store(fx.engine, tmp_path / "store")
    terms = tmp_path / "store" / "terms"
    lines = terms.read_text().splitlines()
    lines[0] = "{broken json"
    terms.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseFailure) as excinfo:
        load_store(tmp_path / "store")
    assert excinfo.value.file == "terms"
    assert excinfo.value.line == 1


def test_term_line_with_a_language_tag_given_twice_parse_failure(tmp_path):
    fx = populated_fixture()
    export_store(fx.engine, tmp_path / "store")
    terms = tmp_path / "store" / "terms"
    lines = terms.read_text().splitlines()
    lines[1] = '{"id": "pato:weight", "labels": {"EN": "one", "en": "two"}}'
    terms.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseFailure, match="language tag 'en' given twice") as excinfo:
        load_store(tmp_path / "store")
    assert (excinfo.value.file, excinfo.value.line) == ("terms", 2)


def test_term_records_are_built_on_first_access_and_loaded_in_layout_order(tmp_path):
    fx = populated_fixture()
    root = tmp_path / "store"
    export_store(fx.engine, root)
    terms = root / "terms"
    lines = terms.read_text().splitlines()
    lines[0] = '{"id": 5}'  # JSON, but no term record
    terms.write_text("\n".join(lines) + "\n")
    engine = open_store(root)
    assert engine.terminology.interop_level("pato:weight", "ncit:weight").actionable
    for read in [engine.terminology.terms, lambda: engine.terminology.has_term("pato:weight")] * 2:
        with pytest.raises(ParseFailure) as excinfo:
            read()
        assert (excinfo.value.file, excinfo.value.line) == ("terms", 1)
    # a bad mapping row too: open_store fails on it, load_store on the terms
    # first, as the layout orders them
    mappings = root / "mappings.tsv"
    mappings.write_text(mappings.read_text() + "only-two\tfields\n")
    with pytest.raises(ParseFailure) as excinfo:
        open_store(root)
    assert excinfo.value.file == "mappings.tsv"
    with pytest.raises(ParseFailure) as excinfo:
        load_store(root)
    assert (excinfo.value.file, excinfo.value.line) == ("terms", 1)


def test_corrupt_prefix_line_parse_failure(tmp_path):
    layout = init_store(tmp_path / "store")
    layout.prefixes_path.write_text("justonefield\n")
    with pytest.raises(ParseFailure) as excinfo:
        load_store(tmp_path / "store")
    assert excinfo.value.file == "prefixes"


def test_corrupt_schema_document_parse_failure(tmp_path):
    fx = populated_fixture()
    export_store(fx.engine, tmp_path / "store")
    schema_file = next((tmp_path / "store" / "schemas").glob("*.json"))
    schema_file.write_text("{]")
    with pytest.raises(ParseFailure) as excinfo:
        load_store(tmp_path / "store")
    assert excinfo.value.file.startswith("schemas/")


@pytest.mark.parametrize("case", ["too-deep", "lone-surrogate"])
@pytest.mark.parametrize("target", ["terms", "fdos"])
def test_unreadable_json_parse_failure(tmp_path, case, target):
    fx = populated_fixture()
    export_store(fx.engine, tmp_path / "store")
    path = tmp_path / "store" / "terms"
    if target == "fdos":
        path = next((tmp_path / "store" / "fdos").glob("*.json"))
    if case == "too-deep":
        path.write_text("[" * 100_000 + "\n" + path.read_text())
    elif target == "terms":
        # json.dumps escapes the lone surrogate, which parses but cannot be encoded
        first, rest = path.read_text().split("\n", 1)
        path.write_text(json.dumps({**json.loads(first), "definition": "x\ud800"}) + "\n" + rest)
    else:
        path.write_text(json.dumps({**json.loads(path.read_text()), "creator": "x\ud800"}))
    with pytest.raises(ParseFailure) as excinfo:
        load_store(tmp_path / "store")
    assert excinfo.value.file.startswith(target)


BAD_TEXT = "bad\udcff"


def _bad_records(fx):
    """(registry's register method, a new record holding BAD_TEXT) per text field."""
    e, pm = fx.engine, fx.engine.prefix_map
    schema = replace(e.schemas.schema(fx.obi_schema), id=pm.gupri("ex:new-schema"))
    crosswalk = replace(e.crosswalks.crosswalk(fx.crosswalk_id), id=pm.gupri("ex:new-crosswalk"))
    operation = replace(
        e.operations.operations()[0], id=pm.gupri("ex:new-operation"), kind=OperationKind.EXTERNAL_REFERENCE
    )
    record = replace(fx.golden, gupri=pm.gupri("ex:new-record"))
    literal = replace(fx.instance, fills={**fx.instance.fills, "value": SlotFill.literal(BAD_TEXT, DatatypeTag.STRING)})
    return {
        "schema-label": (e.schemas.register_schema, replace(schema, label=BAD_TEXT)),
        "schema-role": (
            e.schemas.register_schema,
            replace(schema, slots=(replace(schema.slots[0], role=BAD_TEXT), *schema.slots[1:])),
        ),
        "crosswalk-author": (
            e.crosswalks.register_crosswalk,
            replace(crosswalk, provenance=replace(crosswalk.provenance, author=BAD_TEXT)),
        ),
        "operation-label": (e.operations.register_operation, replace(operation, label=BAD_TEXT)),
        "operation-param": (
            e.operations.register_operation,
            replace(operation, params=(OperationParam(BAD_TEXT, DatatypeTag.STRING),)),
        ),
        "fdo-creator": (e.fdos.register_fdo, replace(record, creator=BAD_TEXT)),
        "fdo-provenance": (e.fdos.register_fdo, replace(record, provenance={BAD_TEXT: "x"})),
        "fdo-literal": (e.fdos.register_fdo, replace(record, content=literal)),
    }


@pytest.mark.parametrize("case", sorted(_bad_records(build_weight_fixture())))
def test_record_text_utf8_cannot_encode_is_refused(tmp_path, case):
    # no store file could hold a lone surrogate, so no registry takes a record
    # with one, and the store still exports
    fx = build_weight_fixture()
    register, record = _bad_records(fx)[case]
    with pytest.raises(MalformedRecord, match="is not UTF-8 text") as raised:
        register(record)
    str(raised.value).encode("utf-8")  # the message itself can be reported
    export_store(fx.engine, tmp_path / "store")
    assert load_store(tmp_path / "store").fdos.records() == fx.engine.fdos.records()


def test_wrong_json_shape_parse_failure(tmp_path):
    # a list field holding a number is malformed content, not a crash
    fx = populated_fixture()
    export_store(fx.engine, tmp_path / "store")
    fdo_file = next((tmp_path / "store" / "fdos").glob("*.json"))
    doc = json.loads(fdo_file.read_text())
    doc["authors"] = 5
    fdo_file.write_text(json.dumps(doc))
    with pytest.raises(ParseFailure) as excinfo:
        load_store(tmp_path / "store")
    assert excinfo.value.file.startswith("fdos/")
    assert "expected an array" in excinfo.value.reason


def test_failed_record_read_raises_again_and_serves_nothing(tmp_path):
    fx = populated_fixture()
    root = tmp_path / "store"
    export_store(fx.engine, root)
    first, last = sorted((root / "fdos").glob("*.json"))
    last.write_text("{]")
    engine = open_store(root)
    assert engine.terminology.interop_level("pato:weight", "ncit:weight").actionable
    reads = {
        "records": engine.fdos.records,
        # the record of the file read before the failing one
        "record": lambda: engine.fdos.record("ex:fdo-apple-weight"),
        "find": lambda: find(engine, FindQuery(term=engine.prefix_map.gupri("pato:weight"))),
        "register": lambda: engine.fdos.register_fdo(replace(fx.golden, gupri=engine.prefix_map.gupri("ex:f"))),
        "export": lambda: export_store(engine, tmp_path / "copy"),
    }
    for name, read in [*reads.items(), *reads.items()]:
        with pytest.raises(ParseFailure) as excinfo:
            read()
        assert (excinfo.value.file, excinfo.value.line) == (f"fdos/{last.name}", 1), name
    assert not (tmp_path / "copy").exists()


def test_first_record_accesses_from_many_threads_read_fdos_once(tmp_path, monkeypatch):
    # eight threads make the first access at once: each sees every record,
    # and the record files are parsed once
    import sys
    import threading

    fx = populated_fixture()
    pm = fx.engine.prefix_map
    weight = pm.gupri("pato:weight")
    for i in range(200):
        fx.engine.fdos.register_fdo(FdoRecord(pm.gupri(f"ex:f{i:03d}"), weight))
    root = tmp_path / "store"
    export_store(fx.engine, root)
    query = FindQuery(term=weight, expand=ExpandMode.REFERENTIAL)
    expected = (
        len(fx.engine.fdos.records()),
        find(fx.engine, query),
        fx.engine.fdos.assess_fdo("ex:fdo-apple-weight"),
    )
    parsed = []
    parse = documents.fdo_from_doc
    monkeypatch.setattr(documents, "fdo_from_doc", lambda doc, pm: parsed.append(doc) or parse(doc, pm))
    engine = open_store(root)
    assert parsed == []
    first_access = (
        lambda: len(engine.fdos.records()),
        lambda: find(engine, query),
        lambda: engine.fdos.assess_fdo("ex:fdo-apple-weight"),
        lambda: engine.fdos.record("ex:f199"),
    )
    barrier = threading.Barrier(8)
    seen: list[tuple] = []
    errors: list[Exception] = []

    def reader(i: int) -> None:
        try:
            barrier.wait(timeout=10)
            first = first_access[i % 4]()
            after = (len(engine.fdos.records()), find(engine, query), engine.fdos.assess_fdo("ex:fdo-apple-weight"))
            seen.append(after)
            if i % 4 != 3:
                assert first == after[i % 4]
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert seen == [expected] * 8
    assert len(parsed) == expected[0] == 202


def test_two_crosswalk_files_one_id_conflict(tmp_path):
    fx = populated_fixture()
    root = tmp_path / "store"
    export_store(fx.engine, root)
    (cw_file,) = (root / "crosswalks").glob("*.json")
    doc = json.loads(cw_file.read_text())
    doc["alignments"] = doc["alignments"][:-1]
    (root / "crosswalks" / "zz-copy.json").write_text(json.dumps(doc))
    with pytest.raises(ParseFailure) as excinfo:
        load_store(root)
    assert excinfo.value.file == "crosswalks/zz-copy.json"
    assert excinfo.value.reason == f"crosswalk {fx.crosswalk_id} already registered with different content"


def test_store_loads_crosswalk_even_when_mapping_deleted(tmp_path):
    # the loader trusts crosswalk documents; check is the diagnostic surface
    fx = populated_fixture()
    fx.engine.terminology.remove_mapping(fx.weight_mapping_id)
    export_store(fx.engine, tmp_path / "store")
    reloaded = load_store(tmp_path / "store")
    report = reloaded.crosswalks.check_crosswalk(fx.crosswalk_id)
    statuses = {c.alignment.source_slot: c.status for c in report.checks}
    assert statuses["quality"] is AlignmentStatus.INCOMPATIBLE


def test_non_ascii_labels_round_trip(tmp_path):
    from conftest import make_engine, term
    from semint import InteropLevel

    engine = make_engine()
    term(
        engine,
        "ex:Gewicht",
        labels={"de": "Gewicht üblich", "ja": "重さ"},
        synonyms=("Schwere",),
    )
    export_store(engine, tmp_path / "store")
    text = (tmp_path / "store" / "terms").read_text(encoding="utf-8")
    assert "Gewicht üblich" in text  # emitted raw, not escaped
    reloaded = load_store(tmp_path / "store")
    assert reloaded.terminology.term("ex:Gewicht").labels["ja"] == "重さ"


def test_export_independent_of_insertion_order(tmp_path):
    from conftest import add_mapping, make_engine, term
    from semint import MappingPredicate

    names = ["ex:gamma", "ex:alpha", "ex:beta"]
    pairs = [("ex:gamma", "ex:alpha"), ("ex:beta", "ex:gamma"), ("ex:alpha", "ex:beta")]

    forward = make_engine()
    for n in names:
        term(forward, n)
    for a, b in pairs:
        add_mapping(forward, a, MappingPredicate.EXACT_MATCH, b)

    backward = make_engine()
    for n in reversed(names):
        term(backward, n)
    for a, b in reversed(pairs):
        add_mapping(backward, a, MappingPredicate.EXACT_MATCH, b)

    export_store(forward, tmp_path / "forward")
    export_store(backward, tmp_path / "backward")
    assert tree_bytes(tmp_path / "forward") == tree_bytes(tmp_path / "backward")


# every line break str.splitlines splits at, a tab and a space, mixed into any text
def _encodes_as_utf8(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


store_text = st.text(st.characters() | st.sampled_from("\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029 "), max_size=12)


@settings(deadline=None, max_examples=60)
@given(
    labels=st.dictionaries(st.sampled_from(["en", "de", "ja"]), store_text, max_size=3),
    definition=st.none() | store_text,
    criteria=st.none() | store_text,
    synonyms=st.lists(store_text, max_size=3),
)
def test_term_text_round_trips_through_the_store(labels, definition, criteria, synonyms):
    # terms is read with str.splitlines, so a line of it must hold no break
    engine = make_engine()
    pm = engine.prefix_map
    texts = [*labels.values(), definition, criteria, *synonyms]
    if not all(text is None or _encodes_as_utf8(text) for text in texts):
        # a lone surrogate: no store file could hold it, so the record is refused
        with pytest.raises(MalformedRecord, match="is not UTF-8 text"):
            TermRecord(pm.gupri("ex:a"), labels, definition, criteria, synonyms=tuple(synonyms))
        return
    engine.terminology.register_term(
        TermRecord(pm.gupri("ex:a"), labels, definition, criteria, synonyms=tuple(synonyms))
    )
    engine.terminology.register_term(TermRecord(pm.gupri("ex:b"), {"en": "after"}))
    with tempfile.TemporaryDirectory() as root:
        export_store(engine, root)
        assert load_store(root).terminology.terms() == engine.terminology.terms()


@settings(deadline=None, max_examples=80)
@given(
    predicate=st.sampled_from(MappingPredicate),
    justification=store_text,
    confidence=st.floats(0, 1),
    author=st.none() | store_text,
    comment=st.none() | store_text,
)
def test_every_accepted_mapping_round_trips_through_the_store(predicate, justification, confidence, author, comment):
    # a text that a mappings.tsv cell cannot hold as itself is rejected by
    # add_mapping, so the exported row reloads as the same mapping
    engine = make_engine()
    try:
        add_mapping(
            engine, "ex:a", predicate, "pato:b",
            justification=justification, confidence=confidence, author=author, comment=comment,
        )
    except MalformedRecord:
        return
    with tempfile.TemporaryDirectory() as root:
        export_store(engine, root)
        assert load_store(root).terminology.mapping_rows() == engine.terminology.mapping_rows()


@pytest.mark.parametrize("field", ["justification", "author", "comment"])
@pytest.mark.parametrize("text", ["", " x", "x ", "a\tb", "a\nb", "a\r\nb", "a\u2028b", "a\x85b"])
def test_mapping_text_that_a_tsv_cell_cannot_hold_is_rejected(field, text):
    engine = make_engine()
    with pytest.raises(MalformedRecord):
        add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b", **{field: text})
    assert engine.terminology.mapping_rows() == ()


# ---------------------------------------------------------------------------
# find


def test_find_with_referential_expansion():
    fx = populated_fixture()
    engine = fx.engine
    pm = engine.prefix_map
    # the OBOE record uses ncit:weight; querying pato:weight only finds it
    # under expansion
    expanded = find(
        engine,
        FindQuery(term=pm.gupri("pato:weight"), expand=ExpandMode.REFERENTIAL),
    )
    assert pm.gupri("ex:fdo-apple-weight-oboe") in expanded
    plain = find(engine, FindQuery(term=pm.gupri("pato:weight"), expand=ExpandMode.NONE))
    assert pm.gupri("ex:fdo-apple-weight-oboe") not in plain
    assert pm.gupri("ex:fdo-apple-weight") in plain


def test_find_expansion_superset_chain():
    fx = populated_fixture()
    engine = fx.engine
    pm = engine.prefix_map
    term = pm.gupri("pato:weight")
    none = set(find(engine, FindQuery(term=term, expand=ExpandMode.NONE)))
    ontological = set(find(engine, FindQuery(term=term, expand=ExpandMode.ONTOLOGICAL)))
    referential = set(find(engine, FindQuery(term=term, expand=ExpandMode.REFERENTIAL)))
    assert none <= ontological <= referential


def test_find_by_statement_type_spans_crosswalked_schemas():
    fx = populated_fixture()
    engine = fx.engine
    pm = engine.prefix_map
    results = find(engine, FindQuery(statement_type=pm.gupri("obi:weight-assay")))
    assert pm.gupri("ex:fdo-apple-weight") in results
    assert pm.gupri("ex:fdo-apple-weight-oboe") in results


def test_find_by_category():
    fx = populated_fixture()
    engine = fx.engine
    results = find(engine, FindQuery(category=StatementCategory.ASSERTIONAL))
    assert len(results) == 2
    assert find(engine, FindQuery(category=StatementCategory.UNIVERSAL)) == []


def test_find_requires_a_criterion():
    fx = populated_fixture()
    with pytest.raises(EmptyQuery):
        find(fx.engine, FindQuery())


def test_find_results_sorted():
    fx = populated_fixture()
    engine = fx.engine
    results = find(engine, FindQuery(category=StatementCategory.ASSERTIONAL))
    assert results == sorted(results)


# ---------------------------------------------------------------------------
# indexed reads against scans

INDEX_TERMS = [f"ex:t{i}" for i in range(6)]
#: (schema, statement type); the statement types are terms the mappings may join
INDEX_SCHEMAS = [("ex:s0", "ex:t4"), ("ex:s1", "ex:t5")]
_index_term = st.sampled_from(INDEX_TERMS)
_instance = st.tuples(st.sampled_from(INDEX_SCHEMAS), _index_term, st.none() | _index_term)
index_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("fdo"),
            st.one_of(_index_term, _instance, st.lists(_instance, min_size=2, max_size=2)),
            st.sampled_from([None, StatementCategory.ASSERTIONAL, StatementCategory.UNIVERSAL]),
        ),
        st.tuples(st.just("add"), _index_term, st.sampled_from(list(MappingPredicate)), _index_term),
        st.tuples(st.just("remove"), st.integers(0, 20)),
    ),
    max_size=10,
)


def _index_engine():
    engine = make_engine()
    pm = engine.prefix_map
    for schema_id, statement_type in INDEX_SCHEMAS:
        slot = SlotSpec("thing", "THING", SlotKind.RESOURCE, pm.gupri("ex:t0"))
        engine.schemas.register_schema(StatementSchema(pm.gupri(schema_id), pm.gupri(statement_type), "", (slot,)))
    return engine


@settings(deadline=None, max_examples=100)
@given(steps=index_steps)
def test_indexed_reads_match_scans(steps):
    # the term index behind find and the closure snapshot behind
    # mappings_between are derived once per table version: after every
    # write, each read must equal a scan of what the tables hold, in order
    engine = _index_engine()
    pm = engine.prefix_map
    records: list[FdoRecord] = []
    schemas = [(pm.gupri(s).canonical, pm.gupri(t).canonical) for s, t in INDEX_SCHEMAS]
    filters = [(None, None), (pm.gupri("ex:t4"), StatementCategory.ASSERTIONAL)]
    queries = [
        FindQuery(pm.gupri(t), mode, statement_type, category)
        for t in INDEX_TERMS
        for mode in ExpandMode
        for statement_type, category in filters
    ]
    queries += [FindQuery(statement_type=pm.gupri("ex:t5")), FindQuery(category=StatementCategory.UNIVERSAL)]
    ends = [None, *(pm.gupri(t) for t in INDEX_TERMS)]

    def instance(spec) -> StatementInstance:
        (schema_id, _), value, asserted = spec
        fill = SlotFill.resource(pm.gupri(value), pm.gupri(asserted) if asserted else None)
        return StatementInstance(pm.gupri(schema_id), {"thing": fill})

    for step in steps:
        if step[0] == "fdo":
            _, content, category = step
            if isinstance(content, str):
                content = pm.gupri(content)
            elif isinstance(content, list):
                content = tuple(instance(spec) for spec in content)
            else:
                content = instance(content)
            record = FdoRecord(pm.gupri(f"ex:f{len(records)}"), content, category=category)
            engine.fdos.register_fdo(record)
            records.append(record)
        elif step[0] == "add":
            add_mapping(engine, step[1], step[2], step[3])
        elif stored := engine.terminology.mappings():
            assert engine.terminology.remove_mapping(stored[step[1] % len(stored)].id)

        mappings = engine.terminology.mappings()
        for query in queries:
            expected = find_scan(
                records,
                mappings,
                schemas,
                query.term and query.term.canonical,
                query.expand.value,
                query.statement_type and query.statement_type.canonical,
                query.category,
            )
            assert [g.canonical for g in find(engine, query)] == expected, (step, query)
        for subject in ends:
            for object_ in ends:
                got = [m.id for m in engine.terminology.mappings_between(subject, object_)]
                expected = mappings_between_scan(
                    mappings, subject and subject.canonical, object_ and object_.canonical
                )
                assert got == expected, (step, subject, object_)


def test_find_sees_every_record_registered_before_it_starts():
    # readers keep deriving the term index while a writer registers records:
    # an index derived before a write must not be served after it
    import sys
    import threading

    engine = make_engine()
    pm = engine.prefix_map
    weight = pm.gupri("pato:weight")
    query = FindQuery(term=weight)
    registered = 0
    stop = threading.Event()
    errors: list[Exception] = []
    missed: list[tuple[int, int]] = []

    def reader():
        try:
            while not stop.is_set():
                expected = registered  # every record up to here was registered before this find
                found = len(find(engine, query))
                if found < expected:
                    missed.append((expected, found))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in readers:
            t.start()
        for i in range(300):
            engine.fdos.register_fdo(FdoRecord(pm.gupri(f"ex:f{i}"), weight))
            registered = i + 1
            assert len(find(engine, query)) == registered
    finally:
        stop.set()
        for t in readers:
            t.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers)
    assert errors == []
    assert missed == []


def test_document_listing_reads_what_glob_finds(tmp_path):
    directory = tmp_path / "x"
    directory.mkdir()
    for name in ("a.json", ".b.json", "c.json.tmp", "d.JSON"):
        (directory / name).write_text(json.dumps({"name": name}))
    read = [(name, doc["name"]) for name, doc in store._documents_in(directory)]
    assert read == [("x/.b.json", ".b.json"), ("x/a.json", "a.json")]
    assert [name for name, _ in read] == [str(p.relative_to(tmp_path)) for p in sorted(directory.glob("*.json"))]
