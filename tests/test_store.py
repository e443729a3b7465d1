from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from semint import documents
from semint import (
    ExpandMode,
    FindQuery,
    StatementCategory,
    export_store,
    find,
    init_store,
    load_store,
)
from semint.crosswalks import AlignmentStatus
from semint.errors import EmptyQuery, IoFailure, ParseFailure

from conftest import build_weight_fixture


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
