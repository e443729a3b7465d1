from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from dataclasses import replace
from pathlib import Path

import pytest

from semint import export_store, load_store
from semint.cli import main
from semint import documents, store
from semint.documents import instance_to_doc, render, schema_from_doc, term_from_doc
from semint.errors import MalformedContent, ParseFailure
from semint.service import make_server

from conftest import build_weight_fixture
from test_store import populated_fixture, tree_bytes


@pytest.fixture
def store_dir(tmp_path) -> Path:
    fx = populated_fixture()
    root = tmp_path / "store"
    export_store(fx.engine, root)
    return root


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_init_and_double_init(tmp_path, capsys):
    root = str(tmp_path / "fresh")
    code, out, _ = run(capsys, "--store", root, "init")
    assert code == 0
    assert json.loads(out)["initialized"].endswith("fresh")
    code, _, err = run(capsys, "--store", root, "init")
    assert code == 3
    assert json.loads(err)["error"] == "io-failure"


def test_init_refuses_a_directory_holding_any_store_file(tmp_path, capsys):
    # init must not empty a terms file, even with no other store file beside it
    root = tmp_path / "store"
    root.mkdir()
    terms = root / "terms"
    terms.write_text('{"id": "ex:a", "labels": {"en": "a"}}\n')
    code, out, err = run(capsys, "--store", str(root), "init")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "io-failure"
    assert tree_bytes(root) == {"terms": b'{"id": "ex:a", "labels": {"en": "a"}}\n'}


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_bad_strategy_and_category_are_usage_errors(store_dir, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--store", str(store_dir), "plan", "--strategy", "star", "ex:a"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["--store", str(store_dir), "find", "--category", "hypothetical"])
    assert excinfo.value.code == 2


def test_interop_output(store_dir, capsys):
    code, out, _ = run(capsys, "--store", str(store_dir), "interop", "pato:weight", "ncit:weight")
    assert code == 0
    doc = json.loads(out)
    assert doc["level"] == "Ontological"
    assert doc["actionable"] is True


def test_interop_bad_min_confidence_is_domain_error(store_dir, capsys):
    for b in ("ncit:weight", "pato:weight"):
        code, _, err = run(
            capsys, "--store", str(store_dir), "interop", "pato:weight", b, "--min-confidence", "nan"
        )
        assert code == 1
        assert json.loads(err)["error"] == "malformed-content"


def test_closure_output(store_dir, capsys):
    code, out, _ = run(capsys, "--store", str(store_dir), "closure")
    assert code == 0
    doc = json.loads(out)
    assert any(
        set(group) >= {"http://example.org/pato/weight", "http://example.org/ncit/weight"}
        for group in doc["ontological_classes"]
    )


def test_validate_valid_and_invalid(store_dir, tmp_path, capsys):
    fx = populated_fixture()
    good = tmp_path / "good.json"
    good.write_text(render(instance_to_doc(fx.instance, fx.engine.prefix_map)))
    code, out, _ = run(capsys, "--store", str(store_dir), "validate", str(good))
    assert code == 0
    assert json.loads(out)["valid"] is True

    doc = instance_to_doc(fx.instance, fx.engine.prefix_map)
    del doc["fills"]["value"]
    bad = tmp_path / "bad.json"
    bad.write_text(render(doc))
    code, out, _ = run(capsys, "--store", str(store_dir), "validate", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["violations"][0]["code"] == "missing-required-slot"


def test_transform_via_cli(store_dir, tmp_path, capsys):
    fx = populated_fixture()
    instance_file = tmp_path / "instance.json"
    instance_file.write_text(render(instance_to_doc(fx.instance, fx.engine.prefix_map)))
    code, out, _ = run(
        capsys, "--store", str(store_dir), "transform", str(instance_file), "ex:weight-crosswalk"
    )
    assert code == 0
    expected = fx.engine.crosswalks.transform_instance(fx.instance, fx.crosswalk_id)
    assert out == render(instance_to_doc(expected, fx.engine.prefix_map))


def test_transform_of_an_instance_of_another_schema_exits_1(store_dir, tmp_path, capsys):
    fx = populated_fixture()
    transformed = fx.engine.crosswalks.transform_instance(fx.instance, fx.crosswalk_id)
    instance_file = tmp_path / "oboe.json"
    instance_file.write_text(render(instance_to_doc(transformed, fx.engine.prefix_map)))
    code, _, err = run(
        capsys, "--store", str(store_dir), "transform", str(instance_file), "ex:weight-crosswalk"
    )
    assert code == 1
    assert json.loads(err)["error"] == "schema-mismatch"


def test_crosswalk_check_and_transform_after_mapping_deletion(store_dir, tmp_path, capsys):
    # deleting the sameAs row from the store makes check report the quality
    # alignment incompatible and transform fail with a mapped-term error
    mappings = store_dir / "mappings.tsv"
    kept = [line for line in mappings.read_text().splitlines() if "owl:sameAs" not in line]
    mappings.write_text("\n".join(kept) + "\n")

    code, out, _ = run(capsys, "--store", str(store_dir), "crosswalk", "check", "ex:weight-crosswalk")
    assert code == 1
    report = json.loads(out)
    by_slot = {c["source_slot"]: c["status"] for c in report["alignments"]}
    assert by_slot["quality"] == "Incompatible"

    fx = build_weight_fixture(register_golden=False)
    instance_file = tmp_path / "instance.json"
    instance_file.write_text(render(instance_to_doc(fx.instance, fx.engine.prefix_map)))
    code, _, err = run(
        capsys, "--store", str(store_dir), "transform", str(instance_file), "ex:weight-crosswalk"
    )
    assert code == 1
    assert json.loads(err)["error"] == "no-mapped-term"


def test_crosswalk_check_from_document_file(store_dir, tmp_path, capsys):
    # an unregistered crosswalk document can be checked directly from a file
    fx = populated_fixture()
    pm = fx.engine.prefix_map
    from semint.documents import crosswalk_to_doc

    doc = crosswalk_to_doc(fx.engine.crosswalks.crosswalk(fx.crosswalk_id), pm)
    doc["id"] = "ex:draft-crosswalk"
    del doc["level"]
    draft = tmp_path / "draft.json"
    draft.write_text(render(doc))
    code, out, _ = run(capsys, "--store", str(store_dir), "crosswalk", "check", str(draft))
    assert code == 0
    assert json.loads(out)["clean"] is True


def test_crosswalk_classify_and_invert(store_dir, capsys):
    code, out, _ = run(capsys, "--store", str(store_dir), "crosswalk", "classify", "ex:weight-crosswalk")
    assert code == 0
    assert json.loads(out)["level"] == "Ontological"

    code, out, _ = run(capsys, "--store", str(store_dir), "crosswalk", "invert", "ex:weight-crosswalk")
    assert code == 0
    inverted = json.loads(out)
    assert inverted["source_schema"] == "oboe:weight-schema"
    assert inverted["target_schema"] == "obi:weight-schema"


def test_crosswalk_compose_with_inverse_yields_self_alignments(store_dir, tmp_path, capsys):
    code, out, _ = run(capsys, "--store", str(store_dir), "crosswalk", "invert", "ex:weight-crosswalk")
    assert code == 0
    inverted_file = tmp_path / "inverted.json"
    inverted_file.write_text(out)
    code, out, _ = run(
        capsys,
        "--store",
        str(store_dir),
        "crosswalk",
        "compose",
        "ex:weight-crosswalk",
        str(inverted_file),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["source_schema"] == doc["target_schema"] == "obi:weight-schema"
    assert {(a["source_slot"], a["target_slot"]) for a in doc["alignments"]} == {
        ("object", "object"),
        ("quality", "quality"),
        ("value", "value"),
        ("unit", "unit"),
    }
    assert doc["level"] == "Ontological"


def test_plan_pairwise_and_hub(tmp_path, capsys):
    from conftest import make_engine, term
    from semint import SlotKind, SlotSpec, StatementSchema

    engine = make_engine()
    pm = engine.prefix_map
    term(engine, "ex:plan-class")
    ids = []
    for i in range(9):
        ids.append(
            str(
                engine.schemas.register_schema(
                    StatementSchema(
                        id=pm.gupri(f"ex:plan-{i}"),
                        statement_type=pm.gupri("ex:plan-type"),
                        label=f"plan {i}",
                        slots=(SlotSpec("x", "X", SlotKind.RESOURCE, pm.gupri("ex:plan-class")),),
                    )
                )
            )
        )
    root = tmp_path / "plan-store"
    export_store(engine, root)
    spokes, hub = ids[:8], ids[8]
    code, out, _ = run(capsys, "--store", str(root), "plan", "--strategy", "pairwise", *spokes)
    assert code == 0
    assert json.loads(out)["required_count"] == 28
    code, out, _ = run(capsys, "--store", str(root), "plan", "--strategy", f"hub={hub}", *spokes)
    assert code == 0
    assert json.loads(out)["required_count"] == 8


def test_ops_applicable(store_dir, capsys):
    code, out, _ = run(capsys, "--store", str(store_dir), "ops", "applicable", "obi:weight-schema")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 1
    assert doc["operations"][0]["id"] == "urn:operation:convert-unit"


def test_assess_golden(store_dir, capsys):
    code, out, _ = run(capsys, "--store", str(store_dir), "assess", "ex:fdo-apple-weight")
    assert code == 0
    doc = json.loads(out)
    assert doc["score"] == 1.0


def test_assess_unknown_exit_code(store_dir, capsys):
    code, _, err = run(capsys, "--store", str(store_dir), "assess", "ex:fdo-ghost")
    assert code == 1
    assert json.loads(err)["error"] == "unknown-fdo"


def test_find_with_expansion(store_dir, capsys):
    code, out, _ = run(
        capsys,
        "--store",
        str(store_dir),
        "find",
        "--term",
        "pato:weight",
        "--expand",
        "referential",
    )
    assert code == 0
    assert "ex:fdo-apple-weight-oboe" in json.loads(out)["results"]
    code, out, _ = run(capsys, "--store", str(store_dir), "find", "--term", "pato:weight")
    assert "ex:fdo-apple-weight-oboe" not in json.loads(out)["results"]


def test_find_requires_criterion(store_dir, capsys):
    code, _, err = run(capsys, "--store", str(store_dir), "find")
    assert code == 1
    assert json.loads(err)["error"] == "empty-query"


def test_export_canonical_idempotent(store_dir, capsys):
    before = {p: p.read_bytes() for p in sorted(store_dir.rglob("*")) if p.is_file()}
    code, _, _ = run(capsys, "--store", str(store_dir), "export")
    assert code == 0
    after = {p: p.read_bytes() for p in sorted(store_dir.rglob("*")) if p.is_file()}
    assert before == after


def test_import_roundtrip_into_fresh_store(store_dir, tmp_path, capsys):
    fresh = tmp_path / "fresh"
    code, _, _ = run(capsys, "--store", str(fresh), "init")
    assert code == 0
    # prefixes are configuration; copy them over directly
    (fresh / "prefixes").write_text((store_dir / "prefixes").read_text())

    code, out, _ = run(capsys, "--store", str(fresh), "import", "terms", str(store_dir / "terms"))
    assert code == 0
    assert json.loads(out)["imported_terms"] > 0
    code, out, _ = run(
        capsys, "--store", str(fresh), "import", "mappings", str(store_dir / "mappings.tsv")
    )
    assert code == 0
    assert json.loads(out)["rejected"] == []
    for kind, directory in (
        ("schema", "schemas"),
        ("crosswalk", "crosswalks"),
        ("operation", "operations"),
        ("fdo", "fdos"),
    ):
        for file in sorted((store_dir / directory).glob("*.json")):
            code, out, _ = run(capsys, "--store", str(fresh), "import", kind, str(file))
            assert code == 0, (kind, file, out)

    code, out, _ = run(capsys, "--store", str(fresh), "assess", "ex:fdo-apple-weight")
    assert code == 0
    assert json.loads(out)["score"] == 1.0

    # the rebuilt store is byte-identical to the exported original
    original = {
        p.relative_to(store_dir): p.read_bytes() for p in sorted(store_dir.rglob("*")) if p.is_file()
    }
    rebuilt = {
        p.relative_to(fresh): p.read_bytes() for p in sorted(fresh.rglob("*")) if p.is_file()
    }
    assert original == rebuilt


def test_import_mappings_table1_direction(tmp_path, capsys):
    fresh = tmp_path / "t1"
    run(capsys, "--store", str(fresh), "init")
    (fresh / "prefixes").write_text("ex\thttp://example.org/things/\n")
    tsv = tmp_path / "rows.tsv"
    tsv.write_text("subject_id\tpredicate_id\tobject_id\nex:parent\trdfs:subClassOf\tex:child\n")
    code, _, _ = run(
        capsys, "--store", str(fresh), "import", "mappings", str(tsv), "--table1-direction"
    )
    assert code == 0
    stored = (fresh / "mappings.tsv").read_text()
    assert "ex:child\trdfs:subClassOf\tex:parent" in stored


def _commands(store_dir: Path, tmp_path: Path) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Each command once, with its input files under ``tmp_path``: those
    that read no FAIR record, and those that read every record file."""
    from semint.documents import crosswalk_to_doc, fdo_to_doc

    fx = populated_fixture()
    pm = fx.engine.prefix_map
    instance = tmp_path / "instance.json"
    instance.write_text(render(instance_to_doc(fx.instance, pm)))
    mappings = tmp_path / "new-mappings.tsv"
    mappings.write_text(
        "subject_id\tpredicate_id\tobject_id\tmapping_justification\n"
        "ex:apple\tskos:closeMatch\tex:pear\tmanual-curation\n"
    )
    crosswalk = tmp_path / "new-crosswalk.json"
    doc = crosswalk_to_doc(fx.engine.crosswalks.crosswalk(fx.crosswalk_id), pm)
    crosswalk.write_text(render({**doc, "id": "ex:weight-crosswalk-copy"}))
    fdo = tmp_path / "new-fdo.json"
    fdo.write_text(render(fdo_to_doc(replace(fx.golden, gupri=pm.gupri("ex:fdo-new")), pm)))
    # the imports come first, so every command after them reads the same
    # store each time the commands run: an import run again adds nothing
    no_records = {
        "import-mappings": ["import", "mappings", str(mappings)],
        "import-crosswalk": ["import", "crosswalk", str(crosswalk)],
        "interop": ["interop", "pato:weight", "ncit:weight"],
        "validate": ["validate", str(instance)],
        "transform": ["transform", str(instance), "ex:weight-crosswalk"],
        "ops": ["ops", "applicable", "obi:weight-schema", "--reachable"],
        "plan": ["plan", "obi:weight-schema", "oboe:weight-schema"],
        "crosswalk-check": ["crosswalk", "check", "ex:weight-crosswalk"],
        "closure": ["closure"],
    }
    records = {
        "assess": ["assess", "ex:fdo-apple-weight"],
        "find": ["find", "--term", "pato:weight"],
        "export": ["export"],
        "import-fdo": ["import", "fdo", str(fdo)],
    }
    return no_records, records


def test_corrupt_fdo_file_fails_only_record_commands(store_dir, tmp_path, capsys):
    # the CLI reads fdos/ only when a command reads a FAIR record
    no_records, records = _commands(store_dir, tmp_path)
    clean = {name: run(capsys, "--store", str(store_dir), *argv)[:2] for name, argv in no_records.items()}
    assert all(code in (0, 1) and out for code, out in clean.values())
    assert clean["crosswalk-check"][0] == 0
    broken = sorted((store_dir / "fdos").glob("*.json"))[-1]
    broken.write_text("{]")
    for name, argv in no_records.items():
        code, out, err = run(capsys, "--store", str(store_dir), *argv)
        assert (code, out) == clean[name], (name, err)
    before = tree_bytes(store_dir)
    for name, argv in records.items():
        code, out, err = run(capsys, "--store", str(store_dir), *argv)
        assert (code, out) == (3, ""), name
        error = json.loads(err)
        assert error["error"] == "parse-failure", name
        assert error["message"].startswith(f"fdos/{broken.name}:1: "), name
        # the failed read comes before any write
        assert tree_bytes(store_dir) == before, name


#: the commands of ``_commands`` that read each document directory: those
#: that read its registry or one built over it
_READERS = {
    "schemas": {
        "import-crosswalk", "validate", "transform", "ops", "plan", "crosswalk-check",
        "assess", "find", "export", "import-fdo",
    },
    "crosswalks": {
        "import-crosswalk", "transform", "ops", "plan", "crosswalk-check", "assess", "find", "export", "import-fdo",
    },
    "operations": {"ops", "export"},
}  # fmt: skip


@pytest.mark.parametrize("directory", sorted(_READERS))
def test_corrupt_document_fails_only_the_commands_that_read_its_directory(store_dir, tmp_path, capsys, directory):
    # the CLI reads a document directory only when a command reads its registry
    no_records, records = _commands(store_dir, tmp_path)
    # import fdo adds the record that find then finds, both times
    commands = {**no_records, "import-fdo": records["import-fdo"], **records}
    clean = {name: run(capsys, "--store", str(store_dir), *argv)[:2] for name, argv in commands.items()}
    assert all(code in (0, 1) and out for code, out in clean.values())
    broken = store_dir / directory / "broken.json"
    broken.write_text("{]")
    readers = _READERS[directory]
    assert {"interop", "closure"}.isdisjoint(readers) and readers <= set(commands)
    for name, argv in commands.items():
        if name in readers:
            continue
        code, out, err = run(capsys, "--store", str(store_dir), *argv)
        assert (code, out) == clean[name], (name, err)
    before = tree_bytes(store_dir)
    for name in readers:
        code, out, err = run(capsys, "--store", str(store_dir), *commands[name])
        assert (code, out) == (3, ""), name
        error = json.loads(err)
        assert error["error"] == "parse-failure", name
        assert error["message"].startswith(f"{directory}/broken.json:1: "), name
        # the failed read comes before any write
        assert tree_bytes(store_dir) == before, name


def test_bad_fdo_record_of_another_id_fails_only_commands_that_build_it(store_dir, tmp_path, capsys):
    # assess and import fdo parse every record file but build only those of
    # their own id; find and export build every record
    _, records = _commands(store_dir, tmp_path)
    clean = {name: run(capsys, "--store", str(store_dir), *records[name])[:2] for name in ("assess", "import-fdo")}
    assert all(code == 0 and out for code, out in clean.values())
    bad = store_dir / "fdos" / "bad.json"
    bad.write_text('{"gupri": "pato:other", "content": {"kind": "nope"}}')
    for name, expected in clean.items():
        code, out, err = run(capsys, "--store", str(store_dir), *records[name])
        assert (code, out) == expected, (name, err)
    before = tree_bytes(store_dir)
    for name in ("find", "export"):
        code, out, err = run(capsys, "--store", str(store_dir), *records[name])
        assert (code, out) == (3, ""), name
        assert json.loads(err)["message"].startswith("fdos/bad.json:1: "), name
        assert tree_bytes(store_dir) == before, name


def test_bad_term_record_fails_only_term_commands(store_dir, tmp_path, capsys):
    # every command parses each terms line as JSON, but only the commands
    # that read term records build them
    no_records, records = _commands(store_dir, tmp_path)
    new_term = tmp_path / "new-term"
    new_term.write_text(json.dumps({**json.loads((store_dir / "terms").read_text().splitlines()[0]), "id": "ex:new-term"}))
    readers = {"assess": records["assess"], "export": records["export"], "import-terms": ["import", "terms", str(new_term)]}
    # import fdo adds the record that find then finds, both times
    others = {**no_records, "import-fdo": records["import-fdo"], "find": records["find"]}
    clean = {name: run(capsys, "--store", str(store_dir), *argv)[:2] for name, argv in others.items()}
    assert all(code in (0, 1) and out for code, out in clean.values())
    terms = store_dir / "terms"
    lines = terms.read_text().splitlines()
    lines.insert(1, '{"id": 5}')
    terms.write_text("\n".join(lines) + "\n")
    for name, argv in others.items():
        code, out, err = run(capsys, "--store", str(store_dir), *argv)
        assert (code, out) == clean[name], (name, err)
    before = tree_bytes(store_dir)
    for name, argv in readers.items():
        code, out, err = run(capsys, "--store", str(store_dir), *argv)
        assert (code, out) == (3, ""), name
        error = json.loads(err)
        assert error["error"] == "parse-failure", name
        assert error["message"].startswith("terms:2: "), name
        assert tree_bytes(store_dir) == before, name


def test_import_fdo_conflicts_with_a_hand_named_record_of_its_id(store_dir, tmp_path, capsys):
    _, records = _commands(store_dir, tmp_path)
    doc = json.loads((tmp_path / "new-fdo.json").read_text())
    hand_named = store_dir / "fdos" / "hand-named.json"
    hand_named.write_text(render({**doc, "creator": "someone else"}))
    before = tree_bytes(store_dir)
    code, out, err = run(capsys, "--store", str(store_dir), *records["import-fdo"])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "conflicting-fdo"
    assert tree_bytes(store_dir) == before
    # the same content under that name is held already, so nothing is written
    hand_named.write_text(render(doc))
    before = tree_bytes(store_dir)
    code, out, err = run(capsys, "--store", str(store_dir), *records["import-fdo"])
    assert code == 0, err
    assert json.loads(out) == {"registered": "ex:fdo-new"}
    assert tree_bytes(store_dir) == before
    # a record file whose id is no identifier fails the import, as a full read would
    hand_named.write_text(render({**doc, "gupri": 5}))
    code, out, err = run(capsys, "--store", str(store_dir), *records["import-fdo"])
    assert (code, out) == (3, "")
    assert json.loads(err)["message"].startswith("fdos/hand-named.json:1: ")


def _mapping_rows(rng, count: int, terms: list[str]) -> str:
    """``count`` mapping rows between ``terms``, with confidences that tie
    (0.0 and -0.0) and optional comments and authors."""
    predicates = ["owl:sameAs", "skos:exactMatch", "owl:equivalentClass", "rdfs:subClassOf", "skos:closeMatch",
                  "skos:relatedMatch", "skos:broadMatch", "skos:narrowMatch"]
    lines = ["subject_id\tpredicate_id\tobject_id\tmapping_justification\tconfidence\tcomment\tauthor_id"]
    for _ in range(count):
        subject, object_ = rng.sample(terms, 2)
        lines.append("\t".join([
            subject, rng.choice(predicates), object_, rng.choice(["manual-curation", "lexical-match"]),
            rng.choice(["1.0", "0.9", "0.5", "0.0", "-0.0"]), rng.choice(["", "", "checked"]), rng.choice(["", "ex:curator"]),
        ]))
    return "\n".join(lines) + "\n"


@pytest.fixture
def mapping_store(store_dir, tmp_path):
    """The store with 400 more mapping rows, exported canonically, and a
    file of 60 rows to import: new ones, and some stored already or tying
    with stored ones on every field but the sign of a zero confidence."""
    import random

    rng = random.Random(7)
    terms = [f"ex:m{i}" for i in range(30)] + ["pato:weight", "ncit:weight", "ex:apple"]
    engine = load_store(store_dir)
    stored = _mapping_rows(rng, 400, terms)
    engine.terminology.import_mappings_tsv(stored)
    export_store(engine, store_dir)
    stored_lines = stored.splitlines()[1:]
    again = [line.replace("\t0.0\t", "\t-0.0\t") for line in rng.sample(stored_lines, 10)]
    new_rows = _mapping_rows(rng, 50, terms).splitlines()
    file = tmp_path / "import.tsv"
    file.write_text("\n".join(new_rows + again) + "\n")
    return file


@pytest.mark.parametrize("edit", ["canonical", "unsorted", "commented", "blank line"])
def test_import_mappings_into_an_edited_file_rewrites_it(store_dir, tmp_path, capsys, mapping_store, edit):
    # mappings.tsv is rendered whole, so after the import the store is what a
    # full export writes after the same import, whatever the file held
    mappings = store_dir / "mappings.tsv"
    lines = mappings.read_text().splitlines()
    if edit == "unsorted":
        lines[5], lines[6] = lines[6], lines[5]
    elif edit != "canonical":
        lines.insert(7, "# checked by hand" if edit == "commented" else "")
    mappings.write_text("\n".join(lines) + "\n")
    engine = load_store(store_dir)
    engine.terminology.import_mappings_tsv(mapping_store.read_text())
    canonical = tmp_path / "canonical"
    export_store(engine, canonical)
    code, _, err = run(capsys, "--store", str(store_dir), "import", "mappings", str(mapping_store))
    assert code == 0, err
    assert tree_bytes(store_dir) == tree_bytes(canonical)


def test_import_mappings_rewrites_a_stored_line_in_another_spelling(store_dir, tmp_path, capsys, mapping_store):
    # a row spelled with its IRI reads as its CURIE after the import, as
    # export writes it
    mappings = store_dir / "mappings.tsv"
    lines = mappings.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith("ex:m1\t"))
    prefixes = dict(line.split("\t") for line in (store_dir / "prefixes").read_text().splitlines())
    curie = lines[index]
    spelled = prefixes["ex"] + curie[len("ex:") :]
    lines[index] = spelled
    mappings.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "--store", str(store_dir), "import", "mappings", str(mapping_store))
    assert code == 0, err
    after = mappings.read_text().splitlines()
    assert spelled not in after and curie in after


def test_imports_keep_every_record_file(store_dir, tmp_path, capsys):
    no_records, _ = _commands(store_dir, tmp_path)
    fdos = {p.name: p.read_bytes() for p in (store_dir / "fdos").glob("*.json")}
    assert len(fdos) == 2
    for name in ("import-mappings", "import-crosswalk"):
        code, _, err = run(capsys, "--store", str(store_dir), *no_records[name])
        assert code == 0, err
        assert {p.name: p.read_bytes() for p in (store_dir / "fdos").glob("*.json")} == fdos, name


def test_only_record_commands_parse_record_files(store_dir, tmp_path, capsys, monkeypatch):
    # every command but the ones that read FAIR records leaves fdos/ unparsed,
    # assess builds only the assessed record, and import fdo only the
    # imported record and those of its id
    parsed = []
    parse = documents.fdo_from_doc
    monkeypatch.setattr(documents, "fdo_from_doc", lambda doc, pm: parsed.append(doc["gupri"]) or parse(doc, pm))
    no_records, records = _commands(store_dir, tmp_path)
    for name, argv in no_records.items():
        code, _, err = run(capsys, "--store", str(store_dir), *argv)
        assert code in (0, 1), err
        assert parsed == [], name
    for name, argv in records.items():
        files = len(list((store_dir / "fdos").glob("*.json")))
        parsed.clear()
        code, _, err = run(capsys, "--store", str(store_dir), *argv)
        assert code == 0, err
        if name == "import-fdo":
            assert parsed == ["ex:fdo-new"], name
        elif name == "assess":
            assert parsed == ["ex:fdo-apple-weight"], name
        else:
            assert len(parsed) == files, name
    # the record is now stored: importing it again builds it twice, from the
    # input and from its file, and no other record
    parsed.clear()
    code, _, err = run(capsys, "--store", str(store_dir), *records["import-fdo"])
    assert code == 0, err
    assert parsed == ["ex:fdo-new", "ex:fdo-new"]


def _new_record_files(store_dir: Path, tmp_path: Path) -> dict[str, tuple[Path, str]]:
    """For each import kind, a file adding one new record (a copy of one the
    store holds, under a new id) and the store path it should change; for a
    document kind, the directory that gains one file."""
    kinds = {}
    term = json.loads((store_dir / "terms").read_text().splitlines()[0])
    kinds["terms"] = (tmp_path / "new-term", json.dumps({**term, "id": "ex:new-term"}) + "\n", "terms")
    kinds["mappings"] = (
        tmp_path / "new-mappings.tsv",
        "subject_id\tpredicate_id\tobject_id\nex:apple\tskos:relatedMatch\tex:pear\n",
        "mappings.tsv",
    )
    for kind, directory, fields in (
        ("schema", "schemas", {"id": "ex:new-schema"}),
        ("crosswalk", "crosswalks", {"id": "ex:new-crosswalk"}),
        ("operation", "operations", {"id": "ex:new-operation", "kind": "external-reference"}),
        ("fdo", "fdos", {"gupri": "ex:new-fdo"}),
    ):
        doc = json.loads(next((store_dir / directory).glob("*.json")).read_text())
        kinds[kind] = (tmp_path / f"new-{kind}.json", render({**doc, **fields}), directory)
    for file, text, _ in kinds.values():
        file.write_text(text)
    return {kind: (file, changed) for kind, (file, _, changed) in kinds.items()}


@pytest.mark.parametrize("kind", ["terms", "mappings", "schema", "crosswalk", "operation", "fdo"])
def test_import_writes_only_what_it_added(store_dir, tmp_path, capsys, kind):
    file, changed = _new_record_files(store_dir, tmp_path)[kind]
    before = tree_bytes(store_dir)
    code, _, err = run(capsys, "--store", str(store_dir), "import", kind, str(file))
    assert code == 0, err
    after = tree_bytes(store_dir)
    differ = sorted(path for path in before.keys() | after.keys() if before.get(path) != after.get(path))
    if changed in ("terms", "mappings.tsv"):
        assert differ == [changed]
    else:
        assert len(differ) == 1 and differ[0] not in before and Path(differ[0]).parent == Path(changed)
    # what the import left is the canonical store of what it holds
    canonical = tmp_path / "canonical"
    export_store(load_store(store_dir), canonical)
    assert after == tree_bytes(canonical)
    # the same records again store nothing new, so they write nothing
    code, _, err = run(capsys, "--store", str(store_dir), "import", kind, str(file))
    assert code == 0, err
    assert tree_bytes(store_dir) == after


@pytest.mark.parametrize("kind", ["terms", "mappings"])
def test_import_replaces_its_file_without_reading_it_to_compare(store_dir, tmp_path, capsys, monkeypatch, kind):
    # an import exports only after it added a term or a row, so the file's
    # bytes always differ and a compare read would never save a write; the
    # file is read once, by the load, and rendered whole from the engine
    file, changed = _new_record_files(store_dir, tmp_path)[kind]
    reads, texts = [], []
    read_bytes, read_text = Path.read_bytes, store.read_text
    monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path.name) or read_bytes(path))
    monkeypatch.setattr(store, "read_text", lambda path, name: texts.append(name) or read_text(path, name))
    code, _, err = run(capsys, "--store", str(store_dir), "import", kind, str(file))
    assert code == 0, err
    assert reads.count(changed) == 0
    assert texts.count(changed) == 1


def test_imported_term_text_with_a_line_separator_keeps_the_store_readable(store_dir, tmp_path, capsys):
    # the text is one JSON line, and terms is read with str.splitlines, which
    # breaks lines at U+2028 too
    file = tmp_path / "terms"
    file.write_text('{"id": "ex:a", "labels": {"en": "line\\u2028sep"}}\n')
    code, _, err = run(capsys, "--store", str(store_dir), "import", "terms", str(file))
    assert code == 0, err
    code, _, err = run(capsys, "--store", str(store_dir), "interop", "ex:a", "pato:weight")
    assert code == 0, err
    assert load_store(store_dir).terminology.term("ex:a").labels == {"en": "line\u2028sep"}


def test_reimported_crosswalk_under_other_name_adds_no_file(store_dir, capsys):
    (stored,) = (store_dir / "crosswalks").glob("*.json")
    renamed = stored.rename(store_dir / "crosswalks" / "hand-named.json")
    before = tree_bytes(store_dir)
    code, out, err = run(capsys, "--store", str(store_dir), "import", "crosswalk", str(renamed))
    assert code == 0, err
    assert json.loads(out) == {"registered": "ex:weight-crosswalk"}
    assert tree_bytes(store_dir) == before


def test_import_leaves_hand_edited_file_to_export(store_dir, tmp_path, capsys):
    schema = next((store_dir / "schemas").glob("*.json"))
    canonical = schema.read_bytes()
    edited = json.dumps(json.loads(canonical))  # one line, not the canonical layout
    schema.write_text(edited)
    file, _ = _new_record_files(store_dir, tmp_path)["mappings"]
    code, _, err = run(capsys, "--store", str(store_dir), "import", "mappings", str(file))
    assert code == 0, err
    assert schema.read_text() == edited
    code, _, err = run(capsys, "--store", str(store_dir), "export")
    assert code == 0, err
    assert schema.read_bytes() == canonical


UNREADABLE_JSON = {
    "too-deep": "[" * 100_000,
    # json.dumps escapes the lone surrogate, which parses but cannot be encoded
    "lone-surrogate": json.dumps({"schema": "urn:x:\ud800", "fills": {}}),
}


@pytest.mark.parametrize("text", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON)
def test_unreadable_json_file_parse_failure(store_dir, tmp_path, capsys, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    for argv in (["validate", str(path)], ["import", "terms", str(path)], ["import", "fdo", str(path)]):
        code, _, err = run(capsys, "--store", str(store_dir), *argv)
        assert code == 3, argv
        assert json.loads(err)["error"] == "parse-failure"


NON_UTF8_INPUT_COMMANDS = {
    "validate": ["validate", "{file}"],
    "transform": ["transform", "{file}", "ex:weight-crosswalk"],
    "crosswalk-check": ["crosswalk", "check", "{file}"],
    "crosswalk-compose": ["crosswalk", "compose", "{file}", "ex:weight-crosswalk"],
    **{f"import-{kind}": ["import", kind, "{file}"] for kind in ("terms", "mappings", "schema", "crosswalk", "operation", "fdo")},
}


@pytest.mark.parametrize("argv", NON_UTF8_INPUT_COMMANDS.values(), ids=NON_UTF8_INPUT_COMMANDS)
def test_non_utf8_input_file_parse_failure(store_dir, tmp_path, capsys, argv):
    path = tmp_path / "input"
    path.write_bytes(b'{\n"\xff": 1}\n')
    before = tree_bytes(store_dir)
    code, out, err = run(capsys, "--store", str(store_dir), *(a.format(file=path) for a in argv))
    assert (code, out) == (3, "")
    error = json.loads(err)
    assert error["error"] == "parse-failure"
    assert error["message"].startswith(f"{path}:2: not UTF-8")
    assert tree_bytes(store_dir) == before


# JSON documents of no record of the kind each command reads
UNDECODABLE_INPUT_COMMANDS = {
    "validate": (["validate", "{file}"], '{"schema": "pato:s"}'),
    "transform": (["transform", "{file}", "ex:weight-crosswalk"], '{"schema": "pato:s"}'),
    **{
        f"crosswalk-{command}": (["crosswalk", command, "{file}"], '{"id": "ex:c", "source_schema": "obi:weight-schema"}')
        for command in ("check", "classify", "invert")
    },
    "crosswalk-compose": (["crosswalk", "compose", "ex:weight-crosswalk", "{file}"], '{"id": "ex:c"}'),
    "import-terms": (["import", "terms", "{file}"], '{"id": "ex:t", "labels": {}}\n{"labels": {}}'),
    "import-terms-tag-twice": (["import", "terms", "{file}"], '\n{"id": "ex:t", "labels": {"EN": "one", "en": "two"}}'),
    **{f"import-{kind}": (["import", kind, "{file}"], '{"id": "ex:c"}') for kind in ("schema", "crosswalk", "operation", "fdo")},
}


@pytest.mark.parametrize("argv, text", UNDECODABLE_INPUT_COMMANDS.values(), ids=UNDECODABLE_INPUT_COMMANDS)
def test_input_document_that_does_not_decode_is_a_parse_failure(store_dir, tmp_path, capsys, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    before = tree_bytes(store_dir)
    code, out, err = run(capsys, "--store", str(store_dir), *(a.format(file=path) for a in argv))
    assert (code, out) == (3, "")
    error = json.loads(err)
    assert error["error"] == "parse-failure"
    assert error["message"].startswith(f"{path}:{text.count(chr(10)) + 1}: ")
    assert tree_bytes(store_dir) == before


@pytest.mark.parametrize("name", ["prefixes", "terms", "mappings.tsv"])
def test_non_utf8_store_file_fails_every_command(store_dir, tmp_path, capsys, name):
    no_records, records = _commands(store_dir, tmp_path)
    file = store_dir / name
    data = file.read_bytes()
    file.write_bytes(data + b"\xff\n")
    line = data.count(b"\n") + 1
    before = tree_bytes(store_dir)
    for command, argv in {**no_records, **records}.items():
        code, out, err = run(capsys, "--store", str(store_dir), *argv)
        assert (code, out) == (3, ""), command
        error = json.loads(err)
        assert error["error"] == "parse-failure", command
        assert error["message"].startswith(f"{name}:{line}: not UTF-8"), command
        assert tree_bytes(store_dir) == before, command


def test_parse_failure_exit_code(tmp_path, capsys):
    root = tmp_path / "broken"
    run(capsys, "--store", str(root), "init")
    (root / "terms").write_text("{broken\n")
    code, _, err = run(capsys, "--store", str(root), "closure")
    assert code == 3
    assert json.loads(err)["error"] == "parse-failure"


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_schema_required_accepts_only_json_booleans(store_dir, tmp_path, capsys, value):
    # "required": "false" once registered a required slot
    schema_file = sorted((store_dir / "schemas").glob("*.json"))[0]
    doc = json.loads(schema_file.read_text())
    pm = build_weight_fixture().engine.prefix_map
    assert [s.required for s in schema_from_doc(doc, pm).slots] == [True] * 4
    doc["slots"][0]["required"] = False
    assert schema_from_doc(doc, pm).slots[0].required is False
    del doc["slots"][0]["required"]
    assert schema_from_doc(doc, pm).slots[0].required is True
    doc["slots"][0]["required"] = value
    with pytest.raises(MalformedContent, match="slot spec: bad required"):
        schema_from_doc(doc, pm)

    path = tmp_path / "schema.json"
    path.write_text(render(doc))
    code, _, err = run(capsys, "--store", str(store_dir), "import", "schema", str(path))
    assert code == 3
    assert json.loads(err)["error"] == "parse-failure"
    schema_file.write_text(render(doc))
    with pytest.raises(ParseFailure) as excinfo:
        load_store(store_dir)
    assert excinfo.value.file.startswith("schemas/")


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_term_criteria_applicable_accepts_only_json_booleans(store_dir, tmp_path, capsys, value):
    # "recognition_criteria_applicable": "false" once kept the criteria applicable
    terms_file = store_dir / "terms"
    first, rest = terms_file.read_text().split("\n", 1)
    doc = json.loads(first)
    pm = build_weight_fixture().engine.prefix_map
    assert term_from_doc(doc, pm).recognition_criteria_applicable is True
    doc["recognition_criteria_applicable"] = False
    assert term_from_doc(doc, pm).recognition_criteria_applicable is False
    doc["recognition_criteria_applicable"] = value
    with pytest.raises(MalformedContent, match="term record: bad recognition_criteria_applicable"):
        term_from_doc(doc, pm)

    path = tmp_path / "terms.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    code, _, err = run(capsys, "--store", str(store_dir), "import", "terms", str(path))
    assert code == 3
    assert json.loads(err)["error"] == "parse-failure"
    terms_file.write_text(json.dumps(doc) + "\n" + rest)
    with pytest.raises(ParseFailure) as excinfo:
        load_store(store_dir)
    assert excinfo.value.file == "terms"


# (store directory or terms file, CLI import kind, parser, field path, a wrong value)
TEXT_FIELDS = {
    "term-definition": ("terms", "terms", documents.term_from_doc, ("definition",), 7),
    "term-recognition_criteria": ("terms", "terms", documents.term_from_doc, ("recognition_criteria",), ["x"]),
    "schema-logical_framework": ("schemas", "schema", schema_from_doc, ("logical_framework",), 7),
    "schema-label": ("schemas", "schema", schema_from_doc, ("label",), 7),
    "crosswalk-author": ("crosswalks", "crosswalk", documents.crosswalk_from_doc, ("provenance", "author"), {"x": 1}),
    "crosswalk-date": ("crosswalks", "crosswalk", documents.crosswalk_from_doc, ("provenance", "date"), 20240101),
    "crosswalk-justification": (
        "crosswalks", "crosswalk", documents.crosswalk_from_doc, ("provenance", "justification"), True
    ),
    "operation-tool": ("operations", "operation", documents.operation_from_doc, ("tool",), ["convert"]),
    "operation-label": ("operations", "operation", documents.operation_from_doc, ("label",), {"x": 1}),
    "fdo-creator": ("fdos", "fdo", documents.fdo_from_doc, ("creator",), {"x": 1}),
    "fdo-logical_framework": ("fdos", "fdo", documents.fdo_from_doc, ("logical_framework",), 7),
    "fdo-human_readable": ("fdos", "fdo", documents.fdo_from_doc, ("human_readable",), False),
    "fdo-license": ("fdos", "fdo", documents.fdo_from_doc, ("license",), ["not", "a", "license"]),
}


@pytest.mark.parametrize("where,kind,parse,path,wrong", TEXT_FIELDS.values(), ids=TEXT_FIELDS)
def test_text_fields_accept_only_json_strings(store_dir, tmp_path, capsys, where, kind, parse, path, wrong):
    # a list license would pass R1.1 on its repr, "license ['not', 'a', 'license']"
    target = store_dir / where
    if kind == "terms":
        first, rest = target.read_text().split("\n", 1)
    else:
        target = sorted(target.glob("*.json"))[0]
    doc = json.loads(first if kind == "terms" else target.read_text())
    *outer, field = path
    holder = doc
    for key in outer:
        holder = holder.setdefault(key, {})
    pm = build_weight_fixture().engine.prefix_map

    def parsed_field():
        value = parse(doc, pm)
        for key in path:
            value = getattr(value, key)
        return value

    # a label is text that is empty when unset; the other fields are None
    unset = "" if field == "label" else None
    holder[field] = "some text"
    assert parsed_field() == "some text"
    holder[field] = None
    assert parsed_field() == unset
    del holder[field]
    assert parsed_field() == unset
    holder[field] = wrong
    with pytest.raises(MalformedContent, match=f"bad {field}"):
        parse(doc, pm)

    text = json.dumps(doc) + "\n" if kind == "terms" else render(doc)
    path_in = tmp_path / "input.json"
    path_in.write_text(text)
    code, _, err = run(capsys, "--store", str(store_dir), "import", kind, str(path_in))
    assert code == 3
    assert json.loads(err)["error"] == "parse-failure"
    target.write_text(text + rest if kind == "terms" else text)
    with pytest.raises(ParseFailure) as excinfo:
        load_store(store_dir)
    assert excinfo.value.file.startswith(where)


# (store directory or terms file, CLI import kind, field, a wrong value, the item or value named)
LIST_AND_MAP_FIELDS = {
    "term-labels": ("terms", "terms", "labels", {"en": 7}, "term labels: bad value 7"),
    "term-synonyms": ("terms", "terms", "synonyms", ["ok", 7, {"x": 1}], "term synonyms: bad item 7"),
    "fdo-authors": ("fdos", "fdo", "authors", [{"x": 1}, 7], "fdo authors: bad item {'x': 1}"),
    "fdo-provenance": ("fdos", "fdo", "provenance", {"source": ["a", "b"]}, "fdo provenance: bad value ['a', 'b']"),
}


@pytest.mark.parametrize("where,kind,field,wrong,message", LIST_AND_MAP_FIELDS.values(), ids=LIST_AND_MAP_FIELDS)
def test_list_items_and_map_values_accept_only_json_strings(store_dir, tmp_path, capsys, where, kind, field, wrong, message):
    # str() of such a value would be stored, and an FDO with it would still pass R1.2
    target = store_dir / where
    if kind == "terms":
        first, rest = target.read_text().split("\n", 1)
        doc = json.loads(first)
    else:
        target = sorted(target.glob("*.json"))[0]
        doc = json.loads(target.read_text())
    pm = build_weight_fixture().engine.prefix_map
    parse = term_from_doc if kind == "terms" else documents.fdo_from_doc
    doc[field] = wrong
    with pytest.raises(MalformedContent) as excinfo:
        parse(doc, pm)
    assert str(excinfo.value) == message

    if kind == "fdo":
        server = make_server(load_store(store_dir), "127.0.0.1:0")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            request = urllib.request.Request(f"http://{host}:{port}/assess", data=render(doc).encode(), method="POST")
            with pytest.raises(urllib.error.HTTPError) as http_error:
                urllib.request.urlopen(request)
            with http_error.value:
                assert http_error.value.code == 400
                assert json.loads(http_error.value.read()) == {"error": "malformed-content", "message": message}
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    text = json.dumps(doc) + "\n" if kind == "terms" else render(doc)
    path_in = tmp_path / "input.json"
    path_in.write_text(text)
    code, _, err = run(capsys, "--store", str(store_dir), "import", kind, str(path_in))
    assert code == 3
    assert json.loads(err)["error"] == "parse-failure"
    target.write_text(text + rest if kind == "terms" else text)
    with pytest.raises(ParseFailure) as excinfo:
        load_store(store_dir)
    assert excinfo.value.file.startswith(where)


def _fresh_python(script: str) -> str:
    """The stdout of ``script`` run in a new interpreter on the sources and
    the test helpers, ahead of the path it was given."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), *filter(None, [os.environ.get("PYTHONPATH")])]
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        check=True,
        text=True,
        timeout=120,
    )
    return done.stdout


def test_import_leaves_the_facade_unloaded():
    # only serve needs the facade and http.server, so no other command pays their import
    script = "import sys, semint.cli; print(sorted({'semint.service', 'http.server'} & set(sys.modules)))"
    assert _fresh_python(script) == "[]\n"


def test_import_leaves_logging_decimal_and_datetime_unloaded():
    # no read uses them, so each is imported only on the one path that does
    script = "import sys, semint.cli; print(sorted({'logging', 'decimal', 'datetime'} & set(sys.modules)))"
    assert _fresh_python(script) == "[]\n"


@pytest.mark.parametrize(
    "command, unloaded",
    [
        ("interop", {"schemas", "crosswalks", "operations", "fdo", "service"}),
        ("closure", {"schemas", "crosswalks", "operations", "fdo", "service"}),
        ("validate", {"crosswalks", "operations", "fdo"}),
        ("transform", {"operations", "fdo"}),
    ],
)
def test_command_leaves_the_services_it_does_not_run_unloaded(store_dir, tmp_path, command, unloaded):
    # a command imports only the registries it reads
    argv = ["--store", str(store_dir), *_commands(store_dir, tmp_path)[0][command]]
    modules = sorted(f"semint.{name}" for name in unloaded)
    script = (
        "import contextlib, io, sys\n"
        "from semint.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(code, sorted(set({modules!r}) & set(sys.modules)))\n"
    )
    assert _fresh_python(script) == "0 []\n"


def test_bare_import_loads_no_module_yet_binds_every_public_name():
    script = (
        "import sys, semint\n"
        "print(sorted(name for name in sys.modules if name.startswith('semint.')))\n"
        "names = {}\n"
        "exec('from semint import *', names)\n"
        "print(len(semint.__all__), sorted(set(semint.__all__) - set(names)), set(semint.__all__) <= set(dir(semint)))\n"
        "from semint import documents, schemas\n"
        "print(semint.documents is documents, semint.SlotFill is schemas.SlotFill, hasattr(semint, 'nothing'))\n"
    )
    assert _fresh_python(script) == "[]\n45 [] True\nTrue True False\n"


def test_every_dataclass_has_its_own_docstring():
    # @dataclass renders the signature of a class without one into its
    # docstring, with inspect, at import: every process would pay for it
    import dataclasses
    import importlib
    import inspect
    import pkgutil

    import semint

    # importing the package imports none of its modules
    for module in pkgutil.iter_modules(semint.__path__):
        importlib.import_module(f"semint.{module.name}")
    classes = [
        cls
        for module in (sys.modules[name] for name in sorted(sys.modules) if name.startswith("semint."))
        for cls in vars(module).values()
        if inspect.isclass(cls) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
    ]
    assert len(classes) > 30 and semint.Engine in classes
    assert [cls.__qualname__ for cls in classes if "__doc__" not in vars(cls) or not vars(cls)["__doc__"]] == []
    assert [cls.__qualname__ for cls in classes if cls.__doc__.startswith(cls.__name__ + "(")] == []


def test_lazily_imported_paths_answer_in_a_fresh_process():
    script = (
        "from semint.schemas import DatatypeTag, literal_parses\n"
        "print(literal_parses('2024-05-14T10:00:00Z', DatatypeTag.DATETIME))\n"
        "print(literal_parses('2024-02-30', DatatypeTag.DATETIME))\n"
        "from conftest import build_weight_fixture\n"
        "fx = build_weight_fixture()\n"
        "out = fx.engine.operations.convert_unit(fx.instance, 'value', 'unit', 'unit:kilogram')\n"
        "print(out.fills['value'].value)\n"
    )
    assert _fresh_python(script).splitlines() == ["True", "False", "0.21245"]


def test_serve_runs_the_facade(store_dir, monkeypatch):
    from semint import service

    served = []
    monkeypatch.setattr(service, "serve", lambda engine, bind: served.append(bind))
    assert main(["--store", str(store_dir), "serve", "--bind", "127.0.0.1:0"]) == 0
    assert served == ["127.0.0.1:0"]


def test_main_leaves_the_collector_alone(store_dir, capsys):
    # only the process entry freezes, since tests and tracers call main in-process
    assert run(capsys, "--store", str(store_dir), "interop", "pato:weight", "ncit:weight")[0] == 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("failure", ["usage", "parse", "domain"])
def test_the_module_exits_as_main_returns(failure, store_dir, tmp_path, capsys):
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\377")
    argv, code = {
        "usage": (["--store", str(store_dir), "no-such-command"], 2),
        "parse": (["--store", str(store_dir), "validate", str(not_utf8)], 3),
        "domain": (["--store", str(store_dir), "interop", "pato:weight", "ncit:weight", "--min-confidence", "nan"], 1),
    }[failure]
    try:
        assert main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    in_process = capsys.readouterr()
    done = subprocess.run(
        [sys.executable, "-m", "semint.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, in_process.out, in_process.err)
    if failure != "usage":
        assert json.loads(done.stderr)["error"] == ("parse-failure" if failure == "parse" else "malformed-content")


def test_argument_utf8_cannot_encode_is_an_invalid_gupri(store_dir):
    # a byte that is not UTF-8 reaches argv as a lone surrogate, which no
    # identifier may hold: the process fails tagged, writing nothing to stdout
    done = subprocess.run(
        [sys.executable, "-m", "semint.cli", "--store", str(store_dir), "interop", b"pato:weight\xff", "ncit:weight"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"), "LC_ALL": "C.UTF-8"},
        capture_output=True,
        timeout=120,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    assert json.loads(done.stderr.decode("utf-8"))["error"] == "invalid-gupri"


def test_the_entry_freezes_what_main_left(store_dir):
    script = (
        "import gc, sys\n"
        "from semint.cli import entry\n"
        "sys.argv[1:] = ['--store', sys.argv[1], 'interop', 'pato:weight', 'ncit:weight']\n"
        "code = entry()\n"
        "print(code, gc.get_freeze_count() > 0)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", script, str(store_dir)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        check=True,
        text=True,
        timeout=120,
    )
    assert done.stdout.splitlines()[-1] == "0 True"
    # the console script runs the same entry
    pyproject = (src.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'semint = "semint.cli:entry"' in pyproject.split("[project.scripts]", 1)[1]


DETERMINISM_SCRIPT = """
import tempfile
from pathlib import Path
from semint import documents, export_store
from semint.cli import main
from test_store import populated_fixture

fx = populated_fixture()
pm = fx.engine.prefix_map
snap = fx.engine.terminology.compute_closure()
for a, b in [
    ("pato:weight", "ncit:weight"),
    ("obi:weight-assay", "oboe:weight-observation"),
    ("unit:gram", "unit:mass-unit"),
    ("unit:mass-unit", "unit:gram"),
    ("ex:apple", "obo:material-entity"),
    ("ex:apple", "unit:gram"),
]:
    ga, gb = pm.gupri(a), pm.gupri(b)
    print(documents.render_line(documents.verdict_to_doc(ga, gb, snap.interop_level(ga, gb), pm)))
    print(documents.render_line([documents.mapping_to_doc(m, pm) for m in snap.explain_path(ga, gb)]))
with tempfile.TemporaryDirectory() as tmp:
    root = str(Path(tmp) / "store")
    export_store(fx.engine, root)
    instance = Path(tmp) / "instance.json"
    instance.write_text(documents.render(documents.instance_to_doc(fx.instance, pm)))
    for argv in (
        ["closure"],
        ["transform", str(instance), "ex:weight-crosswalk"],
        ["assess", "ex:fdo-apple-weight"],
        ["find", "--term", "ncit:weight", "--expand", "referential"],
        ["ops", "applicable", "obi:weight-schema", "--reachable"],
        ["plan", "obi:weight-schema", "oboe:weight-schema"],
        ["plan", "--strategy", "hub=obi:weight-schema", "oboe:weight-schema"],
    ):
        assert main(["--store", root, *argv]) == 0, argv
"""


def test_outputs_identical_across_hash_seeds():
    # set iteration order follows PYTHONHASHSEED; no answer may
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", DETERMINISM_SCRIPT], env=env, capture_output=True, check=True, timeout=120
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") > 50


def test_readme_quick_tour_runs_as_printed(tmp_path):
    # the shell block under "Quick tour", run verbatim with `python -m
    # semint.cli` as `semint`; each run of `# ` lines is the output of the
    # command just above it
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Quick tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    script = ['semint() { "$PYTHON" -m semint.cli "$@"; }', "set -e"]
    expected: list[list[str]] = []
    for line, after in zip(tour, tour[1:] + [""]):
        if line.startswith("# "):
            expected[-1].append(line[2:])
        elif after.startswith("# "):
            expected.append([])
            script += ["echo '@@ start'", line, "echo '@@ end'"]
        else:
            script.append(line)
    assert expected, "the tour shows no output"
    done = subprocess.run(
        ["bash", "-c", "\n".join(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHON": sys.executable, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        check=True,
        text=True,
        timeout=120,
    )
    shown: list[list[str]] = []
    inside = False
    for line in done.stdout.splitlines():
        if line == "@@ start":
            inside = True
            shown.append([])
        elif line == "@@ end":
            inside = False
        elif inside:
            shown[-1].append(line)
    assert shown == expected
