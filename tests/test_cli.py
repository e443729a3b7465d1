from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semint import export_store, load_store
from semint.cli import main
from semint.documents import instance_to_doc, render, schema_from_doc, term_from_doc
from semint.errors import MalformedContent, ParseFailure

from conftest import build_weight_fixture
from test_store import populated_fixture


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
