from __future__ import annotations

from dataclasses import replace

import pytest

from semint import Crosswalk, FdoRecord, SlotAlignment, StatementCategory, export_store, load_store
from semint.documents import assessment_to_doc, fdo_from_doc, fdo_to_doc, render
from semint.errors import ConflictingFdo, MalformedContent, UnknownFdo
from semint.fdo import CHECK_IDS, CheckStatus

from conftest import WeightFixture, build_weight_fixture


def report_by_check(report):
    return {c.check_id: c.status for c in report.checks}


def golden_report(fx: WeightFixture):
    return fx.engine.fdos.assess_fdo(fx.golden.gupri)


# Twelve single-field deletions and the exact checks they must flip; the first
# eight strip record metadata, the last four strip supporting registry content.
MUTANTS: list[tuple[str, dict, set[str]]] = [
    ("drop-data-identifier", {"record": {"data_identifier": None}}, {"F3"}),
    ("drop-category", {"record": {"category": None}}, {"F7"}),
    ("drop-logical-framework", {"record": {"logical_framework": None}}, {"I5"}),
    ("drop-license", {"record": {"license": None}}, {"R1.1"}),
    ("drop-creator", {"record": {"creator": None}}, {"R1.2"}),
    ("drop-authors", {"record": {"authors": ()}}, {"R1.2"}),
    ("drop-certainty", {"record": {"certainty": None}}, {"R1.4"}),
    ("drop-schema-ref", {"record": {"schema_ref": None}}, {"F6.1"}),
    ("drop-term-definition", {"fixture": {"quality_definition": False}}, {"I4"}),
    ("drop-term-multilingual", {"fixture": {"quality_multilingual": False}}, {"F5.2"}),
    ("drop-term-synonyms", {"fixture": {"quality_synonyms": False}}, {"F5.2"}),
    ("drop-crosswalk", {"fixture": {"crosswalk": False}}, {"F6.2"}),
]


def assess_mutant(spec: dict):
    fx = build_weight_fixture(register_golden=False, **spec.get("fixture", {}))
    record = replace(fx.golden, **spec.get("record", {}))
    return fx.engine.fdos.assess_record(record)


# ---------------------------------------------------------------------------
# registration


def test_register_golden_record(weight):
    stored = weight.engine.fdos.record(weight.golden.gupri)
    assert stored.category is StatementCategory.ASSERTIONAL


def test_register_idempotent(weight):
    before = len(weight.engine.fdos.records())
    weight.engine.fdos.register_fdo(weight.golden)
    assert len(weight.engine.fdos.records()) == before


def test_register_conflicting(weight):
    changed = replace(weight.golden, creator="someone-else")
    with pytest.raises(ConflictingFdo):
        weight.engine.fdos.register_fdo(changed)


def test_bad_category_rejected_at_parse(weight):
    doc = fdo_to_doc(weight.golden, weight.engine.prefix_map)
    doc["category"] = "hypothetical"
    with pytest.raises(MalformedContent):
        fdo_from_doc(doc, weight.engine.prefix_map)


def test_bad_certainty_rejected_at_parse(weight):
    doc = fdo_to_doc(weight.golden, weight.engine.prefix_map)
    doc["certainty"] = "sort-of-sure"
    with pytest.raises(MalformedContent):
        fdo_from_doc(doc, weight.engine.prefix_map)


def test_empty_collection_rejected(weight):
    record = replace(weight.golden, gupri=weight.engine.prefix_map.gupri("ex:fdo-empty"), content=())
    with pytest.raises(MalformedContent):
        weight.engine.fdos.register_fdo(record)


def test_unknown_fdo(weight):
    with pytest.raises(UnknownFdo):
        weight.engine.fdos.assess_fdo("ex:fdo-ghost")


# ---------------------------------------------------------------------------
# golden assessment


def test_golden_scores_one(weight):
    report = golden_report(weight)
    assert report.score == 1.0
    assert report.passed == report.applicable == 12
    statuses = report_by_check(report)
    for check_id in ("F1", "F3", "F5.1", "F5.2", "F6.1", "F6.2", "F7", "I4", "I5", "R1.1", "R1.2", "R1.4"):
        assert statuses[check_id] is CheckStatus.PASS, check_id


def test_out_of_scope_checks_not_applicable(weight):
    report = golden_report(weight)
    statuses = report_by_check(report)
    for check_id in ("F2", "F4", "A1.1", "A1.2", "A1.3", "A2", "I1", "I2", "I3", "R1.3"):
        assert statuses[check_id] is CheckStatus.NOT_APPLICABLE, check_id
    details = {c.check_id: c.detail for c in report.checks}
    assert details["A1.1"] == "protocol/registry-level; out of scope"


def test_report_covers_full_checklist(weight):
    report = golden_report(weight)
    assert tuple(c.check_id for c in report.checks) == CHECK_IDS


def test_assessment_reports_byte_identical(weight):
    pm = weight.engine.prefix_map
    first = render(assessment_to_doc(golden_report(weight), pm))
    second = render(assessment_to_doc(golden_report(weight), pm))
    assert first == second


# ---------------------------------------------------------------------------
# mutation sensitivity


@pytest.mark.parametrize("name,spec,flipped", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_single_field_deletion_flips_documented_checks(name, spec, flipped):
    baseline = build_weight_fixture(register_golden=False)
    base_statuses = report_by_check(baseline.engine.fdos.assess_record(baseline.golden))
    mutated = report_by_check(assess_mutant(spec))
    changed = {
        check_id
        for check_id in CHECK_IDS
        if base_statuses[check_id] is not mutated[check_id]
    }
    assert changed == flipped
    for check_id in flipped:
        assert mutated[check_id] is CheckStatus.FAIL


def test_schema_ref_removal_keeps_everything_else(weight):
    mutated = weight.engine.fdos.assess_record(replace(weight.golden, schema_ref=None))
    statuses = report_by_check(mutated)
    assert statuses["F6.1"] is CheckStatus.FAIL
    assert mutated.score == pytest.approx(11 / 12)


def test_field_addition_never_lowers_score(weight):
    engine = weight.engine
    stripped = replace(weight.golden, license=None, certainty=None)
    low = engine.fdos.assess_record(stripped).score
    mid = engine.fdos.assess_record(replace(stripped, license="CC0-1.0")).score
    high = engine.fdos.assess_record(weight.golden).score
    assert low <= mid <= high


# ---------------------------------------------------------------------------
# content kinds


def test_term_ref_record(weight):
    engine = weight.engine
    pm = engine.prefix_map
    record = FdoRecord(
        gupri=pm.gupri("ex:fdo-term"),
        content=pm.gupri("pato:weight"),
        creator="steward-01",
        authors=("Curation Team",),
        category=StatementCategory.LEXICAL,
        certainty=weight.golden.certainty,
        license="CC-BY-4.0",
        data_identifier=pm.gupri("ex:dataset-1"),
    )
    engine.fdos.register_fdo(record)
    statuses = report_by_check(engine.fdos.assess_fdo("ex:fdo-term"))
    assert statuses["F6.1"] is CheckStatus.NOT_APPLICABLE
    assert statuses["F6.2"] is CheckStatus.NOT_APPLICABLE
    assert statuses["F5.1"] is CheckStatus.PASS
    assert statuses["I5"] is CheckStatus.FAIL  # no logical framework declared


def test_collection_record(weight):
    engine = weight.engine
    pm = engine.prefix_map
    record = replace(
        weight.golden,
        gupri=pm.gupri("ex:fdo-collection"),
        content=(weight.instance, weight.instance),
        schema_ref=(weight.obi_schema,),
    )
    engine.fdos.register_fdo(record)
    report = engine.fdos.assess_fdo("ex:fdo-collection")
    assert report_by_check(report)["F6.1"] is CheckStatus.PASS
    assert report.score == 1.0


# ---------------------------------------------------------------------------
# collection aggregation


def test_assess_collection_identical_inputs(weight):
    agg = weight.engine.fdos.assess_collection([weight.golden.gupri, weight.golden.gupri])
    assert agg.mean_score == 1.0
    rows = {row[0]: row for row in agg.per_check}
    assert rows["F3"] == ("F3", 2, 0, 0)
    assert rows["F2"] == ("F2", 0, 0, 2)


def test_assess_collection_empty(weight):
    agg = weight.engine.fdos.assess_collection([])
    assert agg.mean_score == 0.0
    assert all(row[1:] == (0, 0, 0) for row in agg.per_check)


def test_assess_collection_midpoint(weight):
    engine = weight.engine
    pm = engine.prefix_map
    mutant = replace(weight.golden, gupri=pm.gupri("ex:fdo-stripped"), schema_ref=None)
    engine.fdos.register_fdo(mutant)
    golden_score = engine.fdos.assess_fdo(weight.golden.gupri).score
    mutant_score = engine.fdos.assess_fdo("ex:fdo-stripped").score
    agg = engine.fdos.assess_collection([weight.golden.gupri, pm.gupri("ex:fdo-stripped")])
    assert agg.mean_score == pytest.approx((golden_score + mutant_score) / 2)


def test_duplicate_groups_and_f6_2_follow_writes(tmp_path):
    # each value is read before a write and after it, so a value derived from
    # the records before the write and served after it would differ from a
    # fresh load of the same store
    fx = build_weight_fixture()
    engine, pm = fx.engine, fx.engine.prefix_map

    def state(e):
        f6_2 = next(c for c in e.fdos.assess_fdo(fx.golden.gupri).checks if c.check_id == "F6.2")
        return e.schemas.detect_schema_duplicates(e.crosswalks), (f6_2.status, f6_2.detail)

    def follows(step: str):
        export_store(engine, tmp_path / step)
        current = state(engine)
        assert current == state(load_store(tmp_path / step)), step
        groups, (status, _) = current
        return [(len(g.schema_ids), g.crosswalk_covered) for g in groups], status

    assert follows("start") == ([(2, True)], CheckStatus.PASS)
    obi = engine.schemas.schema(fx.obi_schema)
    copy = engine.schemas.register_schema(replace(obi, id=pm.gupri("ex:weight-schema-copy")))
    assert follows("duplicate") == ([(3, False)], CheckStatus.FAIL)
    engine.crosswalks.register_crosswalk(
        Crosswalk(
            id=pm.gupri("ex:copy-to-obi"),
            source_schema=copy,
            target_schema=fx.obi_schema,
            alignments=tuple(SlotAlignment(s.slot_id, s.slot_id) for s in obi.slots),
        )
    )
    assert follows("covered") == ([(3, True)], CheckStatus.PASS)
    engine.schemas.register_schema(
        replace(obi, id=pm.gupri("ex:mass-schema"), statement_type=pm.gupri("ex:mass-assay"))
    )
    assert follows("other-type") == ([(3, True)], CheckStatus.PASS)
    engine.terminology.import_mappings_tsv(
        "subject_id\tpredicate_id\tobject_id\nex:mass-assay\towl:equivalentClass\tobi:weight-assay\n"
    )
    assert follows("merged") == ([(4, False)], CheckStatus.FAIL)
