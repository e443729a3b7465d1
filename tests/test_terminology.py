from __future__ import annotations

import dataclasses
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from semint import (
    Crosswalk,
    EntityMapping,
    Gupri,
    InteropLevel,
    MappingPredicate,
    SchemaRegistry,
    SlotAlignment,
    TermRecord,
    graph,
    identity_crosswalk,
)
from semint.errors import (
    ConflictingTermRecord,
    InvalidGupri,
    MalformedContent,
    MalformedRecord,
    MissingRequiredColumn,
    UnknownPredicate,
    UnknownTerm,
)
from semint.store import ExpandMode, FindQuery, find
from semint.terminology import (
    _LOOSE,
    _REFERENTIAL_GRADE,
    _SUBCLASS,
    _SUBPROPERTY,
    NOOP_MAPPING_ID,
    ImportReport,
    TerminologyRegistry,
)

from conftest import add_mapping, make_engine, term
from oracles import (
    all_shortest_paths,
    explain_path_scan,
    import_mappings_tsv_by_row,
    level_rule_breaks,
    oracle_closures,
    oracle_ladder,
    random_mapping_set,
)


# ---------------------------------------------------------------------------
# term registration


def test_register_term_returns_canonical_id(engine):
    gid = term(engine, "pato:weight")
    assert gid.canonical == "http://example.org/pato/weight"
    assert engine.terminology.term("pato:weight").id == gid


def test_register_term_empty_id_rejected():
    with pytest.raises(InvalidGupri):
        Gupri("")


def test_register_term_idempotent(engine):
    term(engine, "pato:weight")
    before = len(engine.terminology.terms())
    term(engine, "pato:weight")
    assert len(engine.terminology.terms()) == before


def test_register_term_conflict(engine):
    term(engine, "pato:weight")
    with pytest.raises(ConflictingTermRecord):
        term(engine, "pato:weight", definition="something else entirely")


def test_register_term_unregistered_prefix_rejected(engine):
    with pytest.raises(InvalidGupri):
        engine.prefix_map.gupri("nope:thing")


def test_language_tags_normalized_and_validated(engine):
    gid = term(engine, "ex:thing", labels={"EN": "thing", "de": "Ding"})
    assert set(engine.terminology.term(gid).labels) == {"en", "de"}
    with pytest.raises(MalformedRecord):
        TermRecord(id=Gupri("urn:x:1"), labels={"Not A Tag": "x"})
    # two tags that differ only in case would keep one of the two labels
    with pytest.raises(MalformedRecord, match="language tag 'en' given twice on urn:x:1"):
        TermRecord(id=Gupri("urn:x:1"), labels={"EN": "one", "en": "two"})


def test_synonyms_deduplicated():
    record = TermRecord(id=Gupri("urn:x:1"), labels={"en": "x"}, synonyms=("a", "b", "a"))
    assert record.synonyms == ("a", "b")


def test_unknown_term_lookup(engine):
    with pytest.raises(UnknownTerm):
        engine.terminology.term("ex:ghost")


# ---------------------------------------------------------------------------
# mapping registration


def test_add_mapping_stores_edge(engine):
    mid = add_mapping(engine, "ex:a", MappingPredicate.EXACT_MATCH, "ex:b")
    assert mid != NOOP_MAPPING_ID
    assert len(engine.terminology.mappings()) == 1


def test_ontological_versus_referential_grade(engine):
    # UBERON:0000468 vs OCIMIDO:00467 style: exact match joins both closures;
    # UBERON:0000468 vs CARO:0000012 style: equivalent class joins only the
    # referential one.
    add_mapping(engine, "ex:multicellular-a", MappingPredicate.EXACT_MATCH, "ex:multicellular-b")
    add_mapping(engine, "ex:multicellular-a", MappingPredicate.EQUIVALENT_CLASS, "ex:multicellular-c")
    ont = engine.terminology.equivalence_class("ex:multicellular-a", InteropLevel.ONTOLOGICAL)
    ref = engine.terminology.equivalence_class("ex:multicellular-a", InteropLevel.REFERENTIAL)
    assert {str(g) for g in ont} == {
        "http://example.org/things/multicellular-a",
        "http://example.org/things/multicellular-b",
    }
    assert len(ref) == 3


def test_self_mapping_is_noop(engine):
    mid = add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:a")
    assert mid == NOOP_MAPPING_ID
    assert engine.terminology.mappings() == []


def test_identical_mapping_added_once(engine):
    first = add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b")
    second = add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b")
    assert first == second
    assert len(engine.terminology.mappings()) == 1


def test_narrow_match_normalized_to_broad(engine):
    add_mapping(engine, "ex:fruit", MappingPredicate.NARROW_MATCH, "ex:apple")
    (stored,) = engine.terminology.mappings()
    assert stored.predicate is MappingPredicate.BROAD_MATCH
    assert str(stored.subject).endswith("apple")
    assert str(stored.object).endswith("fruit")


def test_predicate_flags_match_relation_table():
    flags = {
        MappingPredicate.SAME_AS: (True, True, True),
        MappingPredicate.EXACT_MATCH: (True, True, True),
        MappingPredicate.EQUIVALENT_CLASS: (True, True, True),
        MappingPredicate.REFERENTIAL_MATCH: (True, True, True),
        MappingPredicate.EQUIVALENT_PROPERTY: (True, True, True),
        MappingPredicate.SUB_CLASS_OF: (True, False, True),
        MappingPredicate.SUB_PROPERTY_OF: (True, False, True),
        MappingPredicate.CLOSE_MATCH: (False, True, False),
        MappingPredicate.RELATED_MATCH: (False, True, False),
        MappingPredicate.BROAD_MATCH: (False, False, False),
        MappingPredicate.NARROW_MATCH: (False, False, False),
    }
    for predicate, (transitive, symmetric, actionable) in flags.items():
        assert predicate.transitive is transitive, predicate
        assert predicate.symmetric is symmetric, predicate
        assert predicate.machine_actionable is actionable, predicate


def test_unknown_predicate_curie():
    with pytest.raises(UnknownPredicate):
        MappingPredicate.from_curie("owl:disjointWith")


def test_confidence_range_enforced(engine):
    # a bool or a non-number is rejected too: no exported row could reload it
    a, b = engine.prefix_map.gupri("ex:a"), engine.prefix_map.gupri("ex:b")
    for confidence in (1.5, -0.5, 2, 10**400, float("nan"), True, False, "0.5", None):
        with pytest.raises(MalformedRecord):
            EntityMapping.create(a, MappingPredicate.SAME_AS, b, confidence=confidence)


#: mapping ids as derived before the batch load was made cheaper, for the
#: same fields given to add_mapping and as a TSV row; an id digests the stored
#: orientation and every field, the confidence as the repr of its float
_GOLDEN_IDS = [
    # subject, predicate, object, justification, confidence, its TSV cell, author, comment, id
    ("ex:a", MappingPredicate.SAME_AS, "ex:b", "unspecified", 1, "1", None, None, "m-9729e4322638"),
    ("ex:a", MappingPredicate.SAME_AS, "ex:b", "unspecified", 1.0, "+1", None, None, "m-9729e4322638"),
    ("ex:a", MappingPredicate.SAME_AS, "ex:b", "unspecified", 0.5, "0.5", None, None, "m-5af3e67cac48"),
    ("ex:a", MappingPredicate.SAME_AS, "ex:b", "unspecified", -0.0, "-0.0", None, None, "m-0074b9c3411b"),
    ("ex:a", MappingPredicate.SAME_AS, "ex:b", "unspecified", 1e-400, "1e-400", None, None, "m-e21fbcb54b9a"),
    ("ex:a", MappingPredicate.CLOSE_MATCH, "ex:b", "manual-curation", 0.9, "0.9", "orcid:1", "checked", "m-7f781a623848"),
    ("ex:c", MappingPredicate.NARROW_MATCH, "ex:d", "unspecified", 1.0, "", None, None, "m-023325a1b15f"),
    ("ex:d", MappingPredicate.BROAD_MATCH, "ex:c", "unspecified", 1.0, "", None, None, "m-023325a1b15f"),
]


@pytest.mark.parametrize("case", _GOLDEN_IDS, ids=lambda case: f"{case[1].curie}-{case[5] or 'none'}-{case[8]}")
def test_mapping_ids_are_pinned(case):
    subject, predicate, object_, justification, confidence, cell, author, comment, expected = case
    added = make_engine()
    mapping_id = add_mapping(
        added, subject, predicate, object_, justification=justification, confidence=confidence, author=author, comment=comment
    )
    assert mapping_id == expected
    imported = make_engine()
    row = [subject, predicate.curie, object_, justification, cell, comment or "", author or ""]
    report = imported.terminology.import_mappings_tsv(f"{TSV_HEADER}\n" + "\t".join(row) + "\n")
    assert report == ImportReport(accepted=1)
    assert imported.terminology.mapping_rows() == added.terminology.mapping_rows()
    (stored,) = added.terminology.mapping_rows()
    assert stored.id == expected
    assert stored.predicate is not MappingPredicate.NARROW_MATCH
    assert repr(stored.confidence) == repr(float(confidence))


def test_text_utf8_cannot_encode_is_malformed(engine):
    # no store file could hold a lone surrogate, so no record takes one
    pm = engine.prefix_map
    bad = "bad\ud800"
    for id, fields in (
        ("ex:a", {"labels": {"en": bad}}),
        ("ex:a", {"labels": {}, "definition": bad}),
        ("ex:a", {"labels": {}, "synonyms": ("ok", bad)}),
    ):
        with pytest.raises(MalformedRecord, match="not UTF-8 text") as raised:
            TermRecord(id=pm.gupri(id), **fields)
        str(raised.value).encode("utf-8")  # the message itself can be reported
    # nor does any identifier, so no record can hold one as its id or an end
    for make in (lambda: pm.gupri("ex:a" + bad), lambda: Gupri("http://example.org/" + bad)):
        with pytest.raises(InvalidGupri, match="not UTF-8 text") as raised:
            make()
        str(raised.value).encode("utf-8")
    a, b = pm.gupri("ex:a"), pm.gupri("ex:b")
    for fields in ({"justification": bad}, {"author": bad}, {"comment": bad}):
        with pytest.raises(MalformedRecord, match="not UTF-8 text"):
            EntityMapping.create(a, MappingPredicate.SAME_AS, b, **fields)
    with pytest.raises(MalformedRecord, match="not UTF-8 text"):
        add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b", justification=bad)
    # a str handed to the import rejects the row with the same reason
    rows = [f"ex:a\towl:sameAs\tex:b\t{bad}\t\t\t", "ex:a\towl:sameAs\tex:c\t\t\t\t"]
    report = engine.terminology.import_mappings_tsv(TSV_HEADER + "\n" + "\n".join(rows) + "\n")
    assert report.accepted == 1
    ((line, reason),) = [(r.line, r.reason) for r in report.rejected]
    assert line == 2 and "not UTF-8 text" in reason
    assert [m.object.canonical for m in engine.terminology.mapping_rows()] == ["http://example.org/things/c"]
    assert engine.terminology.terms() == []


# ---------------------------------------------------------------------------
# TSV import


TSV_HEADER = "subject_id\tpredicate_id\tobject_id\tmapping_justification\tconfidence\tcomment\tauthor_id"


def test_import_tsv_single_row(engine):
    data = f"{TSV_HEADER}\nex:a\towl:sameAs\tex:b\tlexical-matching\t0.9\t\t\n"
    report = engine.terminology.import_mappings_tsv(data)
    assert report.accepted == 1
    assert report.rejected == ()
    (stored,) = engine.terminology.mappings()
    assert stored.confidence == 0.9
    assert stored.justification == "lexical-matching"


def test_import_tsv_missing_required_column(engine):
    data = "subject_id\tobject_id\nex:a\tex:b\n"
    with pytest.raises(MissingRequiredColumn):
        engine.terminology.import_mappings_tsv(data)


def test_import_tsv_bytes_not_utf8_is_tagged(engine):
    data = b"subject_id\tpredicate_id\tobject_id\n\xff\n"
    with pytest.raises(MalformedContent) as err:
        engine.terminology.import_mappings_tsv(data)
    assert err.value.tag == "malformed-content"
    assert str(err.value) == "line 2: not UTF-8: invalid start byte at byte 34"
    assert engine.terminology.mappings() == []


def test_import_tsv_malformed_row_reported_others_ingested(engine):
    rows = [
        "subject_id\tpredicate_id\tobject_id",
        "ex:a\towl:sameAs\tex:b",
        "ex:c\towl:sameAs",  # two fields
        "ex:d\tskos:exactMatch\tex:e",
    ]
    report = engine.terminology.import_mappings_tsv("\n".join(rows) + "\n")
    assert report.accepted == 2
    assert [r.line for r in report.rejected] == [3]
    assert len(engine.terminology.mappings()) == 2


def test_import_tsv_skips_metadata_comments(engine):
    data = (
        "# mapping_set_id: ex:set-1\n"
        "# license: CC0\n"
        f"{TSV_HEADER}\n"
        "ex:a\towl:sameAs\tex:b\t\t\t\t\n"
    )
    report = engine.terminology.import_mappings_tsv(data)
    assert report.accepted == 1


def test_import_tsv_bad_predicate_rejected_per_line(engine):
    data = "subject_id\tpredicate_id\tobject_id\nex:a\towl:nonsense\tex:b\n"
    report = engine.terminology.import_mappings_tsv(data)
    assert report.accepted == 0
    assert report.rejected[0].line == 2


def test_import_tsv_table1_direction_flips_hierarchy(engine):
    data = "subject_id\tpredicate_id\tobject_id\nex:parent\trdfs:subClassOf\tex:child\n"
    engine.terminology.import_mappings_tsv(data, table1_direction=True)
    (stored,) = engine.terminology.mappings()
    assert str(stored.subject).endswith("child")
    assert str(stored.object).endswith("parent")


def test_import_tsv_builds_each_mapping_once(engine, monkeypatch):
    rows = [
        "subject_id\tpredicate_id\tobject_id\tconfidence",
        "ex:a\towl:sameAs\tex:b\t0.9",
        "ex:c\tskos:narrowMatch\tex:d\t",
        "ex:parent\trdfs:subClassOf\tex:child\t",
    ]
    create = EntityMapping.create.__func__
    built = []

    def counting_create(cls, *args, **kwargs):
        built.append(args)
        return create(cls, *args, **kwargs)

    monkeypatch.setattr(EntityMapping, "create", classmethod(counting_create))
    report = engine.terminology.import_mappings_tsv("\n".join(rows) + "\n", table1_direction=True)
    assert report.accepted == len(built) == 3
    monkeypatch.undo()
    # the one build already has the stored orientation, so the ids are those add_mapping gives
    expected = make_engine()
    add_mapping(expected, "ex:a", MappingPredicate.SAME_AS, "ex:b", confidence=0.9)
    add_mapping(expected, "ex:c", MappingPredicate.NARROW_MATCH, "ex:d")
    add_mapping(expected, "ex:child", MappingPredicate.SUB_CLASS_OF, "ex:parent")
    assert engine.terminology.mappings() == expected.terminology.mappings()


def test_import_tsv_ignores_unknown_columns(engine):
    rows = [
        "subject_id\tsubject_label\tpredicate_id\tobject_id\tobject_label\tmapping_tool",
        "ex:a\tthing a\towl:sameAs\tex:b\tthing b\tlexmatch",
    ]
    report = engine.terminology.import_mappings_tsv("\n".join(rows) + "\n")
    assert report.accepted == 1
    (stored,) = engine.terminology.mappings()
    assert stored.justification == "unspecified"


def test_import_tsv_utf8_bytes(engine):
    data = f"{TSV_HEADER}\nex:a\towl:sameAs\tex:b\tmanuelle-Kuratierung-ä\t\t\t\n".encode()
    assert engine.terminology.import_mappings_tsv(data).accepted == 1


#: the cells a generated TSV column draws from: good, equal in another
#: spelling, bad and empty values; ex:a is http://example.org/things/a
_TSV_CELLS = {
    "subject_id": ["ex:a", " ex:b ", "ex:c", "http://example.org/things/a", "nope:x", "", "ex a"],
    "object_id": ["ex:a", "ex:b", "obi:c", "http://example.org/things/b", "nope:y", ""],
    "predicate_id": [p.curie for p in MappingPredicate] + ["skos:nearMatch", " owl:sameAs ", ""],
    "confidence": ["", "1", "0.5", " 0.25 ", "0", "-0.0", "1e-400", "+1", "1_0", "nan", "inf", "-inf", "1.5", "-0.1", "1e400", "high"],
    "mapping_justification": ["", "manual-curation", " lexical "],
    "comment": ["", "checked"],
    "author_id": ["", "orcid:1"],
    "subject_label": ["", "a thing"],
    "mapping_tool": ["lexmatch"],
}
_TSV_SKIPPED = ["", "  ", "\t", "# mapping_set_id: ex:set", "  # indented comment", "#"]


@st.composite
def mapping_tsv(draw) -> str:
    """A mapping file over a few terms: the required columns in any order,
    optional and unknown ones, any of them repeated, now and then a required
    one left out; rows of good and bad cells, rows of the wrong width, and
    comment and blank lines before and among them."""
    extra = draw(st.lists(st.sampled_from(sorted(_TSV_CELLS)), max_size=5))
    header = draw(st.permutations(list(TerminologyRegistry.REQUIRED_COLUMNS) + extra))
    if draw(st.integers(0, 24)) == 0:
        header = header[1:]
    row = st.tuples(*(st.sampled_from(_TSV_CELLS[name]) for name in header)).map(list)
    line = st.one_of(
        row,
        row,
        row.map(lambda cells: cells[:-1]),
        row.map(lambda cells: cells + ["extra"]),
        st.sampled_from(_TSV_SKIPPED).map(lambda text: [text]),
    )
    lines = draw(st.lists(st.sampled_from(_TSV_SKIPPED), max_size=2)) + ["\t".join(header)]
    lines += ["\t".join(cells) for cells in draw(st.lists(line, max_size=14))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


_TSV_EVERY_CASE = "\n".join(
    [
        "# a repeated column reads its last field, an unknown one is ignored",
        "subject_id\tpredicate_id\tobject_id\tconfidence\tsubject_id\tmapping_tool",
        "ex:z\towl:sameAs\tex:b\t0.5\tex:a\tlexmatch",
        "ex:z\towl:sameAs\tex:b\t0.5\tex:a\tlexmatch",
        "",
        "   ",
        "ex:z\tskos:narrowMatch\tex:c\t\tex:a\t",
        "ex:z\trdfs:subClassOf\tex:c\t\tex:b\t",
        "ex:z\towl:sameAs\tex:a\t\thttp://example.org/things/a\t",
        "ex:z\towl:sameAs\tex:a\tnan\tex:a\t",
        "ex:z\tskos:nearMatch\tex:a\t\tex:b\t",
        "ex:z\towl:sameAs\tnope:q\t\tex:b\t",
        "ex:z\towl:sameAs\tex:c\tinf\tex:b\t",
        "ex:z\towl:sameAs\tex:c\t1.5\tex:b\t",
        "ex:z\towl:sameAs\tex:c\thigh\tex:b\t",
        "ex:a\towl:sameAs",
        "  # an indented comment",
    ]
)


@settings(deadline=None, max_examples=200)
@given(mapping_tsv(), mapping_tsv(), st.booleans())
@example(_TSV_EVERY_CASE, _TSV_EVERY_CASE.replace("0.5", "0.7"), True)
@example(_TSV_EVERY_CASE, "# no header\n\n", False)
def test_batch_import_equals_the_row_at_a_time_import(first, second, table1_direction):
    # the second import meets the rows the first one stored
    batch, by_row = make_engine().terminology, make_engine().terminology
    for text in (first, second):
        outcomes = []
        for registry, load in ((batch, TerminologyRegistry.import_mappings_tsv), (by_row, import_mappings_tsv_by_row)):
            try:
                outcomes.append(load(registry, text, table1_direction=table1_direction))
            except MissingRequiredColumn as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert batch.mapping_rows() == by_row.mapping_rows()


def _tree_tsv(tag: str, count: int) -> str:
    """``count`` rows of a tree over ex:n1..., each from a node to its parent."""
    lines = [f"ex:{tag}{i}\trdfs:subClassOf\tex:n{i // 2}" for i in range(1, count + 1)]
    return "subject_id\tpredicate_id\tobject_id\n" + "\n".join(lines) + "\n"


def test_a_reader_sees_an_import_whole_or_not_at_all(engine):
    t = engine.terminology
    t.import_mappings_tsv(_tree_tsv("n", 100))
    before = len(t.mapping_rows())
    seen: set[int] = set()
    started, stop = threading.Barrier(3), threading.Event()

    def reader():
        started.wait(10)
        while not stop.is_set():
            seen.add(len(t.mapping_rows()))
            seen.add(len(t.compute_closure().edges))

    readers = [threading.Thread(target=reader) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in readers:
            r.start()
        started.wait(10)
        t.import_mappings_tsv(_tree_tsv("p", 2000))
    finally:
        stop.set()
        for r in readers:
            r.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(r.is_alive() for r in readers)
    assert seen <= {before, before + 2000}


# ---------------------------------------------------------------------------
# closure


def test_closure_chain_one_ontological_class(engine):
    add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b")
    add_mapping(engine, "ex:b", MappingPredicate.SAME_AS, "ex:c")
    members = engine.terminology.equivalence_class("ex:a", InteropLevel.ONTOLOGICAL)
    assert {str(g).rsplit("/", 1)[1] for g in members} == {"a", "b", "c"}


def test_four_term_chain_single_class(engine):
    add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b")
    add_mapping(engine, "ex:b", MappingPredicate.SAME_AS, "ex:c")
    add_mapping(engine, "ex:c", MappingPredicate.SAME_AS, "ex:d")
    members = engine.terminology.equivalence_class("ex:a", InteropLevel.ONTOLOGICAL)
    assert {str(g).rsplit("/", 1)[1] for g in members} == {"a", "b", "c", "d"}


def test_closure_empty_store(engine):
    snap = engine.terminology.compute_closure()
    assert snap.to_doc()["ontological_classes"] == []
    assert engine.terminology.equivalence_class("ex:lonely", InteropLevel.REFERENTIAL) == {
        engine.prefix_map.gupri("ex:lonely")
    }


def test_venus_referential_but_not_ontological(engine):
    add_mapping(engine, "ex:MorningStar", MappingPredicate.EQUIVALENT_CLASS, "ex:Venus")
    add_mapping(engine, "ex:EveningStar", MappingPredicate.EQUIVALENT_CLASS, "ex:Venus")
    verdict = engine.terminology.interop_level("ex:MorningStar", "ex:EveningStar")
    assert verdict.level is InteropLevel.REFERENTIAL
    assert verdict.level < InteropLevel.ONTOLOGICAL
    ref = engine.terminology.equivalence_class("ex:MorningStar", InteropLevel.REFERENTIAL)
    assert {str(g).rsplit("/", 1)[1] for g in ref} == {"MorningStar", "EveningStar", "Venus"}
    ont = engine.terminology.equivalence_class("ex:MorningStar", InteropLevel.ONTOLOGICAL)
    assert len(ont) == 1


def test_closure_deterministic_byte_identical(engine):
    from semint.documents import render

    add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b")
    add_mapping(engine, "ex:c", MappingPredicate.SUB_CLASS_OF, "ex:a")
    first = render(engine.terminology.compute_closure().to_doc())
    second = render(engine.terminology.compute_closure().to_doc())
    assert first == second


def test_concurrent_reads_during_writes(engine):
    # readers hit immutable snapshots while a writer grows the chain
    import threading

    errors: list[Exception] = []

    def writer():
        try:
            for i in range(60):
                add_mapping(engine, f"ex:c{i}", MappingPredicate.SAME_AS, f"ex:c{i + 1}")
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def reader():
        try:
            for _ in range(60):
                engine.terminology.interop_level("ex:c0", "ex:c5")
                engine.terminology.equivalence_class("ex:c0", InteropLevel.REFERENTIAL)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert engine.terminology.interop_level("ex:c0", "ex:c60").level is InteropLevel.ONTOLOGICAL


def test_no_stale_snapshot_published_during_writes(engine):
    # a reader that builds from the edges before a write must not publish its
    # snapshot after the write: every write is visible to the next read
    import sys
    import threading
    import time

    stop = threading.Event()
    errors: list[Exception] = []
    missed: list[int] = []

    def reader():
        try:
            while not stop.is_set():
                engine.terminology.compute_closure()
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in readers:
            t.start()
        for i in range(300):
            add_mapping(engine, f"ex:r{i}", MappingPredicate.SAME_AS, f"ex:r{i + 1}")
            verdict = engine.terminology.interop_level(f"ex:r{i}", f"ex:r{i + 1}")
            if verdict.level is not InteropLevel.ONTOLOGICAL:
                missed.append(i)
            time.sleep(0.0005)
    finally:
        stop.set()
        for t in readers:
            t.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers)
    assert errors == []
    assert missed == []
    assert engine.terminology.interop_level("ex:r0", "ex:r300").level is InteropLevel.ONTOLOGICAL


@pytest.mark.usefixtures("every_write_updates")
def test_mapping_table_keeps_one_base_snapshot(engine):
    # the last snapshot is the base the next one is derived from: a write
    # keeps it, the next derivation frees it, and a write that would make the
    # log longer than the table frees it at once
    import weakref

    add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b")
    snapshot = weakref.ref(engine.terminology.compute_closure())
    mapping_id = add_mapping(engine, "ex:b", MappingPredicate.SAME_AS, "ex:c")
    assert snapshot() is not None
    engine.terminology.compute_closure()
    assert snapshot() is None
    snapshot = weakref.ref(engine.terminology.compute_closure())
    add_mapping(engine, "ex:b", MappingPredicate.SAME_AS, "ex:c")  # already stored
    assert snapshot() is engine.terminology.compute_closure()
    assert engine.terminology.remove_mapping(mapping_id)  # one write, one row
    assert snapshot() is not None
    assert engine.terminology.remove_mapping(engine.terminology.mappings()[0].id)  # two writes, no row
    assert snapshot() is None
    assert engine.terminology.compute_closure().edges == ()


# ---------------------------------------------------------------------------
# interop levels


def test_interop_identical(engine):
    verdict = engine.terminology.interop_level("ex:a", "ex:a")
    assert verdict.level is InteropLevel.IDENTICAL
    assert verdict.actionable


def test_interop_ontological_via_same_as(engine):
    add_mapping(engine, "pato:weight", MappingPredicate.SAME_AS, "ncit:weight")
    verdict = engine.terminology.interop_level("pato:weight", "ncit:weight")
    assert verdict.level is InteropLevel.ONTOLOGICAL
    assert verdict.actionable


def test_interop_none_for_unrelated(engine):
    verdict = engine.terminology.interop_level("ex:apple", "ex:car")
    assert verdict.level is InteropLevel.NONE
    assert not verdict.actionable


def test_interop_referential_via_equivalent_class(engine):
    add_mapping(engine, "ex:uberon-organism", MappingPredicate.EQUIVALENT_CLASS, "ex:caro-organism")
    verdict = engine.terminology.interop_level("ex:uberon-organism", "ex:caro-organism")
    assert verdict.level is InteropLevel.REFERENTIAL


def test_interop_hierarchical_directions(engine):
    add_mapping(engine, "ex:apple", MappingPredicate.SUB_CLASS_OF, "ex:fruit")
    up = engine.terminology.interop_level("ex:apple", "ex:fruit")
    assert (up.level, up.direction, up.actionable) == (InteropLevel.HIERARCHICAL, "broader", True)
    down = engine.terminology.interop_level("ex:fruit", "ex:apple")
    assert (down.level, down.direction) == (InteropLevel.HIERARCHICAL, "narrower")


def test_interop_hierarchical_via_broadmatch_is_advisory(engine):
    add_mapping(engine, "ex:apple", MappingPredicate.BROAD_MATCH, "ex:fruit")
    verdict = engine.terminology.interop_level("ex:apple", "ex:fruit")
    assert verdict.level is InteropLevel.HIERARCHICAL
    assert not verdict.actionable


def test_interop_associative(engine):
    add_mapping(engine, "ex:sea", MappingPredicate.RELATED_MATCH, "ex:ocean")
    verdict = engine.terminology.interop_level("ex:sea", "ex:ocean")
    assert verdict.level is InteropLevel.ASSOCIATIVE
    assert not verdict.actionable


def test_hierarchy_lifts_over_referential_classes(engine):
    add_mapping(engine, "ex:apple", MappingPredicate.SUB_CLASS_OF, "ex:fruit")
    add_mapping(engine, "ex:fruit", MappingPredicate.EQUIVALENT_CLASS, "ex:frucht")
    verdict = engine.terminology.interop_level("ex:apple", "ex:frucht")
    assert (verdict.level, verdict.direction) == (InteropLevel.HIERARCHICAL, "broader")


@pytest.mark.parametrize("threshold", [True, False, "0.5", float("nan"), 1.5, -0.1, [0.5]])
def test_min_confidence_must_be_a_number_in_unit_interval(engine, threshold):
    # the rule EntityMapping.create applies to a confidence
    add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b")
    with pytest.raises(MalformedContent) as err:
        engine.terminology.compute_closure(threshold)
    assert err.value.tag == "malformed-content"
    with pytest.raises(MalformedContent):
        engine.terminology.interop_level("ex:a", "ex:b", threshold)


def test_min_confidence_filters_edges(engine):
    add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b", confidence=0.4)
    assert engine.terminology.interop_level("ex:a", "ex:b").level is InteropLevel.ONTOLOGICAL
    filtered = engine.terminology.interop_level("ex:a", "ex:b", min_confidence=0.8)
    assert filtered.level is InteropLevel.NONE


# ---------------------------------------------------------------------------
# explain_path


def test_explain_path_direct_edge(engine):
    add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b")
    path = engine.terminology.explain_path("ex:a", "ex:b")
    assert len(path) == 1
    assert path[0].predicate is MappingPredicate.SAME_AS


def test_explain_path_two_hops_in_order(engine):
    add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b")
    add_mapping(engine, "ex:b", MappingPredicate.SAME_AS, "ex:c")
    path = engine.terminology.explain_path("ex:a", "ex:c")
    assert len(path) == 2
    assert {str(path[0].subject), str(path[0].object)} == {
        "http://example.org/things/a",
        "http://example.org/things/b",
    }


def test_explain_path_empty_for_unrelated(engine):
    assert engine.terminology.explain_path("ex:a", "ex:zzz") == []


def test_explain_path_empty_for_identical(engine):
    assert engine.terminology.explain_path("ex:a", "ex:a") == []


def test_explain_path_lexicographic_tie_break(engine):
    # two shortest routes a - (m|n) - z; the m route is lexicographically first
    add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:n")
    add_mapping(engine, "ex:n", MappingPredicate.SAME_AS, "ex:z")
    add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:m")
    add_mapping(engine, "ex:m", MappingPredicate.SAME_AS, "ex:z")
    path = engine.terminology.explain_path("ex:a", "ex:z")
    middle = {str(path[0].subject), str(path[0].object)} - {"http://example.org/things/a"}
    assert middle == {"http://example.org/things/m"}


def test_explain_path_matches_bfs_oracle(engine):
    rng = random.Random(7)
    names = [f"ex:n{i}" for i in range(8)]
    adjacency: dict[str, set[str]] = {}
    pm = engine.prefix_map
    for _ in range(12):
        a, b = rng.sample(names, 2)
        add_mapping(engine, a, MappingPredicate.SAME_AS, b)
        ca, cb = pm.canonicalize(a), pm.canonicalize(b)
        adjacency.setdefault(ca, set()).add(cb)
        adjacency.setdefault(cb, set()).add(ca)
    start, goal = pm.canonicalize("ex:n0"), pm.canonicalize("ex:n5")
    expected = all_shortest_paths(adjacency, start, goal)
    path = engine.terminology.explain_path("ex:n0", "ex:n5")
    if not expected:
        assert path == []
    else:
        assert len(path) == len(expected[0]) - 1
        walked = [start]
        for edge in path:
            nxt = edge.object if str(edge.subject) == walked[-1] else edge.subject
            walked.append(str(nxt))
        assert walked == min(expected)


def test_explain_path_walks_only_the_relation_of_the_verdict(engine):
    # a < y < z < b by subClassOf gives the actionable verdict; the shorter
    # a < x by subClassOf, x < b by subPropertyOf on its own is only advisory
    add_mapping(engine, "ex:a", MappingPredicate.SUB_CLASS_OF, "ex:x")
    add_mapping(engine, "ex:x", MappingPredicate.SUB_PROPERTY_OF, "ex:b")
    chain = [("ex:a", "ex:y"), ("ex:y", "ex:z"), ("ex:z", "ex:b")]
    for lower, upper in chain:
        add_mapping(engine, lower, MappingPredicate.SUB_CLASS_OF, upper)
    pm = engine.prefix_map
    expected = [(pm.canonicalize(lower), "rdfs:subClassOf", pm.canonicalize(upper)) for lower, upper in chain]
    for a, b, direction, steps in (("ex:a", "ex:b", "broader", expected), ("ex:b", "ex:a", "narrower", expected[::-1])):
        verdict = engine.terminology.interop_level(a, b)
        assert (verdict.level, verdict.direction, verdict.actionable) == (InteropLevel.HIERARCHICAL, direction, True)
        path = engine.terminology.explain_path(a, b)
        assert [(m.subject.canonical, m.predicate.curie, m.object.canonical) for m in path] == steps


@settings(deadline=None, max_examples=150)
@given(st.randoms(use_true_random=False), st.sampled_from([None, 0.5]))
def test_explain_path_edges_alone_give_the_verdict(rng, threshold):
    engine = make_engine()
    nodes, mappings = random_mapping_set(rng, engine.prefix_map)
    for m in mappings:
        engine.terminology.add_mapping(m)
    kept = [m for m in mappings if threshold is None or m.confidence >= threshold]
    verdicts, _ = oracle_ladder(nodes, kept)
    snap = engine.terminology.compute_closure(threshold)
    for (a, b), expected in verdicts.items():
        path = snap.explain_path(Gupri(a), Gupri(b))
        ends = {a, b} | {m.subject.canonical for m in path} | {m.object.canonical for m in path}
        alone, _ = oracle_ladder(sorted(ends), path)
        assert alone[a, b] == expected, (a, b, path)


_PATH_TERMS = [f"ex:p{i}" for i in range(6)]
_HIERARCHY_PREDICATES = [
    MappingPredicate.SUB_CLASS_OF,
    MappingPredicate.SUB_PROPERTY_OF,
    MappingPredicate.BROAD_MATCH,
    MappingPredicate.NARROW_MATCH,
]


@st.composite
def path_mapping_rows(draw):
    """Mapping rows over six terms: any predicate, narrowMatch included, with
    up to three copies of a row that differ only in their comment and so in
    their id, and one hierarchy cycle."""
    node = st.sampled_from(_PATH_TERMS)
    rows = draw(
        st.lists(
            st.tuples(node, st.sampled_from(list(MappingPredicate)), node, st.integers(1, 3), st.sampled_from([1.0, 0.5])),
            max_size=18,
        )
    )
    cycle = draw(st.lists(node, min_size=2, max_size=4, unique=True))
    predicate = draw(st.sampled_from(_HIERARCHY_PREDICATES))
    rows += [(s, predicate, o, 1, 1.0) for s, o in zip(cycle, cycle[1:] + cycle[:1])]
    return rows


@settings(deadline=None, max_examples=150)
@given(path_mapping_rows(), st.sampled_from([None, 0.9]))
def test_explain_path_equals_all_edges_scan(rows, threshold):
    engine = make_engine()
    for subject, predicate, object_, copies, confidence in rows:
        for k in range(copies):
            add_mapping(engine, subject, predicate, object_, confidence=confidence, comment=f"copy {k}")
    snap = engine.terminology.compute_closure(threshold)
    ids = [Gupri(engine.prefix_map.canonicalize(t)) for t in _PATH_TERMS]
    for a in ids:
        for b in ids:
            verdict, both, directed = snap._ladder(a, b)
            forward = verdict.direction != "narrower"
            expected = explain_path_scan(snap.edges, a.canonical, b.canonical, both, directed, forward)
            assert snap.explain_path(a, b) == expected, (a, b, verdict)


@settings(deadline=None, max_examples=150)
@given(path_mapping_rows(), st.sampled_from([None, 0.9]))
def test_pruned_walks_answer_as_unpruned_ones(rows, threshold):
    # the rows always hold a hierarchy cycle, whose classes share one level
    engine = make_engine()
    for subject, predicate, object_, copies, confidence in rows:
        for k in range(copies):
            add_mapping(engine, subject, predicate, object_, confidence=confidence, comment=f"copy {k}")
    snap = engine.terminology.compute_closure(threshold)
    if threshold is not None:
        # a filtered snapshot walks unpruned, so a full build of its edges is pruned instead
        assert snap.levels is None
        snap = TerminologyRegistry._build_snapshot(snap.edges)
    ids = [Gupri(engine.prefix_map.canonicalize(t)) for t in _PATH_TERMS]
    for relation in (_LOOSE, _SUBCLASS, _SUBPROPERTY):
        for a in ids:
            for b in ids:
                goal = snap.referential_root(b)
                unpruned = goal in graph.reach(snap.hierarchy[relation], snap.referential_root(a), goal)
                assert snap._above(relation, a, b) == unpruned, (relation, a, b)
    assert level_rule_breaks(snap.hierarchy[_LOOSE], snap.levels) == []


def test_explain_path_node_index_lives_with_its_snapshot(engine):
    t = engine.terminology
    ab = add_mapping(engine, "ex:a", MappingPredicate.SUB_CLASS_OF, "ex:b")
    bc = add_mapping(engine, "ex:b", MappingPredicate.SUB_CLASS_OF, "ex:c")
    snap = t.compute_closure()
    assert "node_index" not in vars(snap)  # not built with the snapshot
    assert [m.id for m in t.explain_path("ex:a", "ex:c")] == [ab, bc]
    index = vars(snap)["node_index"]
    assert [m.id for m in t.explain_path("ex:a", "ex:c")] == [ab, bc]
    assert t.compute_closure() is snap and vars(snap)["node_index"] is index

    report = t.import_mappings_tsv(
        "subject_id\tpredicate_id\tobject_id\n"
        "ex:a\trdfs:subClassOf\tex:c\n"
        "ex:a\trdfs:subClassOf\tex:d\n"
        "ex:d\trdfs:subClassOf\tex:c\n"
    )
    assert report.accepted == 3
    direct = t.explain_path("ex:a", "ex:c")
    assert len(direct) == 1 and direct[0].object.canonical == engine.prefix_map.canonicalize("ex:c")
    assert t.remove_mapping(direct[0].id)
    assert [m.id for m in t.explain_path("ex:a", "ex:c")] == [ab, bc]
    assert t.remove_mapping(ab)
    via_d = t.explain_path("ex:a", "ex:c")
    assert len(via_d) == 2 and ab not in {m.id for m in via_d} and direct[0].id not in {m.id for m in via_d}
    # the first snapshot still explains its own edge set
    assert [m.id for m in snap.explain_path(*(engine.prefix_map.gupri(x) for x in ("ex:a", "ex:c")))] == [ab, bc]


@pytest.mark.parametrize("confidences", [(0.0, -0.0), (-0.0, 0.0)])
def test_mappings_between_keeps_table_order_for_ties(engine, confidences):
    # 0.0 and -0.0 sort equal but give two mappings: both lists keep table order
    pm, t = engine.prefix_map, engine.terminology
    add_mapping(engine, "ex:a", MappingPredicate.CLOSE_MATCH, "ex:c")
    for confidence in confidences:
        add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b", confidence=confidence)
    stored = [m.id for m in t.mappings()]
    a, b = pm.gupri("ex:a"), pm.gupri("ex:b")
    for subject, object_ in [(a, None), (None, b), (a, b), (b, a), (a, a)]:
        found = [m.id for m in t.mappings_between(subject, object_)]
        assert found == [i for i in stored if i in found], (subject, object_)
    assert len(t.mappings_between(a)) == 3 and len(t.mappings_between(a, b)) == 2


def test_explain_path_concurrent_first_use_matches_serial():
    engine = make_engine()
    rng = random.Random(5)
    nodes, mappings = random_mapping_set(rng, engine.prefix_map, max_terms=60, max_edges=600)
    for m in mappings:
        engine.terminology.add_mapping(m)
    pairs = [(Gupri(rng.choice(nodes)), Gupri(rng.choice(nodes))) for _ in range(200)]
    serial = [engine.terminology.compute_closure(0.0).explain_path(a, b) for a, b in pairs]
    snap = engine.terminology.compute_closure()
    assert "node_index" not in vars(snap)
    start = threading.Barrier(8, timeout=30)

    def explain_all() -> list[list[EntityMapping]]:
        start.wait()
        return [snap.explain_path(a, b) for a, b in pairs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so first uses overlap
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = [f.result(timeout=60) for f in [pool.submit(explain_all) for _ in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(answer == serial for answer in answers)
    assert any(serial)


@pytest.mark.usefixtures("every_write_updates")
def test_levels_live_with_their_snapshot(engine):
    t = engine.terminology
    add_mapping(engine, "ex:a", MappingPredicate.SUB_CLASS_OF, "ex:b")
    add_mapping(engine, "ex:b", MappingPredicate.SUB_CLASS_OF, "ex:c", confidence=0.5)
    add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:d")
    a, c, d = (engine.prefix_map.gupri(x) for x in ("ex:a", "ex:c", "ex:d"))
    base, filtered = t.compute_closure(), t.compute_closure(0.0)
    assert "levels" not in vars(base)  # not built with the snapshot
    # a verdict within one class walks no hierarchy
    assert base.interop_level(a, d).level is InteropLevel.ONTOLOGICAL
    assert "levels" not in vars(base)
    assert base.interop_level(a, c).direction == "broader"
    assert "levels" in vars(base)
    # a filtered snapshot serves one call, and walks unpruned
    assert filtered.interop_level(a, c).direction == "broader"
    assert vars(filtered)["levels"] is None
    levels = vars(base)["levels"]
    assert t.compute_closure() is base and t.interop_level("ex:c", "ex:a").direction == "narrower"
    assert vars(base)["levels"] is levels

    add_mapping(engine, "ex:c", MappingPredicate.SUB_CLASS_OF, "ex:e")
    derived = t.compute_closure()  # derived from the walked base
    assert "levels" in vars(derived)
    assert level_rule_breaks(derived.hierarchy[_LOOSE], vars(derived)["levels"]) == []
    assert t.interop_level("ex:d", "ex:e").direction == "broader"
    # the base keeps its own levels
    assert vars(base)["levels"] is levels and level_rule_breaks(base.hierarchy[_LOOSE], levels) == []


@pytest.mark.parametrize(
    "call",
    [
        lambda fx: fx.engine.terminology.interop_level("unit:gram", "unit:mass-unit", min_confidence=0.5),
        lambda fx: fx.engine.terminology.explain_path("unit:gram", "unit:mass-unit", min_confidence=0.5),
        lambda fx: fx.engine.crosswalks.check_crosswalk(
            fx.crosswalk_id, snap=fx.engine.terminology.compute_closure(0.5)
        ),
    ],
    ids=["interop_level", "explain_path", "check_crosswalk"],
)
def test_filtered_call_never_builds_levels(weight, monkeypatch, call):
    built: list[int] = []
    levels = graph.levels

    def counted(adjacency):
        built.append(len(adjacency))
        return levels(adjacency)

    monkeypatch.setattr(graph, "levels", counted)
    assert call(weight)
    assert built == []
    # the cached snapshot's first hierarchical walk does build them
    assert weight.engine.terminology.interop_level("unit:gram", "unit:mass-unit").direction == "broader"
    assert len(built) == 1


def test_walks_concurrent_first_use_matches_serial():
    # a hierarchy that mostly climbs, with a few edges back down that close
    # cycles, a few classes and many unrelated pairs
    engine = make_engine()
    rng = random.Random(7)
    terms = [f"ex:t{i}" for i in range(80)]
    predicates = [SUB] * 4 + [MappingPredicate.SUB_PROPERTY_OF, MappingPredicate.BROAD_MATCH] * 2 + [SAME]
    for _ in range(120):
        lower, upper = sorted(rng.sample(terms, 2), key=terms.index)
        if rng.random() < 0.03:
            lower, upper = upper, lower
        add_mapping(engine, lower, rng.choice(predicates), upper)
    nodes = [engine.prefix_map.canonicalize(x) for x in terms]
    pairs = [(Gupri(rng.choice(nodes)), Gupri(rng.choice(nodes))) for _ in range(300)]
    serial = [engine.terminology.compute_closure(0.0).interop_level(a, b) for a, b in pairs]
    snap = engine.terminology.compute_closure()
    assert "levels" not in vars(snap)
    start = threading.Barrier(8, timeout=30)

    def walk_all() -> list:
        start.wait()
        return [snap.interop_level(a, b) for a, b in pairs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so first uses overlap
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = [f.result(timeout=60) for f in [pool.submit(walk_all) for _ in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(answer == serial for answer in answers)
    assert any(v.level is InteropLevel.HIERARCHICAL for v in serial)


# ---------------------------------------------------------------------------
# audits


def test_audit_full_term_passes(engine):
    gid = term(engine, "ex:good", labels={"en": "good", "de": "gut"})
    add_mapping(engine, "ex:good", MappingPredicate.EQUIVALENT_CLASS, "ex:good2")
    term(engine, "ex:good2")
    audit = engine.terminology.audit_term_fairness(gid)
    assert all(c.status == "pass" for c in audit.checks)


def test_audit_missing_definition_fails(engine):
    gid = term(engine, "ex:bare", definition=None)
    audit = {c.check_id: c.status for c in engine.terminology.audit_term_fairness(gid).checks}
    assert audit["has_definition"] == "fail"


def test_audit_single_language_fails_multilingual(engine):
    gid = term(engine, "ex:mono", labels={"en": "mono"})
    audit = {c.check_id: c.status for c in engine.terminology.audit_term_fairness(gid).checks}
    assert audit["has_multilingual_labels"] == "fail"


def test_audit_criteria_not_applicable(engine):
    record = TermRecord(
        id=engine.prefix_map.gupri("ex:abstract"),
        labels={"en": "abstract", "de": "abstrakt"},
        definition="a thing with no observable instances",
        recognition_criteria=None,
        recognition_criteria_applicable=False,
        synonyms=("abstraction",),
    )
    engine.terminology.register_term(record)
    audit = {c.check_id: c.status for c in engine.terminology.audit_term_fairness("ex:abstract").checks}
    assert audit["has_recognition_criteria"] == "not_applicable"


def test_audit_is_mapped_advisory(engine):
    gid = term(engine, "ex:alone")
    audit = engine.terminology.audit_term_fairness(gid)
    mapped = next(c for c in audit.checks if c.check_id == "is_mapped")
    assert mapped.status == "fail"
    assert mapped.advisory


def test_audit_unknown_term(engine):
    with pytest.raises(UnknownTerm):
        engine.terminology.audit_term_fairness("ex:ghost")


# ---------------------------------------------------------------------------
# invariants and properties


def test_symmetry_of_verdicts_random():
    rng = random.Random(11)
    for _ in range(25):
        engine = make_engine()
        nodes, mappings = random_mapping_set(rng, engine.prefix_map, max_terms=10, max_edges=15)
        for m in mappings:
            engine.terminology.add_mapping(m)
        for _ in range(10):
            a, b = rng.choice(nodes), rng.choice(nodes)
            va = engine.terminology.interop_level(Gupri(a), Gupri(b))
            vb = engine.terminology.interop_level(Gupri(b), Gupri(a))
            assert va.level == vb.level
            assert va.actionable == vb.actionable
            if va.direction is not None:
                assert vb.direction is not None
                # random sets can contain hierarchy cycles, where both
                # directions are reachable and both sides report "broader"
                if va.direction == vb.direction:
                    assert va.direction == "broader"


def test_transitivity_same_as_chain(engine):
    add_mapping(engine, "ex:a", MappingPredicate.SAME_AS, "ex:b")
    add_mapping(engine, "ex:b", MappingPredicate.SAME_AS, "ex:c")
    assert engine.terminology.interop_level("ex:a", "ex:c").level >= InteropLevel.ONTOLOGICAL
    add_mapping(engine, "ex:c", MappingPredicate.EQUIVALENT_CLASS, "ex:d")
    assert engine.terminology.interop_level("ex:a", "ex:d").level >= InteropLevel.REFERENTIAL


def test_subset_law_ontological_refines_referential():
    rng = random.Random(23)
    for _ in range(50):
        engine = make_engine()
        nodes, mappings = random_mapping_set(rng, engine.prefix_map)
        for m in mappings:
            engine.terminology.add_mapping(m)
        for node in nodes:
            ont = engine.terminology.equivalence_class(Gupri(node), InteropLevel.ONTOLOGICAL)
            ref = engine.terminology.equivalence_class(Gupri(node), InteropLevel.REFERENTIAL)
            assert ont <= ref


def test_non_actionable_edges_never_change_equivalence_verdicts():
    rng = random.Random(31)
    for _ in range(20):
        engine = make_engine()
        nodes, mappings = random_mapping_set(rng, engine.prefix_map, max_terms=12, max_edges=20)
        for m in mappings:
            engine.terminology.add_mapping(m)
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(8)]
        before = {
            (a, b): engine.terminology.interop_level(Gupri(a), Gupri(b)).level for a, b in pairs
        }
        for _ in range(10):
            a, b = rng.sample(nodes, 2) if len(nodes) >= 2 else (nodes[0], nodes[0])
            predicate = rng.choice(
                [MappingPredicate.CLOSE_MATCH, MappingPredicate.RELATED_MATCH, MappingPredicate.BROAD_MATCH]
            )
            engine.terminology.add_mapping(
                EntityMapping.create(Gupri(a), predicate, Gupri(b))
            )
        for (a, b), level in before.items():
            after = engine.terminology.interop_level(Gupri(a), Gupri(b)).level
            if level in (InteropLevel.ONTOLOGICAL, InteropLevel.REFERENTIAL, InteropLevel.IDENTICAL):
                assert after == level
            else:
                assert after not in (InteropLevel.ONTOLOGICAL, InteropLevel.REFERENTIAL) or (
                    after == level
                )


def test_closure_matches_brute_force_oracle_small():
    rng = random.Random(47)
    for _ in range(60):
        engine = make_engine()
        nodes, mappings = random_mapping_set(rng, engine.prefix_map)
        for m in mappings:
            engine.terminology.add_mapping(m)
        ont_expected, ref_expected = oracle_closures(nodes, engine.terminology.mappings())
        snap = engine.terminology.compute_closure()
        ont_actual = {frozenset(snap.ontological_class(Gupri(n))) for n in nodes}
        ref_actual = {frozenset(snap.referential_class(Gupri(n))) for n in nodes}
        assert ont_actual == ont_expected
        assert ref_actual == ref_expected


@settings(deadline=None, max_examples=60)
@given(st.randoms(use_true_random=False), st.sampled_from([0.0, 0.5, 0.9, 1.0]))
def test_explain_path_edges_meet_threshold_and_chain(rng, threshold):
    engine = make_engine()
    nodes, mappings = random_mapping_set(rng, engine.prefix_map, max_terms=8, max_edges=16)
    for m in mappings:
        engine.terminology.add_mapping(m)
    for a in nodes:
        for b in nodes:
            path = engine.terminology.explain_path(Gupri(a), Gupri(b), threshold)
            verdict = engine.terminology.interop_level(Gupri(a), Gupri(b), threshold)
            assert bool(path) == (verdict.level not in (InteropLevel.IDENTICAL, InteropLevel.NONE))
            at = a
            for edge in path:
                assert edge.confidence >= threshold
                ends = (edge.subject.canonical, edge.object.canonical)
                assert at in ends
                at = ends[1] if ends[0] == at else ends[0]
            assert at == (b if path else a)


@settings(deadline=None, max_examples=60)
@given(st.randoms(use_true_random=False), st.sampled_from([None, 0.5, 0.9, 1.0]))
def test_verdict_ladder_matches_oracle(rng, threshold):
    engine = make_engine()
    nodes, mappings = random_mapping_set(rng, engine.prefix_map, max_terms=10, max_edges=30)
    for m in mappings:
        engine.terminology.add_mapping(m)
    kept = [m for m in mappings if threshold is None or m.confidence >= threshold]
    verdicts, reach = oracle_ladder(nodes, kept)
    for (a, b), expected in verdicts.items():
        verdict = engine.terminology.interop_level(Gupri(a), Gupri(b), threshold)
        assert (verdict.level.label, verdict.direction, verdict.actionable) == expected, (a, b)
    doc = engine.terminology.compute_closure(threshold).to_doc()
    assert {key: doc[key] for key in reach} == reach


# ---------------------------------------------------------------------------
# each snapshot derived from the last one


_STEP_TERMS = [f"ex:t{i}" for i in range(6)]


@st.composite
def write_batches(draw):
    """Batches of rows to add, of rows added earlier to remove, and of those
    removed rows to add again. A row's last field is its confidence."""
    node = st.sampled_from(_STEP_TERMS)
    row = st.tuples(node, st.sampled_from(list(MappingPredicate)), node, st.sampled_from([1.0, 0.0, -0.0]))
    batches, seen = [], []
    for _ in range(draw(st.integers(1, 6))):
        added = draw(st.lists(row, max_size=6))
        seen += added
        removed = draw(st.lists(st.sampled_from(seen), max_size=5)) if seen else []
        restored = draw(st.lists(st.sampled_from(removed), max_size=2)) if removed else []
        batches.append((added, removed, restored))
    return batches


SUB, SAME, CLOSE = MappingPredicate.SUB_CLASS_OF, MappingPredicate.SAME_AS, MappingPredicate.CLOSE_MATCH
EQUIV = MappingPredicate.EQUIVALENT_CLASS


def _assert_fresh(snap):
    fresh = TerminologyRegistry._build_snapshot(snap.edges)
    for f in dataclasses.fields(snap):
        assert getattr(snap, f.name) == getattr(fresh, f.name), f.name
    # by id: two mappings that differ only in a confidence of 0.0 and -0.0
    # compare equal
    for node in {end.canonical for m in snap.edges for end in (m.subject, m.object)}:
        got = [(m.id, from_subject) for m, from_subject in snap.mappings_at(node)]
        assert got == [(m.id, from_subject) for m, from_subject in fresh.mappings_at(node)], node


# the share is patched once for every example
@settings(deadline=None, max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(write_batches())
@example(
    [
        # parallel rows that lift to one pair, and a hierarchy cycle
        ([("ex:t0", SUB, "ex:t1", 1.0), ("ex:t2", SUB, "ex:t1", 1.0), ("ex:t0", SAME, "ex:t2", 1.0),
          ("ex:t3", SUB, "ex:t4", 1.0), ("ex:t4", SUB, "ex:t3", 1.0)], [], []),
        # the subClassOf row's ends merge into one class, and parallel associative rows
        ([("ex:t0", SAME, "ex:t1", 1.0), ("ex:t3", CLOSE, "ex:t5", 1.0), ("ex:t3", CLOSE, "ex:t5", 0.0)], [], []),
        # ... and split again; the classes split, and one associative row goes
        ([], [("ex:t0", SAME, "ex:t1", 1.0), ("ex:t0", SAME, "ex:t2", 1.0), ("ex:t3", CLOSE, "ex:t5", 1.0)], []),
        # a removed row comes back, and a new one is removed at once
        ([("ex:t0", SAME, "ex:t2", 1.0), ("ex:t4", SUB, "ex:t5", 1.0)], [("ex:t4", SUB, "ex:t5", 1.0)], []),
    ]
)
@example(
    [
        # two rows that sort equal, as 0.0 == -0.0, so table order breaks their tie
        ([("ex:t0", SAME, "ex:t1", 0.0), ("ex:t0", SAME, "ex:t1", -0.0)], [], []),
        # the first one, removed and added again unchanged, moves to the table's end
        ([], [("ex:t0", SAME, "ex:t1", 0.0)], [("ex:t0", SAME, "ex:t1", 0.0)]),
    ]
)
@example(
    [
        # a chain, t0 below t1 below t2 below t3
        ([("ex:t0", SUB, "ex:t1", 1.0), ("ex:t1", SUB, "ex:t2", 1.0), ("ex:t2", SUB, "ex:t3", 1.0)], [], []),
        # closes the cycle t0 t1 t2 with t3 above it, so the levels are built anew
        ([("ex:t2", SUB, "ex:t0", 1.0)], [], []),
        # t4 joins the class of t1 on the cycle, t5 goes above t3, and ...
        ([("ex:t4", SAME, "ex:t1", 1.0), ("ex:t3", SUB, "ex:t5", 1.0)], [], []),
        # ... is broken again, so its classes rise one above another
        ([], [("ex:t2", SUB, "ex:t0", 1.0), ("ex:t4", SAME, "ex:t1", 1.0)], []),
    ]
)
@example(
    [
        ([("ex:t1", SUB, "ex:t2", 1.0), ("ex:t2", SUB, "ex:t3", 1.0), ("ex:t0", SUB, "ex:t5", 1.0)], [], []),
        # t3 joins the class of t0, whose root sits two levels lower and so takes t3's level
        ([("ex:t0", SAME, "ex:t3", 1.0)], [], []),
    ]
)
@example(
    [
        # a chain of five in one class, with a subClassOf row out of its
        # middle, and two other classes, one above it
        ([("ex:t0", SAME, "ex:t1", 1.0), ("ex:t1", EQUIV, "ex:t2", 1.0), ("ex:t2", SAME, "ex:t3", 1.0),
          ("ex:t3", SAME, "ex:t4", 1.0), ("ex:t5", SAME, "ex:t6", 1.0), ("ex:t7", EQUIV, "ex:t8", 1.0),
          ("ex:t2", SUB, "ex:t5", 1.0)], [], []),
        # the chain's middle rows go, so it splits in three, and the other two merge
        ([("ex:t6", SAME, "ex:t7", 1.0)], [("ex:t1", EQUIV, "ex:t2", 1.0), ("ex:t2", SAME, "ex:t3", 1.0)], []),
    ]
)
@example(
    [
        ([("ex:t0", SAME, "ex:t1", 1.0), ("ex:t0", EQUIV, "ex:t1", 1.0), ("ex:t2", SUB, "ex:t1", 1.0)], [], []),
        # the ontological class loses its last row, the referential one keeps one
        ([], [("ex:t0", SAME, "ex:t1", 1.0)], []),
        # ... and loses it too, so t0 and t1 leave both root maps
        ([], [("ex:t0", EQUIV, "ex:t1", 1.0)], []),
    ]
)
@example(
    [
        ([("ex:t0", SAME, "ex:t1", 1.0), ("ex:t1", EQUIV, "ex:t2", 1.0), ("ex:t3", SUB, "ex:t4", 1.0)], [], []),
        # no equivalence row, so both root maps are the base's own
        ([("ex:t2", SUB, "ex:t3", 1.0), ("ex:t4", CLOSE, "ex:t5", 1.0)], [("ex:t3", SUB, "ex:t4", 1.0)], []),
    ]
)
def test_derived_snapshot_equals_fresh_build(every_write_updates, batches):
    engine = make_engine()
    t = engine.terminology
    # the terms a batch names, which an example may take beyond _STEP_TERMS
    terms = sorted({*_STEP_TERMS, *(row[k] for added, _, _ in batches for row in added for k in (0, 2))})
    nodes = [engine.prefix_map.canonicalize(x) for x in terms]
    ids = [Gupri(n) for n in nodes]
    snapshots = [t.compute_closure()]
    stored: dict[str, str] = {}  # a row's id, which its content fixes, by the row's repr

    def add(row):
        stored[repr(row)] = add_mapping(engine, row[0], row[1], row[2], confidence=row[3])

    for added, removed, restored in batches:
        for row in added:
            add(row)
        for row in removed:
            t.remove_mapping(stored[repr(row)])
        for row in restored:
            add(row)
        base = t._mappings._base
        snap = t.compute_closure()
        assert snap.edges == t._mappings.rows()
        _assert_fresh(snap)
        rows = added + removed + restored
        if base is not None and base[1] is snapshots[-1] and all(row[1] not in _REFERENTIAL_GRADE for row in rows):
            # derived from the last snapshot by a write of no equivalence row
            assert snap.ont_root is snapshots[-1].ont_root and snap.ref_root is snapshots[-1].ref_root
        # repaired from the last snapshot's, so they may differ from a fresh
        # build's and still be valid
        assert level_rule_breaks(snap.hierarchy[_LOOSE], snap.levels) == []
        verdicts, reach = oracle_ladder(nodes, list(snap.edges))
        for a in ids:
            for b in ids:
                got = snap.interop_level(a, b)
                assert (got.level.label, got.direction, got.actionable) == verdicts[a.canonical, b.canonical]
        doc = snap.to_doc()
        assert {key: doc[key] for key in reach} == reach
        # the snapshot it was derived from is unchanged
        _assert_fresh(snapshots[-1])
        snapshots.append(snap)
    for snap in snapshots:
        _assert_fresh(snap)


def test_a_batch_past_the_share_of_the_rows_builds_the_snapshot(monkeypatch):
    from semint import terminology

    updates = []
    update = terminology._updated_snapshot
    monkeypatch.setattr(terminology, "_updated_snapshot", lambda *args: updates.append(args[3]) or update(*args))
    predicates = ("owl:sameAs", "rdfs:subClassOf", "skos:closeMatch", "owl:equivalentClass")

    def rows(tag: str, count: int) -> str:
        # a tree over ex:n1..., each row from a node to its parent; none is a self-mapping
        lines = [f"ex:{tag}{i}\t{predicates[i % 4]}\tex:n{i // 2}" for i in range(1, count + 1)]
        return "subject_id\tpredicate_id\tobject_id\n" + "\n".join(lines) + "\n"

    # 400 rows and 100 more: the log holds a fifth of the rows after it, and
    # one more write drops it
    for count, updated in ((100, True), (101, False)):
        t = make_engine().terminology
        t.import_mappings_tsv(rows("n", 400))
        t.compute_closure()
        updates.clear()
        t.import_mappings_tsv(rows("p", count))
        assert (t._mappings._base is not None) == updated, count
        snap = t.compute_closure()
        assert [len(added) for added in updates] == ([count] if updated else []), count
        assert snap.edges == t._mappings.rows()
        _assert_fresh(snap)


@pytest.mark.usefixtures("every_write_updates")
def test_derivation_shares_what_the_write_left_alone(engine):
    t, pm = engine.terminology, engine.prefix_map
    c = pm.canonicalize
    ab = add_mapping(engine, "ex:a", SAME, "ex:b")
    cd = add_mapping(engine, "ex:c", SAME, "ex:d")
    add_mapping(engine, "ex:e", CLOSE, "ex:f")
    ac = add_mapping(engine, "ex:a", SUB, "ex:c")
    base = t.compute_closure()  # a full build
    bg = add_mapping(engine, "ex:b", SAME, "ex:g")  # g enters the class of a and b
    add_mapping(engine, "ex:h", CLOSE, "ex:i")
    snap = t.compute_closure()  # derived from base
    assert "node_index" in vars(snap)

    def class_of(s, x):
        return s.ref_members[s.referential_root(pm.gupri(x))], s.ont_members[s.ontological_root(pm.gupri(x))]

    # the class no moved node entered or left is shared, the one g entered is new
    assert all(new is old for new, old in zip(class_of(snap, "ex:c"), class_of(base, "ex:c")))
    assert class_of(snap, "ex:a")[0] == {c("ex:a"), c("ex:b"), c("ex:g")}
    assert class_of(base, "ex:a")[0] == {c("ex:a"), c("ex:b")}
    ef = frozenset({c("ex:e"), c("ex:f")})
    (kept,) = [pair for pair in snap.associative_pairs if pair == ef]
    assert any(pair is kept for pair in base.associative_pairs)
    assert frozenset({c("ex:h"), c("ex:i")}) in snap.associative_pairs
    # the index is shared at the nodes the write did not touch
    assert snap.node_index[c("ex:e")] is base.node_index[c("ex:e")]

    # later writes leave both snapshots explaining their own edges
    assert t.remove_mapping(ac)
    gd = add_mapping(engine, "ex:g", SUB, "ex:d")
    later = t.compute_closure()
    # no equivalence row was written, so the classes are the last snapshot's
    assert later.ont_root is snap.ont_root and later.ref_root is snap.ref_root
    assert later.ont_members is snap.ont_members and later.ref_members is snap.ref_members
    a, d = pm.gupri("ex:a"), pm.gupri("ex:d")
    assert [m.id for m in base.explain_path(a, d)] == [ac, cd]
    assert [m.id for m in snap.explain_path(a, d)] == [ac, cd]
    assert [m.id for m in later.explain_path(a, d)] == [ab, bg, gd]
    for s in (base, snap, later):
        _assert_fresh(s)


@pytest.mark.usefixtures("every_write_updates")
def test_snapshots_derived_during_writes_equal_fresh_builds(engine):
    # writers add and remove rows while readers derive: each snapshot a reader
    # gets is the closure of its own edges, whichever base it came from
    t = engine.terminology
    stop = threading.Event()
    errors: list[Exception] = []
    seen: list = []

    def writer(k: int):
        try:
            rng = random.Random(k)
            kept: list[str] = []
            for i in range(150):
                a, b = rng.sample(_STEP_TERMS, 2)
                kept.append(add_mapping(engine, a, rng.choice([SAME, SUB, CLOSE]), b, comment=f"w{k}-{i}"))
                if rng.random() < 0.5:
                    t.remove_mapping(kept.pop(rng.randrange(len(kept))))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def reader():
        try:
            while not stop.is_set():
                snap = t.compute_closure()
                if not seen or seen[-1] is not snap:
                    seen.append(snap)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    writers = [threading.Thread(target=writer, args=(k,)) for k in range(2)]
    readers = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(seen) > 10
    for snap in seen:
        _assert_fresh(snap)
    final = t.compute_closure()
    assert final.edges == t._mappings.rows()
    _assert_fresh(final)


# ---------------------------------------------------------------------------
# one closure snapshot per public call


@pytest.mark.parametrize(
    "call",
    [
        lambda fx: fx.engine.crosswalks.transform_instance(fx.instance, fx.crosswalk_id, min_confidence=0.5),
        lambda fx: fx.engine.schemas.validate_instance(fx.instance, snap=fx.engine.terminology.compute_closure(0.5)),
        # three resource alignments between differently constrained slots
        lambda fx: fx.engine.crosswalks.check_crosswalk(
            Crosswalk(
                id=fx.engine.prefix_map.gupri("ex:crossed"),
                source_schema=fx.obi_schema,
                target_schema=fx.oboe_schema,
                alignments=(
                    SlotAlignment("object", "standard"),
                    SlotAlignment("quality", "characteristic"),
                    SlotAlignment("unit", "entity"),
                ),
            ),
            snap=fx.engine.terminology.compute_closure(0.5),
        ),
    ],
    ids=["transform_instance", "validate_instance", "check_crosswalk"],
)
def test_filtered_call_builds_closure_once(weight, monkeypatch, call):
    builds: list[int] = []
    build = TerminologyRegistry._build_snapshot

    def counted(edges):
        builds.append(len(edges))
        return build(edges)

    monkeypatch.setattr(TerminologyRegistry, "_build_snapshot", staticmethod(counted))
    call(weight)
    assert len(builds) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda fx: fx.engine.fdos.assess_record(fx.golden),
        lambda fx: find(
            fx.engine,
            FindQuery(
                term=fx.engine.prefix_map.gupri("pato:weight"),
                expand=ExpandMode.REFERENTIAL,
                statement_type=fx.engine.schemas.schema(fx.obi_schema).statement_type,
            ),
        ),
        lambda fx: fx.engine.terminology.mappings_between(fx.engine.prefix_map.gupri("unit:mass-unit")),
        lambda fx: fx.engine.terminology.mappings_between(
            fx.engine.prefix_map.gupri("pato:weight"), fx.engine.prefix_map.gupri("ncit:weight")
        ),
        lambda fx: fx.engine.schemas.validate_instance(fx.instance),
        lambda fx: fx.engine.schemas.schemas_for_statement_type("obi:weight-assay"),
        lambda fx: fx.engine.schemas.detect_schema_duplicates(fx.engine.crosswalks),
        lambda fx: fx.engine.terminology.audit_term_fairness("pato:weight"),
        lambda fx: fx.engine.crosswalks.check_crosswalk(fx.crosswalk_id),
        lambda fx: fx.engine.crosswalks.register_crosswalk(identity_crosswalk(fx.engine.schemas.schema(fx.obi_schema))),
        # the identity crosswalk has no level yet, so composing checks it too
        lambda fx: fx.engine.crosswalks.compose_crosswalks(
            fx.crosswalk_id, identity_crosswalk(fx.engine.schemas.schema(fx.oboe_schema))
        ),
        lambda fx: fx.engine.crosswalks.invert_crosswalk(fx.crosswalk_id),
        lambda fx: fx.engine.crosswalks.transform_instance(fx.instance, fx.crosswalk_id),
    ],
    ids=[
        "assess_record",
        "find",
        "mappings_between-one-end",
        "mappings_between-both-ends",
        "validate_instance",
        "schemas_for_statement_type",
        "detect_schema_duplicates",
        "audit_term_fairness",
        "check_crosswalk",
        "register_crosswalk",
        "compose_crosswalks",
        "invert_crosswalk",
        "transform_instance",
    ],
)
def test_call_reads_closure_once(weight, monkeypatch, call):
    calls: list[float | None] = []
    compute = TerminologyRegistry.compute_closure

    def counted(self, min_confidence=None):
        calls.append(min_confidence)
        return compute(self, min_confidence)

    monkeypatch.setattr(TerminologyRegistry, "compute_closure", counted)
    assert call(weight)
    assert calls == [None]


def test_inner_calls_go_through_public_methods(weight, monkeypatch):
    # wrapped on their classes, as a tracer wraps them, these names see every
    # validation, duplicate check and audit, also inside another public call
    names = (
        (SchemaRegistry, "validate_instance"),
        (SchemaRegistry, "detect_schema_duplicates"),
        (TerminologyRegistry, "audit_term_fairness"),
    )
    calls: dict[str, int] = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in names:
        monkeypatch.setattr(owner, name, counted(name, owner.__dict__[name]))
    weight.engine.fdos.assess_record(weight.golden)
    assert set(calls) == {name for _, name in names}
    calls.clear()
    weight.engine.crosswalks.transform_instance(weight.instance, weight.crosswalk_id)
    assert calls == {"validate_instance": 2}
