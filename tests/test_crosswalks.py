from __future__ import annotations

import random
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import (
    Crosswalk,
    Gupri,
    CrosswalkLevel,
    DatatypeTag,
    Engine,
    MappingPredicate,
    SlotAlignment,
    SlotFill,
    SlotKind,
    SlotSpec,
    StatementInstance,
    StatementSchema,
    identity_crosswalk,
)
from semint.crosswalks import AlignmentStatus
from semint.documents import instance_to_doc, render
from semint.errors import (
    ConflictingCrosswalk,
    HubNotInSet,
    IncompatibleAlignment,
    InvalidCrosswalk,
    JoinProducesUncoveredRequiredSlot,
    NoMappedTerm,
    NotInvertible,
    ReferentialDisallowed,
    SchemaMismatch,
    SourceInvalid,
    UncoveredRequiredTargetSlot,
    UnfillableRequiredTargetSlot,
    UnknownSchema,
    UnknownSlot,
)

from conftest import add_mapping, build_weight_fixture, make_engine, term
from oracles import hub_links, oracle_closures, pairwise_links, random_mapping_set


def instance_bytes(engine: Engine, inst: StatementInstance) -> str:
    return render(instance_to_doc(inst, engine.prefix_map))


# ---------------------------------------------------------------------------
# chain fixture for composition tests


def build_chain(
    n_schemas: int = 3,
    n_slots: int = 3,
    seed: int = 0,
    referential_hop: int | None = None,
):
    """Schemas 0..n-1 with per-slot constraint families mapped across hops.

    Family terms are chained with sameAs, except the hop named by
    ``referential_hop``, whose constraint pair is only equivalent-class
    mapped, which drags crosswalk levels down to referential.
    """
    engine = make_engine()
    pm = engine.prefix_map
    rng = random.Random(seed)
    literal_slots = {i for i in range(n_slots) if rng.random() < 0.4}
    schemas = []
    for j in range(n_schemas):
        slots = []
        for i in range(n_slots):
            slot_id = f"slot{i}"
            if i in literal_slots:
                slots.append(SlotSpec(slot_id, f"ROLE{i}", SlotKind.LITERAL, DatatypeTag.DECIMAL))
            else:
                term(engine, f"ex:family{i}-s{j}")
                slots.append(
                    SlotSpec(slot_id, f"ROLE{i}", SlotKind.RESOURCE, pm.gupri(f"ex:family{i}-s{j}"))
                )
        schemas.append(
            engine.schemas.register_schema(
                StatementSchema(
                    id=pm.gupri(f"ex:chain-schema-{j}"),
                    statement_type=pm.gupri("ex:chain-type"),
                    label=f"chain {j}",
                    slots=tuple(slots),
                )
            )
        )
    for i in range(n_slots):
        if i in literal_slots:
            continue
        for j in range(n_schemas - 1):
            predicate = (
                MappingPredicate.EQUIVALENT_CLASS
                if referential_hop == j
                else MappingPredicate.SAME_AS
            )
            add_mapping(engine, f"ex:family{i}-s{j}", predicate, f"ex:family{i}-s{j + 1}")
    crosswalks = []
    for j in range(n_schemas - 1):
        crosswalks.append(
            engine.crosswalks.register_crosswalk(
                Crosswalk(
                    id=pm.gupri(f"ex:chain-crosswalk-{j}"),
                    source_schema=schemas[j],
                    target_schema=schemas[j + 1],
                    alignments=tuple(SlotAlignment(f"slot{i}", f"slot{i}") for i in range(n_slots)),
                )
            )
        )
    return engine, schemas, crosswalks, literal_slots


def random_chain_instance(engine, schema_id, literal_slots, n_slots, rng: random.Random, n_schemas):
    pm = engine.prefix_map
    fills = {}
    for i in range(n_slots):
        if i in literal_slots:
            fills[f"slot{i}"] = SlotFill.literal(
                f"{rng.randint(0, 999)}.{rng.randint(0, 99):02d}", DatatypeTag.DECIMAL
            )
        else:
            # any family member is a valid fill for schema 0 thanks to the chain
            j = rng.randrange(n_schemas)
            fills[f"slot{i}"] = SlotFill.resource(pm.gupri(f"ex:family{i}-s{j}"))
    return StatementInstance(schema_id=schema_id, fills=fills)


# ---------------------------------------------------------------------------
# registration and checking


@settings(deadline=None, max_examples=60)
@given(st.randoms(use_true_random=False), st.sampled_from([None, 0.5]))
def test_alignment_status_matches_oracle(rng, threshold):
    # one-slot resource schemas constrained by every pair of random terms
    engine = make_engine()
    pm = engine.prefix_map
    nodes, mappings = random_mapping_set(rng, pm)
    for m in mappings:
        engine.terminology.add_mapping(m)
    kept = [m for m in mappings if threshold is None or m.confidence >= threshold]
    ont, ref = oracle_closures(nodes, kept)
    ont_of = {n: c for c in ont for n in c}
    ref_of = {n: c for c in ref for n in c}
    schemas = [
        engine.schemas.register_schema(
            StatementSchema(
                id=pm.gupri(f"ex:probe-schema-{i}"),
                statement_type=pm.gupri("ex:probe-type"),
                label="",
                slots=(SlotSpec("slot", "ROLE", SlotKind.RESOURCE, Gupri(node)),),
            )
        )
        for i, node in enumerate(nodes)
    ]
    snap = engine.terminology.compute_closure(threshold)
    for a, source in zip(nodes, schemas):
        for b, target in zip(nodes, schemas):
            cw = Crosswalk(pm.gupri("ex:probe"), source, target, (SlotAlignment("slot", "slot"),))
            (check,) = engine.crosswalks.check_crosswalk(cw, snap=snap).checks
            if a == b:
                expected = AlignmentStatus.EQUAL
            elif ont_of[a] == ont_of[b]:
                expected = AlignmentStatus.ONTOLOGICALLY_MAPPED
            elif ref_of[a] == ref_of[b]:
                expected = AlignmentStatus.REFERENTIALLY_MAPPED
            else:
                expected = AlignmentStatus.INCOMPATIBLE
            assert check.status is expected, (a, b)


def test_register_weight_crosswalk(weight):
    cw = weight.engine.crosswalks.crosswalk(weight.crosswalk_id)
    assert cw.level is CrosswalkLevel.ONTOLOGICAL
    assert len(cw.alignments) == 4


def test_register_fails_without_weight_mapping():
    fx = build_weight_fixture(weight_mapping=False, crosswalk=False, register_golden=False)
    pm = fx.engine.prefix_map
    with pytest.raises(IncompatibleAlignment) as excinfo:
        fx.engine.crosswalks.register_crosswalk(
            Crosswalk(
                id=pm.gupri("ex:weight-crosswalk"),
                source_schema=fx.obi_schema,
                target_schema=fx.oboe_schema,
                alignments=(
                    SlotAlignment("object", "entity"),
                    SlotAlignment("quality", "characteristic"),
                    SlotAlignment("value", "amount"),
                    SlotAlignment("unit", "standard"),
                ),
            )
        )
    assert "quality" in str(excinfo.value)


def test_alignment_naming_nonexistent_slot(weight):
    pm = weight.engine.prefix_map
    with pytest.raises(UnknownSlot):
        weight.engine.crosswalks.register_crosswalk(
            Crosswalk(
                id=pm.gupri("ex:bad-crosswalk"),
                source_schema=weight.obi_schema,
                target_schema=weight.oboe_schema,
                alignments=(SlotAlignment("no-such-slot", "entity"),),
            )
        )


def test_duplicate_aligned_slot_rejected(weight):
    pm = weight.engine.prefix_map
    with pytest.raises(IncompatibleAlignment):
        weight.engine.crosswalks.register_crosswalk(
            Crosswalk(
                id=pm.gupri("ex:dup-crosswalk"),
                source_schema=weight.obi_schema,
                target_schema=weight.oboe_schema,
                alignments=(
                    SlotAlignment("object", "entity"),
                    SlotAlignment("object", "characteristic"),
                ),
            )
        )


def test_uncovered_required_target_slot(weight):
    pm = weight.engine.prefix_map
    with pytest.raises(UncoveredRequiredTargetSlot):
        weight.engine.crosswalks.register_crosswalk(
            Crosswalk(
                id=pm.gupri("ex:partial-crosswalk"),
                source_schema=weight.obi_schema,
                target_schema=weight.oboe_schema,
                alignments=(
                    SlotAlignment("object", "entity"),
                    SlotAlignment("quality", "characteristic"),
                    SlotAlignment("value", "amount"),
                ),
            )
        )


def test_check_identity_crosswalk_all_equal(weight):
    engine = weight.engine
    cw = identity_crosswalk(engine.schemas.schema(weight.obi_schema))
    report = engine.crosswalks.check_crosswalk(cw)
    assert all(c.status is AlignmentStatus.EQUAL for c in report.checks)
    assert report.clean


def test_check_weight_crosswalk_statuses(weight):
    report = weight.engine.crosswalks.check_crosswalk(weight.crosswalk_id)
    statuses = {c.alignment.source_slot: c.status for c in report.checks}
    assert statuses == {
        "object": AlignmentStatus.EQUAL,
        "quality": AlignmentStatus.ONTOLOGICALLY_MAPPED,
        "value": AlignmentStatus.EQUAL,
        "unit": AlignmentStatus.EQUAL,
    }


def test_check_without_mapping_reports_incompatible():
    fx = build_weight_fixture(register_golden=False)
    fx.engine.terminology.remove_mapping(fx.weight_mapping_id)
    report = fx.engine.crosswalks.check_crosswalk(fx.crosswalk_id)
    statuses = {c.alignment.source_slot: c.status for c in report.checks}
    assert statuses["quality"] is AlignmentStatus.INCOMPATIBLE
    assert not report.clean


def test_check_role_mismatch(weight):
    pm = weight.engine.prefix_map
    cw = Crosswalk(
        id=pm.gupri("ex:mismatch-crosswalk"),
        source_schema=weight.obi_schema,
        target_schema=weight.oboe_schema,
        alignments=(SlotAlignment("value", "standard"),),  # literal onto resource
    )
    report = weight.engine.crosswalks.check_crosswalk(cw)
    assert report.checks[0].status is AlignmentStatus.ROLE_MISMATCH


def test_check_literal_datatype_mismatch(engine):
    pm = engine.prefix_map
    a = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:lit-a"),
            statement_type=pm.gupri("ex:lit-type"),
            label="a",
            slots=(SlotSpec("v", "VALUE", SlotKind.LITERAL, DatatypeTag.DECIMAL),),
        )
    )
    b = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:lit-b"),
            statement_type=pm.gupri("ex:lit-type"),
            label="b",
            slots=(SlotSpec("v", "VALUE", SlotKind.LITERAL, DatatypeTag.INTEGER),),
        )
    )
    cw = Crosswalk(
        id=pm.gupri("ex:lit-crosswalk"),
        source_schema=a,
        target_schema=b,
        alignments=(SlotAlignment("v", "v"),),
    )
    report = engine.crosswalks.check_crosswalk(cw)
    assert report.checks[0].status is AlignmentStatus.INCOMPATIBLE


# ---------------------------------------------------------------------------
# classification


def test_classify_identity_ontological(weight):
    engine = weight.engine
    cw = identity_crosswalk(engine.schemas.schema(weight.obi_schema))
    assert engine.crosswalks.classify_crosswalk(cw) is CrosswalkLevel.ONTOLOGICAL


def test_classify_referential_when_pair_only_referentially_mapped(weight):
    engine = weight.engine
    pm = engine.prefix_map
    # a third schema whose quality constraint is only equivalent-class mapped
    term(engine, "ex:mass")
    add_mapping(engine, "ex:mass", MappingPredicate.EQUIVALENT_CLASS, "pato:weight")
    third = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:mass-schema"),
            statement_type=pm.gupri("obi:weight-assay"),
            label="mass style",
            slots=(
                SlotSpec("object", "OBJECT", SlotKind.RESOURCE, pm.gupri("obo:material-entity")),
                SlotSpec("quality", "QUALITY", SlotKind.RESOURCE, pm.gupri("ex:mass")),
                SlotSpec("value", "VALUE", SlotKind.LITERAL, DatatypeTag.DECIMAL),
                SlotSpec("unit", "UNIT", SlotKind.RESOURCE, pm.gupri("unit:mass-unit")),
            ),
        )
    )
    cw = Crosswalk(
        id=pm.gupri("ex:mass-crosswalk"),
        source_schema=weight.obi_schema,
        target_schema=third,
        alignments=(
            SlotAlignment("object", "object"),
            SlotAlignment("quality", "quality"),
            SlotAlignment("value", "value"),
            SlotAlignment("unit", "unit"),
        ),
    )
    assert engine.crosswalks.classify_crosswalk(cw) is CrosswalkLevel.REFERENTIAL


def test_classify_referential_when_optional_adjunct_unaligned(weight):
    engine = weight.engine
    pm = engine.prefix_map
    slots = engine.schemas.schema(weight.obi_schema).slots + (
        SlotSpec("when", "TIME", SlotKind.LITERAL, DatatypeTag.DATETIME, required=False),
    )
    adjunct = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:adjunct-schema"),
            statement_type=pm.gupri("obi:weight-assay"),
            label="with time adjunct",
            slots=slots,
        )
    )
    cw = Crosswalk(
        id=pm.gupri("ex:adjunct-crosswalk"),
        source_schema=adjunct,
        target_schema=weight.oboe_schema,
        alignments=(
            SlotAlignment("object", "entity"),
            SlotAlignment("quality", "characteristic"),
            SlotAlignment("value", "amount"),
            SlotAlignment("unit", "standard"),
        ),
    )
    assert engine.crosswalks.classify_crosswalk(cw) is CrosswalkLevel.REFERENTIAL


def test_classify_propagates_check_failure():
    fx = build_weight_fixture(register_golden=False)
    fx.engine.terminology.remove_mapping(fx.weight_mapping_id)
    with pytest.raises(InvalidCrosswalk):
        fx.engine.crosswalks.classify_crosswalk(fx.crosswalk_id)


# ---------------------------------------------------------------------------
# composition and inversion


def test_compose_with_identity_keeps_alignments(weight):
    engine = weight.engine
    identity = identity_crosswalk(engine.schemas.schema(weight.obi_schema))
    cw = engine.crosswalks.crosswalk(weight.crosswalk_id)
    composed = engine.crosswalks.compose_crosswalks(identity, cw)
    assert set(composed.alignments) == set(cw.alignments)


def test_compose_levels_and_transform_oracle():
    engine, schemas, crosswalk_ids, literal_slots = build_chain(n_schemas=3, seed=13)
    ab = engine.crosswalks.crosswalk(crosswalk_ids[0])
    bc = engine.crosswalks.crosswalk(crosswalk_ids[1])
    assert ab.level is CrosswalkLevel.ONTOLOGICAL
    composed = engine.crosswalks.compose_crosswalks(ab, bc)
    assert composed.level is CrosswalkLevel.ONTOLOGICAL
    rng = random.Random(99)
    for _ in range(30):
        inst = random_chain_instance(engine, schemas[0], literal_slots, 3, rng, 3)
        sequential = engine.crosswalks.transform_instance(
            engine.crosswalks.transform_instance(inst, ab), bc
        )
        direct = engine.crosswalks.transform_instance(inst, composed)
        assert instance_bytes(engine, sequential) == instance_bytes(engine, direct)


def test_compose_level_is_minimum():
    engine, schemas, crosswalk_ids, _ = build_chain(n_schemas=3, seed=3, referential_hop=1)
    ab = engine.crosswalks.crosswalk(crosswalk_ids[0])
    bc = engine.crosswalks.crosswalk(crosswalk_ids[1])
    assert ab.level is CrosswalkLevel.ONTOLOGICAL
    assert bc.level is CrosswalkLevel.REFERENTIAL
    composed = engine.crosswalks.compose_crosswalks(ab, bc)
    assert composed.level is CrosswalkLevel.REFERENTIAL


def test_compose_associativity():
    engine, schemas, crosswalk_ids, literal_slots = build_chain(n_schemas=4, n_slots=4, seed=21)
    cws = [engine.crosswalks.crosswalk(c) for c in crosswalk_ids]
    left = engine.crosswalks.compose_crosswalks(
        engine.crosswalks.compose_crosswalks(cws[0], cws[1]), cws[2]
    )
    right = engine.crosswalks.compose_crosswalks(
        cws[0], engine.crosswalks.compose_crosswalks(cws[1], cws[2])
    )
    assert set(left.alignments) == set(right.alignments)
    assert left.level == right.level
    rng = random.Random(17)
    for _ in range(20):
        inst = random_chain_instance(engine, schemas[0], literal_slots, 4, rng, 4)
        assert instance_bytes(engine, engine.crosswalks.transform_instance(inst, left)) == (
            instance_bytes(engine, engine.crosswalks.transform_instance(inst, right))
        )


def test_compose_schema_mismatch(weight):
    engine = weight.engine
    cw = engine.crosswalks.crosswalk(weight.crosswalk_id)
    with pytest.raises(SchemaMismatch):
        engine.crosswalks.compose_crosswalks(cw, cw)


def test_compose_uncovered_required_slot(engine):
    pm = engine.prefix_map
    term(engine, "ex:c1")
    a = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:j-a"),
            statement_type=pm.gupri("ex:j-type"),
            label="a",
            slots=(
                SlotSpec("x", "X", SlotKind.RESOURCE, pm.gupri("ex:c1")),
                SlotSpec("y", "Y", SlotKind.LITERAL, DatatypeTag.STRING, required=False),
            ),
        )
    )
    b = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:j-b"),
            statement_type=pm.gupri("ex:j-type"),
            label="b",
            slots=(
                SlotSpec("x", "X", SlotKind.RESOURCE, pm.gupri("ex:c1")),
                SlotSpec("y", "Y", SlotKind.LITERAL, DatatypeTag.STRING, required=False),
            ),
        )
    )
    c = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:j-c"),
            statement_type=pm.gupri("ex:j-type"),
            label="c",
            slots=(
                SlotSpec("x", "X", SlotKind.RESOURCE, pm.gupri("ex:c1"), required=False),
                SlotSpec("y", "Y", SlotKind.LITERAL, DatatypeTag.STRING),
            ),
        )
    )
    ab = Crosswalk(
        id=pm.gupri("ex:j-ab"),
        source_schema=a,
        target_schema=b,
        alignments=(SlotAlignment("x", "x"),),
    )
    bc = Crosswalk(
        id=pm.gupri("ex:j-bc"),
        source_schema=b,
        target_schema=c,
        alignments=(SlotAlignment("x", "x"), SlotAlignment("y", "y")),
    )
    # the join keeps only x -> x, leaving c's required y uncovered
    with pytest.raises(JoinProducesUncoveredRequiredSlot):
        engine.crosswalks.compose_crosswalks(ab, bc)


def test_invert_identity_is_itself(weight):
    engine = weight.engine
    identity = identity_crosswalk(engine.schemas.schema(weight.obi_schema))
    inverted = engine.crosswalks.invert_crosswalk(identity)
    assert inverted.source_schema == identity.source_schema
    assert inverted.target_schema == identity.target_schema
    assert set(inverted.alignments) == set(identity.alignments)


def test_invert_weight_crosswalk_round_trip(weight):
    engine = weight.engine
    cw = engine.crosswalks.crosswalk(weight.crosswalk_id)
    inverted = engine.crosswalks.invert_crosswalk(cw)
    assert inverted.source_schema == weight.oboe_schema
    assert inverted.target_schema == weight.obi_schema
    assert inverted.level is CrosswalkLevel.ONTOLOGICAL
    there = engine.crosswalks.transform_instance(weight.instance, cw)
    back = engine.crosswalks.transform_instance(there, inverted)
    assert instance_bytes(engine, back) == instance_bytes(engine, weight.instance)


def test_invert_uncovered_required_source_not_invertible(engine):
    pm = engine.prefix_map
    term(engine, "ex:c2")
    a = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:inv-a"),
            statement_type=pm.gupri("ex:inv-type"),
            label="a",
            slots=(
                SlotSpec("x", "X", SlotKind.RESOURCE, pm.gupri("ex:c2")),
                SlotSpec("extra", "EXTRA", SlotKind.LITERAL, DatatypeTag.STRING),
            ),
        )
    )
    b = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:inv-b"),
            statement_type=pm.gupri("ex:inv-type"),
            label="b",
            slots=(SlotSpec("x", "X", SlotKind.RESOURCE, pm.gupri("ex:c2")),),
        )
    )
    cw = Crosswalk(
        id=pm.gupri("ex:inv-ab"),
        source_schema=a,
        target_schema=b,
        alignments=(SlotAlignment("x", "x"),),  # a's required "extra" unaligned
    )
    engine.crosswalks.register_crosswalk(cw)
    with pytest.raises(NotInvertible):
        engine.crosswalks.invert_crosswalk(cw)


def _two_slot_schema(engine):
    pm = engine.prefix_map
    return engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:two-slot"),
            statement_type=pm.gupri("ex:two-slot-type"),
            label="two slots",
            slots=(
                SlotSpec("x", "X", SlotKind.LITERAL, DatatypeTag.STRING),
                SlotSpec("y", "Y", SlotKind.LITERAL, DatatypeTag.STRING, required=False),
            ),
        )
    )


def _self_crosswalk(engine, schema, *slots: str) -> Crosswalk:
    return Crosswalk(
        id=engine.prefix_map.gupri("ex:self-crosswalk"),
        source_schema=schema,
        target_schema=schema,
        alignments=tuple(SlotAlignment(s, s) for s in slots),
    )


def test_register_crosswalk_again_with_equal_content(engine):
    schema = _two_slot_schema(engine)
    cw_id = engine.crosswalks.register_crosswalk(_self_crosswalk(engine, schema, "x"))
    stored = engine.crosswalks.crosswalk(cw_id)
    assert engine.crosswalks.register_crosswalk(_self_crosswalk(engine, schema, "x")) == cw_id
    assert engine.crosswalks.crosswalks() == [stored]


def test_register_crosswalk_conflicting_alignments(engine):
    schema = _two_slot_schema(engine)
    cw_id = engine.crosswalks.register_crosswalk(_self_crosswalk(engine, schema, "x"))
    with pytest.raises(ConflictingCrosswalk) as excinfo:
        engine.crosswalks.register_crosswalk(_self_crosswalk(engine, schema, "x", "y"))
    assert excinfo.value.tag == "conflicting-crosswalk"
    assert str(excinfo.value) == f"crosswalk {cw_id} already registered with different content"
    assert engine.crosswalks.crosswalk(cw_id).alignments == (SlotAlignment("x", "x"),)


def test_unknown_crosswalk_lookup(weight):
    from semint.errors import UnknownCrosswalk

    with pytest.raises(UnknownCrosswalk):
        weight.engine.crosswalks.crosswalk("ex:ghost-crosswalk")


def test_crosswalk_doc_bad_level_label(weight):
    from semint.documents import crosswalk_from_doc, crosswalk_to_doc
    from semint.errors import MalformedContent

    doc = crosswalk_to_doc(weight.engine.crosswalks.crosswalk(weight.crosswalk_id), weight.engine.prefix_map)
    doc["level"] = "Mystical"
    with pytest.raises(MalformedContent):
        crosswalk_from_doc(doc, weight.engine.prefix_map)


# ---------------------------------------------------------------------------
# transformation


def test_transform_apple_instance(weight):
    engine = weight.engine
    out = engine.crosswalks.transform_instance(weight.instance, weight.crosswalk_id)
    assert out.schema_id == weight.oboe_schema
    assert out.fills["amount"].value == "212.45"
    assert str(out.fills["standard"].value) == "http://example.org/unit/gram"
    assert str(out.fills["characteristic"].value) == "http://example.org/ncit/weight"
    assert str(out.fills["entity"].value) == "http://example.org/things/apple-1"
    assert str(out.fills["entity"].asserted_class) == "http://example.org/things/apple"
    assert engine.schemas.validate_instance(out).valid


def test_transform_identity_is_byte_identical(weight):
    engine = weight.engine
    identity = identity_crosswalk(engine.schemas.schema(weight.obi_schema))
    out = engine.crosswalks.transform_instance(weight.instance, identity)
    assert instance_bytes(engine, out) == instance_bytes(engine, weight.instance)


def test_transform_without_mapping_raises_no_mapped_term():
    fx = build_weight_fixture(register_golden=False)
    fx.engine.terminology.remove_mapping(fx.weight_mapping_id)
    with pytest.raises(NoMappedTerm) as excinfo:
        fx.engine.crosswalks.transform_instance(fx.instance, fx.crosswalk_id)
    assert "characteristic" in str(excinfo.value)


def test_transform_source_invalid(weight):
    bad = StatementInstance(schema_id=weight.obi_schema, fills={})
    with pytest.raises(SourceInvalid):
        weight.engine.crosswalks.transform_instance(bad, weight.crosswalk_id)


def test_transform_of_an_instance_of_another_schema_raises_schema_mismatch(weight):
    engine = weight.engine
    pm = engine.prefix_map
    # the source schema's slots under another id: its instance validates, but
    # the crosswalk does not start at its schema
    other = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:other-schema"),
            statement_type=pm.gupri("obi:weight-assay"),
            label="other",
            slots=engine.schemas.schema(weight.obi_schema).slots,
        )
    )
    for inst in (
        StatementInstance(schema_id=other, fills=weight.instance.fills),
        engine.crosswalks.transform_instance(weight.instance, weight.crosswalk_id),  # an oboe instance
    ):
        with pytest.raises(SchemaMismatch, match="cannot transform: instance of"):
            engine.crosswalks.transform_instance(inst, weight.crosswalk_id)


def test_transform_referential_rewrite_and_strict_mode(weight):
    engine = weight.engine
    pm = engine.prefix_map
    # a fourth vocabulary for the quality, only referentially equivalent
    term(engine, "ex:heaviness-concept")
    add_mapping(engine, "ex:heaviness-concept", MappingPredicate.EQUIVALENT_CLASS, "pato:weight")
    fills = dict(weight.instance.fills)
    fills["quality"] = SlotFill.resource(pm.gupri("ex:heaviness-concept"))
    inst = StatementInstance(schema_id=weight.obi_schema, fills=fills)
    out = engine.crosswalks.transform_instance(inst, weight.crosswalk_id)
    assert str(out.fills["characteristic"].value) == "http://example.org/ncit/weight"
    with pytest.raises(ReferentialDisallowed):
        engine.crosswalks.transform_instance(inst, weight.crosswalk_id, allow_referential=False)


def test_transform_drops_unaligned_optional_fill(weight, caplog):
    engine = weight.engine
    pm = engine.prefix_map
    slots = engine.schemas.schema(weight.obi_schema).slots + (
        SlotSpec("note", "NOTE", SlotKind.LITERAL, DatatypeTag.STRING, required=False),
    )
    noted = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:noted-schema"),
            statement_type=pm.gupri("obi:weight-assay"),
            label="with note",
            slots=slots,
        )
    )
    cw = engine.crosswalks.register_crosswalk(
        Crosswalk(
            id=pm.gupri("ex:noted-crosswalk"),
            source_schema=noted,
            target_schema=weight.oboe_schema,
            alignments=(
                SlotAlignment("object", "entity"),
                SlotAlignment("quality", "characteristic"),
                SlotAlignment("value", "amount"),
                SlotAlignment("unit", "standard"),
            ),
        )
    )
    fills = dict(weight.instance.fills)
    fills["note"] = SlotFill.literal("weighed twice", DatatypeTag.STRING)
    inst = StatementInstance(schema_id=noted, fills=fills)
    import logging

    with caplog.at_level(logging.WARNING, logger="semint.crosswalks"):
        out = engine.crosswalks.transform_instance(inst, cw)
    assert "note" not in out.fills
    assert any("note" in r.message for r in caplog.records)


def test_transform_unfillable_required_target(engine):
    pm = engine.prefix_map
    term(engine, "ex:c3")
    a = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:t-a"),
            statement_type=pm.gupri("ex:t-type"),
            label="a",
            slots=(
                SlotSpec("x", "X", SlotKind.RESOURCE, pm.gupri("ex:c3")),
                SlotSpec("y", "Y", SlotKind.LITERAL, DatatypeTag.STRING, required=False),
            ),
        )
    )
    b = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:t-b"),
            statement_type=pm.gupri("ex:t-type"),
            label="b",
            slots=(
                SlotSpec("x", "X", SlotKind.RESOURCE, pm.gupri("ex:c3")),
                SlotSpec("y", "Y", SlotKind.LITERAL, DatatypeTag.STRING),
            ),
        )
    )
    cw = engine.crosswalks.register_crosswalk(
        Crosswalk(
            id=pm.gupri("ex:t-ab"),
            source_schema=a,
            target_schema=b,
            alignments=(SlotAlignment("x", "x"), SlotAlignment("y", "y")),
        )
    )
    inst = StatementInstance(
        schema_id=a, fills={"x": SlotFill.resource(pm.gupri("ex:c3"))}
    )
    with pytest.raises(UnfillableRequiredTargetSlot):
        engine.crosswalks.transform_instance(inst, cw)


def test_transform_strict_mode_containment():
    engine, schemas, crosswalk_ids, literal_slots = build_chain(n_schemas=2, seed=5)
    rng = random.Random(1)
    for _ in range(20):
        inst = random_chain_instance(engine, schemas[0], literal_slots, 3, rng, 2)
        try:
            strict = engine.crosswalks.transform_instance(
                inst, crosswalk_ids[0], allow_referential=False
            )
        except Exception:
            continue
        loose = engine.crosswalks.transform_instance(inst, crosswalk_ids[0])
        assert instance_bytes(engine, strict) == instance_bytes(engine, loose)


def test_transform_soundness_random_instances():
    engine, schemas, crosswalk_ids, literal_slots = build_chain(n_schemas=3, seed=29)
    rng = random.Random(4)
    for _ in range(30):
        inst = random_chain_instance(engine, schemas[0], literal_slots, 3, rng, 3)
        out = engine.crosswalks.transform_instance(inst, crosswalk_ids[0])
        assert engine.schemas.validate_instance(out).valid


# ---------------------------------------------------------------------------
# planning


def _register_plain_schemas(engine, count: int, prefix: str = "ex:plan") -> list:
    pm = engine.prefix_map
    term(engine, "ex:plan-class")
    ids = []
    for i in range(count):
        ids.append(
            engine.schemas.register_schema(
                StatementSchema(
                    id=pm.gupri(f"{prefix}-{i}"),
                    statement_type=pm.gupri("ex:plan-type"),
                    label=f"plan {i}",
                    slots=(SlotSpec("x", "X", SlotKind.RESOURCE, pm.gupri("ex:plan-class")),),
                )
            )
        )
    return ids


def test_plan_pairwise_eight_schemas(engine):
    ids = _register_plain_schemas(engine, 8)
    report = engine.crosswalks.plan_crosswalks(ids, strategy="pairwise")
    assert report.required_count == 28
    assert len(report.missing) == 28
    assert len(report.pairs_covered) == 28


def test_plan_hub_eight_schemas(engine):
    ids = _register_plain_schemas(engine, 8)
    (hub,) = _register_plain_schemas(engine, 1, prefix="ex:reference")
    report = engine.crosswalks.plan_crosswalks(ids, strategy="hub", hub=hub)
    assert report.required_count == 8
    assert len(report.pairs_covered) == 28


def test_plan_single_schema(engine):
    ids = _register_plain_schemas(engine, 1)
    assert engine.crosswalks.plan_crosswalks(ids, strategy="pairwise").required_count == 0
    report = engine.crosswalks.plan_crosswalks(ids, strategy="hub", hub=ids[0])
    assert report.required_count == 0


def test_plan_count_law_matches_enumeration(engine):
    ids = _register_plain_schemas(engine, 16)
    (hub,) = _register_plain_schemas(engine, 1, prefix="ex:reference")
    for n in range(2, 17):
        subset = [str(g) for g in ids[:n]]
        pairwise = engine.crosswalks.plan_crosswalks(subset, strategy="pairwise")
        assert pairwise.required_count == n * (n - 1) // 2
        assert sorted(pairwise.missing) == pairwise_links(subset)
        hubbed = engine.crosswalks.plan_crosswalks(subset, strategy="hub", hub=hub)
        assert hubbed.required_count == n
        assert sorted(hubbed.missing) == sorted(hub_links(subset, str(hub)))


def test_plan_counts_existing_and_composed_coverage(weight):
    engine = weight.engine
    report = engine.crosswalks.plan_crosswalks(
        [weight.obi_schema, weight.oboe_schema], strategy="pairwise"
    )
    assert report.required_count == 1
    assert report.existing_count == 1
    assert report.missing == ()


def test_plan_unknown_schema(engine):
    with pytest.raises(UnknownSchema):
        engine.crosswalks.plan_crosswalks(["ex:ghost"], strategy="pairwise")


def test_plan_hub_must_be_registered(engine):
    ids = _register_plain_schemas(engine, 2)
    with pytest.raises(HubNotInSet):
        engine.crosswalks.plan_crosswalks(ids, strategy="hub", hub="ex:ghost-hub")
    with pytest.raises(HubNotInSet):
        engine.crosswalks.plan_crosswalks(ids, strategy="hub", hub=None)
