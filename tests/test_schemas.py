from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import (
    DatatypeTag,
    Gupri,
    MappingPredicate,
    SlotFill,
    SlotKind,
    SlotSpec,
    StatementInstance,
    StatementSchema,
)
from semint.documents import render, validation_to_doc
from semint.errors import (
    ConflictingSchema,
    DuplicateSlotId,
    MalformedRecord,
    NoRequiredSlot,
    UnknownSchema,
)
from semint.schemas import canonical_decimal, literal_parses

from conftest import add_mapping, build_weight_fixture, make_engine, term
from oracles import (
    ONTOLOGICAL_PREDICATES,
    REFERENTIAL_PREDICATES,
    directed_reachability,
    equivalence_partition,
    random_mapping_set,
)


# ---------------------------------------------------------------------------
# datatypes


def test_canonical_decimal_trims():
    assert canonical_decimal("212.450") == "212.45"
    assert canonical_decimal("0212.45") == "212.45"
    assert canonical_decimal("+3.0") == "3"
    assert canonical_decimal("-0.0") == "0"
    assert canonical_decimal("212450") == "212450"
    assert canonical_decimal(".5") == "0.5"
    assert canonical_decimal("000") == "0"
    assert canonical_decimal("10.") == "10"
    assert canonical_decimal("-012.3400") == "-12.34"


def test_canonical_decimal_rejects_nonsense():
    with pytest.raises(ValueError):
        canonical_decimal("1e3")
    with pytest.raises(ValueError):
        canonical_decimal("twelve")


@pytest.mark.parametrize(
    "value,tag,ok",
    [
        ("212.45", DatatypeTag.DECIMAL, True),
        ("212", DatatypeTag.INTEGER, True),
        ("2.5", DatatypeTag.INTEGER, False),
        ("true", DatatypeTag.BOOLEAN, True),
        ("yes", DatatypeTag.BOOLEAN, False),
        ("2024-05-14T10:00:00Z", DatatypeTag.DATETIME, True),
        ("last tuesday", DatatypeTag.DATETIME, False),
        ("anything", DatatypeTag.STRING, True),
    ],
)
def test_literal_parses(value, tag, ok):
    assert literal_parses(value, tag) is ok


# ---------------------------------------------------------------------------
# registration


def test_register_weight_schema(weight):
    schema = weight.engine.schemas.schema("obi:weight-schema")
    assert [s.slot_id for s in schema.slots] == ["object", "quality", "value", "unit"]


def test_register_schema_without_required_slot(engine):
    pm = engine.prefix_map
    with pytest.raises(NoRequiredSlot):
        engine.schemas.register_schema(
            StatementSchema(
                id=pm.gupri("ex:empty-schema"),
                statement_type=pm.gupri("ex:nothing"),
                label="empty",
                slots=(),
            )
        )


def test_register_schema_duplicate_slot_id(engine):
    pm = engine.prefix_map
    with pytest.raises(DuplicateSlotId):
        engine.schemas.register_schema(
            StatementSchema(
                id=pm.gupri("ex:dup-schema"),
                statement_type=pm.gupri("ex:thing"),
                label="dup",
                slots=(
                    SlotSpec("value", "VALUE", SlotKind.LITERAL, DatatypeTag.DECIMAL),
                    SlotSpec("value", "VALUE", SlotKind.LITERAL, DatatypeTag.DECIMAL),
                ),
            )
        )


def test_register_schema_idempotent_and_conflicting(weight):
    engine = weight.engine
    schema = engine.schemas.schema(weight.obi_schema)
    assert engine.schemas.register_schema(schema) == weight.obi_schema
    import dataclasses

    changed = dataclasses.replace(schema, label="renamed")
    with pytest.raises(ConflictingSchema):
        engine.schemas.register_schema(changed)


def test_racing_conflicting_schema_registrations_store_one(weight):
    # threads registering one id with different contents: exactly one is
    # stored and every other gets the conflict
    import dataclasses
    import sys
    import threading

    engine = weight.engine
    base = engine.schemas.schema(weight.obi_schema)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_ in range(20):
            schema_id = engine.prefix_map.gupri(f"ex:raced-{round_}")
            contents = [dataclasses.replace(base, id=schema_id, label=f"label {i}") for i in range(4)]
            barrier = threading.Barrier(len(contents))
            stored: list = []
            conflicts: list[ConflictingSchema] = []

            def register(schema):
                barrier.wait(timeout=5)
                try:
                    engine.schemas.register_schema(schema)
                    stored.append(schema)
                except ConflictingSchema as exc:
                    conflicts.append(exc)

            threads = [threading.Thread(target=register, args=(c,)) for c in contents]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(stored) == 1 and len(conflicts) == 3
            assert engine.schemas.schema(schema_id) == stored[0]
            assert {str(e) for e in conflicts} == {
                f"schema {schema_id} already registered with different content"
            }
    finally:
        sys.setswitchinterval(interval)


def test_slot_spec_kind_constraint_consistency(engine):
    pm = engine.prefix_map
    with pytest.raises(MalformedRecord):
        SlotSpec("x", "X", SlotKind.RESOURCE, DatatypeTag.DECIMAL)
    with pytest.raises(MalformedRecord):
        SlotSpec("x", "X", SlotKind.LITERAL, pm.gupri("ex:thing"))


# ---------------------------------------------------------------------------
# validation


def test_apple_instance_validates(weight):
    report = weight.engine.schemas.validate_instance(weight.instance)
    assert report.valid
    assert report.violations == ()


def test_missing_required_value_slot(weight):
    fills = {k: v for k, v in weight.instance.fills.items() if k != "value"}
    report = weight.engine.schemas.validate_instance(
        StatementInstance(schema_id=weight.obi_schema, fills=fills)
    )
    assert not report.valid
    assert [(v.code, v.slot_id) for v in report.violations] == [
        ("missing-required-slot", "value")
    ]


def test_mapped_quality_satisfies_constraint(weight):
    # ncit:weight in a slot constrained to pato:weight, bridged by owl:sameAs
    pm = weight.engine.prefix_map
    fills = dict(weight.instance.fills)
    fills["quality"] = SlotFill.resource(pm.gupri("ncit:weight"))
    report = weight.engine.schemas.validate_instance(
        StatementInstance(schema_id=weight.obi_schema, fills=fills)
    )
    assert report.valid


def test_unmapped_quality_fails_constraint():
    fx = build_weight_fixture(weight_mapping=False, crosswalk=False, register_golden=False)
    pm = fx.engine.prefix_map
    fills = dict(fx.instance.fills)
    fills["quality"] = SlotFill.resource(pm.gupri("ncit:weight"))
    report = fx.engine.schemas.validate_instance(
        StatementInstance(schema_id=fx.obi_schema, fills=fills)
    )
    assert [(v.code, v.slot_id) for v in report.violations] == [("constraint-failure", "quality")]


def test_strict_mode_restricts_to_ontological(weight):
    engine = weight.engine
    pm = engine.prefix_map
    add_mapping(engine, "ex:mass", MappingPredicate.EQUIVALENT_CLASS, "pato:weight")
    fills = dict(weight.instance.fills)
    fills["quality"] = SlotFill.resource(pm.gupri("ex:mass"))
    inst = StatementInstance(schema_id=weight.obi_schema, fills=fills)
    assert engine.schemas.validate_instance(inst).valid
    strict = engine.schemas.validate_instance(inst, strict=True)
    assert not strict.valid


def test_subclass_reachability_satisfies_constraint(weight):
    # the object slot takes ex:apple-1 via asserted class ex:apple, a subclass
    # of the constraint obo:material-entity
    report = weight.engine.schemas.validate_instance(weight.instance)
    assert report.valid


def test_kind_mismatch(weight):
    pm = weight.engine.prefix_map
    fills = dict(weight.instance.fills)
    fills["value"] = SlotFill.resource(pm.gupri("ex:apple"))
    report = weight.engine.schemas.validate_instance(
        StatementInstance(schema_id=weight.obi_schema, fills=fills)
    )
    assert [(v.code, v.slot_id) for v in report.violations] == [("kind-mismatch", "value")]


def test_literal_parse_failure(weight):
    fills = dict(weight.instance.fills)
    fills["value"] = SlotFill.literal("heavy", DatatypeTag.DECIMAL)
    report = weight.engine.schemas.validate_instance(
        StatementInstance(schema_id=weight.obi_schema, fills=fills)
    )
    assert [(v.code, v.slot_id) for v in report.violations] == [
        ("literal-parse-failure", "value")
    ]


def test_datatype_mismatch(weight):
    fills = dict(weight.instance.fills)
    fills["value"] = SlotFill.literal("212", DatatypeTag.INTEGER)
    report = weight.engine.schemas.validate_instance(
        StatementInstance(schema_id=weight.obi_schema, fills=fills)
    )
    assert [(v.code, v.slot_id) for v in report.violations] == [("datatype-mismatch", "value")]


def test_unknown_slot_violation(weight):
    pm = weight.engine.prefix_map
    fills = dict(weight.instance.fills)
    fills["flavor"] = SlotFill.resource(pm.gupri("ex:apple"))
    report = weight.engine.schemas.validate_instance(
        StatementInstance(schema_id=weight.obi_schema, fills=fills)
    )
    assert [(v.code, v.slot_id) for v in report.violations] == [("unknown-slot", "flavor")]


def test_validate_unknown_schema(weight):
    pm = weight.engine.prefix_map
    with pytest.raises(UnknownSchema):
        weight.engine.schemas.validate_instance(
            StatementInstance(schema_id=pm.gupri("ex:ghost-schema"), fills={})
        )


# ---------------------------------------------------------------------------
# statement-type queries


def test_schemas_for_statement_type_direct(weight):
    found = weight.engine.schemas.schemas_for_statement_type("obi:weight-assay")
    assert weight.obi_schema in found


def test_schemas_for_statement_type_empty(engine):
    assert engine.schemas.schemas_for_statement_type("ex:nothing") == []


def test_schemas_for_statement_type_merges_mapped_predicates(weight):
    # obi:weight-assay and oboe:weight-observation are equivalent classes, so
    # querying either returns both schemas, sorted by canonical id
    found = weight.engine.schemas.schemas_for_statement_type("oboe:weight-observation")
    assert found == sorted([weight.obi_schema, weight.oboe_schema])


def test_detect_schema_duplicates_uncovered():
    fx = build_weight_fixture(crosswalk=False, register_golden=False)
    groups = fx.engine.schemas.detect_schema_duplicates(fx.engine.crosswalks)
    assert len(groups) == 1
    assert groups[0].schema_ids == tuple(sorted([fx.obi_schema, fx.oboe_schema]))
    assert groups[0].crosswalk_covered is False


def test_detect_schema_duplicates_covered(weight):
    groups = weight.engine.schemas.detect_schema_duplicates(weight.engine.crosswalks)
    assert len(groups) == 1
    assert groups[0].crosswalk_covered is True


def test_detect_schema_duplicates_single_schema(engine):
    pm = engine.prefix_map
    engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("ex:solo"),
            statement_type=pm.gupri("ex:solo-type"),
            label="solo",
            slots=(SlotSpec("value", "VALUE", SlotKind.LITERAL, DatatypeTag.STRING),),
        )
    )
    assert engine.schemas.detect_schema_duplicates(engine.crosswalks) == []


# ---------------------------------------------------------------------------
# properties


def _random_schema_and_instance(engine, rng: random.Random, index: int):
    pm = engine.prefix_map
    slots = []
    fills = {}
    for i in range(rng.randint(1, 5)):
        slot_id = f"s{i}"
        if rng.random() < 0.5:
            constraint = pm.gupri(f"ex:class-{index}-{i}")
            term(engine, f"ex:class-{index}-{i}")
            slots.append(SlotSpec(slot_id, f"ROLE{i}", SlotKind.RESOURCE, constraint))
            fills[slot_id] = SlotFill.resource(constraint)
        else:
            tag = rng.choice([DatatypeTag.DECIMAL, DatatypeTag.INTEGER, DatatypeTag.STRING])
            slots.append(SlotSpec(slot_id, f"ROLE{i}", SlotKind.LITERAL, tag))
            value = {
                DatatypeTag.DECIMAL: "12.5",
                DatatypeTag.INTEGER: "7",
                DatatypeTag.STRING: "text",
            }[tag]
            fills[slot_id] = SlotFill.literal(value, tag)
    schema = StatementSchema(
        id=pm.gupri(f"ex:random-schema-{index}"),
        statement_type=pm.gupri(f"ex:random-type-{index}"),
        label=f"random {index}",
        slots=tuple(slots),
    )
    engine.schemas.register_schema(schema)
    return StatementInstance(schema_id=schema.id, fills=fills)


def test_constraint_satisfying_fills_always_validate():
    rng = random.Random(5)
    engine = make_engine()
    for index in range(25):
        inst = _random_schema_and_instance(engine, rng, index)
        assert engine.schemas.validate_instance(inst).valid


@settings(deadline=None, max_examples=60)
@given(st.randoms(use_true_random=False), st.sampled_from([None, 0.5]))
def test_satisfies_constraint_matches_oracle(rng, threshold):
    # identity, a shared class at the mode's grade, or subClassOf reachability
    # over referential classes; native mode accepts only identity and reach
    engine = make_engine()
    nodes, mappings = random_mapping_set(rng, engine.prefix_map, max_terms=10, max_edges=30)
    for m in mappings:
        engine.terminology.add_mapping(m)
    kept = [m for m in mappings if threshold is None or m.confidence >= threshold]

    def ends(predicates) -> list[tuple[str, str]]:
        return [(m.subject.canonical, m.object.canonical) for m in kept if m.predicate in predicates]

    ont_of = {n: c for c in equivalence_partition(nodes, ends(ONTOLOGICAL_PREDICATES)) for n in c}
    ref_classes = equivalence_partition(nodes, ends(REFERENTIAL_PREDICATES))
    ref_of = {n: c for c in ref_classes for n in c}
    lifted = [(ref_of[s], ref_of[o]) for s, o in ends({MappingPredicate.SUB_CLASS_OF}) if ref_of[s] != ref_of[o]]
    below = directed_reachability(list(ref_classes), lifted)
    snap = engine.terminology.compute_closure(threshold)
    for a in nodes:
        for b in nodes:
            reached = a == b or (ref_of[a], ref_of[b]) in below
            expected = {
                "default": reached or ref_of[a] == ref_of[b],
                "strict": reached or ont_of[a] == ont_of[b],
                "native": reached,
            }
            for mode, want in expected.items():
                got = engine.schemas.satisfies_constraint(
                    snap, Gupri(a), Gupri(b), strict=mode == "strict", native=mode == "native"
                )
                assert got == want, (mode, a, b)


def test_validation_monotone_in_actionable_mappings(weight):
    engine = weight.engine
    inst = weight.instance
    assert engine.schemas.validate_instance(inst).valid
    add_mapping(engine, "pato:weight", MappingPredicate.EXACT_MATCH, "ex:heaviness")
    add_mapping(engine, "ex:apple", MappingPredicate.EQUIVALENT_CLASS, "ex:malus-fruit")
    assert engine.schemas.validate_instance(inst).valid


def test_validation_pure_and_byte_identical(weight):
    first = weight.engine.schemas.validate_instance(weight.instance)
    second = weight.engine.schemas.validate_instance(weight.instance)
    assert render(validation_to_doc(first)) == render(validation_to_doc(second))
