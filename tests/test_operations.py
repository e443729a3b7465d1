from __future__ import annotations

import json
import random

import pytest

from semint import (
    ActionabilityClass,
    DatatypeTag,
    OperationDescriptor,
    OperationKind,
    SlotFill,
    StatementInstance,
    XInteropStatus,
)
from semint.documents import instance_to_doc, render
from semint.errors import (
    ConflictingDescriptor,
    MalformedDescriptor,
    NonDecimalValue,
    UnknownOperation,
    UnknownSchema,
    UnknownUnit,
)
from semint.operations import CONVERT_UNIT_ID

from conftest import build_weight_fixture, make_engine, term


def external_op(pm, id: str, *schemas, label: str = "external analysis") -> OperationDescriptor:
    return OperationDescriptor(
        id=pm.gupri(id),
        label=label,
        applicable_schemas=frozenset(pm.gupri(s) for s in schemas),
        kind=OperationKind.EXTERNAL_REFERENCE,
        tool="https://example.org/tools/analyzer",
    )


# ---------------------------------------------------------------------------
# registration


def test_register_unit_conversion_descriptor(weight):
    descriptor = weight.engine.operations.operation(CONVERT_UNIT_ID)
    assert descriptor.kind is OperationKind.BUILTIN
    assert weight.obi_schema in descriptor.applicable_schemas


def test_register_empty_applicable_schemas(weight):
    pm = weight.engine.prefix_map
    with pytest.raises(MalformedDescriptor):
        weight.engine.operations.register_operation(
            OperationDescriptor(id=pm.gupri("op:nothing"), label="noop", applicable_schemas=frozenset())
        )


def test_register_idempotent_and_conflicting(weight):
    engine = weight.engine
    pm = engine.prefix_map
    d = external_op(pm, "op:analyze", "obi:weight-schema")
    assert engine.operations.register_operation(d) == engine.operations.register_operation(d)
    changed = external_op(pm, "op:analyze", "obi:weight-schema", label="renamed")
    with pytest.raises(ConflictingDescriptor):
        engine.operations.register_operation(changed)


def test_register_builtin_must_resolve(weight):
    pm = weight.engine.prefix_map
    with pytest.raises(MalformedDescriptor):
        weight.engine.operations.register_operation(
            OperationDescriptor(
                id=pm.gupri("op:fake-builtin"),
                label="fake",
                applicable_schemas=frozenset({weight.obi_schema}),
                kind=OperationKind.BUILTIN,
            )
        )


def test_register_unknown_schema(weight):
    pm = weight.engine.prefix_map
    with pytest.raises(UnknownSchema):
        weight.engine.operations.register_operation(
            external_op(pm, "op:ghostly", "ex:ghost-schema")
        )


# ---------------------------------------------------------------------------
# applicability


def test_degree_counts_direct_operations(weight):
    entries, degree = weight.engine.operations.applicable_operations(weight.obi_schema)
    assert degree == 1
    assert entries[0].operation.id.canonical == CONVERT_UNIT_ID
    assert entries[0].via == ()


def test_degree_zero_without_operations():
    fx = build_weight_fixture(operation=False, register_golden=False)
    entries, degree = fx.engine.operations.applicable_operations(fx.obi_schema)
    assert degree == 0
    assert entries == []


def test_reachable_operation_annotated_with_path():
    fx = build_weight_fixture(operation=False, register_golden=False)
    engine = fx.engine
    pm = engine.prefix_map
    engine.operations.register_operation(external_op(pm, "op:oboe-only", "oboe:weight-schema"))
    _, direct_degree = engine.operations.applicable_operations(fx.obi_schema)
    assert direct_degree == 0
    entries, degree = engine.operations.applicable_operations(fx.obi_schema, include_reachable=True)
    assert degree == 1
    assert entries[0].via == (fx.crosswalk_id.canonical,)


def test_direct_subset_of_reachable(weight):
    engine = weight.engine
    pm = engine.prefix_map
    engine.operations.register_operation(external_op(pm, "op:oboe-extra", "oboe:weight-schema"))
    direct, _ = engine.operations.applicable_operations(weight.obi_schema)
    reachable, _ = engine.operations.applicable_operations(weight.obi_schema, include_reachable=True)
    assert {e.operation.id for e in direct} <= {e.operation.id for e in reachable}


def test_degree_monotone_in_registrations(weight):
    engine = weight.engine
    pm = engine.prefix_map
    _, before = engine.operations.applicable_operations(weight.obi_schema, include_reachable=True)
    engine.operations.register_operation(external_op(pm, "op:later", "oboe:weight-schema"))
    _, after = engine.operations.applicable_operations(weight.obi_schema, include_reachable=True)
    assert after >= before


def test_degree_monotone_in_crosswalk_registration():
    fx = build_weight_fixture(operation=False, crosswalk=False, register_golden=False)
    engine = fx.engine
    pm = engine.prefix_map
    engine.operations.register_operation(external_op(pm, "op:oboe-only", "oboe:weight-schema"))
    _, before = engine.operations.applicable_operations(fx.obi_schema, include_reachable=True)
    from semint import Crosswalk, SlotAlignment

    engine.crosswalks.register_crosswalk(
        Crosswalk(
            id=pm.gupri("ex:late-crosswalk"),
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
    _, after = engine.operations.applicable_operations(fx.obi_schema, include_reachable=True)
    assert after >= before
    assert after == 1


def test_reachability_hop_bound():
    engine = make_engine()
    pm = engine.prefix_map
    from semint import Crosswalk, SlotAlignment, SlotKind, SlotSpec, StatementSchema

    term(engine, "ex:hop-class")
    ids = []
    for i in range(6):
        ids.append(
            engine.schemas.register_schema(
                StatementSchema(
                    id=pm.gupri(f"ex:hop-{i}"),
                    statement_type=pm.gupri("ex:hop-type"),
                    label=f"hop {i}",
                    slots=(SlotSpec("x", "X", SlotKind.RESOURCE, pm.gupri("ex:hop-class")),),
                )
            )
        )
    for i in range(5):
        engine.crosswalks.register_crosswalk(
            Crosswalk(
                id=pm.gupri(f"ex:hop-cw-{i}"),
                source_schema=ids[i],
                target_schema=ids[i + 1],
                alignments=(SlotAlignment("x", "x"),),
            )
        )
    engine.operations.register_operation(external_op(pm, "op:far", "ex:hop-5"))
    _, default_degree = engine.operations.applicable_operations(ids[0], include_reachable=True)
    assert default_degree == 0  # five hops away, default bound is three
    _, with_larger_bound = engine.operations.applicable_operations(
        ids[0], include_reachable=True, max_hops=5
    )
    assert with_larger_bound == 1


def test_reachable_via_ties_broken_by_crosswalk_id():
    # the crosswalk ids order opposite to their target schemas, and two
    # crosswalks run in parallel to ex:tie-a
    engine = make_engine()
    pm = engine.prefix_map
    from semint import Crosswalk, SlotAlignment, SlotKind, SlotSpec, StatementSchema

    term(engine, "ex:tie-class")
    for name in ("tie-start", "tie-a", "tie-b"):
        engine.schemas.register_schema(
            StatementSchema(
                id=pm.gupri(f"ex:{name}"),
                statement_type=pm.gupri("ex:tie-type"),
                label=name,
                slots=(SlotSpec("x", "X", SlotKind.RESOURCE, pm.gupri("ex:tie-class")),),
            )
        )
    for cw_id, target in (("ex:tie-cw-9", "ex:tie-a"), ("ex:tie-cw-2", "ex:tie-a"), ("ex:tie-cw-1", "ex:tie-b")):
        engine.crosswalks.register_crosswalk(
            Crosswalk(
                id=pm.gupri(cw_id),
                source_schema=pm.gupri("ex:tie-start"),
                target_schema=pm.gupri(target),
                alignments=(SlotAlignment("x", "x"),),
            )
        )
    engine.operations.register_operation(external_op(pm, "op:tie-both", "ex:tie-a", "ex:tie-b"))
    engine.operations.register_operation(external_op(pm, "op:tie-a-only", "ex:tie-a"))
    entries, _ = engine.operations.applicable_operations("ex:tie-start", include_reachable=True)
    via = {pm.compress(e.operation.id.canonical): tuple(pm.compress(c) for c in e.via) for e in entries}
    assert via == {"op:tie-both": ("ex:tie-cw-1",), "op:tie-a-only": ("ex:tie-cw-2",)}


# ---------------------------------------------------------------------------
# actionability ladder


def test_malformed_bytes_unreadable(weight):
    assert weight.engine.operations.actionability_class(b"{not json") is ActionabilityClass.UNREADABLE


def test_unresolvable_schema_readable(weight):
    doc = {"schema": "ex:ghost-schema", "fills": {}}
    assert (
        weight.engine.operations.actionability_class(json.dumps(doc))
        is ActionabilityClass.READABLE
    )


def test_unresolvable_term_readable(weight):
    engine = weight.engine
    pm = engine.prefix_map
    fills = dict(weight.instance.fills)
    fills["object"] = SlotFill.resource(pm.gupri("ex:never-registered"))
    inst = StatementInstance(schema_id=weight.obi_schema, fills=fills)
    assert engine.operations.actionability_class(inst) is ActionabilityClass.READABLE


def test_interpretable_without_operations():
    fx = build_weight_fixture(operation=False, register_golden=False)
    assert (
        fx.engine.operations.actionability_class(fx.instance) is ActionabilityClass.INTERPRETABLE
    )


def test_actionable_with_unit_conversion(weight):
    assert weight.engine.operations.actionability_class(weight.instance) is ActionabilityClass.ACTIONABLE


def test_actionable_from_bytes(weight):
    raw = render(instance_to_doc(weight.instance, weight.engine.prefix_map))
    assert weight.engine.operations.actionability_class(raw.encode()) is ActionabilityClass.ACTIONABLE


def test_ladder_law_random_fixtures():
    rng = random.Random(77)
    for case in range(40):
        fx = build_weight_fixture(
            operation=rng.random() < 0.5,
            crosswalk=rng.random() < 0.7,
            register_golden=False,
        )
        engine = fx.engine
        choice = rng.random()
        if choice < 0.25:
            raw: object = b"\xff\xfe not a document"
        elif choice < 0.5:
            raw = json.dumps({"schema": "ex:ghost", "fills": {}})
        else:
            raw = fx.instance
        level = engine.operations.actionability_class(raw)
        if level >= ActionabilityClass.ACTIONABLE:
            # actionable presupposes interpretable: schema and terms resolve
            assert engine.schemas.has_schema(fx.instance.schema_id)
        if level >= ActionabilityClass.INTERPRETABLE:
            assert isinstance(raw, StatementInstance)
        if level >= ActionabilityClass.READABLE and not isinstance(raw, StatementInstance):
            json.loads(raw)  # readable inputs parse


# ---------------------------------------------------------------------------
# x-interoperability


def test_x_interoperable_direct(weight):
    result = weight.engine.operations.x_interoperable(
        weight.obi_schema, weight.oboe_schema, CONVERT_UNIT_ID
    )
    assert result.status is XInteropStatus.TRUE_DIRECT


def test_x_interoperable_via_crosswalk():
    fx = build_weight_fixture(operation=False, register_golden=False)
    engine = fx.engine
    pm = engine.prefix_map
    engine.operations.register_operation(external_op(pm, "op:oboe-only", "oboe:weight-schema"))
    result = engine.operations.x_interoperable(fx.obi_schema, fx.oboe_schema, "op:oboe-only")
    assert result.status is XInteropStatus.TRUE_VIA_CROSSWALK
    paths = dict(result.paths)
    assert paths[fx.obi_schema.canonical] == (fx.crosswalk_id.canonical,)
    assert paths[fx.oboe_schema.canonical] == ()


def test_x_interoperable_false():
    fx = build_weight_fixture(operation=False, crosswalk=False, register_golden=False)
    engine = fx.engine
    pm = engine.prefix_map
    engine.operations.register_operation(external_op(pm, "op:oboe-only", "oboe:weight-schema"))
    result = engine.operations.x_interoperable(fx.obi_schema, fx.oboe_schema, "op:oboe-only")
    assert result.status is XInteropStatus.FALSE


def test_x_interoperable_symmetric(weight):
    a = weight.engine.operations.x_interoperable(weight.obi_schema, weight.oboe_schema, CONVERT_UNIT_ID)
    b = weight.engine.operations.x_interoperable(weight.oboe_schema, weight.obi_schema, CONVERT_UNIT_ID)
    assert a == b


def test_x_interoperable_unknown_ids(weight):
    with pytest.raises(UnknownSchema):
        weight.engine.operations.x_interoperable("ex:ghost", weight.oboe_schema, CONVERT_UNIT_ID)
    with pytest.raises(UnknownOperation):
        weight.engine.operations.x_interoperable(weight.obi_schema, weight.oboe_schema, "op:ghost")


# ---------------------------------------------------------------------------
# unit conversion


def test_convert_gram_to_kilogram(weight):
    out = weight.engine.operations.convert_unit(weight.instance, "value", "unit", "unit:kilogram")
    assert out.fills["value"].value == "0.21245"
    assert str(out.fills["unit"].value) == "http://example.org/unit/kilogram"


def test_convert_round_trip_is_identity(weight):
    engine = weight.engine
    there = engine.operations.convert_unit(weight.instance, "value", "unit", "unit:kilogram")
    back = engine.operations.convert_unit(there, "value", "unit", "unit:gram")
    assert back.fills["value"].value == "212.45"
    assert render(instance_to_doc(back, engine.prefix_map)) == render(
        instance_to_doc(weight.instance, engine.prefix_map)
    )


def test_convert_same_unit_identity(weight):
    out = weight.engine.operations.convert_unit(weight.instance, "value", "unit", "unit:gram")
    assert render(instance_to_doc(out, weight.engine.prefix_map)) == render(
        instance_to_doc(weight.instance, weight.engine.prefix_map)
    )


def test_convert_gram_to_milligram(weight):
    out = weight.engine.operations.convert_unit(weight.instance, "value", "unit", "unit:milligram")
    assert out.fills["value"].value == "212450"


def test_convert_is_exact_beyond_28_digits(weight):
    engine = weight.engine
    fills = dict(weight.instance.fills)
    fills["value"] = SlotFill.literal("1234567890123456789012345678.91", DatatypeTag.DECIMAL)
    long = StatementInstance(schema_id=weight.obi_schema, fills=fills)
    there = engine.operations.convert_unit(long, "value", "unit", "unit:kilogram")
    assert there.fills["value"].value == "1234567890123456789012345.67891"
    back = engine.operations.convert_unit(there, "value", "unit", "unit:gram")
    assert back.fills["value"].value == "1234567890123456789012345678.91"


def test_convert_unknown_unit(weight):
    engine = weight.engine
    pm = engine.prefix_map
    term(engine, "unit:furlong")
    with pytest.raises(UnknownUnit):
        engine.operations.convert_unit(weight.instance, "value", "unit", "unit:furlong")
    fills = dict(weight.instance.fills)
    fills["unit"] = SlotFill.resource(pm.gupri("unit:furlong"))
    with pytest.raises(UnknownUnit):
        engine.operations.convert_unit(
            StatementInstance(schema_id=weight.obi_schema, fills=fills),
            "value",
            "unit",
            "unit:gram",
        )


def test_convert_non_decimal_value(weight):
    fills = dict(weight.instance.fills)
    fills["value"] = SlotFill.literal("heavy", DatatypeTag.STRING)
    with pytest.raises(NonDecimalValue):
        weight.engine.operations.convert_unit(
            StatementInstance(schema_id=weight.obi_schema, fills=fills),
            "value",
            "unit",
            "unit:kilogram",
        )


@pytest.mark.parametrize("value", ["1e3", "5_000", " 7", "NaN", "Infinity"])
def test_convert_refuses_text_outside_the_decimal_grammar(weight, value):
    # Decimal() reads each of these; the decimal literal grammar reads none
    fills = dict(weight.instance.fills)
    fills["value"] = SlotFill.literal(value, DatatypeTag.DECIMAL)
    with pytest.raises(NonDecimalValue):
        weight.engine.operations.convert_unit(
            StatementInstance(schema_id=weight.obi_schema, fills=fills),
            "value",
            "unit",
            "unit:kilogram",
        )


def test_convert_validates_output(weight):
    out = weight.engine.operations.convert_unit(weight.instance, "value", "unit", "unit:kilogram")
    assert weight.engine.schemas.validate_instance(out).valid
