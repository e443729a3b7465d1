from __future__ import annotations

from dataclasses import dataclass

import pytest

from semint import (
    CertaintyLevel,
    Crosswalk,
    CrosswalkProvenance,
    DatatypeTag,
    Engine,
    EntityMapping,
    FdoRecord,
    Gupri,
    MappingPredicate,
    OperationDescriptor,
    OperationKind,
    OperationParam,
    PrefixMap,
    ReferentKind,
    SlotAlignment,
    SlotFill,
    SlotKind,
    SlotSpec,
    StatementCategory,
    StatementInstance,
    StatementSchema,
    TermRecord,
)
from semint import records
from semint.operations import CONVERT_UNIT_ID

PREFIXES = {
    "ex": "http://example.org/things/",
    "obi": "http://example.org/obi/",
    "oboe": "http://example.org/oboe/",
    "pato": "http://example.org/pato/",
    "ncit": "http://example.org/ncit/",
    "obo": "http://example.org/obo/",
    "unit": "http://example.org/unit/",
    "op": "http://example.org/operations/",
}


def make_prefix_map() -> PrefixMap:
    return PrefixMap(PREFIXES)


def make_engine() -> Engine:
    return Engine.empty(make_prefix_map())


def term(
    engine: Engine,
    curie: str,
    *,
    definition: str | None = "a defined thing",
    criteria: str | None = "look at it",
    labels: dict[str, str] | None = None,
    synonyms: tuple[str, ...] = ("alias",),
    kind: ReferentKind = ReferentKind.CLASS,
) -> Gupri:
    record = TermRecord(
        id=engine.prefix_map.gupri(curie),
        labels=labels if labels is not None else {"en": curie, "de": f"{curie} (de)"},
        definition=definition,
        recognition_criteria=criteria,
        synonyms=synonyms,
        referent_kind=kind,
    )
    return engine.terminology.register_term(record)


def add_mapping(engine: Engine, subject: str, predicate: MappingPredicate, object_: str, **meta) -> str:
    pm = engine.prefix_map
    return engine.terminology.add_mapping(
        EntityMapping.create(pm.gupri(subject), predicate, pm.gupri(object_), **meta)
    )


@dataclass
class WeightFixture:
    """Two weight-measurement schemas, the mapping that reconciles their
    quality vocabularies, a crosswalk, the apple instance, and a golden record."""

    engine: Engine
    obi_schema: Gupri
    oboe_schema: Gupri
    crosswalk_id: Gupri | None
    weight_mapping_id: str | None
    instance: StatementInstance
    golden: FdoRecord


def build_weight_fixture(
    *,
    weight_mapping: bool = True,
    crosswalk: bool = True,
    operation: bool = True,
    register_golden: bool = True,
    quality_definition: bool = True,
    quality_multilingual: bool = True,
    quality_synonyms: bool = True,
) -> WeightFixture:
    engine = make_engine()
    pm = engine.prefix_map

    term(engine, "ex:apple-1", kind=ReferentKind.INDIVIDUAL)
    term(engine, "ex:apple")
    term(engine, "obo:material-entity")
    term(
        engine,
        "pato:weight",
        definition="the pull of gravity on a body" if quality_definition else None,
        labels={"en": "weight", "de": "Gewicht"}
        if quality_multilingual
        else {"en": "weight"},
        synonyms=("heaviness",) if quality_synonyms else (),
    )
    term(engine, "ncit:weight", definition="mass under standard gravity")
    term(engine, "unit:gram")
    term(engine, "unit:kilogram")
    term(engine, "unit:milligram")
    term(engine, "unit:mass-unit")
    term(engine, "obi:weight-assay", kind=ReferentKind.CLASS)
    term(engine, "oboe:weight-observation", kind=ReferentKind.CLASS)

    weight_mapping_id = None
    if weight_mapping:
        weight_mapping_id = add_mapping(
            engine, "pato:weight", MappingPredicate.SAME_AS, "ncit:weight",
            justification="manual-curation",
        )
    add_mapping(engine, "ex:apple", MappingPredicate.SUB_CLASS_OF, "obo:material-entity")
    for u in ("unit:gram", "unit:kilogram", "unit:milligram"):
        add_mapping(engine, u, MappingPredicate.SUB_CLASS_OF, "unit:mass-unit")
    add_mapping(
        engine, "obi:weight-assay", MappingPredicate.EQUIVALENT_CLASS, "oboe:weight-observation"
    )

    obi_schema = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("obi:weight-schema"),
            statement_type=pm.gupri("obi:weight-assay"),
            label="weight measurement (biomedical style)",
            slots=(
                SlotSpec("object", "OBJECT", SlotKind.RESOURCE, pm.gupri("obo:material-entity")),
                SlotSpec("quality", "QUALITY", SlotKind.RESOURCE, pm.gupri("pato:weight")),
                SlotSpec("value", "VALUE", SlotKind.LITERAL, DatatypeTag.DECIMAL),
                SlotSpec("unit", "UNIT", SlotKind.RESOURCE, pm.gupri("unit:mass-unit")),
            ),
            logical_framework="owl2-dl",
        )
    )
    oboe_schema = engine.schemas.register_schema(
        StatementSchema(
            id=pm.gupri("oboe:weight-schema"),
            statement_type=pm.gupri("oboe:weight-observation"),
            label="weight observation (ecology style)",
            slots=(
                SlotSpec("entity", "OBJECT", SlotKind.RESOURCE, pm.gupri("obo:material-entity")),
                SlotSpec("characteristic", "QUALITY", SlotKind.RESOURCE, pm.gupri("ncit:weight")),
                SlotSpec("amount", "VALUE", SlotKind.LITERAL, DatatypeTag.DECIMAL),
                SlotSpec("standard", "UNIT", SlotKind.RESOURCE, pm.gupri("unit:mass-unit")),
            ),
            logical_framework="owl2-dl",
        )
    )

    crosswalk_id = None
    if crosswalk:
        crosswalk_id = engine.crosswalks.register_crosswalk(
            Crosswalk(
                id=pm.gupri("ex:weight-crosswalk"),
                source_schema=obi_schema,
                target_schema=oboe_schema,
                alignments=(
                    SlotAlignment("object", "entity"),
                    SlotAlignment("quality", "characteristic"),
                    SlotAlignment("value", "amount"),
                    SlotAlignment("unit", "standard"),
                ),
                provenance=CrosswalkProvenance(
                    author="steward-01", date="2024-05-14", justification="manual-curation"
                ),
            )
        )

    if operation:
        engine.operations.register_operation(
            OperationDescriptor(
                id=Gupri(CONVERT_UNIT_ID),
                label="metric unit conversion",
                applicable_schemas=frozenset({obi_schema, oboe_schema}),
                kind=OperationKind.BUILTIN,
                params=(
                    OperationParam("value_slot", DatatypeTag.STRING),
                    OperationParam("unit_slot", DatatypeTag.STRING),
                    OperationParam("target_unit", DatatypeTag.STRING),
                ),
            )
        )

    instance = StatementInstance(
        schema_id=obi_schema,
        fills={
            "object": SlotFill.resource(pm.gupri("ex:apple-1"), pm.gupri("ex:apple")),
            "quality": SlotFill.resource(pm.gupri("pato:weight")),
            "value": SlotFill.literal("212.45", DatatypeTag.DECIMAL),
            "unit": SlotFill.resource(pm.gupri("unit:gram")),
        },
        provenance="scale reading, station A",
    )

    golden = FdoRecord(
        gupri=pm.gupri("ex:fdo-apple-weight"),
        content=instance,
        schema_ref=obi_schema,
        creator="steward-01",
        authors=("Field Station A",),
        category=StatementCategory.ASSERTIONAL,
        logical_framework="owl2-dl",
        human_readable="Apple 1 has a weight of 212.45 grams.",
        certainty=CertaintyLevel.ASSERTED_CERTAIN,
        license="CC-BY-4.0",
        provenance={"created": "2024-05-14"},
        data_identifier=pm.gupri("ex:dataset-1"),
    )
    if register_golden:
        engine.fdos.register_fdo(golden)

    return WeightFixture(
        engine=engine,
        obi_schema=obi_schema,
        oboe_schema=oboe_schema,
        crosswalk_id=crosswalk_id,
        weight_mapping_id=weight_mapping_id,
        instance=instance,
        golden=golden,
    )


@pytest.fixture
def engine() -> Engine:
    return make_engine()


@pytest.fixture
def weight() -> WeightFixture:
    return build_weight_fixture()


@pytest.fixture
def every_write_updates(monkeypatch):
    """A derived value is updated from its base until the writes since it
    outnumber the records, so the few records of a test table reach the
    update path, which a store's share (``records._REBUILD_SHARE``) keeps for
    batches of up to a fifth of the records."""
    monkeypatch.setattr(records, "_REBUILD_SHARE", 1)


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
