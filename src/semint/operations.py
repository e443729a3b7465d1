"""Operations service: the registry that makes data actionable.

An operation descriptor binds an operation to the schemas it applies to.
Classification follows the ladder: readable (parses), interpretable (schema
and terms resolve against the registries), actionable (at least one
registered operation applies, possibly through a crosswalk path). One
builtin is implemented, decimal-exact metric unit conversion; everything else
is registered by reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

from . import graph
from .crosswalks import CrosswalkRegistry
from .errors import (
    ConflictingDescriptor,
    MalformedDescriptor,
    NonDecimalValue,
    UnknownOperation,
    UnknownSlot,
    UnknownUnit,
    check_utf8,
)
from .identifiers import Gupri, local_name
from .records import RecordTable
from .schemas import (
    DatatypeTag,
    SchemaRegistry,
    SlotFill,
    SlotKind,
    StatementInstance,
    canonical_decimal,
    literal_parses,
)

__all__ = [
    "OperationKind",
    "OperationParam",
    "OperationDescriptor",
    "ActionabilityClass",
    "ApplicableOperation",
    "XInteropStatus",
    "XInteropResult",
    "OperationsRegistry",
    "CONVERT_UNIT_ID",
    "UNIT_EXPONENTS",
]

#: Canonical id of the builtin unit-conversion routine.
CONVERT_UNIT_ID = "urn:operation:convert-unit"

#: Known metric mass units, as powers of ten relative to the gram.
UNIT_EXPONENTS = {"milligram": -3, "gram": 0, "kilogram": 3}

#: Default bound on crosswalk composition depth when counting reachable
#: operations; unbounded composition risks path explosion.
DEFAULT_MAX_HOPS = 3


class OperationKind(Enum):
    BUILTIN = "builtin"
    EXTERNAL_REFERENCE = "external-reference"


@dataclass(frozen=True)
class OperationParam:
    """A named, typed parameter of an operation."""

    name: str
    datatype: DatatypeTag


@dataclass(frozen=True)
class OperationDescriptor:
    """An operation and the schemas it applies to."""

    id: Gupri
    label: str
    applicable_schemas: frozenset[Gupri]
    kind: OperationKind = OperationKind.EXTERNAL_REFERENCE
    params: tuple[OperationParam, ...] = ()
    tool: str | None = None


class ActionabilityClass(IntEnum):
    """The strictly ordered ladder; each rung presupposes the one below."""

    UNREADABLE = 0
    READABLE = 1
    INTERPRETABLE = 2
    ACTIONABLE = 3

    @property
    def label(self) -> str:
        return {0: "Unreadable", 1: "Readable", 2: "Interpretable", 3: "Actionable"}[self.value]


@dataclass(frozen=True)
class ApplicableOperation:
    """An operation that applies to a schema, directly or through crosswalks."""

    operation: OperationDescriptor
    via: tuple[str, ...] = ()  # crosswalk ids; empty means directly applicable


class XInteropStatus(Enum):
    TRUE_DIRECT = "true_direct"
    TRUE_VIA_CROSSWALK = "true_via_crosswalk"
    FALSE = "false"


@dataclass(frozen=True)
class XInteropResult:
    """Whether one operation applies to two schemas, and the crosswalk path by which it reaches each."""

    status: XInteropStatus
    paths: tuple[tuple[str, tuple[str, ...]], ...] = ()  # (schema, crosswalk path)


def _crosswalk_id(_schema: str, cw_id: str) -> str:
    """Step key of crosswalk paths: equally short ones go by their crosswalk ids."""
    return cw_id


class OperationsRegistry:
    """Registry of operation descriptors plus actionability queries."""

    def __init__(self, schemas: SchemaRegistry, crosswalks: CrosswalkRegistry):
        self.schemas = schemas
        self.crosswalks = crosswalks
        self._operations: RecordTable[OperationDescriptor] = RecordTable(
            "operation", UnknownOperation, ConflictingDescriptor
        )
        self._builtins = {CONVERT_UNIT_ID: self.convert_unit}

    @property
    def prefix_map(self):
        return self.schemas.prefix_map

    @property
    def terminology(self):
        return self.schemas.terminology

    # -- registry ---------------------------------------------------------------

    def register_operation(self, d: OperationDescriptor) -> Gupri:
        if not d.applicable_schemas:
            raise MalformedDescriptor(f"operation {d.id} lists no applicable schemas")
        check_utf8(f"operation {d.id}", (d.label, d.tool, *(p.name for p in d.params)))
        for sid in sorted(d.applicable_schemas):
            self.schemas.schema(sid)
        if d.kind is OperationKind.BUILTIN and d.id.canonical not in self._builtins:
            raise MalformedDescriptor(
                f"builtin operation id {d.id} does not resolve to an implemented routine"
            )
        self._operations.add(d.id.canonical, d)
        return d.id

    def operation(self, id: str | Gupri) -> OperationDescriptor:
        return self._operations.get(self.prefix_map.gupri(id).canonical)

    def operations(self) -> list[OperationDescriptor]:
        return self._operations.sorted()

    # -- applicability ------------------------------------------------------------

    def applicable_operations(
        self,
        target: str | Gupri | StatementInstance,
        include_reachable: bool = False,
        max_hops: int = DEFAULT_MAX_HOPS,
    ) -> tuple[list[ApplicableOperation], int]:
        """Operations applicable to a schema (or an instance's schema).

        With ``include_reachable``, operations registered on schemas reachable
        through crosswalk composition are listed too, annotated with the
        crosswalk path needed first. The degree of machine-actionability is
        the number of distinct applicable operations.
        """
        schema = target.schema_id if isinstance(target, StatementInstance) else target
        schema_id = self.schemas.schema(schema).id
        adjacency = self.crosswalks.directed_adjacency()
        hops = max_hops if include_reachable else 0
        entries = []
        for op in self.operations():
            goals = {s.canonical for s in op.applicable_schemas}
            via = graph.best_path(adjacency, schema_id.canonical, goals, _crosswalk_id, hops)
            if via is not None:
                entries.append(ApplicableOperation(operation=op, via=via))
        return entries, len(entries)

    # -- actionability ladder --------------------------------------------------------

    def actionability_class(self, raw: bytes | str | StatementInstance) -> ActionabilityClass:
        """Classify input on the readable/interpretable/actionable ladder."""
        if isinstance(raw, StatementInstance):
            inst = raw
        else:
            from . import documents  # local import; documents depends on this module

            try:
                inst = documents.instance_from_json(raw, self.prefix_map)
            except Exception:
                return ActionabilityClass.UNREADABLE
        if not self.schemas.has_schema(inst.schema_id):
            return ActionabilityClass.READABLE
        for fill in inst.fills.values():
            if fill.kind is not SlotKind.RESOURCE:
                continue
            if not self.terminology.has_term(fill.value):
                return ActionabilityClass.READABLE
            if fill.asserted_class is not None and not self.terminology.has_term(fill.asserted_class):
                return ActionabilityClass.READABLE
        _, degree = self.applicable_operations(inst.schema_id, include_reachable=True)
        if degree >= 1:
            return ActionabilityClass.ACTIONABLE
        return ActionabilityClass.INTERPRETABLE

    def x_interoperable(self, schema_a: str | Gupri, schema_b: str | Gupri, op: str | Gupri) -> XInteropResult:
        """Whether one operation can be applied to both schemas."""
        a = self.schemas.schema(schema_a).id
        b = self.schemas.schema(schema_b).id
        descriptor = self.operation(op)
        applicable = {s.canonical for s in descriptor.applicable_schemas}
        adjacency = self.crosswalks.directed_adjacency()
        paths = []
        for schema in sorted({a.canonical, b.canonical}):
            via = graph.best_path(adjacency, schema, applicable, _crosswalk_id, DEFAULT_MAX_HOPS)
            if via is None:
                return XInteropResult(status=XInteropStatus.FALSE)
            paths.append((schema, via))
        direct = not any(via for _, via in paths)
        status = XInteropStatus.TRUE_DIRECT if direct else XInteropStatus.TRUE_VIA_CROSSWALK
        return XInteropResult(status=status, paths=tuple(paths))

    # -- builtin: unit conversion ------------------------------------------------------

    def _unit_exponent(self, unit: Gupri) -> int:
        name = local_name(unit.canonical).lower()
        if name not in UNIT_EXPONENTS:
            raise UnknownUnit(f"unit {unit} is not in the builtin table")
        return UNIT_EXPONENTS[name]

    def convert_unit(
        self,
        inst: StatementInstance,
        value_slot: str,
        unit_slot: str,
        target_unit: str | Gupri,
    ) -> StatementInstance:
        """Rescale a decimal value slot between metric mass units.

        Pure decimal-string arithmetic; the factor is always a power of ten,
        so the result is exact and round-trips.
        """
        schema = self.schemas.schema(inst.schema_id)
        if schema.slot(value_slot) is None:
            raise UnknownSlot(f"schema {schema.id} has no slot {value_slot!r}")
        if schema.slot(unit_slot) is None:
            raise UnknownSlot(f"schema {schema.id} has no slot {unit_slot!r}")
        value_fill = inst.fills.get(value_slot)
        unit_fill = inst.fills.get(unit_slot)
        if (
            value_fill is None
            or value_fill.kind is not SlotKind.LITERAL
            or value_fill.datatype is not DatatypeTag.DECIMAL
            or not literal_parses(value_fill.value, DatatypeTag.DECIMAL)  # type: ignore[arg-type]
        ):
            raise NonDecimalValue(f"slot {value_slot!r} does not hold a decimal literal")
        if unit_fill is None or unit_fill.kind is not SlotKind.RESOURCE:
            raise UnknownUnit(f"slot {unit_slot!r} does not hold a unit resource")
        target = self.prefix_map.gupri(target_unit)
        source_exp = self._unit_exponent(unit_fill.value)  # type: ignore[arg-type]
        target_exp = self._unit_exponent(target)
        # imported where it is used, so only a process that converts pays for the import
        from decimal import Decimal

        # moving the exponent rounds nothing, where scaleb rounds to the context's 28 digits
        sign, digits, exponent = Decimal(value_fill.value).as_tuple()  # type: ignore[arg-type]
        scaled = Decimal((sign, digits, exponent + source_exp - target_exp))  # type: ignore[operator]
        new_value = canonical_decimal(format(scaled, "f"))
        fills = dict(inst.fills)
        fills[value_slot] = SlotFill.literal(new_value, DatatypeTag.DECIMAL)
        fills[unit_slot] = SlotFill.resource(target, unit_fill.asserted_class)
        out = StatementInstance(schema_id=schema.id, fills=fills, provenance=inst.provenance)
        post = self.schemas.validate_instance(out)
        if not post.valid:
            first = post.violations[0]
            raise UnknownUnit(
                f"converted instance invalid against {schema.id}: {first.code} on {first.slot_id}"
            )
        return out
