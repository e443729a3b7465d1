"""Schema service, validation half: statement type models and token models.

A statement schema lists ordered slots, each with a semantic role, a kind
(resource or literal), and a constraint: an ontology class for resource slots
or a datatype tag for literal slots. Instances fill slots; validation checks
the fills against the constraints, consulting the terminology closure for
resource slots.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Mapping

from .errors import (
    ConflictingSchema,
    DuplicateSlotId,
    InvalidGupri,
    MalformedRecord,
    NoRequiredSlot,
    UnknownSchema,
)
from .identifiers import Gupri
from .records import RecordTable
from .terminology import ClosureSnapshot, TerminologyRegistry

__all__ = [
    "DatatypeTag",
    "SlotKind",
    "SlotSpec",
    "StatementSchema",
    "SlotFill",
    "StatementInstance",
    "Violation",
    "ValidationReport",
    "DuplicateGroup",
    "SchemaRegistry",
    "canonical_decimal",
    "literal_parses",
]


class DatatypeTag(Enum):
    STRING = "string"
    DECIMAL = "decimal"
    INTEGER = "integer"
    BOOLEAN = "boolean"
    DATETIME = "datetime"


class SlotKind(Enum):
    RESOURCE = "resource"
    LITERAL = "literal"


_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")
_INTEGER_RE = re.compile(r"^[+-]?\d+$")


def canonical_decimal(text: str) -> str:
    """Trimmed canonical form of a decimal string; exact, no float rounding."""
    if not _DECIMAL_RE.match(text):
        raise ValueError(f"not a decimal: {text!r}")
    sign = "-" if text[0] == "-" else ""
    digits = text.lstrip("+-")
    if "." in digits:
        whole, frac = digits.split(".", 1)
        frac = frac.rstrip("0")
    else:
        whole, frac = digits, ""
    whole = whole.lstrip("0") or "0"
    out = f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"
    return "0" if out == "-0" else out


def literal_parses(value: str, tag: DatatypeTag) -> bool:
    """True when the text parses under the datatype tag."""
    if not isinstance(value, str):
        return False
    if tag is DatatypeTag.STRING:
        return True
    if tag is DatatypeTag.DECIMAL:
        return bool(_DECIMAL_RE.match(value))
    if tag is DatatypeTag.INTEGER:
        return bool(_INTEGER_RE.match(value))
    if tag is DatatypeTag.BOOLEAN:
        return value in ("true", "false")
    if tag is DatatypeTag.DATETIME:
        try:
            datetime.fromisoformat(value.replace("Z", "+00:00"))
            return True
        except ValueError:
            return False
    return False


@dataclass(frozen=True)
class SlotSpec:
    """One slot: role label, kind, constraint, and argument/adjunct flag."""

    slot_id: str
    role: str
    kind: SlotKind
    constraint: Gupri | DatatypeTag
    required: bool = True

    def __post_init__(self):
        if not self.slot_id:
            raise MalformedRecord("slot_id must be non-empty")
        if not self.role:
            raise MalformedRecord(f"slot {self.slot_id!r} has an empty role")
        if self.kind is SlotKind.RESOURCE and not isinstance(self.constraint, Gupri):
            raise MalformedRecord(f"resource slot {self.slot_id!r} needs a class constraint")
        if self.kind is SlotKind.LITERAL and not isinstance(self.constraint, DatatypeTag):
            raise MalformedRecord(f"literal slot {self.slot_id!r} needs a datatype tag")


@dataclass(frozen=True)
class StatementSchema:
    """Type model of a statement: ordered slots under a statement-type predicate."""

    id: Gupri
    statement_type: Gupri
    label: str
    slots: tuple[SlotSpec, ...]
    logical_framework: str | None = None

    def slot(self, slot_id: str) -> SlotSpec | None:
        for s in self.slots:
            if s.slot_id == slot_id:
                return s
        return None

    def slot_ids(self) -> list[str]:
        return [s.slot_id for s in self.slots]


@dataclass(frozen=True)
class SlotFill:
    """Token filling one slot: a resource reference or a typed literal."""

    kind: SlotKind
    value: Gupri | str
    asserted_class: Gupri | None = None
    datatype: DatatypeTag | None = None

    @classmethod
    def resource(cls, value: Gupri, asserted_class: Gupri | None = None) -> "SlotFill":
        return cls(kind=SlotKind.RESOURCE, value=value, asserted_class=asserted_class)

    @classmethod
    def literal(cls, value: str, datatype: DatatypeTag) -> "SlotFill":
        return cls(kind=SlotKind.LITERAL, value=value, datatype=datatype)

    def __post_init__(self):
        if self.kind is SlotKind.RESOURCE:
            if not isinstance(self.value, Gupri):
                raise MalformedRecord("resource fill value must be an identifier")
            if self.datatype is not None:
                raise MalformedRecord("resource fill cannot carry a datatype")
        else:
            if not isinstance(self.value, str):
                raise MalformedRecord("literal fill value must be text")
            if self.datatype is None:
                raise MalformedRecord("literal fill needs a datatype tag")
            if self.asserted_class is not None:
                raise MalformedRecord("literal fill cannot carry an asserted class")

    def effective_class(self) -> Gupri:
        """The class-bearing term of a resource fill."""
        assert self.kind is SlotKind.RESOURCE
        return self.asserted_class if self.asserted_class is not None else self.value  # type: ignore[return-value]


@dataclass(frozen=True)
class StatementInstance:
    """Token model: a schema reference plus slot fills."""

    schema_id: Gupri
    fills: Mapping[str, SlotFill]
    provenance: str | None = None


@dataclass(frozen=True)
class Violation:
    code: str
    slot_id: str | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class DuplicateGroup:
    """Schemas sharing one statement type, plus their crosswalk coverage."""

    statement_type: Gupri
    schema_ids: tuple[Gupri, ...]
    crosswalk_covered: bool


class SchemaRegistry:
    """Registry of statement schemas; validates instances against them."""

    def __init__(self, terminology: TerminologyRegistry):
        self.terminology = terminology
        self._schemas: RecordTable[StatementSchema] = RecordTable("schema", UnknownSchema, ConflictingSchema)

    @property
    def prefix_map(self):
        return self.terminology.prefix_map

    def register_schema(self, schema: StatementSchema) -> Gupri:
        schema = self._canonicalized(schema)
        seen: set[str] = set()
        for slot in schema.slots:
            if slot.slot_id in seen:
                raise DuplicateSlotId(f"slot {slot.slot_id!r} declared twice in {schema.id}")
            seen.add(slot.slot_id)
        if not any(s.required for s in schema.slots):
            raise NoRequiredSlot(f"schema {schema.id} declares no required slot")
        self._schemas.add(schema.id.canonical, schema)
        return schema.id

    def _canonicalized(self, schema: StatementSchema) -> StatementSchema:
        pm = self.prefix_map
        slots = tuple(
            SlotSpec(
                slot_id=s.slot_id,
                role=s.role,
                kind=s.kind,
                constraint=pm.gupri(s.constraint) if isinstance(s.constraint, Gupri) else s.constraint,
                required=s.required,
            )
            for s in schema.slots
        )
        return StatementSchema(
            id=pm.gupri(schema.id),
            statement_type=pm.gupri(schema.statement_type),
            label=schema.label,
            slots=slots,
            logical_framework=schema.logical_framework,
        )

    def schema(self, id: str | Gupri) -> StatementSchema:
        return self._schemas.get(self.prefix_map.gupri(id).canonical)

    def has_schema(self, id: str | Gupri) -> bool:
        try:
            gid = self.prefix_map.gupri(id)
        except InvalidGupri:
            return False
        return gid.canonical in self._schemas

    def schemas(self) -> list[StatementSchema]:
        return self._schemas.sorted()

    # -- constraint satisfaction ---------------------------------------------

    def satisfies_constraint(
        self,
        snap: ClosureSnapshot,
        term: Gupri,
        constraint: Gupri,
        *,
        strict: bool = False,
        native: bool = False,
    ) -> bool:
        """Whether a class term satisfies a resource-slot constraint in ``snap``.

        Default acceptance is referential-level equivalence or upward
        subClassOf reachability; ``strict`` restricts equivalence to the
        ontological grade. ``native`` accepts only identity or subclass
        reachability, with no mapping assistance; transforms use it to decide
        when a fill must be rewritten into the target vocabulary. Equivalence
        is a shared root at the asked grade, as in ``interop_level``.
        """
        if term == constraint:
            return True
        if not native:
            root = snap.ontological_root if strict else snap.referential_root
            if root(term) == root(constraint):
                return True
        return snap.subclass_reachable(term, constraint)

    # -- instance validation ---------------------------------------------------

    def validate_instance(
        self,
        inst: StatementInstance,
        *,
        strict: bool = False,
        min_confidence: float | None = None,
    ) -> ValidationReport:
        """Check a token model against its type model; never raises on content."""
        return self.validate_instance_at(self.terminology.compute_closure(min_confidence), inst, strict=strict)

    def validate_instance_at(
        self, snap: ClosureSnapshot, inst: StatementInstance, *, strict: bool = False
    ) -> ValidationReport:
        """:meth:`validate_instance` against a given closure snapshot."""
        schema = self.schema(inst.schema_id)
        violations: list[Violation] = []
        for slot in schema.slots:
            fill = inst.fills.get(slot.slot_id)
            if fill is None:
                if slot.required:
                    violations.append(
                        Violation("missing-required-slot", slot.slot_id, "required slot not filled")
                    )
                continue
            if fill.kind is not slot.kind:
                violations.append(
                    Violation(
                        "kind-mismatch",
                        slot.slot_id,
                        f"slot expects {slot.kind.value}, fill is {fill.kind.value}",
                    )
                )
                continue
            if slot.kind is SlotKind.LITERAL:
                assert isinstance(slot.constraint, DatatypeTag)
                if fill.datatype is not slot.constraint:
                    violations.append(
                        Violation(
                            "datatype-mismatch",
                            slot.slot_id,
                            f"slot expects {slot.constraint.value}, fill tagged {fill.datatype.value}",
                        )
                    )
                elif not literal_parses(fill.value, slot.constraint):  # type: ignore[arg-type]
                    violations.append(
                        Violation(
                            "literal-parse-failure",
                            slot.slot_id,
                            f"{fill.value!r} does not parse as {slot.constraint.value}",
                        )
                    )
            else:
                assert isinstance(slot.constraint, Gupri)
                term = fill.effective_class()
                if not self.satisfies_constraint(snap, term, slot.constraint, strict=strict):
                    violations.append(
                        Violation(
                            "constraint-failure",
                            slot.slot_id,
                            f"{term} does not satisfy constraint {slot.constraint}",
                        )
                    )
        known = set(schema.slot_ids())
        for slot_id in sorted(inst.fills):
            if slot_id not in known:
                violations.append(Violation("unknown-slot", slot_id, "schema declares no such slot"))
        return ValidationReport(valid=not violations, violations=tuple(violations))

    # -- statement-type queries -------------------------------------------------

    def schemas_for_statement_type(self, p: str | Gupri, min_confidence: float | None = None) -> list[Gupri]:
        """Schemas whose statement type is referentially equivalent to ``p``."""
        gp = self.prefix_map.gupri(p)
        return self.schemas_for_statement_type_at(self.terminology.compute_closure(min_confidence), gp)

    def schemas_for_statement_type_at(self, snap: ClosureSnapshot, p: Gupri) -> list[Gupri]:
        """:meth:`schemas_for_statement_type` against a given closure snapshot."""
        wanted = snap.referential_class(p)
        return [s.id for s in self.schemas() if s.statement_type.canonical in wanted]

    def detect_schema_duplicates(self, crosswalks) -> list[DuplicateGroup]:
        """Groups of schemas modeling the same statement type.

        A group is crosswalk-covered when every schema pair in it is connected
        in the crosswalk registry, composition allowed.
        """
        return self.detect_schema_duplicates_at(self.terminology.compute_closure(), crosswalks)

    def detect_schema_duplicates_at(self, snap: ClosureSnapshot, crosswalks) -> list[DuplicateGroup]:
        """:meth:`detect_schema_duplicates` against a given closure snapshot."""
        groups: dict[str, list[StatementSchema]] = {}
        for schema in self.schemas():
            groups.setdefault(snap.referential_root(schema.statement_type), []).append(schema)
        schema_roots = crosswalks.components()
        out: list[DuplicateGroup] = []
        for root in sorted(groups):
            members = groups[root]
            if len(members) < 2:
                continue
            ids = tuple(sorted((s.id for s in members)))
            shared = {schema_roots.get(s.canonical) for s in ids}
            covered = len(shared) == 1 and None not in shared
            statement_type = min(s.statement_type for s in members)
            out.append(DuplicateGroup(statement_type=statement_type, schema_ids=ids, crosswalk_covered=covered))
        return out
