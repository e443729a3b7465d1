"""Canonical document forms shared by files, CLI output, and HTTP payloads.

Everything is rendered through :func:`render` with a fixed key order, so two
emissions of the same logical object are byte-identical no matter where they
happen. Identifiers are compressed to CURIEs where the prefix map allows,
which keeps the files diff-friendly; parsing always canonicalizes again.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Any, Mapping, TypeVar

from .crosswalks import (
    Crosswalk,
    CrosswalkLevel,
    CrosswalkProvenance,
    CrosswalkReport,
    PlanReport,
    SlotAlignment,
)
from .errors import MalformedContent, MalformedRecord
from .fdo import (
    AssessmentReport,
    CertaintyLevel,
    FdoRecord,
    StatementCategory,
)
from .identifiers import Gupri, PrefixMap
from .operations import (
    ApplicableOperation,
    OperationDescriptor,
    OperationKind,
    OperationParam,
)
from .schemas import (
    DatatypeTag,
    SlotFill,
    SlotKind,
    SlotSpec,
    StatementInstance,
    StatementSchema,
    ValidationReport,
)
from .terminology import (
    EntityMapping,
    ImportReport,
    InteropVerdict,
    ReferentKind,
    TermRecord,
)

__all__ = ["load_json", "render", "render_line"]

_E = TypeVar("_E", bound=Enum)


def render(obj: Any) -> str:
    """Canonical pretty JSON with a trailing newline."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def render_line(obj: Any) -> str:
    """Canonical single-line JSON, used for line-oriented files."""
    return json.dumps(obj, separators=(", ", ": "), ensure_ascii=False)


def load_json(text: str) -> Any:
    """JSON read from outside the process; every way it can fail, nesting too
    deep to parse and a lone surrogate escape included, raises ValueError."""
    try:
        doc = json.loads(text)
        if "\\u" in text:
            # a lone surrogate parses, but no reply or file could encode it
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    return doc


def _compact(g: Gupri, pm: PrefixMap) -> str:
    return pm.compress(g.canonical)


def _require(obj: Mapping, key: str, context: str) -> Any:
    if key not in obj:
        raise MalformedContent(f"{context}: missing field {key!r}")
    return obj[key]


def _as_obj(data: Any, context: str) -> dict:
    if not isinstance(data, dict):
        raise MalformedContent(f"{context}: expected an object")
    return data


def _as_list(data: Any, context: str) -> list:
    if not isinstance(data, list):
        raise MalformedContent(f"{context}: expected an array")
    return data


def decode_enum(cls: type[_E], value: Any, what: str) -> _E:
    """The member of ``cls`` with this value; a value no member has raises
    MalformedContent naming ``what`` and the value."""
    try:
        return cls(value)
    except ValueError:
        raise MalformedContent(f"{what} {value!r}") from None


def decode_flag(value: Any, what: str) -> bool:
    """A JSON boolean; any other value, "false" included, raises
    MalformedContent naming ``what``."""
    if isinstance(value, bool):
        return value
    raise MalformedContent(f"{what} {value!r}")


# ---------------------------------------------------------------------------
# terms


def term_to_doc(record: TermRecord, pm: PrefixMap) -> dict:
    doc: dict[str, Any] = {"id": _compact(record.id, pm), "labels": dict(record.labels)}
    if record.definition is not None:
        doc["definition"] = record.definition
    if record.recognition_criteria is not None:
        doc["recognition_criteria"] = record.recognition_criteria
    if not record.recognition_criteria_applicable:
        doc["recognition_criteria_applicable"] = False
    doc["synonyms"] = list(record.synonyms)
    doc["referent_kind"] = record.referent_kind.value
    return doc


def term_from_doc(data: Any, pm: PrefixMap) -> TermRecord:
    obj = _as_obj(data, "term record")
    labels = _as_obj(obj.get("labels", {}), "term labels")
    referent_kind = decode_enum(ReferentKind, obj.get("referent_kind", "class"), "term record: bad referent_kind")
    return TermRecord(
        id=pm.gupri(str(_require(obj, "id", "term record"))),
        labels={str(k): str(v) for k, v in labels.items()},
        definition=obj.get("definition"),
        recognition_criteria=obj.get("recognition_criteria"),
        recognition_criteria_applicable=decode_flag(
            obj.get("recognition_criteria_applicable", True), "term record: bad recognition_criteria_applicable"
        ),
        synonyms=tuple(str(s) for s in _as_list(obj.get("synonyms", []), "term synonyms")),
        referent_kind=referent_kind,
    )


def mapping_to_doc(m: EntityMapping, pm: PrefixMap) -> dict:
    doc: dict[str, Any] = {
        "id": m.id,
        "subject": _compact(m.subject, pm),
        "predicate": m.predicate.curie,
        "object": _compact(m.object, pm),
        "justification": m.justification,
        "confidence": m.confidence,
    }
    if m.author is not None:
        doc["author"] = m.author
    if m.comment is not None:
        doc["comment"] = m.comment
    return doc


def import_report_to_doc(report: ImportReport) -> dict:
    return {
        "accepted": report.accepted,
        "rejected": [{"line": r.line, "reason": r.reason} for r in report.rejected],
    }


def verdict_to_doc(a: Gupri, b: Gupri, verdict: InteropVerdict, pm: PrefixMap) -> dict:
    doc: dict[str, Any] = {
        "a": _compact(a, pm),
        "b": _compact(b, pm),
        "level": verdict.level.label,
    }
    if verdict.direction is not None:
        doc["direction"] = verdict.direction
    doc["actionable"] = verdict.actionable
    return doc


# ---------------------------------------------------------------------------
# schemas and instances


def schema_to_doc(schema: StatementSchema, pm: PrefixMap) -> dict:
    doc: dict[str, Any] = {
        "id": _compact(schema.id, pm),
        "statement_type": _compact(schema.statement_type, pm),
        "label": schema.label,
    }
    if schema.logical_framework is not None:
        doc["logical_framework"] = schema.logical_framework
    doc["slots"] = [
        {
            "slot_id": s.slot_id,
            "role": s.role,
            "kind": s.kind.value,
            "constraint": _compact(s.constraint, pm)
            if isinstance(s.constraint, Gupri)
            else s.constraint.value,
            "required": s.required,
        }
        for s in schema.slots
    ]
    return doc


def schema_from_doc(data: Any, pm: PrefixMap) -> StatementSchema:
    obj = _as_obj(data, "schema document")
    slots = []
    for raw in _as_list(_require(obj, "slots", "schema document"), "schema slots"):
        slot = _as_obj(raw, "slot spec")
        kind = decode_enum(SlotKind, str(_require(slot, "kind", "slot spec")), "slot spec: bad kind")
        constraint_text = str(_require(slot, "constraint", "slot spec"))
        constraint: Gupri | DatatypeTag
        if kind is SlotKind.LITERAL:
            constraint = decode_enum(DatatypeTag, constraint_text, "slot spec: bad datatype")
        else:
            constraint = pm.gupri(constraint_text)
        try:
            slots.append(
                SlotSpec(
                    slot_id=str(_require(slot, "slot_id", "slot spec")),
                    role=str(_require(slot, "role", "slot spec")),
                    kind=kind,
                    constraint=constraint,
                    required=decode_flag(slot.get("required", True), "slot spec: bad required"),
                )
            )
        except MalformedRecord as exc:
            raise MalformedContent(str(exc)) from None
    return StatementSchema(
        id=pm.gupri(str(_require(obj, "id", "schema document"))),
        statement_type=pm.gupri(str(_require(obj, "statement_type", "schema document"))),
        label=str(obj.get("label", "")),
        slots=tuple(slots),
        logical_framework=obj.get("logical_framework"),
    )


def fill_to_doc(fill: SlotFill, pm: PrefixMap) -> dict:
    if fill.kind is SlotKind.RESOURCE:
        doc: dict[str, Any] = {"kind": "resource", "value": _compact(fill.value, pm)}  # type: ignore[arg-type]
        if fill.asserted_class is not None:
            doc["asserted_class"] = _compact(fill.asserted_class, pm)
        return doc
    return {"kind": "literal", "value": fill.value, "datatype": fill.datatype.value}  # type: ignore[union-attr]


def fill_from_doc(data: Any, pm: PrefixMap) -> SlotFill:
    obj = _as_obj(data, "slot fill")
    kind_text = str(_require(obj, "kind", "slot fill"))
    value = _require(obj, "value", "slot fill")
    try:
        if kind_text == "resource":
            asserted = obj.get("asserted_class")
            return SlotFill.resource(
                pm.gupri(str(value)), pm.gupri(str(asserted)) if asserted else None
            )
        if kind_text == "literal":
            tag = decode_enum(DatatypeTag, str(_require(obj, "datatype", "slot fill")), "slot fill: bad datatype")
            return SlotFill.literal(str(value), tag)
    except MalformedRecord as exc:
        raise MalformedContent(str(exc)) from None
    raise MalformedContent(f"slot fill: bad kind {kind_text!r}")


def instance_to_doc(inst: StatementInstance, pm: PrefixMap) -> dict:
    doc: dict[str, Any] = {
        "schema": _compact(inst.schema_id, pm),
        "fills": {
            slot_id: fill_to_doc(inst.fills[slot_id], pm) for slot_id in sorted(inst.fills)
        },
    }
    if inst.provenance is not None:
        doc["provenance"] = inst.provenance
    return doc


def instance_from_doc(data: Any, pm: PrefixMap) -> StatementInstance:
    obj = _as_obj(data, "instance document")
    fills_obj = _as_obj(_require(obj, "fills", "instance document"), "instance fills")
    fills = {str(slot_id): fill_from_doc(f, pm) for slot_id, f in fills_obj.items()}
    provenance = obj.get("provenance")
    return StatementInstance(
        schema_id=pm.gupri(str(_require(obj, "schema", "instance document"))),
        fills=fills,
        provenance=str(provenance) if provenance is not None else None,
    )


def instance_from_json(raw: bytes | str, pm: PrefixMap) -> StatementInstance:
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    return instance_from_doc(load_json(raw), pm)


def validation_to_doc(report: ValidationReport) -> dict:
    return {
        "valid": report.valid,
        "violations": [
            {"code": v.code, "slot": v.slot_id, "message": v.message} for v in report.violations
        ],
    }


# ---------------------------------------------------------------------------
# crosswalks


def crosswalk_to_doc(cw: Crosswalk, pm: PrefixMap) -> dict:
    doc: dict[str, Any] = {
        "id": _compact(cw.id, pm),
        "source_schema": _compact(cw.source_schema, pm),
        "target_schema": _compact(cw.target_schema, pm),
        "alignments": [
            {"source_slot": a.source_slot, "target_slot": a.target_slot} for a in cw.alignments
        ],
    }
    if cw.level is not None:
        doc["level"] = cw.level.label
    provenance = {}
    if cw.provenance.author is not None:
        provenance["author"] = cw.provenance.author
    if cw.provenance.date is not None:
        provenance["date"] = cw.provenance.date
    if cw.provenance.justification is not None:
        provenance["justification"] = cw.provenance.justification
    doc["provenance"] = provenance
    return doc


def crosswalk_from_doc(data: Any, pm: PrefixMap) -> Crosswalk:
    obj = _as_obj(data, "crosswalk document")
    alignments = []
    for raw in _as_list(_require(obj, "alignments", "crosswalk document"), "crosswalk alignments"):
        a = _as_obj(raw, "alignment")
        alignments.append(
            SlotAlignment(
                source_slot=str(_require(a, "source_slot", "alignment")),
                target_slot=str(_require(a, "target_slot", "alignment")),
            )
        )
    level = None
    if obj.get("level") is not None:
        try:
            level = CrosswalkLevel.from_label(str(obj["level"]))
        except ValueError as exc:
            raise MalformedContent(str(exc)) from None
    provenance = _as_obj(obj.get("provenance", {}), "crosswalk provenance")
    return Crosswalk(
        id=pm.gupri(str(_require(obj, "id", "crosswalk document"))),
        source_schema=pm.gupri(str(_require(obj, "source_schema", "crosswalk document"))),
        target_schema=pm.gupri(str(_require(obj, "target_schema", "crosswalk document"))),
        alignments=tuple(alignments),
        level=level,
        provenance=CrosswalkProvenance(
            author=provenance.get("author"),
            date=provenance.get("date"),
            justification=provenance.get("justification"),
        ),
    )


def crosswalk_report_to_doc(report: CrosswalkReport, pm: PrefixMap) -> dict:
    return {
        "crosswalk": _compact(report.crosswalk_id, pm),
        "alignments": [
            {
                "source_slot": c.alignment.source_slot,
                "target_slot": c.alignment.target_slot,
                "status": c.status.value,
                **({"detail": c.detail} if c.detail else {}),
            }
            for c in report.checks
        ],
        "uncovered_required_source": list(report.uncovered_required_source),
        "uncovered_required_target": list(report.uncovered_required_target),
        "clean": report.clean,
    }


def plan_to_doc(report: PlanReport, pm: PrefixMap) -> dict:
    def pair(p: tuple[str, str]) -> list[str]:
        return [pm.compress(p[0]), pm.compress(p[1])]

    return {
        "strategy": report.strategy,
        "required_count": report.required_count,
        "existing_count": report.existing_count,
        "missing": [pair(p) for p in report.missing],
        "pairs_covered": [pair(p) for p in report.pairs_covered],
    }


# ---------------------------------------------------------------------------
# operations


def operation_to_doc(d: OperationDescriptor, pm: PrefixMap) -> dict:
    doc: dict[str, Any] = {
        "id": _compact(d.id, pm),
        "label": d.label,
        "applicable_schemas": sorted(_compact(s, pm) for s in d.applicable_schemas),
        "kind": d.kind.value,
        "params": [{"name": p.name, "datatype": p.datatype.value} for p in d.params],
    }
    if d.tool is not None:
        doc["tool"] = d.tool
    return doc


def operation_from_doc(data: Any, pm: PrefixMap) -> OperationDescriptor:
    obj = _as_obj(data, "operation document")
    kind = decode_enum(OperationKind, str(obj.get("kind", "external-reference")), "operation document: bad kind")
    params = []
    for raw in _as_list(obj.get("params", []), "operation params"):
        p = _as_obj(raw, "operation param")
        tag = decode_enum(DatatypeTag, str(_require(p, "datatype", "operation param")), "operation param: bad datatype")
        params.append(OperationParam(name=str(_require(p, "name", "operation param")), datatype=tag))
    return OperationDescriptor(
        id=pm.gupri(str(_require(obj, "id", "operation document"))),
        label=str(obj.get("label", "")),
        applicable_schemas=frozenset(
            pm.gupri(str(s))
            for s in _as_list(_require(obj, "applicable_schemas", "operation document"), "applicable schemas")
        ),
        kind=kind,
        params=tuple(params),
        tool=obj.get("tool"),
    )


def applicable_to_doc(entries: list[ApplicableOperation], degree: int, pm: PrefixMap) -> dict:
    return {
        "degree": degree,
        "operations": [
            {
                "id": _compact(e.operation.id, pm),
                "label": e.operation.label,
                "via": [pm.compress(c) for c in e.via],
            }
            for e in entries
        ],
    }


# ---------------------------------------------------------------------------
# FDO records


def fdo_to_doc(record: FdoRecord, pm: PrefixMap) -> dict:
    if isinstance(record.content, Gupri):
        content: dict[str, Any] = {"kind": "term_ref", "term": _compact(record.content, pm)}
    elif isinstance(record.content, StatementInstance):
        content = {"kind": "instance", "instance": instance_to_doc(record.content, pm)}
    else:
        content = {
            "kind": "collection",
            "instances": [instance_to_doc(i, pm) for i in record.content],
        }
    doc: dict[str, Any] = {"gupri": _compact(record.gupri, pm), "content": content}
    if isinstance(record.schema_ref, tuple):
        doc["schema_ref"] = [_compact(s, pm) for s in record.schema_ref]
    elif record.schema_ref is not None:
        doc["schema_ref"] = _compact(record.schema_ref, pm)
    if record.creator is not None:
        doc["creator"] = record.creator
    doc["authors"] = list(record.authors)
    if record.category is not None:
        doc["category"] = record.category.value
    if record.logical_framework is not None:
        doc["logical_framework"] = record.logical_framework
    if record.human_readable is not None:
        doc["human_readable"] = record.human_readable
    if record.certainty is not None:
        doc["certainty"] = record.certainty.value
    if record.license is not None:
        doc["license"] = record.license
    doc["provenance"] = dict(record.provenance)
    if record.data_identifier is not None:
        doc["data_identifier"] = _compact(record.data_identifier, pm)
    return doc


def fdo_from_doc(data: Any, pm: PrefixMap) -> FdoRecord:
    obj = _as_obj(data, "fdo document")
    content_obj = _as_obj(_require(obj, "content", "fdo document"), "fdo content")
    kind = str(_require(content_obj, "kind", "fdo content"))
    content: Gupri | StatementInstance | tuple[StatementInstance, ...]
    if kind == "term_ref":
        content = pm.gupri(str(_require(content_obj, "term", "fdo content")))
    elif kind == "instance":
        content = instance_from_doc(_require(content_obj, "instance", "fdo content"), pm)
    elif kind == "collection":
        instances = _as_list(_require(content_obj, "instances", "fdo content"), "fdo instances")
        content = tuple(instance_from_doc(i, pm) for i in instances)
    else:
        raise MalformedContent(f"fdo content: bad kind {kind!r}")
    category = None
    if obj.get("category") is not None:
        category = decode_enum(StatementCategory, obj["category"], "fdo document: bad category")
    certainty = None
    if obj.get("certainty") is not None:
        certainty = decode_enum(CertaintyLevel, obj["certainty"], "fdo document: bad certainty")
    schema_ref: Gupri | tuple[Gupri, ...] | None = None
    raw_ref = obj.get("schema_ref")
    if isinstance(raw_ref, list):
        schema_ref = tuple(pm.gupri(str(s)) for s in raw_ref)
    elif raw_ref is not None:
        schema_ref = pm.gupri(str(raw_ref))
    provenance = _as_obj(obj.get("provenance", {}), "fdo provenance")
    return FdoRecord(
        gupri=pm.gupri(str(_require(obj, "gupri", "fdo document"))),
        content=content,
        schema_ref=schema_ref,
        creator=obj.get("creator"),
        authors=tuple(str(a) for a in _as_list(obj.get("authors", []), "fdo authors")),
        category=category,
        logical_framework=obj.get("logical_framework"),
        human_readable=obj.get("human_readable"),
        certainty=certainty,
        license=obj.get("license"),
        provenance={str(k): str(v) for k, v in provenance.items()},
        data_identifier=pm.gupri(str(obj["data_identifier"])) if obj.get("data_identifier") else None,
    )


def assessment_to_doc(report: AssessmentReport, pm: PrefixMap) -> dict:
    return {
        "fdo": _compact(report.fdo, pm),
        "checks": [
            {
                "check": c.check_id,
                "status": c.status.value,
                **({"detail": c.detail} if c.detail else {}),
            }
            for c in report.checks
        ],
        "passed": report.passed,
        "applicable": report.applicable,
        "score": report.score,
    }
