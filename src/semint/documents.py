"""Canonical document forms shared by files, CLI output, and HTTP payloads.

Everything is rendered through :func:`render` with a fixed key order, so two
emissions of the same logical object are byte-identical no matter where they
happen. Identifiers are compressed to CURIEs where the prefix map allows,
which keeps the files diff-friendly; parsing always canonicalizes again.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import TYPE_CHECKING, Any, Mapping, TypeVar

import semint

from .errors import MalformedContent, MalformedRecord
from .identifiers import Gupri, PrefixMap
from .terminology import (
    EntityMapping,
    ImportReport,
    InteropVerdict,
    ReferentKind,
    TermRecord,
)

# every command imports this module, and most read only some kinds of
# record: a codec reaches the types of a kind as ``semint.<module>.<type>``,
# which imports that module on first use
if TYPE_CHECKING:
    from .crosswalks import Crosswalk, CrosswalkReport, PlanReport
    from .fdo import AssessmentReport, FdoRecord
    from .operations import ApplicableOperation, OperationDescriptor
    from .schemas import DatatypeTag, SlotFill, StatementInstance, StatementSchema, ValidationReport

__all__ = ["load_json", "render", "render_line"]

_E = TypeVar("_E", bound=Enum)


#: the C string encoder that ``json.dumps(..., ensure_ascii=False)`` uses
_encode_str = json.encoder.encode_basestring
_float_repr = float.__repr__
_int_repr = int.__repr__
_INFINITY = float("inf")
#: containers nested deeper than this are left to ``json.dumps``
_MAX_DEPTH = 100
#: per depth: the line break and indent before a member at that depth, and
#: the separator before every member after the first
_NEWLINES = tuple("\n" + "  " * depth for depth in range(_MAX_DEPTH + 1))
_SEPARATORS = tuple("," + newline for newline in _NEWLINES)


class _NotPlain(Exception):
    """A value :func:`render` leaves to ``json.dumps``."""


def render(obj: Any) -> str:
    """Canonical pretty JSON with a trailing newline: byte for byte
    ``json.dumps(obj, indent=2, ensure_ascii=False) + "\\n"``.

    Documents are written in one pass for the exact types they hold (``dict``
    with ``str`` keys, ``list``, ``tuple``, ``str``, ``int``, ``float``,
    ``bool`` and ``None``), since any ``indent`` takes ``json``'s pure-Python
    encoder. Any other value, a key that is not exactly ``str``, nesting past
    ``_MAX_DEPTH`` or a ``RecursionError`` sends the whole object to
    ``json.dumps``, so such output and every error stay json's own.
    """
    try:
        t = type(obj)
        if t is dict or t is list or t is tuple:
            out: list[str] = []
            _write(obj, 1, out)
            out.append("\n")
            return "".join(out)
        return (_encode_str(obj) if t is str else _scalar(obj)) + "\n"
    except (_NotPlain, RecursionError):
        return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _write(obj: dict | list | tuple, depth: int, out: list[str]) -> None:
    """Append the text of the container ``obj``, whose members sit at
    ``depth``, to ``out``; every separator at one depth is one string."""
    if depth > _MAX_DEPTH:
        raise _NotPlain
    append = out.append
    if type(obj) is dict:
        if not obj:
            append("{}")
            return
        append("{")
        lead = _NEWLINES[depth]
        for key, value in obj.items():
            if type(key) is not str:
                raise _NotPlain
            append(lead)
            lead = _SEPARATORS[depth]
            append(_encode_str(key))
            append(": ")
            t = type(value)
            if t is str:
                append(_encode_str(value))
            elif t is dict or t is list or t is tuple:
                _write(value, depth + 1, out)
            else:
                append(_scalar(value))
        append(_NEWLINES[depth - 1])
        append("}")
        return
    if not obj:
        append("[]")
        return
    try:
        # a list of strings, the usual array, is one join; any other member
        # raises TypeError before anything is appended
        text = _SEPARATORS[depth].join(map(_encode_str, obj))
    except TypeError:
        append("[")
        lead = _NEWLINES[depth]
        for value in obj:
            append(lead)
            lead = _SEPARATORS[depth]
            t = type(value)
            if t is str:
                append(_encode_str(value))
            elif t is dict or t is list or t is tuple:
                _write(value, depth + 1, out)
            else:
                append(_scalar(value))
    else:
        append("[")
        append(_NEWLINES[depth])
        append(text)
    append(_NEWLINES[depth - 1])
    append("]")


def _scalar(value: Any) -> str:
    """The text of an ``int``, ``float``, ``bool`` or ``None``, as ``json``
    writes it."""
    t = type(value)
    if t is int:
        return _int_repr(value)
    if t is float:
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return _float_repr(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise _NotPlain


def render_line(obj: Any) -> str:
    """Canonical single-line JSON, used for line-oriented files, which are
    split with ``str.splitlines``. ``json.dumps`` escapes only the characters
    below U+0020, so the three other breaks it splits at are escaped here."""
    line = json.dumps(obj, separators=(", ", ": "), ensure_ascii=False)
    if line.isascii():
        return line
    return line.replace("\x85", "\\u0085").replace("\u2028", "\\u2028").replace("\u2029", "\\u2029")


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
    return _typed(value, bool, what)


def decode_text(value: Any, what: str) -> str | None:
    """A JSON string, or None for a missing value or null; any other value
    raises MalformedContent naming ``what``."""
    return None if value is None else _typed(value, str, what)


def _typed(value: Any, kind: type, what: str) -> Any:
    if isinstance(value, kind):
        return value
    raise MalformedContent(f"{what} {value!r}")


def _texts(data: Any, context: str) -> tuple[str, ...]:
    return tuple(_typed(item, str, f"{context}: bad item") for item in _as_list(data, context))


def _text_map(data: Any, context: str) -> dict[str, str]:
    obj = _as_obj(data, context)
    return {_typed(k, str, f"{context}: bad key"): _typed(v, str, f"{context}: bad value") for k, v in obj.items()}


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
    referent_kind = decode_enum(ReferentKind, obj.get("referent_kind", "class"), "term record: bad referent_kind")
    return TermRecord(
        id=pm.gupri(_require(obj, "id", "term record")),
        labels=_text_map(obj.get("labels", {}), "term labels"),
        definition=decode_text(obj.get("definition"), "term record: bad definition"),
        recognition_criteria=decode_text(obj.get("recognition_criteria"), "term record: bad recognition_criteria"),
        recognition_criteria_applicable=decode_flag(
            obj.get("recognition_criteria_applicable", True), "term record: bad recognition_criteria_applicable"
        ),
        synonyms=_texts(obj.get("synonyms", []), "term synonyms"),
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
        kind = decode_enum(semint.schemas.SlotKind, str(_require(slot, "kind", "slot spec")), "slot spec: bad kind")
        constraint_text = str(_require(slot, "constraint", "slot spec"))
        constraint: Gupri | DatatypeTag
        if kind is semint.schemas.SlotKind.LITERAL:
            constraint = decode_enum(semint.schemas.DatatypeTag, constraint_text, "slot spec: bad datatype")
        else:
            constraint = pm.gupri(constraint_text)
        try:
            slots.append(
                semint.schemas.SlotSpec(
                    slot_id=_typed(_require(slot, "slot_id", "slot spec"), str, "slot spec: bad slot_id"),
                    role=_typed(_require(slot, "role", "slot spec"), str, "slot spec: bad role"),
                    kind=kind,
                    constraint=constraint,
                    required=decode_flag(slot.get("required", True), "slot spec: bad required"),
                )
            )
        except MalformedRecord as exc:
            raise MalformedContent(str(exc)) from None
    return semint.schemas.StatementSchema(
        id=pm.gupri(_require(obj, "id", "schema document")),
        statement_type=pm.gupri(_require(obj, "statement_type", "schema document")),
        label=decode_text(obj.get("label"), "schema document: bad label") or "",
        slots=tuple(slots),
        logical_framework=decode_text(obj.get("logical_framework"), "schema document: bad logical_framework"),
    )


def fill_to_doc(fill: SlotFill, pm: PrefixMap) -> dict:
    if fill.datatype is None:  # only a resource fill has none
        doc: dict[str, Any] = {"kind": "resource", "value": _compact(fill.value, pm)}  # type: ignore[arg-type]
        if fill.asserted_class is not None:
            doc["asserted_class"] = _compact(fill.asserted_class, pm)
        return doc
    return {"kind": "literal", "value": fill.value, "datatype": fill.datatype.value}  # type: ignore[union-attr]


def fill_from_doc(data: Any, pm: PrefixMap) -> SlotFill:
    obj = _as_obj(data, "slot fill")
    kind_text = str(_require(obj, "kind", "slot fill"))
    value = _typed(_require(obj, "value", "slot fill"), str, "slot fill: bad value")
    try:
        if kind_text == "resource":
            asserted = decode_text(obj.get("asserted_class"), "slot fill: bad asserted_class")
            return semint.schemas.SlotFill.resource(pm.gupri(value), pm.gupri(asserted) if asserted else None)
        if kind_text == "literal":
            datatype = str(_require(obj, "datatype", "slot fill"))
            tag = decode_enum(semint.schemas.DatatypeTag, datatype, "slot fill: bad datatype")
            return semint.schemas.SlotFill.literal(value, tag)
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
    return semint.schemas.StatementInstance(
        schema_id=pm.gupri(_require(obj, "schema", "instance document")),
        fills=fills,
        provenance=decode_text(obj.get("provenance"), "instance document: bad provenance"),
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
            semint.crosswalks.SlotAlignment(
                source_slot=_typed(_require(a, "source_slot", "alignment"), str, "alignment: bad source_slot"),
                target_slot=_typed(_require(a, "target_slot", "alignment"), str, "alignment: bad target_slot"),
            )
        )
    level = None
    if obj.get("level") is not None:
        try:
            level = semint.crosswalks.CrosswalkLevel.from_label(str(obj["level"]))
        except ValueError as exc:
            raise MalformedContent(str(exc)) from None
    provenance = _as_obj(obj.get("provenance", {}), "crosswalk provenance")
    return semint.crosswalks.Crosswalk(
        id=pm.gupri(_require(obj, "id", "crosswalk document")),
        source_schema=pm.gupri(_require(obj, "source_schema", "crosswalk document")),
        target_schema=pm.gupri(_require(obj, "target_schema", "crosswalk document")),
        alignments=tuple(alignments),
        level=level,
        provenance=semint.crosswalks.CrosswalkProvenance(
            author=decode_text(provenance.get("author"), "crosswalk provenance: bad author"),
            date=decode_text(provenance.get("date"), "crosswalk provenance: bad date"),
            justification=decode_text(provenance.get("justification"), "crosswalk provenance: bad justification"),
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
    kind_text = str(obj.get("kind", "external-reference"))
    kind = decode_enum(semint.operations.OperationKind, kind_text, "operation document: bad kind")
    params = []
    for raw in _as_list(obj.get("params", []), "operation params"):
        p = _as_obj(raw, "operation param")
        datatype = str(_require(p, "datatype", "operation param"))
        tag = decode_enum(semint.schemas.DatatypeTag, datatype, "operation param: bad datatype")
        name = _typed(_require(p, "name", "operation param"), str, "operation param: bad name")
        params.append(semint.operations.OperationParam(name=name, datatype=tag))
    return semint.operations.OperationDescriptor(
        id=pm.gupri(_require(obj, "id", "operation document")),
        label=decode_text(obj.get("label"), "operation document: bad label") or "",
        applicable_schemas=frozenset(
            pm.gupri(s)
            for s in _as_list(_require(obj, "applicable_schemas", "operation document"), "applicable schemas")
        ),
        kind=kind,
        params=tuple(params),
        tool=decode_text(obj.get("tool"), "operation document: bad tool"),
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
    elif isinstance(record.content, semint.schemas.StatementInstance):
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
    doc["provenance"] = dict(sorted(record.provenance.items()))
    if record.data_identifier is not None:
        doc["data_identifier"] = _compact(record.data_identifier, pm)
    return doc


def fdo_gupri(data: Any, pm: PrefixMap) -> Gupri:
    """The id of an FDO document, read as :func:`fdo_from_doc` reads it."""
    return pm.gupri(_require(_as_obj(data, "fdo document"), "gupri", "fdo document"))


def fdo_from_doc(data: Any, pm: PrefixMap) -> FdoRecord:
    obj = _as_obj(data, "fdo document")
    content_obj = _as_obj(_require(obj, "content", "fdo document"), "fdo content")
    kind = str(_require(content_obj, "kind", "fdo content"))
    content: Gupri | StatementInstance | tuple[StatementInstance, ...]
    if kind == "term_ref":
        content = pm.gupri(_require(content_obj, "term", "fdo content"))
    elif kind == "instance":
        content = instance_from_doc(_require(content_obj, "instance", "fdo content"), pm)
    elif kind == "collection":
        instances = _as_list(_require(content_obj, "instances", "fdo content"), "fdo instances")
        content = tuple(instance_from_doc(i, pm) for i in instances)
    else:
        raise MalformedContent(f"fdo content: bad kind {kind!r}")
    category = None
    if obj.get("category") is not None:
        category = decode_enum(semint.fdo.StatementCategory, obj["category"], "fdo document: bad category")
    certainty = None
    if obj.get("certainty") is not None:
        certainty = decode_enum(semint.fdo.CertaintyLevel, obj["certainty"], "fdo document: bad certainty")
    schema_ref: Gupri | tuple[Gupri, ...] | None = None
    raw_ref = obj.get("schema_ref")
    if isinstance(raw_ref, list):
        schema_ref = tuple(pm.gupri(s) for s in raw_ref)
    elif raw_ref is not None:
        schema_ref = pm.gupri(raw_ref)
    data_identifier = decode_text(obj.get("data_identifier"), "fdo document: bad data_identifier")
    return semint.fdo.FdoRecord(
        gupri=fdo_gupri(obj, pm),
        content=content,
        schema_ref=schema_ref,
        creator=decode_text(obj.get("creator"), "fdo document: bad creator"),
        authors=_texts(obj.get("authors", []), "fdo authors"),
        category=category,
        logical_framework=decode_text(obj.get("logical_framework"), "fdo document: bad logical_framework"),
        human_readable=decode_text(obj.get("human_readable"), "fdo document: bad human_readable"),
        certainty=certainty,
        license=decode_text(obj.get("license"), "fdo document: bad license"),
        provenance=_text_map(obj.get("provenance", {}), "fdo provenance"),
        data_identifier=pm.gupri(data_identifier) if data_identifier else None,
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
