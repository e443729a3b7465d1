"""FAIR digital object records and the extended checklist assessor.

A record wraps a term reference, one statement instance, or a collection of
instances, and carries the metadata that makes the content reusable: the
schema applied, creator versus content authors, the statement category, the
logical framework, a human-readable rendering, and the certainty level.

The assessor evaluates every checklist item that is decidable against the
local registries and marks protocol- and infrastructure-level items
not-applicable. The score is the passed fraction of applicable checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping

from .crosswalks import CrosswalkRegistry
from .errors import ConflictingFdo, MalformedContent, UnknownFdo
from .identifiers import Gupri
from .records import RecordTable
from .schemas import SchemaRegistry, SlotKind, StatementInstance
from .terminology import ClosureSnapshot, TerminologyRegistry

__all__ = [
    "StatementCategory",
    "CertaintyLevel",
    "FdoRecord",
    "CheckStatus",
    "CheckResult",
    "AssessmentReport",
    "CollectionAssessment",
    "FdoRegistry",
    "CHECK_IDS",
]


class StatementCategory(Enum):
    """Truth-scope classes a record must declare for its statements."""

    LEXICAL = "lexical"
    ASSERTIONAL = "assertional"
    CONTINGENT = "contingent"
    PROTOTYPICAL = "prototypical"
    UNIVERSAL = "universal"


class CertaintyLevel(Enum):
    """Ordinal confidence scale for the truthfulness of record content."""

    ASSERTED_CERTAIN = "asserted-certain"
    PROBABLE = "probable"
    POSSIBLE = "possible"
    DISPUTED = "disputed"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FdoRecord:
    gupri: Gupri
    content: Gupri | StatementInstance | tuple[StatementInstance, ...]
    schema_ref: Gupri | tuple[Gupri, ...] | None = None
    creator: str | None = None
    authors: tuple[str, ...] = ()
    category: StatementCategory | None = None
    logical_framework: str | None = None
    human_readable: str | None = None
    certainty: CertaintyLevel | None = None
    license: str | None = None
    provenance: Mapping[str, str] = field(default_factory=dict)
    data_identifier: Gupri | None = None

    def instances(self) -> tuple[StatementInstance, ...]:
        if isinstance(self.content, StatementInstance):
            return (self.content,)
        if isinstance(self.content, tuple):
            return self.content
        return ()

    def content_terms(self) -> list[Gupri]:
        """Every resource term the content mentions, deduplicated and sorted."""
        terms: set[Gupri] = set()
        if isinstance(self.content, Gupri):
            terms.add(self.content)
        for inst in self.instances():
            for fill in inst.fills.values():
                if fill.kind is SlotKind.RESOURCE:
                    terms.add(fill.value)  # type: ignore[arg-type]
                    if fill.asserted_class is not None:
                        terms.add(fill.asserted_class)
        return sorted(terms)


class CheckStatus(Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: CheckStatus
    detail: str = ""


@dataclass(frozen=True)
class AssessmentReport:
    fdo: Gupri
    checks: tuple[CheckResult, ...]
    passed: int
    applicable: int
    score: float


@dataclass(frozen=True)
class CollectionAssessment:
    mean_score: float
    per_check: tuple[tuple[str, int, int, int], ...]  # (check_id, pass, fail, na)


#: Checklist order; fixed so reports are byte-stable.
CHECK_IDS = (
    "F1",
    "F2",
    "F3",
    "F4",
    "F5.1",
    "F5.2",
    "F6.1",
    "F6.2",
    "F7",
    "A1.1",
    "A1.2",
    "A1.3",
    "A2",
    "I1",
    "I2",
    "I3",
    "I4",
    "I5",
    "R1.1",
    "R1.2",
    "R1.3",
    "R1.4",
)

_OUT_OF_SCOPE = {
    "F2",
    "F4",
    "A1.1",
    "A1.2",
    "A1.3",
    "A2",
    "I1",
    "I2",
    "I3",
    "R1.3",
}
_OUT_OF_SCOPE_DETAIL = "protocol/registry-level; out of scope"


class FdoRegistry:
    """Record store plus the checklist assessor over the other registries."""

    def __init__(
        self,
        terminology: TerminologyRegistry,
        schemas: SchemaRegistry,
        crosswalks: CrosswalkRegistry,
    ):
        self.terminology = terminology
        self.schemas = schemas
        self.crosswalks = crosswalks
        self._records: RecordTable[FdoRecord] = RecordTable("record", UnknownFdo, ConflictingFdo)

    @property
    def prefix_map(self):
        return self.terminology.prefix_map

    # -- registry -----------------------------------------------------------------

    def register_fdo(self, record: FdoRecord) -> Gupri:
        record = self._canonicalized(record)
        if isinstance(record.content, tuple) and not record.content:
            raise MalformedContent(f"record {record.gupri} wraps an empty collection")
        self._records.add(record.gupri.canonical, record)
        return record.gupri

    def _canonicalized(self, record: FdoRecord) -> FdoRecord:
        pm = self.prefix_map
        schema_ref = record.schema_ref
        if isinstance(schema_ref, tuple):
            schema_ref = tuple(pm.gupri(s) for s in schema_ref)
        elif schema_ref is not None:
            schema_ref = pm.gupri(schema_ref)
        return replace(
            record,
            gupri=pm.gupri(record.gupri),
            data_identifier=pm.gupri(record.data_identifier) if record.data_identifier else None,
            schema_ref=schema_ref,
            provenance=dict(sorted(record.provenance.items())),
        )

    def record(self, gupri: str | Gupri) -> FdoRecord:
        return self._records.get(self.prefix_map.gupri(gupri).canonical)

    def records(self) -> list[FdoRecord]:
        return self._records.sorted()

    # -- assessment ------------------------------------------------------------------

    def assess_fdo(self, gupri: str | Gupri) -> AssessmentReport:
        return self.assess_record(self.record(gupri))

    def assess_record(self, record: FdoRecord) -> AssessmentReport:
        """Evaluate the checklist; deterministic given the registries."""
        record = self._canonicalized(record)
        snap = self.terminology.compute_closure()
        evaluators = {
            "F1": self._check_f1,
            "F3": self._check_f3,
            "F5.1": self._check_f5_1,
            "F5.2": self._check_f5_2,
            "F6.1": self._check_f6_1,
            "F6.2": self._check_f6_2,
            "F7": self._check_f7,
            "I4": self._check_i4,
            "I5": self._check_i5,
            "R1.1": self._check_r1_1,
            "R1.2": self._check_r1_2,
            "R1.4": self._check_r1_4,
        }
        checks: list[CheckResult] = []
        for check_id in CHECK_IDS:
            if check_id in _OUT_OF_SCOPE:
                checks.append(CheckResult(check_id, CheckStatus.NOT_APPLICABLE, _OUT_OF_SCOPE_DETAIL))
            else:
                checks.append(evaluators[check_id](record, snap))
        passed = sum(1 for c in checks if c.status is CheckStatus.PASS)
        applicable = sum(1 for c in checks if c.status is not CheckStatus.NOT_APPLICABLE)
        score = passed / applicable if applicable else 0.0
        return AssessmentReport(
            fdo=record.gupri,
            checks=tuple(checks),
            passed=passed,
            applicable=applicable,
            score=score,
        )

    def assess_collection(self, gupris: list[str | Gupri]) -> CollectionAssessment:
        reports = [self.assess_fdo(g) for g in gupris]
        mean = sum(r.score for r in reports) / len(reports) if reports else 0.0
        rows = []
        for check_id in CHECK_IDS:
            statuses = [c.status for r in reports for c in r.checks if c.check_id == check_id]
            rows.append(
                (
                    check_id,
                    sum(1 for s in statuses if s is CheckStatus.PASS),
                    sum(1 for s in statuses if s is CheckStatus.FAIL),
                    sum(1 for s in statuses if s is CheckStatus.NOT_APPLICABLE),
                )
            )
        return CollectionAssessment(mean_score=mean, per_check=tuple(rows))

    # -- individual checks --------------------------------------------------------

    def _check_f1(self, record: FdoRecord, snap: ClosureSnapshot) -> CheckResult:
        return CheckResult("F1", CheckStatus.PASS, f"gupri {record.gupri} is canonical")

    def _check_f3(self, record: FdoRecord, snap: ClosureSnapshot) -> CheckResult:
        if record.data_identifier is not None:
            return CheckResult("F3", CheckStatus.PASS, f"data identifier {record.data_identifier}")
        return CheckResult("F3", CheckStatus.FAIL, "no data identifier linking metadata to data")

    def _check_f5_1(self, record: FdoRecord, snap: ClosureSnapshot) -> CheckResult:
        terms = record.content_terms()
        if not terms:
            return CheckResult("F5.1", CheckStatus.NOT_APPLICABLE, "content mentions no terms")
        unresolved = [str(t) for t in terms if not self.terminology.has_term(t)]
        if unresolved:
            return CheckResult(
                "F5.1", CheckStatus.FAIL, f"unresolved term(s): {', '.join(unresolved)}"
            )
        singletons = sum(1 for t in terms if len(snap.referential_class(t)) == 1)
        detail = "all content terms resolve"
        if singletons:
            detail += f"; {singletons} in singleton referential classes (vacuously mapped)"
        return CheckResult("F5.1", CheckStatus.PASS, detail)

    def _check_f5_2(self, record: FdoRecord, snap: ClosureSnapshot) -> CheckResult:
        terms = record.content_terms()
        if not terms:
            return CheckResult("F5.2", CheckStatus.NOT_APPLICABLE, "content mentions no terms")
        failing = []
        for t in terms:
            if not self.terminology.has_term(t):
                failing.append(str(t))
                continue
            audit = {c.check_id: c.status for c in self.terminology.audit_term_fairness_at(snap, t).checks}
            if audit["has_multilingual_labels"] != "pass" or audit["has_synonyms"] != "pass":
                failing.append(str(t))
        if failing:
            return CheckResult(
                "F5.2",
                CheckStatus.FAIL,
                f"term(s) missing multilingual labels or synonyms: {', '.join(failing)}",
            )
        return CheckResult("F5.2", CheckStatus.PASS, "all content terms carry labels and synonyms")

    def _check_f6_1(self, record: FdoRecord, snap: ClosureSnapshot) -> CheckResult:
        instances = record.instances()
        if not instances:
            return CheckResult("F6.1", CheckStatus.NOT_APPLICABLE, "no statement content")
        if record.schema_ref is None:
            return CheckResult("F6.1", CheckStatus.FAIL, "no schema reference in metadata")
        for inst in instances:
            if not self.schemas.has_schema(inst.schema_id):
                return CheckResult("F6.1", CheckStatus.FAIL, f"schema {inst.schema_id} not registered")
            report = self.schemas.validate_instance_at(snap, inst)
            if not report.valid:
                first = report.violations[0]
                return CheckResult(
                    "F6.1", CheckStatus.FAIL, f"instance invalid: {first.code} on {first.slot_id}"
                )
        return CheckResult("F6.1", CheckStatus.PASS, "schema referenced and content validates")

    def _check_f6_2(self, record: FdoRecord, snap: ClosureSnapshot) -> CheckResult:
        instances = record.instances()
        if not instances:
            return CheckResult("F6.2", CheckStatus.NOT_APPLICABLE, "no statement content")
        roots = set()
        for inst in instances:
            if not self.schemas.has_schema(inst.schema_id):
                return CheckResult("F6.2", CheckStatus.FAIL, f"schema {inst.schema_id} not registered")
            schema = self.schemas.schema(inst.schema_id)
            roots.add(snap.referential_root(schema.statement_type))
        groups = {
            snap.referential_root(g.statement_type): g
            for g in self.schemas.detect_schema_duplicates_at(snap, self.crosswalks)
        }
        relevant = [groups[r] for r in sorted(roots) if r in groups]
        if not relevant:
            return CheckResult(
                "F6.2", CheckStatus.NOT_APPLICABLE, "no alternative schema for the statement type"
            )
        uncovered = [g for g in relevant if not g.crosswalk_covered]
        if uncovered:
            ids = "; ".join(", ".join(str(s) for s in g.schema_ids) for g in uncovered)
            return CheckResult("F6.2", CheckStatus.FAIL, f"schemas not crosswalk-covered: {ids}")
        return CheckResult("F6.2", CheckStatus.PASS, "alternative schemas are crosswalk-covered")

    def _check_f7(self, record: FdoRecord, snap: ClosureSnapshot) -> CheckResult:
        if record.category is not None:
            return CheckResult("F7", CheckStatus.PASS, f"category {record.category.value}")
        return CheckResult("F7", CheckStatus.FAIL, "no statement category declared")

    def _check_i4(self, record: FdoRecord, snap: ClosureSnapshot) -> CheckResult:
        terms = record.content_terms()
        if not terms:
            return CheckResult("I4", CheckStatus.NOT_APPLICABLE, "content mentions no terms")
        missing = []
        without_criteria = 0
        for t in terms:
            if not self.terminology.has_term(t):
                missing.append(str(t))
                continue
            rec = self.terminology.term(t)
            if not rec.definition:
                missing.append(str(t))
            elif rec.recognition_criteria_applicable and not rec.recognition_criteria:
                without_criteria += 1
        if missing:
            return CheckResult("I4", CheckStatus.FAIL, f"term(s) without definition: {', '.join(missing)}")
        detail = "all content terms carry definitions"
        if without_criteria:
            detail += f"; {without_criteria} lack recognition criteria (advisory)"
        return CheckResult("I4", CheckStatus.PASS, detail)

    def _check_i5(self, record: FdoRecord, snap: ClosureSnapshot) -> CheckResult:
        if record.logical_framework:
            return CheckResult("I5", CheckStatus.PASS, f"framework {record.logical_framework}")
        return CheckResult("I5", CheckStatus.FAIL, "no logical framework declared")

    def _check_r1_1(self, record: FdoRecord, snap: ClosureSnapshot) -> CheckResult:
        if record.license:
            return CheckResult("R1.1", CheckStatus.PASS, f"license {record.license}")
        return CheckResult("R1.1", CheckStatus.FAIL, "no usage license")

    def _check_r1_2(self, record: FdoRecord, snap: ClosureSnapshot) -> CheckResult:
        if record.creator and record.authors:
            return CheckResult(
                "R1.2", CheckStatus.PASS, "creator and content authors recorded separately"
            )
        if not record.creator:
            return CheckResult("R1.2", CheckStatus.FAIL, "no record creator")
        return CheckResult("R1.2", CheckStatus.FAIL, "no content authors")

    def _check_r1_4(self, record: FdoRecord, snap: ClosureSnapshot) -> CheckResult:
        if record.certainty is not None:
            return CheckResult("R1.4", CheckStatus.PASS, f"certainty {record.certainty.value}")
        return CheckResult("R1.4", CheckStatus.FAIL, "no certainty level")
