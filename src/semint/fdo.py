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

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping

from .crosswalks import CrosswalkRegistry
from .errors import ConflictingFdo, MalformedContent, UnknownFdo, check_utf8
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
    """A FAIR digital object: its identifier, content and metadata."""

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


def _texts(record: FdoRecord) -> list[str | Gupri | None]:
    """Every text of ``record``: its metadata, and the provenance, slot ids
    and fill values of its instances."""
    texts = [
        record.creator,
        record.logical_framework,
        record.human_readable,
        record.license,
        *record.authors,
        *record.provenance.keys(),
        *record.provenance.values(),
    ]
    for inst in record.instances():
        texts.append(inst.provenance)
        texts += inst.fills.keys()
        texts += (fill.value for fill in inst.fills.values())
    return texts


def _records_by_term(records: tuple[FdoRecord, ...]) -> dict[str, list[FdoRecord]]:
    """The records whose content mentions each canonical term."""
    by_term: dict[str, list[FdoRecord]] = {}
    for record in records:
        for term in record.content_terms():
            by_term.setdefault(term.canonical, []).append(record)
    return by_term


class CheckStatus(Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class CheckResult:
    """One criterion of a FAIR assessment and its outcome."""

    check_id: str
    status: CheckStatus
    detail: str = ""


@dataclass(frozen=True)
class AssessmentReport:
    """A record's FAIR assessment: each check and the score over the applicable ones."""

    fdo: Gupri
    checks: tuple[CheckResult, ...]
    passed: int
    applicable: int
    score: float


@dataclass(frozen=True)
class CollectionAssessment:
    """Assessment totals over many records: the mean score and each check's counts."""

    mean_score: float
    per_check: tuple[tuple[str, int, int, int], ...]  # (check_id, pass, fail, na)


#: What a check evaluator returns: the status and its detail.
_Outcome = tuple[CheckStatus, str]

_OUT_OF_SCOPE_DETAIL = "protocol/registry-level; out of scope"
_NO_TERMS = (CheckStatus.NOT_APPLICABLE, "content mentions no terms")
_NO_STATEMENTS = (CheckStatus.NOT_APPLICABLE, "no statement content")


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

    def defer(self, fill: Callable[[], None]) -> None:
        """Leave the records to ``fill``, which registers them; the first
        access to the records runs it (:meth:`RecordTable.defer`)."""
        self._records.defer(fill)

    def register_fdo(self, record: FdoRecord) -> Gupri:
        if isinstance(record.content, tuple) and not record.content:
            raise MalformedContent(f"record {record.gupri} wraps an empty collection")
        check_utf8(f"record {record.gupri}", _texts(record))
        self._records.add(record.gupri.canonical, record)
        return record.gupri

    def record(self, gupri: str | Gupri) -> FdoRecord:
        return self._records.get(self.prefix_map.gupri(gupri).canonical)

    def records(self) -> list[FdoRecord]:
        return self._records.sorted()

    def records_mentioning(self, terms: Iterable[str]) -> list[FdoRecord]:
        """The records whose content mentions any of the canonical ``terms``,
        in canonical order, from an index derived once between writes."""
        by_term = self._records.derived(_records_by_term)
        found = {record.gupri.canonical: record for term in terms for record in by_term.get(term, ())}
        return [found[key] for key in sorted(found)]

    # -- assessment ------------------------------------------------------------------

    def assess_fdo(self, gupri: str | Gupri) -> AssessmentReport:
        return self.assess_record(self.record(gupri))

    def assess_record(self, record: FdoRecord) -> AssessmentReport:
        """Evaluate the checklist; deterministic given the registries."""
        snap = self.terminology.compute_closure()
        terms = record.content_terms()
        checks = []
        for check_id, _, evaluate in _CHECKLIST:
            if evaluate is None:
                checks.append(CheckResult(check_id, CheckStatus.NOT_APPLICABLE, _OUT_OF_SCOPE_DETAIL))
            else:
                checks.append(CheckResult(check_id, *evaluate(self, record, snap, terms)))
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
    # Each takes the record, the call's snapshot and the record's content terms,
    # and returns (status, detail).

    def _check_f1(self, record: FdoRecord, snap: ClosureSnapshot, terms: list[Gupri]) -> _Outcome:
        return CheckStatus.PASS, f"gupri {record.gupri} is canonical"

    def _check_f3(self, record: FdoRecord, snap: ClosureSnapshot, terms: list[Gupri]) -> _Outcome:
        if record.data_identifier is not None:
            return CheckStatus.PASS, f"data identifier {record.data_identifier}"
        return CheckStatus.FAIL, "no data identifier linking metadata to data"

    def _check_f5_1(self, record: FdoRecord, snap: ClosureSnapshot, terms: list[Gupri]) -> _Outcome:
        if not terms:
            return _NO_TERMS
        unresolved = [str(t) for t in terms if not self.terminology.has_term(t)]
        if unresolved:
            return CheckStatus.FAIL, f"unresolved term(s): {', '.join(unresolved)}"
        singletons = sum(1 for t in terms if len(snap.referential_class(t)) == 1)
        detail = "all content terms resolve"
        if singletons:
            detail += f"; {singletons} in singleton referential classes (vacuously mapped)"
        return CheckStatus.PASS, detail

    def _check_f5_2(self, record: FdoRecord, snap: ClosureSnapshot, terms: list[Gupri]) -> _Outcome:
        if not terms:
            return _NO_TERMS
        failing = []
        for t in terms:
            if not self.terminology.has_term(t):
                failing.append(str(t))
                continue
            audit = {c.check_id: c.status for c in self.terminology.audit_term_fairness(t, snap=snap).checks}
            if audit["has_multilingual_labels"] != "pass" or audit["has_synonyms"] != "pass":
                failing.append(str(t))
        if failing:
            return CheckStatus.FAIL, f"term(s) missing multilingual labels or synonyms: {', '.join(failing)}"
        return CheckStatus.PASS, "all content terms carry labels and synonyms"

    def _check_f6_1(self, record: FdoRecord, snap: ClosureSnapshot, terms: list[Gupri]) -> _Outcome:
        instances = record.instances()
        if not instances:
            return _NO_STATEMENTS
        if record.schema_ref is None:
            return CheckStatus.FAIL, "no schema reference in metadata"
        for inst in instances:
            if not self.schemas.has_schema(inst.schema_id):
                return CheckStatus.FAIL, f"schema {inst.schema_id} not registered"
            report = self.schemas.validate_instance(inst, snap=snap)
            if not report.valid:
                first = report.violations[0]
                return CheckStatus.FAIL, f"instance invalid: {first.code} on {first.slot_id}"
        return CheckStatus.PASS, "schema referenced and content validates"

    def _check_f6_2(self, record: FdoRecord, snap: ClosureSnapshot, terms: list[Gupri]) -> _Outcome:
        instances = record.instances()
        if not instances:
            return _NO_STATEMENTS
        roots = set()
        for inst in instances:
            if not self.schemas.has_schema(inst.schema_id):
                return CheckStatus.FAIL, f"schema {inst.schema_id} not registered"
            schema = self.schemas.schema(inst.schema_id)
            roots.add(snap.referential_root(schema.statement_type))
        groups = {
            snap.referential_root(g.statement_type): g
            for g in self.schemas.detect_schema_duplicates(self.crosswalks, snap=snap)
        }
        relevant = [groups[r] for r in sorted(roots) if r in groups]
        if not relevant:
            return CheckStatus.NOT_APPLICABLE, "no alternative schema for the statement type"
        uncovered = [g for g in relevant if not g.crosswalk_covered]
        if uncovered:
            ids = "; ".join(", ".join(str(s) for s in g.schema_ids) for g in uncovered)
            return CheckStatus.FAIL, f"schemas not crosswalk-covered: {ids}"
        return CheckStatus.PASS, "alternative schemas are crosswalk-covered"

    def _check_f7(self, record: FdoRecord, snap: ClosureSnapshot, terms: list[Gupri]) -> _Outcome:
        if record.category is not None:
            return CheckStatus.PASS, f"category {record.category.value}"
        return CheckStatus.FAIL, "no statement category declared"

    def _check_i4(self, record: FdoRecord, snap: ClosureSnapshot, terms: list[Gupri]) -> _Outcome:
        if not terms:
            return _NO_TERMS
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
            return CheckStatus.FAIL, f"term(s) without definition: {', '.join(missing)}"
        detail = "all content terms carry definitions"
        if without_criteria:
            detail += f"; {without_criteria} lack recognition criteria (advisory)"
        return CheckStatus.PASS, detail

    def _check_i5(self, record: FdoRecord, snap: ClosureSnapshot, terms: list[Gupri]) -> _Outcome:
        if record.logical_framework:
            return CheckStatus.PASS, f"framework {record.logical_framework}"
        return CheckStatus.FAIL, "no logical framework declared"

    def _check_r1_1(self, record: FdoRecord, snap: ClosureSnapshot, terms: list[Gupri]) -> _Outcome:
        if record.license:
            return CheckStatus.PASS, f"license {record.license}"
        return CheckStatus.FAIL, "no usage license"

    def _check_r1_2(self, record: FdoRecord, snap: ClosureSnapshot, terms: list[Gupri]) -> _Outcome:
        if record.creator and record.authors:
            return CheckStatus.PASS, "creator and content authors recorded separately"
        if not record.creator:
            return CheckStatus.FAIL, "no record creator"
        return CheckStatus.FAIL, "no content authors"

    def _check_r1_4(self, record: FdoRecord, snap: ClosureSnapshot, terms: list[Gupri]) -> _Outcome:
        if record.certainty is not None:
            return CheckStatus.PASS, f"certainty {record.certainty.value}"
        return CheckStatus.FAIL, "no certainty level"


#: The checklist in report order, fixed so reports are byte-stable: check id,
#: what it checks, and its evaluator, or None for a protocol- or
#: registry-level item that no local registry decides (not applicable).
_CHECKLIST = (
    ("F1", "the record has a canonical, globally unique identifier", FdoRegistry._check_f1),
    ("F2", "data are described with rich metadata", None),
    ("F3", "metadata name the identifier of the data", FdoRegistry._check_f3),
    ("F4", "metadata are indexed in a searchable resource", None),
    ("F5.1", "content terms resolve and are mapped", FdoRegistry._check_f5_1),
    ("F5.2", "content terms carry multilingual labels and synonyms", FdoRegistry._check_f5_2),
    ("F6.1", "statements reference a schema and validate against it", FdoRegistry._check_f6_1),
    ("F6.2", "alternative schemas of the statement type are crosswalk-covered", FdoRegistry._check_f6_2),
    ("F7", "the statement category is declared", FdoRegistry._check_f7),
    ("A1.1", "retrievable over an open, free protocol", None),
    ("A1.2", "the protocol allows authentication where needed", None),
    ("A1.3", "the record is retrievable by its identifier", None),
    ("A2", "metadata outlive the data", None),
    ("I1", "a formal language for knowledge representation", None),
    ("I2", "vocabularies that follow FAIR principles", None),
    ("I3", "qualified references to other metadata", None),
    ("I4", "content terms carry definitions and recognition criteria", FdoRegistry._check_i4),
    ("I5", "the logical framework is declared", FdoRegistry._check_i5),
    ("R1.1", "a usage license is stated", FdoRegistry._check_r1_1),
    ("R1.2", "creator and content authors are recorded separately", FdoRegistry._check_r1_2),
    ("R1.3", "community standards are met", None),
    ("R1.4", "the certainty level is stated", FdoRegistry._check_r1_4),
)

#: Checklist order, for report rows and collection tallies.
CHECK_IDS = tuple(check_id for check_id, _, _ in _CHECKLIST)
