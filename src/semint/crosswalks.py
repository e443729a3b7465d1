"""Schema service, crosswalk half: slot alignments between statement schemas.

A crosswalk aligns slots of two schemas modeling the same statement type.
Checking grades each aligned pair by how the two constraint specifications
relate (equal, ontologically mapped, referentially mapped, or incompatible);
classification labels the whole crosswalk ontological when every slot of both
schemas is covered by an equal-or-ontological alignment, referential
otherwise. Transformation moves instances across, rewriting resource fills
into the target vocabulary where entity mappings permit.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, replace
from enum import Enum, IntEnum

from . import graph
from .errors import (
    ConflictingCrosswalk,
    HubNotInSet,
    IncompatibleAlignment,
    InvalidCrosswalk,
    JoinProducesUncoveredRequiredSlot,
    NoMappedTerm,
    NotInvertible,
    ReferentialDisallowed,
    SchemaMismatch,
    SemintError,
    SourceInvalid,
    TargetInvalid,
    UncoveredRequiredTargetSlot,
    UnfillableRequiredTargetSlot,
    UnknownCrosswalk,
    UnknownSchema,
    UnknownSlot,
)
from .identifiers import Gupri
from .records import RecordTable
from .schemas import (
    SchemaRegistry,
    SlotFill,
    SlotKind,
    StatementInstance,
    StatementSchema,
)
from .terminology import ClosureSnapshot, InteropLevel

__all__ = [
    "SlotAlignment",
    "CrosswalkLevel",
    "CrosswalkProvenance",
    "Crosswalk",
    "AlignmentStatus",
    "AlignmentCheck",
    "CrosswalkReport",
    "PlanReport",
    "CrosswalkRegistry",
    "identity_crosswalk",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SlotAlignment:
    source_slot: str
    target_slot: str


class CrosswalkLevel(IntEnum):
    REFERENTIAL = 1
    ONTOLOGICAL = 2

    @property
    def label(self) -> str:
        return "Ontological" if self is CrosswalkLevel.ONTOLOGICAL else "Referential"

    @classmethod
    def from_label(cls, label: str) -> "CrosswalkLevel":
        if label == "Ontological":
            return cls.ONTOLOGICAL
        if label == "Referential":
            return cls.REFERENTIAL
        raise ValueError(f"unknown crosswalk level {label!r}")


@dataclass(frozen=True)
class CrosswalkProvenance:
    author: str | None = None
    date: str | None = None
    justification: str | None = None


@dataclass(frozen=True)
class Crosswalk:
    """A directional set of slot alignments between two schemas."""

    id: Gupri
    source_schema: Gupri
    target_schema: Gupri
    alignments: tuple[SlotAlignment, ...]
    level: CrosswalkLevel | None = None
    provenance: CrosswalkProvenance = CrosswalkProvenance()


class AlignmentStatus(Enum):
    EQUAL = "Equal"
    ONTOLOGICALLY_MAPPED = "OntologicallyMapped"
    REFERENTIALLY_MAPPED = "ReferentiallyMapped"
    ROLE_MISMATCH = "RoleMismatch"
    INCOMPATIBLE = "Incompatible"


_CLEAN_STATUSES = {
    AlignmentStatus.EQUAL,
    AlignmentStatus.ONTOLOGICALLY_MAPPED,
    AlignmentStatus.REFERENTIALLY_MAPPED,
}


@dataclass(frozen=True)
class AlignmentCheck:
    alignment: SlotAlignment
    status: AlignmentStatus
    detail: str = ""


@dataclass(frozen=True)
class CrosswalkReport:
    crosswalk_id: Gupri
    checks: tuple[AlignmentCheck, ...]
    uncovered_required_source: tuple[str, ...]
    uncovered_required_target: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return (
            all(c.status in _CLEAN_STATUSES for c in self.checks)
            and not self.uncovered_required_target
        )


@dataclass(frozen=True)
class PlanReport:
    """Pairwise-versus-hub crosswalk planning over a set of schemas."""

    strategy: str
    required_count: int
    existing_count: int
    missing: tuple[tuple[str, str], ...]
    pairs_covered: tuple[tuple[str, str], ...]


def identity_crosswalk(schema: StatementSchema, id: Gupri | None = None) -> Crosswalk:
    """Self-crosswalk aligning every slot of a schema to itself."""
    cw_id = id or Gupri(f"urn:crosswalk:identity:{_short_hash(schema.id.canonical)}")
    return Crosswalk(
        id=cw_id,
        source_schema=schema.id,
        target_schema=schema.id,
        alignments=tuple(SlotAlignment(s.slot_id, s.slot_id) for s in schema.slots),
        provenance=CrosswalkProvenance(justification="identity"),
    )


def _short_hash(*parts: str) -> str:
    return hashlib.sha1("\x1f".join(parts).encode("utf-8")).hexdigest()[:12]


class CrosswalkRegistry:
    """Registers, checks, classifies, composes, and applies crosswalks."""

    def __init__(self, schemas: SchemaRegistry):
        self.schemas = schemas
        self._crosswalks: RecordTable[Crosswalk] = RecordTable("crosswalk", UnknownCrosswalk, ConflictingCrosswalk)

    @property
    def prefix_map(self):
        return self.schemas.prefix_map

    @property
    def terminology(self):
        return self.schemas.terminology

    # -- access ---------------------------------------------------------------

    def crosswalk(self, id: str | Gupri) -> Crosswalk:
        return self._crosswalks.get(self.prefix_map.gupri(id).canonical)

    def crosswalks(self) -> list[Crosswalk]:
        return self._crosswalks.sorted()

    def _canonicalized(self, cw: Crosswalk) -> Crosswalk:
        pm = self.prefix_map
        return replace(
            cw,
            id=pm.gupri(cw.id),
            source_schema=pm.gupri(cw.source_schema),
            target_schema=pm.gupri(cw.target_schema),
            alignments=tuple(cw.alignments),
        )

    # -- checking and classification -------------------------------------------

    def check_crosswalk(self, cw: Crosswalk | str | Gupri, min_confidence: float | None = None) -> CrosswalkReport:
        """Grade every alignment and report required-slot coverage."""
        cw = self._resolve(cw)
        return self._check(self.terminology.compute_closure(min_confidence), cw)

    def _check(self, snap: ClosureSnapshot, cw: Crosswalk) -> CrosswalkReport:
        source = self.schemas.schema(cw.source_schema)
        target = self.schemas.schema(cw.target_schema)
        self._validate_alignment_shape(cw, source, target)
        checks = []
        for alignment in cw.alignments:
            sslot = source.slot(alignment.source_slot)
            tslot = target.slot(alignment.target_slot)
            checks.append(AlignmentCheck(alignment, *self._status(snap, sslot, tslot)))
        aligned_sources = {a.source_slot for a in cw.alignments}
        aligned_targets = {a.target_slot for a in cw.alignments}
        return CrosswalkReport(
            crosswalk_id=cw.id,
            checks=tuple(checks),
            uncovered_required_source=tuple(
                s.slot_id for s in source.slots if s.required and s.slot_id not in aligned_sources
            ),
            uncovered_required_target=tuple(
                s.slot_id for s in target.slots if s.required and s.slot_id not in aligned_targets
            ),
        )

    def _validate_alignment_shape(
        self, cw: Crosswalk, source: StatementSchema, target: StatementSchema
    ) -> None:
        seen_source: set[str] = set()
        seen_target: set[str] = set()
        for alignment in cw.alignments:
            if source.slot(alignment.source_slot) is None:
                raise UnknownSlot(
                    f"source schema {source.id} has no slot {alignment.source_slot!r}"
                )
            if target.slot(alignment.target_slot) is None:
                raise UnknownSlot(
                    f"target schema {target.id} has no slot {alignment.target_slot!r}"
                )
            if alignment.source_slot in seen_source:
                raise IncompatibleAlignment(f"source slot {alignment.source_slot!r} aligned twice")
            if alignment.target_slot in seen_target:
                raise IncompatibleAlignment(f"target slot {alignment.target_slot!r} aligned twice")
            seen_source.add(alignment.source_slot)
            seen_target.add(alignment.target_slot)

    @staticmethod
    def _status(snap: ClosureSnapshot, sslot, tslot) -> tuple[AlignmentStatus, str]:
        if sslot.kind is not tslot.kind:
            return AlignmentStatus.ROLE_MISMATCH, (
                f"{sslot.kind.value} slot aligned to {tslot.kind.value} slot"
            )
        if sslot.kind is SlotKind.LITERAL:
            if sslot.constraint is tslot.constraint:
                return AlignmentStatus.EQUAL, f"both {sslot.constraint.value}"
            return AlignmentStatus.INCOMPATIBLE, (
                f"datatype {sslot.constraint.value} vs {tslot.constraint.value}"
            )
        if sslot.constraint == tslot.constraint:
            return AlignmentStatus.EQUAL, "identical constraint"
        verdict = snap.interop_level(sslot.constraint, tslot.constraint)
        if verdict.level >= InteropLevel.ONTOLOGICAL:
            return AlignmentStatus.ONTOLOGICALLY_MAPPED, (
                f"{sslot.constraint} ontologically mapped to {tslot.constraint}"
            )
        if verdict.level >= InteropLevel.REFERENTIAL:
            return AlignmentStatus.REFERENTIALLY_MAPPED, (
                f"{sslot.constraint} referentially mapped to {tslot.constraint}"
            )
        return AlignmentStatus.INCOMPATIBLE, (
            f"no actionable mapping between {sslot.constraint} and {tslot.constraint}"
        )

    def classify_crosswalk(self, cw: Crosswalk | str | Gupri, min_confidence: float | None = None) -> CrosswalkLevel:
        """Ontological iff all slots of both schemas are covered at ontological grade."""
        cw = self._resolve(cw)
        return self._level(cw, self._check(self.terminology.compute_closure(min_confidence), cw))

    def _level(self, cw: Crosswalk, report: CrosswalkReport) -> CrosswalkLevel:
        """Classification of a crosswalk from its check report."""
        if not report.clean:
            raise InvalidCrosswalk(self._report_problem(report))
        source = self.schemas.schema(cw.source_schema)
        target = self.schemas.schema(cw.target_schema)
        aligned_sources = {a.source_slot for a in cw.alignments}
        aligned_targets = {a.target_slot for a in cw.alignments}
        total_coverage = all(s.slot_id in aligned_sources for s in source.slots) and all(
            s.slot_id in aligned_targets for s in target.slots
        )
        all_ontological = all(
            c.status in (AlignmentStatus.EQUAL, AlignmentStatus.ONTOLOGICALLY_MAPPED)
            for c in report.checks
        )
        if total_coverage and all_ontological:
            return CrosswalkLevel.ONTOLOGICAL
        return CrosswalkLevel.REFERENTIAL

    @staticmethod
    def _report_problem(report: CrosswalkReport) -> str:
        for c in report.checks:
            if c.status not in _CLEAN_STATUSES:
                return (
                    f"alignment {c.alignment.source_slot}->{c.alignment.target_slot} "
                    f"is {c.status.value}: {c.detail}"
                )
        return f"required target slot(s) uncovered: {', '.join(report.uncovered_required_target)}"

    # -- registration -----------------------------------------------------------

    def register_crosswalk(self, cw: Crosswalk) -> Gupri:
        """Store a crosswalk after a full check; the level is computed here."""
        cw = self._canonicalized(cw)
        stored = replace(cw, level=self._checked_level(self.terminology.compute_closure(), cw))
        self._crosswalks.add(stored.id.canonical, stored, self._content_equal)
        return stored.id

    def _insert_trusted(self, cw: Crosswalk) -> Gupri:
        """Store-loader entry point: structural checks only, level kept as given.

        Loading must not fail just because the mapping set no longer supports a
        previously registered crosswalk; ``check`` exists to diagnose that.
        """
        cw = self._canonicalized(cw)
        source = self.schemas.schema(cw.source_schema)
        target = self.schemas.schema(cw.target_schema)
        self._validate_alignment_shape(cw, source, target)
        self._crosswalks.add(cw.id.canonical, cw, self._content_equal)
        return cw.id

    @staticmethod
    def _content_equal(a: Crosswalk, b: Crosswalk) -> bool:
        """Equal but for the level, which registration computes."""
        return replace(a, level=None) == replace(b, level=None)

    # -- composition and inversion ------------------------------------------------

    def compose_crosswalks(self, ab: Crosswalk | str | Gupri, bc: Crosswalk | str | Gupri, id: Gupri | None = None) -> Crosswalk:
        """Relational join of two crosswalks through their shared schema."""
        ab, bc = self._resolve(ab), self._resolve(bc)
        if ab.target_schema != bc.source_schema:
            raise SchemaMismatch(
                f"cannot compose: {ab.id} targets {ab.target_schema}, {bc.id} starts at {bc.source_schema}"
            )
        onward = {a.source_slot: a.target_slot for a in bc.alignments}
        alignments = tuple(
            SlotAlignment(a.source_slot, onward[a.target_slot])
            for a in ab.alignments
            if a.target_slot in onward
        )
        composed = Crosswalk(
            id=id or Gupri(f"urn:crosswalk:composed:{_short_hash(ab.id.canonical, bc.id.canonical)}"),
            source_schema=ab.source_schema,
            target_schema=bc.target_schema,
            alignments=alignments,
            provenance=CrosswalkProvenance(justification="composition"),
        )
        snap = self.terminology.compute_closure()
        self._checked_level(snap, composed, JoinProducesUncoveredRequiredSlot, " after join")
        level = min(self._level_of(snap, ab), self._level_of(snap, bc))
        return replace(composed, level=level)

    def _level_of(self, snap: ClosureSnapshot, cw: Crosswalk) -> CrosswalkLevel:
        return cw.level if cw.level is not None else self._level(cw, self._check(snap, cw))

    def invert_crosswalk(self, cw: Crosswalk | str | Gupri, id: Gupri | None = None) -> Crosswalk:
        """Swap source and target; alignments are reversed.

        Alignments are injective both ways by construction, so the only way to
        fail is the inverse leaving a required slot of its target uncovered or
        an asymmetric constraint relation.
        """
        cw = self._resolve(cw)
        inverted = Crosswalk(
            id=id or Gupri(f"urn:crosswalk:inverse:{_short_hash(cw.id.canonical)}"),
            source_schema=cw.target_schema,
            target_schema=cw.source_schema,
            alignments=tuple(SlotAlignment(a.target_slot, a.source_slot) for a in cw.alignments),
            provenance=cw.provenance,
        )
        try:
            level = self._checked_level(self.terminology.compute_closure(), inverted)
        except (IncompatibleAlignment, UncoveredRequiredTargetSlot) as exc:
            raise NotInvertible(f"crosswalk {cw.id} is not invertible: {exc}") from exc
        return replace(inverted, level=level)

    def _checked_level(
        self, snap: ClosureSnapshot, cw: Crosswalk, uncovered: type[SemintError] = UncoveredRequiredTargetSlot, context: str = ""
    ) -> CrosswalkLevel:
        """Level of a crosswalk that must pass its check, from one check; an
        uncovered required target slot raises ``uncovered``, noting ``context``."""
        report = self._check(snap, cw)
        for c in report.checks:
            if c.status in (AlignmentStatus.ROLE_MISMATCH, AlignmentStatus.INCOMPATIBLE):
                raise IncompatibleAlignment(self._report_problem(report))
        if report.uncovered_required_target:
            raise uncovered(
                f"required target slot(s) uncovered{context}: {', '.join(report.uncovered_required_target)}"
            )
        return self._level(cw, report)

    def _resolve(self, cw: Crosswalk | str | Gupri) -> Crosswalk:
        if isinstance(cw, Crosswalk):
            return self._canonicalized(cw)
        return self.crosswalk(cw)

    # -- transformation ------------------------------------------------------------

    def transform_instance(
        self,
        inst: StatementInstance,
        cw: Crosswalk | str | Gupri,
        *,
        min_confidence: float | None = None,
        allow_referential: bool = True,
    ) -> StatementInstance:
        """Translate an instance from the source schema to the target schema.

        Literal fills are copied verbatim. A resource fill whose class term is
        not native to the target constraint (identity or subclass) is rewritten
        to the unique equivalent term that is, preferring ontological over
        referential equivalents; lexicographic order breaks ties. With
        ``allow_referential=False`` a rewrite that would need a merely
        referential equivalent fails instead.
        """
        snap = self.terminology.compute_closure(min_confidence)
        cw = self._resolve(cw)
        source = self.schemas.schema(cw.source_schema)
        target = self.schemas.schema(cw.target_schema)
        report = self.schemas.validate_instance_at(snap, inst)
        if not report.valid:
            first = report.violations[0]
            raise SourceInvalid(
                f"instance invalid against {source.id}: {first.code} on {first.slot_id}"
            )
        out_fills: dict[str, SlotFill] = {}
        aligned_sources = set()
        for alignment in cw.alignments:
            aligned_sources.add(alignment.source_slot)
            fill = inst.fills.get(alignment.source_slot)
            if fill is None:
                continue
            tslot = target.slot(alignment.target_slot)
            if tslot is None:
                raise UnknownSlot(f"target schema {target.id} has no slot {alignment.target_slot!r}")
            if fill.kind is SlotKind.LITERAL:
                out_fills[tslot.slot_id] = fill
            else:
                out_fills[tslot.slot_id] = self._carry_resource_fill(
                    snap, fill, tslot, alignment, allow_referential
                )
        for slot in target.slots:
            if slot.required and slot.slot_id not in out_fills:
                raise UnfillableRequiredTargetSlot(
                    f"required target slot {slot.slot_id!r} has no aligned source fill"
                )
        for slot_id in sorted(inst.fills):
            if slot_id not in aligned_sources:
                logger.warning(
                    "transform %s -> %s drops unaligned source fill %r",
                    source.id,
                    target.id,
                    slot_id,
                )
        out = StatementInstance(schema_id=target.id, fills=out_fills, provenance=inst.provenance)
        post = self.schemas.validate_instance_at(snap, out)
        if not post.valid:
            first = post.violations[0]
            raise TargetInvalid(
                f"transformed instance invalid against {target.id}: {first.code} on {first.slot_id}"
            )
        return out

    def _carry_resource_fill(
        self,
        snap: ClosureSnapshot,
        fill: SlotFill,
        tslot,
        alignment: SlotAlignment,
        allow_referential: bool,
    ) -> SlotFill:
        constraint = tslot.constraint
        term = fill.effective_class()
        if self.schemas.satisfies_constraint(snap, term, constraint, native=True):
            return fill

        def rewrites(level: InteropLevel) -> list[str]:
            return [
                c
                for c in sorted(snap.equivalence_class(term, level))
                if c != term.canonical and self.schemas.satisfies_constraint(snap, Gupri(c), constraint, native=True)
            ]

        candidates = rewrites(InteropLevel.ONTOLOGICAL)
        if not candidates:
            fallback = rewrites(InteropLevel.REFERENTIAL)
            if fallback and not allow_referential:
                raise ReferentialDisallowed(
                    f"slot {alignment.target_slot!r}: only referential equivalents of {term} "
                    f"satisfy {constraint}"
                )
            candidates = fallback
        if not candidates:
            raise NoMappedTerm(
                f"slot {alignment.target_slot!r}: no mapped term for {term} satisfies {constraint}"
            )
        chosen = Gupri(candidates[0])
        if fill.asserted_class is not None:
            return SlotFill.resource(fill.value, chosen)  # type: ignore[arg-type]
        return SlotFill.resource(chosen)

    # -- connectivity and planning ---------------------------------------------------

    def connected(self, a: str | Gupri, b: str | Gupri) -> bool:
        """Undirected reachability between schemas over registered crosswalks."""
        ga, gb = self.prefix_map.gupri(a), self.prefix_map.gupri(b)
        if ga == gb:
            return True
        roots = self.components()
        root = roots.get(ga.canonical)
        return root is not None and root == roots.get(gb.canonical)

    def _links(self) -> list[tuple[str, str]]:
        return [(cw.source_schema.canonical, cw.target_schema.canonical) for cw in self.crosswalks()]

    def components(self) -> dict[str, str]:
        """Each schema with a crosswalk, mapped to the smallest schema id
        connected to it by crosswalks in either direction."""
        return graph.components(self._links())

    def directed_adjacency(self) -> dict[str, dict[str, str]]:
        """source schema -> {target schema: smallest crosswalk id between them}."""
        adj: dict[str, dict[str, str]] = {}
        for cw in self.crosswalks():
            targets = adj.setdefault(cw.source_schema.canonical, {})
            targets.setdefault(cw.target_schema.canonical, cw.id.canonical)
        return adj

    def plan_crosswalks(
        self,
        schema_ids: list[str | Gupri] | set[str | Gupri],
        strategy: str = "pairwise",
        hub: str | Gupri | None = None,
    ) -> PlanReport:
        """Count and enumerate the crosswalks a federation strategy needs.

        Pairwise needs one link per unordered schema pair, n(n-1)/2 in total.
        Hub routes everything through a reference schema: one spoke per
        federated schema, so n links when the hub is an extra reference node.
        """
        ids = sorted({self.prefix_map.gupri(s).canonical for s in schema_ids})
        for canonical in ids:
            if not self.schemas.has_schema(Gupri(canonical)):
                raise UnknownSchema(f"schema {canonical} not registered")
        if strategy == "pairwise":
            required = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
            nodes = set(ids)
        elif strategy == "hub":
            if hub is None:
                raise HubNotInSet("hub strategy needs a hub schema id")
            hub_canonical = self.prefix_map.gupri(hub).canonical
            if not self.schemas.has_schema(Gupri(hub_canonical)):
                raise HubNotInSet(f"hub schema {hub_canonical} is not a registered schema")
            required = [tuple(sorted((s, hub_canonical))) for s in ids if s != hub_canonical]
            nodes = set(ids) | {hub_canonical}
        else:
            raise ValueError(f"unknown strategy {strategy!r}")

        links = self._links()
        existing = graph.components(links)
        planned = graph.components(links + required)

        def covered(roots: dict[str, str], a: str, b: str) -> bool:
            return roots.get(a) is not None and roots.get(a) == roots.get(b)

        missing = tuple(link for link in required if not covered(existing, *link))
        existing_pairs = {
            tuple(sorted(link)) for link in links if link[0] in nodes and link[1] in nodes
        }
        pairs_covered = tuple(
            (a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if covered(planned, a, b)
        )
        return PlanReport(
            strategy=strategy,
            required_count=len(required),
            existing_count=len(existing_pairs),
            missing=missing,
            pairs_covered=pairs_covered,
        )
