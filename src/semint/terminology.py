"""Terminology service: term records, typed entity mappings, and closures.

Mapping predicates fall into grades with fixed formal properties:

* ontological grade (``owl:sameAs``, ``skos:exactMatch``): same meaning and
  referent; transitive, symmetric, machine-actionable.
* referential grade (``owl:equivalentClass``, ``new:referentialMatch``,
  ``owl:equivalentProperty``): same referent only; transitive, symmetric,
  machine-actionable. Every ontological-grade edge also counts referentially,
  so the ontological classes always refine the referential ones.
* hierarchical (``rdfs:subClassOf``, ``rdfs:subPropertyOf``): transitive,
  directed, machine-actionable. Stored edges read subject-is-subclass-of-object.
* advisory (``skos:closeMatch``, ``skos:relatedMatch``, ``skos:broadMatch``,
  ``skos:narrowMatch``): not usable by machines; they never influence the
  equivalence closures. ``narrowMatch`` is normalized to its inverse
  ``broadMatch`` on ingestion.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping

from . import graph
from .errors import (
    ConflictingTermRecord,
    InvalidGupri,
    MalformedContent,
    MalformedRecord,
    MissingRequiredColumn,
    UnknownPredicate,
    UnknownTerm,
    check_utf8,
    decode_utf8,
)
from .identifiers import Gupri, PrefixMap
from .records import RecordTable

__all__ = [
    "ReferentKind",
    "TermRecord",
    "MappingPredicate",
    "EntityMapping",
    "NOOP_MAPPING_ID",
    "InteropLevel",
    "InteropVerdict",
    "ImportReport",
    "AuditCheck",
    "TermAudit",
    "ClosureSnapshot",
    "TerminologyRegistry",
    "mapping_order",
]

_LANG_TAG_RE = re.compile(r"^[a-z]{2,8}(-[a-z0-9]{1,8})*$")


class ReferentKind(Enum):
    INDIVIDUAL = "individual"
    CLASS = "class"
    PROPERTY = "property"


@dataclass(frozen=True)
class TermRecord:
    """A vocabulary entry: identifier, labels, definitions, synonyms.

    ``definition`` states what the entity is (its intension);
    ``recognition_criteria`` state how to recognize one (extension
    diagnostics). Terms for which recognition criteria make no sense can set
    ``recognition_criteria_applicable`` to False so audits report
    not-applicable instead of a failure.
    """

    id: Gupri
    labels: Mapping[str, str]
    definition: str | None = None
    recognition_criteria: str | None = None
    recognition_criteria_applicable: bool = True
    synonyms: tuple[str, ...] = ()
    referent_kind: ReferentKind = ReferentKind.CLASS

    def __post_init__(self):
        check_utf8(
            f"term {str(self.id)!r}",
            chain((self.definition, self.recognition_criteria), self.labels.values(), self.synonyms),
        )
        normalized = {}
        for tag, text in self.labels.items():
            tag = tag.lower()
            if not _LANG_TAG_RE.match(tag):
                raise MalformedRecord(f"bad language tag {tag!r} on {self.id}")
            if tag in normalized:
                raise MalformedRecord(f"language tag {tag!r} given twice on {self.id}")
            normalized[tag] = text
        object.__setattr__(self, "labels", dict(sorted(normalized.items())))
        deduped: list[str] = []
        for s in self.synonyms:
            if s not in deduped:
                deduped.append(s)
        object.__setattr__(self, "synonyms", tuple(deduped))


class MappingPredicate(Enum):
    """Typed relation between two terms, keyed by its CURIE."""

    SAME_AS = "owl:sameAs"
    EXACT_MATCH = "skos:exactMatch"
    EQUIVALENT_CLASS = "owl:equivalentClass"
    REFERENTIAL_MATCH = "new:referentialMatch"
    EQUIVALENT_PROPERTY = "owl:equivalentProperty"
    SUB_CLASS_OF = "rdfs:subClassOf"
    SUB_PROPERTY_OF = "rdfs:subPropertyOf"
    CLOSE_MATCH = "skos:closeMatch"
    RELATED_MATCH = "skos:relatedMatch"
    BROAD_MATCH = "skos:broadMatch"
    NARROW_MATCH = "skos:narrowMatch"

    # equality is identity, so the identity hash agrees with it; Enum's own
    # hashes the member's name in Python on every dict and set lookup
    __hash__ = object.__hash__

    @classmethod
    def from_curie(cls, curie: str) -> "MappingPredicate":
        predicate = _PREDICATES.get(curie) if isinstance(curie, str) else None
        if predicate is None:
            raise UnknownPredicate(f"unknown mapping predicate {curie!r}")
        return predicate

    @property
    def curie(self) -> str:
        return self.value

    @property
    def transitive(self) -> bool:
        return self in _TRANSITIVE

    @property
    def symmetric(self) -> bool:
        return self in _SYMMETRIC

    @property
    def machine_actionable(self) -> bool:
        return self in _ACTIONABLE


#: each predicate under its CURIE, so a TSV cell resolves with one lookup
_PREDICATES = {p.value: p for p in MappingPredicate}

_ONTOLOGICAL_GRADE = frozenset({MappingPredicate.SAME_AS, MappingPredicate.EXACT_MATCH})
_REFERENTIAL_GRADE = _ONTOLOGICAL_GRADE | {
    MappingPredicate.EQUIVALENT_CLASS,
    MappingPredicate.REFERENTIAL_MATCH,
    MappingPredicate.EQUIVALENT_PROPERTY,
}
_HIERARCHICAL = frozenset({MappingPredicate.SUB_CLASS_OF, MappingPredicate.SUB_PROPERTY_OF})
_ASSOCIATIVE = frozenset({MappingPredicate.CLOSE_MATCH, MappingPredicate.RELATED_MATCH})
_TRANSITIVE = _REFERENTIAL_GRADE | _HIERARCHICAL
_SYMMETRIC = _REFERENTIAL_GRADE | _ASSOCIATIVE
_ACTIONABLE = _REFERENTIAL_GRADE | _HIERARCHICAL

#: Hierarchy relations, declared once for the snapshot build and the verdict
#: ladder. subClassOf and subPropertyOf each give an actionable rung on their
#: own; the loose set joins both with broadMatch for the advisory rungs, so
#: each strict relation is a subset of it.
_SUBCLASS = frozenset({MappingPredicate.SUB_CLASS_OF})
_SUBPROPERTY = frozenset({MappingPredicate.SUB_PROPERTY_OF})
_LOOSE = _HIERARCHICAL | {MappingPredicate.BROAD_MATCH}
_NO_EDGES: frozenset[MappingPredicate] = frozenset()
_RELATIONS = (_SUBCLASS, _SUBPROPERTY, _LOOSE)
#: the relations a row of each hierarchy predicate is lifted into
_LIFTED_INTO = {
    p: tuple(relation for relation in _RELATIONS if p in relation) for p in MappingPredicate if p in _LOOSE
}

#: Sentinel returned when a self-mapping is accepted without being stored.
NOOP_MAPPING_ID = "m-noop"


@dataclass(frozen=True, slots=True)
class EntityMapping:
    """A typed, provenance-carrying edge between two term identifiers.

    Build one with :meth:`create`, which checks the fields and derives the
    id. The registry stores only mappings built so: ``add_mapping`` builds
    the one it is given again."""

    id: str
    subject: Gupri
    predicate: MappingPredicate
    object: Gupri
    justification: str = "unspecified"
    confidence: float = 1.0
    author: str | None = None
    comment: str | None = None

    @classmethod
    def create(
        cls,
        subject: Gupri,
        predicate: MappingPredicate,
        object: Gupri,
        justification: str = "unspecified",
        confidence: float = 1.0,
        author: str | None = None,
        comment: str | None = None,
    ) -> "EntityMapping":
        """Build a mapping with a deterministic content-derived id: the
        first 12 hex digits of the sha1 of its fields. A confidence that is
        not a number in [0, 1] and text that UTF-8 cannot encode are
        malformed. An int confidence is kept as its float, the one the
        exported row reloads."""
        if type(confidence) is not float or not 0.0 <= confidence <= 1.0:
            if not _is_unit_number(confidence):
                raise MalformedRecord(f"confidence {confidence!r} is not a number in [0,1]")
            confidence = float(confidence)
        fields = (
            subject.canonical,
            predicate._value_,
            object.canonical,
            justification,
            repr(confidence),
            author or "",
            comment or "",
        )
        try:
            key = "\x1f".join(fields).encode("utf-8")
        except UnicodeEncodeError:
            check_utf8("mapping", fields)
            raise
        return cls(
            "m-" + hashlib.sha1(key).hexdigest()[:12], subject, predicate, object, justification, confidence, author, comment
        )


def _is_unit_number(value: object) -> bool:
    """True for an int or a float in [0, 1]; a bool, NaN and anything else are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value <= 1


class InteropLevel(IntEnum):
    """Ordered interoperability verdicts between two terms."""

    NONE = 0
    ASSOCIATIVE = 1
    HIERARCHICAL = 2
    REFERENTIAL = 3
    ONTOLOGICAL = 4
    IDENTICAL = 5

    @property
    def label(self) -> str:
        return _LEVEL_LABELS[self]


_LEVEL_LABELS = {
    InteropLevel.NONE: "None",
    InteropLevel.ASSOCIATIVE: "Associative",
    InteropLevel.HIERARCHICAL: "Hierarchical",
    InteropLevel.REFERENTIAL: "Referential",
    InteropLevel.ONTOLOGICAL: "Ontological",
    InteropLevel.IDENTICAL: "Identical",
}


@dataclass(frozen=True)
class InteropVerdict:
    """Interoperability level plus hierarchy direction and actionability.

    ``direction`` is set only for hierarchical verdicts and reads from the
    first argument: ``broader`` means the second term is broader than the
    first. Verdicts reached only through non-actionable edges (broadMatch,
    closeMatch, relatedMatch) carry ``actionable=False`` and are advisory.
    """

    level: InteropLevel
    direction: str | None = None
    actionable: bool = False


@dataclass(frozen=True)
class RejectedRow:
    """A row of a mapping file that was not stored: its line number and why."""

    line: int
    reason: str


@dataclass(frozen=True)
class ImportReport:
    """What a mapping import stored and rejected."""

    accepted: int
    rejected: tuple[RejectedRow, ...] = ()


@dataclass(frozen=True)
class AuditCheck:
    """One criterion of a term's vocabulary-quality audit and its outcome."""

    check_id: str
    status: str  # pass | fail | not_applicable
    advisory: bool = False
    detail: str = ""


@dataclass(frozen=True)
class TermAudit:
    """The audit checks of one registered term."""

    term: Gupri
    checks: tuple[AuditCheck, ...]


def mapping_order(m: EntityMapping) -> tuple:
    """The key of the canonical order of mappings, in which
    :meth:`TerminologyRegistry.mappings` lists them and ``mappings.tsv``
    holds them; ties keep table order."""
    return (
        m.subject.canonical,
        m.predicate.curie,
        m.object.canonical,
        m.justification,
        m.author or "",
        m.comment or "",
        m.confidence,
    )


#: the lifted hierarchy: per relation, the classes above each class with the
#: number of edges lifted onto each pair
_Hierarchy = dict[frozenset[MappingPredicate], dict[str, dict[str, int]]]
#: the (subject, object) ends of mappings, by predicate
_Ends = Mapping[MappingPredicate, Iterable[tuple[str, str]]]
#: the mappings at each canonical node, in table order
_NodeIndex = Mapping[str, tuple[EntityMapping, ...]]


def _ends(edges: Iterable[EntityMapping]) -> dict[MappingPredicate, list[tuple[str, str]]]:
    # each edge is looked up once, and each relation then reads its
    # predicates' ends
    ends: dict[MappingPredicate, list[tuple[str, str]]] = {p: [] for p in MappingPredicate}
    for m in edges:
        ends[m.predicate].append((m.subject.canonical, m.object.canonical))
    return ends


def _roots(ends: _Ends, predicates: frozenset[MappingPredicate]) -> dict[str, str]:
    """Each end of the edges of ``predicates`` mapped to the root of its class."""
    return graph.components(chain.from_iterable(ends[p] for p in predicates))


def _lift(hierarchy: _Hierarchy, ends: _Ends, root: Mapping[str, str], step: int) -> None:
    """Add ``step`` to the count of each hierarchy edge of ``ends``, lifted
    onto the classes of ``root``, in every relation it belongs to. An edge
    whose ends share a class is not lifted."""
    get = root.get
    for predicate, relations in _LIFTED_INTO.items():
        adjacencies = [hierarchy[relation] for relation in relations]
        for s, o in ends[predicate]:
            s, o = get(s, s), get(o, o)
            if s != o:
                for adjacency in adjacencies:
                    targets = adjacency.get(s)
                    if targets is None:
                        adjacency[s] = {o: step}
                    else:
                        targets[o] = targets.get(o, 0) + step


def _merged(adjacency: Mapping[str, dict[str, int]], steps: Mapping[str, dict[str, int]]) -> dict[str, dict[str, int]]:
    """``adjacency`` with ``steps`` added to its counts, as a new dict; each
    class's targets are copied before they change, so ``adjacency`` and the
    snapshots that share its dicts stay as they are. A count that reaches 0
    is dropped, and so is a class left with no targets."""
    merged = dict(adjacency)
    for s, counts in steps.items():
        targets = merged.get(s)
        if targets is None:
            # nothing was lifted from s before, so every step here adds
            merged[s] = counts
            continue
        targets = dict(targets)
        for o, step in counts.items():
            count = targets.get(o, 0) + step
            if count:
                targets[o] = count
            else:
                targets.pop(o, None)
        if targets:
            merged[s] = targets
        else:
            del merged[s]
    return merged


def _rerooted(
    root: Mapping[str, str],
    members: Mapping[str, frozenset[str]],
    index: _NodeIndex,
    gone: _Ends,
    new: _Ends,
    grade: frozenset[MappingPredicate],
) -> tuple[Mapping[str, str], Mapping[str, frozenset[str]], set[str]]:
    """The node-to-root map and the classes of ``grade`` after a write that
    removed the rows of ``gone`` and added those of ``new``, repaired from
    ``root`` and its classes ``members``, and the nodes whose root changed.
    ``index`` is the node index after the write.

    Only a class with an end of a written row of ``grade`` can split or
    merge, so only those are united again (incremental union-find, Tarjan
    1975), over the rows of ``grade`` at their members after the write;
    every other node keeps its root, and every other class is ``members``'
    own frozenset. With no such row ``root`` and ``members`` themselves
    come back.
    """
    get = root.get
    dirty = {get(n, n) for p in grade for end in chain(gone[p], new[p]) for n in end}
    if not dirty:
        return root, members, set()
    touched = {n for r in dirty for n in members.get(r, (r,))}
    # both ends of such a row lie in the touched classes, so each is taken
    # once, at its subject
    united = graph.components(
        (n, m.object.canonical)
        for n in touched
        for m in index.get(n, ())
        if m.predicate in grade and m.subject.canonical == n
    )
    repaired, regrouped = dict(root), dict(members)
    for n in touched.difference(united):
        repaired.pop(n, None)  # in no class of more than one member now
    repaired.update(united)
    for r in dirty:
        regrouped.pop(r, None)
    regrouped.update(_classes(united))
    return repaired, regrouped, {n for n in touched if united.get(n) != get(n)}


def _repaired(pairs: frozenset[frozenset[str]], index: _NodeIndex, gone: _Ends, new: _Ends) -> frozenset[frozenset[str]]:
    """``pairs`` with each pair of an associative mapping in ``gone`` or
    ``new`` tested again against ``index``, the node index after the write;
    every other pair is ``pairs``' own frozenset."""
    ends = {end for p in _ASSOCIATIVE for end in chain(gone[p], new[p])}
    if not ends:
        return pairs
    present, absent = set(), set()
    for s, o in ends:
        # s and o differ, so a mapping at s with o at an end joins them
        at = index.get(s, ())
        stored = any(m.predicate in _ASSOCIATIVE and o in (m.subject.canonical, m.object.canonical) for m in at)
        (present if stored else absent).add(frozenset((s, o)))
    return pairs.difference(absent).union(present)


def _indexed(edges: Iterable[EntityMapping]) -> dict[str, list[EntityMapping]]:
    """The mappings of ``edges`` at each of their ends, in the order given."""
    at: dict[str, list[EntityMapping]] = {}
    for m in edges:
        for node in (m.subject.canonical, m.object.canonical):
            ms = at.get(node)
            if ms is None:
                at[node] = [m]
            else:
                ms.append(m)
    return at


def _reindexed(
    index: _NodeIndex, removed: tuple[EntityMapping, ...], gone: set[str], added: tuple[EntityMapping, ...]
) -> _NodeIndex:
    """``index`` less ``removed``, whose ids are ``gone``, and with ``added``
    appended at their ends, as a new dict that shares the tuples of every
    other node. The table keeps its rows in order and appends a new one,
    so each node's tuple stays in table order."""
    reindexed = dict(index)
    for node in {end.canonical for m in removed for end in (m.subject, m.object)}:
        kept = tuple(m for m in reindexed[node] if m.id not in gone)
        if kept:
            reindexed[node] = kept
        else:
            del reindexed[node]
    for node, ms in _indexed(added).items():
        reindexed[node] = reindexed.get(node, ()) + tuple(ms)
    return reindexed


def _kept_at(index: _NodeIndex, nodes: set[str], gone: set[str]) -> _Ends:
    """The ends of the mappings of ``index`` at ``nodes`` whose id is not in
    ``gone``, each mapping once."""
    return _ends({m.id: m for n in nodes for m in index.get(n, ()) if m.id not in gone}.values())


def _releveled(
    levels: Mapping[str, int],
    adjacency: Mapping[str, Mapping[str, int]],
    old_root: Mapping[str, str],
    new_root: Mapping[str, str],
    members: Mapping[str, frozenset[str]],
    moved: set[str],
    gone: _Ends,
    new: _Ends,
) -> dict[str, int]:
    """``levels``, those of the last snapshot, repaired for ``adjacency``, the
    loose hierarchy of the snapshot derived from it. ``members`` are its
    classes, which were those of ``old_root`` before the nodes of ``moved``
    changed root, and ``gone`` and ``new`` are the removed and added edges.

    A class that a moved node entered or left takes the largest level among
    its members' old classes, so no edge into it falls. Then levels are
    raised forward, each class one above the class below it, from those
    classes, from the subject of each added loose edge, and from the object
    of each removed one, whose removal may have broken the last cycle below
    classes that share the cycle's level. A raising that ends leaves every
    level valid. Around a cycle it never ends, and a repair that takes more
    raises than ``adjacency`` has keys costs more than a fresh build, so
    after that many the levels are built anew. A class that left the
    hierarchy keeps its level, which no edge reads.
    """
    get = new_root.get
    touched = {get(n, n) for n in chain(moved, (old_root[n] for n in moved if n in old_root))}
    releveled = dict(levels)
    for r in touched:
        releveled[r] = max(levels.get(old_root.get(m, m), 0) for m in members.get(r, (r,)))
    budget = len(adjacency)
    stack = list(touched)
    for p in _LOOSE:
        stack += [get(s, s) for s, _ in new[p]]
        stack += [get(o, o) for _, o in gone[p]]
    while stack:
        u = stack.pop()
        up = releveled.setdefault(u, 0) + 1
        for v in adjacency.get(u, ()):
            if releveled.get(v, -1) < up:
                budget -= 1
                if budget < 0:
                    return graph.levels(adjacency)
                releveled[v] = up
                stack.append(v)
    return releveled


def _updated_snapshot(
    previous: ClosureSnapshot,
    edges: tuple[EntityMapping, ...],
    removed: tuple[EntityMapping, ...],
    added: tuple[EntityMapping, ...],
) -> ClosureSnapshot:
    """The snapshot of ``edges``, derived from ``previous``, whose edges less
    ``removed``, in their order, followed by ``added`` are ``edges``; equal
    to a build from ``edges`` and leaving ``previous`` unchanged.

    The node index is patched at the ends of the written rows, and the
    classes of each grade are repaired from it at those that the grade's
    written rows touched; every other class, and an associative pair no
    write touched, is ``previous``'s own object. The lifted hierarchy is
    updated: a removed edge is taken away under the old classes, an added
    one added under the new, and an edge kept from ``previous`` with an end
    that changed class, read from ``previous``'s node index at that end,
    moves from its old lift to its new one.
    """
    gone, new = _ends(removed), _ends(added)
    gone_ids = {m.id for m in removed}
    # built here from the edges if ``previous`` is a build never explained
    old_index = previous.node_index
    index = _reindexed(old_index, removed, gone_ids, added)
    ont_root, ont_members, _ = _rerooted(
        previous.ont_root, previous.ont_members, index, gone, new, _ONTOLOGICAL_GRADE
    )
    old_root = previous.ref_root
    ref_root, ref_members, moved = _rerooted(old_root, previous.ref_members, index, gone, new, _REFERENTIAL_GRADE)
    steps: _Hierarchy = {relation: {} for relation in _RELATIONS}
    _lift(steps, gone, old_root, -1)
    if moved:
        kept = _kept_at(old_index, moved, gone_ids)
        _lift(steps, kept, old_root, -1)
        _lift(steps, kept, ref_root, 1)
    _lift(steps, new, ref_root, 1)
    hierarchy = {relation: _merged(previous.hierarchy[relation], steps[relation]) for relation in _RELATIONS}
    snapshot = ClosureSnapshot(
        ont_root=ont_root,
        ont_members=ont_members,
        ref_root=ref_root,
        ref_members=ref_members,
        hierarchy=hierarchy,
        associative_pairs=_repaired(previous.associative_pairs, index, gone, new),
        edges=edges,
    )
    # handed over, so the next derivation, the first explanation and the
    # first hierarchical walk need not find them in the edges
    vars(snapshot).update(
        node_index=index,
        # built here from the hierarchy if ``previous`` was never walked
        levels=_releveled(previous.levels, hierarchy[_LOOSE], old_root, ref_root, ref_members, moved, gone, new),
    )
    return snapshot


def _classes(root: Mapping[str, str]) -> dict[str, frozenset[str]]:
    """Members keyed by root, from a node-to-root map."""
    groups: dict[str, set[str]] = {}
    for node, r in root.items():
        groups.setdefault(r, set()).add(node)
    return {r: frozenset(members) for r, members in groups.items()}


class _WitnessAdjacency(dict):
    """The edges out of each node that may witness a verdict, filled in from
    ``mappings_at`` as a path search first asks for the node.

    ``both`` predicates step either way; ``directed`` ones step from subject
    to object when ``forward``, else from object to subject. Of parallel
    edges, the one with the smallest mapping id is kept.
    """

    def __init__(
        self,
        mappings_at: Callable[[str], Iterable[tuple[EntityMapping, bool]]],
        both: frozenset[MappingPredicate],
        directed: frozenset[MappingPredicate],
        forward: bool,
    ):
        super().__init__()
        self._mappings_at, self._both, self._directed, self._forward = mappings_at, both, directed, forward

    def __missing__(self, u: str) -> dict[str, EntityMapping]:
        out: dict[str, EntityMapping] = {}
        for m, from_subject in self._mappings_at(u):
            if m.predicate in self._both or (m.predicate in self._directed and from_subject == self._forward):
                v = m.object.canonical if from_subject else m.subject.canonical
                best = out.get(v)
                if best is None or m.id < best.id:
                    out[v] = m
        self[u] = out
        return out

    def get(self, u: str, default=None) -> dict[str, EntityMapping]:
        # every node has its out-edges, maybe none, so ``default`` is never due
        return self[u]


@dataclass(frozen=True)
class ClosureSnapshot:
    """Immutable closure over one mapping multiset; answers every terminology
    question about it.

    Equivalence classes are connected components. Hierarchy edges are lifted
    to referential classes, one adjacency per hierarchy relation (subClassOf,
    subPropertyOf, and the loose set); each hierarchical question walks them
    from one class, so a build is about linear in the edge count. An
    adjacency maps a class to the classes above it, each with the number of
    edges lifted onto that pair, so the next snapshot can take an edge away
    by decrementing its count; a class with no edge above it is absent. ``edges``
    are the mappings the closure was built from, in table order, so path
    explanations walk the same edge set the verdicts come from. They reach
    those edges through :attr:`node_index`, as ``mappings_between`` does: a
    derived snapshot is handed it, and a full or filtered build makes it on
    first use rather than with the snapshot, so a fresh build's first verdict
    never waits. Hierarchical walks are pruned by :attr:`levels`, which a
    derived snapshot is handed too and a full build makes on its first
    hierarchical walk; a filtered build, which serves one call, has none and
    walks unpruned. Neither is a field, so two snapshots of one edge set
    compare equal whatever either has made.
    """

    ont_root: Mapping[str, str]
    ont_members: Mapping[str, frozenset[str]]
    ref_root: Mapping[str, str]
    ref_members: Mapping[str, frozenset[str]]
    hierarchy: Mapping[frozenset[MappingPredicate], Mapping[str, Mapping[str, int]]]
    associative_pairs: frozenset[frozenset[str]]
    edges: tuple[EntityMapping, ...]

    def ontological_root(self, g: Gupri) -> str:
        return self.ont_root.get(g.canonical, g.canonical)

    def referential_root(self, g: Gupri) -> str:
        return self.ref_root.get(g.canonical, g.canonical)

    def ontological_class(self, g: Gupri) -> frozenset[str]:
        return self.ont_members.get(self.ontological_root(g), frozenset({g.canonical}))

    def referential_class(self, g: Gupri) -> frozenset[str]:
        return self.ref_members.get(self.referential_root(g), frozenset({g.canonical}))

    def _above(self, relation: frozenset[MappingPredicate], a: Gupri, b: Gupri) -> bool:
        """True when b's referential class is above a's over ``relation``."""
        goal = self.referential_root(b)
        return goal in graph.reach(self.hierarchy[relation], self.referential_root(a), goal, self.levels)

    def subclass_reachable(self, a: Gupri, b: Gupri) -> bool:
        """True when a's referential class reaches b's via subClassOf edges."""
        return self._above(_SUBCLASS, a, b)

    def _ladder(
        self, a: Gupri, b: Gupri
    ) -> tuple[InteropVerdict, frozenset[MappingPredicate], frozenset[MappingPredicate]]:
        """The verdict for (a, b) with the edges that witness it: the
        predicates walked in both directions, and those walked only in the
        verdict's direction.

        A loose walk decides whether any hierarchy rung applies in a
        direction, and the strict walks run only in a direction it reached,
        as each strict relation is a subset of the loose one. With
        :attr:`levels`, every walk is pruned, so it never steps onto a class
        above the goal's level, and a direction whose start is above its goal
        is not walked at all.
        """
        if a == b:
            return InteropVerdict(InteropLevel.IDENTICAL, actionable=True), _NO_EDGES, _NO_EDGES
        if self.ontological_root(a) == self.ontological_root(b):
            return InteropVerdict(InteropLevel.ONTOLOGICAL, actionable=True), _ONTOLOGICAL_GRADE, _NO_EDGES
        if self.referential_root(a) == self.referential_root(b):
            return InteropVerdict(InteropLevel.REFERENTIAL, actionable=True), _REFERENTIAL_GRADE, _NO_EDGES
        reached = []
        for direction, lower, upper in (("broader", a, b), ("narrower", b, a)):
            if self._above(_LOOSE, lower, upper):
                for relation in (_SUBCLASS, _SUBPROPERTY):
                    if self._above(relation, lower, upper):
                        return InteropVerdict(InteropLevel.HIERARCHICAL, direction, True), _REFERENTIAL_GRADE, relation
                reached.append(direction)
        if reached:
            return InteropVerdict(InteropLevel.HIERARCHICAL, reached[0], False), _REFERENTIAL_GRADE, _LOOSE
        if frozenset({a.canonical, b.canonical}) in self.associative_pairs:
            return InteropVerdict(InteropLevel.ASSOCIATIVE, actionable=False), _ASSOCIATIVE, _NO_EDGES
        return InteropVerdict(InteropLevel.NONE, actionable=False), _NO_EDGES, _NO_EDGES

    def interop_level(self, a: Gupri, b: Gupri) -> InteropVerdict:
        """Strongest interoperability verdict between two canonical identifiers."""
        return self._ladder(a, b)[0]

    def equivalence_class(self, a: Gupri, level: InteropLevel) -> frozenset[str]:
        """Canonical members of the closed class containing ``a`` at an
        equivalence-forming level."""
        if level is InteropLevel.ONTOLOGICAL:
            return self.ontological_class(a)
        if level is InteropLevel.REFERENTIAL:
            return self.referential_class(a)
        raise ValueError(f"{level!r} does not form equivalence classes")

    @cached_property
    def levels(self) -> dict[str, int] | None:
        """A level per lifted referential class over the loose hierarchy,
        which every strict one is a subset of: it never falls along an edge,
        and rises along every edge whose lower class lies on no cycle and
        above none. A walk toward a goal never steps onto a class above the
        goal's level.

        A full build makes them on its first hierarchical walk, with
        :func:`graph.levels`; a snapshot derived from the last one is handed
        them, repaired from the last one's at the classes the write touched.
        A filtered build is handed None, as its one call would wait longer
        for the levels than its walks save, so it walks unpruned. Two threads
        that ask at once may both build them; either is kept.
        """
        return graph.levels(self.hierarchy[_LOOSE])

    @cached_property
    def node_index(self) -> _NodeIndex:
        """The mappings at each canonical node, as a tuple in the order of
        ``edges``.

        It is the one index of mappings by node, which ``explain_path`` and
        ``mappings_between`` read, and which the snapshot derived from this
        one reads kept edges from. It holds the mappings themselves, since
        positions in ``edges`` shift with every removal. A snapshot derived
        from the last one is handed its index, patched from the last one's
        at the nodes the write touched, and shares the tuple of every other
        node, so a derivation gives the garbage collector new tuples to track
        only at those nodes. A full or filtered build gets its own from
        ``edges`` on first use, so its first verdict never waits for it. Two
        threads that ask at once may both build it; either equal index is
        kept.
        """
        return {node: tuple(ms) for node, ms in _indexed(self.edges).items()}

    def mappings_at(self, node: str) -> Iterator[tuple[EntityMapping, bool]]:
        """Each mapping at ``node``, latest edge first, and whether ``node`` is its subject."""
        for m in reversed(self.node_index.get(node, ())):
            yield m, m.subject.canonical == node

    def explain_path(self, a: Gupri, b: Gupri) -> list[EntityMapping]:
        """Shortest mapping-edge path witnessing the interop verdict for (a, b),
        over exactly the edges that give that verdict.

        Empty for Identical and None verdicts. Ties between equal-length paths
        are broken by the lexicographic canonical order of intermediate nodes,
        and between parallel edges by the smallest mapping id. The search
        reads :meth:`mappings_at` only at the nodes it reaches, so it costs
        about the edges there, not every edge of the snapshot.
        """
        verdict, both, directed = self._ladder(a, b)
        if verdict.level in (InteropLevel.IDENTICAL, InteropLevel.NONE):
            return []
        adjacency = _WitnessAdjacency(self.mappings_at, both, directed, verdict.direction != "narrower")
        return list(graph.best_path(adjacency, a.canonical, (b.canonical,), lambda v, _: v) or ())

    def to_doc(self) -> dict:
        """Deterministic plain-data rendering, for output and byte comparison;
        the one reader that walks the hierarchy from every class."""
        sub, prop = self.hierarchy[_SUBCLASS], self.hierarchy[_SUBPROPERTY]
        return {
            "ontological_classes": [
                sorted(m) for _, m in sorted(self.ont_members.items()) if len(m) > 1
            ],
            "referential_classes": [
                sorted(m) for _, m in sorted(self.ref_members.items()) if len(m) > 1
            ],
            "subclass_reach": {k: sorted(graph.reach(sub, k)) for k in sorted(sub)},
            "subproperty_reach": {k: sorted(graph.reach(prop, k)) for k in sorted(prop)},
            "associative_pairs": sorted(sorted(p) for p in self.associative_pairs),
        }


class TerminologyRegistry:
    """Registry of term records and entity mappings with closure queries.

    Reads run against an immutable :class:`ClosureSnapshot`, derived lazily
    from the mapping table and served until the table's next write. The
    snapshot is the one value the mapping table derives:
    ``mappings_between`` reads the mappings at a term from it too.
    """

    def __init__(self, prefix_map: PrefixMap | None = None):
        self.prefix_map = prefix_map or PrefixMap()
        self._terms: RecordTable[TermRecord] = RecordTable("term", UnknownTerm, ConflictingTermRecord)
        # a mapping id digests every field, so a taken id never conflicts
        self._mappings: RecordTable[EntityMapping] = RecordTable("mapping")

    # -- term registry ------------------------------------------------------

    def defer_terms(self, fill: Callable[[], None]) -> None:
        """Leave the term records to ``fill``, which registers them; the first
        access to the terms runs it (:meth:`RecordTable.defer`)."""
        self._terms.defer(fill)

    def register_term(self, record: TermRecord) -> Gupri:
        self._terms.add(record.id.canonical, record)
        return record.id

    def term(self, id: str | Gupri) -> TermRecord:
        return self._terms.get(self.prefix_map.gupri(id).canonical)

    def has_term(self, id: str | Gupri) -> bool:
        try:
            gid = self.prefix_map.gupri(id)
        except InvalidGupri:
            return False
        return gid.canonical in self._terms

    def terms(self) -> list[TermRecord]:
        return self._terms.sorted()

    # -- mapping registry ---------------------------------------------------

    def add_mapping(self, m: EntityMapping) -> str:
        """Store ``m`` and return its id. A justification, author or comment
        that a ``mappings.tsv`` cell would not reload as itself (empty, or
        with a tab, a line break or a space at either end) is malformed."""
        for name, text in (("justification", m.justification), ("author", m.author), ("comment", m.comment)):
            if text is not None and (not text or text != text.strip() or "\t" in text or len(text.splitlines()) > 1):
                raise MalformedRecord(f"mapping {name} {text!r} is not one trimmed line without tabs")
        subject, predicate, object_ = self._oriented(
            self.prefix_map.gupri(m.subject), m.predicate, self.prefix_map.gupri(m.object)
        )
        stored = EntityMapping.create(
            subject, predicate, object_, m.justification, m.confidence, m.author, m.comment
        )
        if subject.canonical == object_.canonical:
            return NOOP_MAPPING_ID  # self-mappings are implicit, never stored
        self._mappings.add(stored.id, stored)
        return stored.id

    @staticmethod
    def _oriented(
        subject: Gupri, predicate: MappingPredicate, object_: Gupri, table1_direction: bool = False
    ) -> tuple[Gupri, MappingPredicate, Gupri]:
        """The stored orientation of a mapping: narrowMatch as the reversed
        broadMatch and, with ``table1_direction``, a subClassOf/subPropertyOf
        row read parent first. A self-mapping is not stored, but it is still
        built first, so one with a bad confidence is rejected."""
        if table1_direction and predicate in _HIERARCHICAL:
            subject, object_ = object_, subject
        if predicate is MappingPredicate.NARROW_MATCH:
            return object_, MappingPredicate.BROAD_MATCH, subject
        return subject, predicate, object_

    def remove_mapping(self, mapping_id: str) -> bool:
        return self._mappings.remove(mapping_id)

    def mappings(self) -> list[EntityMapping]:
        return sorted(self._mappings.rows(), key=mapping_order)

    def mapping_rows(self) -> tuple[EntityMapping, ...]:
        """The stored mappings in table order, the order they were stored in."""
        return self._mappings.rows()

    def mappings_between(self, subject: Gupri | None = None, object: Gupri | None = None) -> list[EntityMapping]:
        """Stored mappings with each given term at one end, in canonical order
        and ties in table order, as :meth:`mappings` lists them. They are read
        from the closure snapshot's node index, which holds them in table order."""
        if subject is None and object is None:
            return self.mappings()
        at = self.compute_closure().node_index.get((subject or object).canonical, ())
        other = (object or subject).canonical
        return sorted((m for m in at if other in (m.subject.canonical, m.object.canonical)), key=mapping_order)

    # -- TSV interchange ----------------------------------------------------

    REQUIRED_COLUMNS = ("subject_id", "predicate_id", "object_id")
    OPTIONAL_COLUMNS = ("mapping_justification", "confidence", "comment", "author_id")

    def import_mappings_tsv(self, data: bytes | str, *, table1_direction: bool = False) -> ImportReport:
        """Ingest a tab-separated mapping file.

        Lines starting with ``#`` are metadata comments. Rows that fail to
        parse are reported with their line number; the rest are ingested.
        With ``table1_direction`` the subject of subClassOf/subPropertyOf rows
        is read as the parent and the edge is flipped on storage. ``bytes``
        that are not UTF-8 raise :class:`MalformedContent` naming the line
        and byte of the first bad one.

        The header's columns are resolved once; a repeated column reads its
        last field. The accepted rows are stored together, as one write
        (:meth:`RecordTable.add_all`), so a reader sees the whole import or
        none of it.
        """
        text = decode_utf8(data) if isinstance(data, bytes) else data
        gupri, predicates, oriented = self.prefix_map.gupri, _PREDICATES, self._oriented
        # read from the class on each call, so a create replaced there is the one called
        create = EntityMapping.create
        header: list[str] | None = None
        accepted = 0
        rejected: list[RejectedRow] = []
        batch: list[EntityMapping] = []
        keep = batch.append
        for lineno, line in enumerate(text.splitlines(), start=1):
            start = line.lstrip()
            if not start or start[0] == "#":
                continue
            fields = line.split("\t")
            if header is None:
                header = [f.strip() for f in fields]
                missing = [c for c in self.REQUIRED_COLUMNS if c not in header]
                if missing:
                    raise MissingRequiredColumn(f"missing column(s): {', '.join(missing)}")
                width = len(header)
                # the last index of each name; an absent optional column
                # reads the empty cell appended to every row
                column = {name: i for i, name in enumerate(header)}
                subject_at, predicate_at, object_at = (column[name] for name in self.REQUIRED_COLUMNS)
                justification_at, confidence_at, comment_at, author_at = (
                    column.get(name, width) for name in self.OPTIONAL_COLUMNS
                )
                continue
            if len(fields) != width:
                rejected.append(RejectedRow(lineno, f"expected {width} fields, got {len(fields)}"))
                continue
            fields.append("")
            try:
                subject = gupri(fields[subject_at].strip())
                object_ = gupri(fields[object_at].strip())
                curie = fields[predicate_at].strip()
                # one lookup; only an unknown CURIE goes on to raise in from_curie
                predicate = predicates.get(curie) or MappingPredicate.from_curie(curie)
                confidence = fields[confidence_at].strip()
                subject, predicate, object_ = oriented(subject, predicate, object_, table1_direction)
                m = create(
                    subject,
                    predicate,
                    object_,
                    fields[justification_at].strip() or "unspecified",
                    float(confidence) if confidence else 1.0,
                    fields[author_at].strip() or None,
                    fields[comment_at].strip() or None,
                )
            except (InvalidGupri, UnknownPredicate, MalformedRecord, ValueError) as exc:
                rejected.append(RejectedRow(lineno, str(exc)))
                continue
            accepted += 1
            if subject.canonical != object_.canonical:
                keep(m)
        if header is None:
            raise MissingRequiredColumn("file has no header row")
        self._mappings.add_all((m.id, m) for m in batch)
        return ImportReport(accepted=accepted, rejected=tuple(rejected))

    # -- closure ------------------------------------------------------------

    def compute_closure(self, min_confidence: float | None = None) -> ClosureSnapshot:
        """Closure snapshot; pure function of the stored edge set.

        The default (unfiltered) snapshot is derived once between writes to
        the mapping table, from the previous one and the rows added and removed
        since, and from every row only when there is no previous one or the
        writes between them reach a fifth of the rows
        (``records._REBUILD_SHARE``); filtered ones are built on each call. A
        threshold that is not a number in [0, 1] (a bool, NaN and a string
        included) is rejected.
        """
        if min_confidence is not None:
            if not _is_unit_number(min_confidence):
                raise MalformedContent(f"min_confidence must be a number in [0, 1], got {min_confidence!r}")
            snapshot = self._build_snapshot(tuple(m for m in self._mappings.rows() if m.confidence >= min_confidence))
            # it serves one call, whose few walks cost less unpruned than the levels would
            vars(snapshot)["levels"] = None
            return snapshot
        return self._mappings.derived(self._build_snapshot, _updated_snapshot)

    @staticmethod
    def _build_snapshot(edges: tuple[EntityMapping, ...]) -> ClosureSnapshot:
        """The snapshot of ``edges``, built from every edge."""
        ends = _ends(edges)
        ont_root = _roots(ends, _ONTOLOGICAL_GRADE)
        ref_root = _roots(ends, _REFERENTIAL_GRADE)
        hierarchy: _Hierarchy = {relation: {} for relation in _RELATIONS}
        _lift(hierarchy, ends, ref_root, 1)
        return ClosureSnapshot(
            ont_root=ont_root,
            ont_members=_classes(ont_root),
            ref_root=ref_root,
            ref_members=_classes(ref_root),
            hierarchy=hierarchy,
            associative_pairs=frozenset(map(frozenset, chain.from_iterable(ends[p] for p in _ASSOCIATIVE))),
            edges=edges,
        )

    # -- interoperability queries -------------------------------------------

    def interop_level(self, a: str | Gupri, b: str | Gupri, min_confidence: float | None = None) -> InteropVerdict:
        """Strongest interoperability verdict between two identifiers."""
        ga, gb = self.prefix_map.gupri(a), self.prefix_map.gupri(b)
        return self.compute_closure(min_confidence).interop_level(ga, gb)

    def equivalence_class(
        self, a: str | Gupri, level: InteropLevel, min_confidence: float | None = None
    ) -> set[Gupri]:
        """Closed class containing ``a`` at an equivalence-forming level."""
        ga = self.prefix_map.gupri(a)
        return {Gupri(m) for m in self.compute_closure(min_confidence).equivalence_class(ga, level)}

    def explain_path(self, a: str | Gupri, b: str | Gupri, min_confidence: float | None = None) -> list[EntityMapping]:
        """Shortest mapping-edge path witnessing the interop verdict for (a, b)."""
        ga, gb = self.prefix_map.gupri(a), self.prefix_map.gupri(b)
        return self.compute_closure(min_confidence).explain_path(ga, gb)

    # -- audits ---------------------------------------------------------------

    def audit_term_fairness(self, id: str | Gupri, *, snap: ClosureSnapshot | None = None) -> TermAudit:
        """Per-criterion vocabulary-quality audit of a registered term."""
        snap = snap or self.compute_closure()
        record = self.term(id)
        checks = []
        checks.append(
            AuditCheck(
                "has_definition",
                "pass" if record.definition else "fail",
                detail="ontological definition present" if record.definition else "no definition",
            )
        )
        if not record.recognition_criteria_applicable:
            criteria_status = "not_applicable"
        else:
            criteria_status = "pass" if record.recognition_criteria else "fail"
        checks.append(AuditCheck("has_recognition_criteria", criteria_status))
        multilingual = len(record.labels) >= 2
        checks.append(
            AuditCheck(
                "has_multilingual_labels",
                "pass" if multilingual else "fail",
                detail=f"{len(record.labels)} language tag(s)",
            )
        )
        checks.append(AuditCheck("has_synonyms", "pass" if record.synonyms else "fail"))
        others = [
            member
            for member in snap.referential_class(record.id)
            if member != record.id.canonical and member in self._terms
        ]
        checks.append(
            AuditCheck(
                "is_mapped",
                "pass" if others else "fail",
                advisory=True,
                detail="shares a referential class with another registered term"
                if others
                else "referential class is a singleton",
            )
        )
        return TermAudit(term=record.id, checks=tuple(checks))
