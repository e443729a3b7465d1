"""Independent brute-force oracles for property and acceptance tests.

These deliberately avoid the library's own data structures: closures come
from Floyd-Warshall over boolean matrices, paths from exhaustive BFS
enumeration, and plan counts from literal pair enumeration.
"""

from __future__ import annotations

import hashlib
import random
import re
from itertools import combinations
from typing import Container, Iterable, Mapping

from semint import EntityMapping, Gupri, MappingPredicate, graph
from semint.errors import InvalidGupri, MalformedRecord, MissingRequiredColumn, UnknownPredicate, decode_utf8
from semint.terminology import NOOP_MAPPING_ID, ImportReport, RejectedRow

ONTOLOGICAL_PREDICATES = {MappingPredicate.SAME_AS, MappingPredicate.EXACT_MATCH}
REFERENTIAL_PREDICATES = ONTOLOGICAL_PREDICATES | {
    MappingPredicate.EQUIVALENT_CLASS,
    MappingPredicate.REFERENTIAL_MATCH,
    MappingPredicate.EQUIVALENT_PROPERTY,
}
HIERARCHICAL_PREDICATES = {MappingPredicate.SUB_CLASS_OF, MappingPredicate.SUB_PROPERTY_OF}


def equivalence_partition(nodes: list[str], edges: list[tuple[str, str]]) -> set[frozenset[str]]:
    """Partition by symmetric-transitive-reflexive closure, via Floyd-Warshall."""
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a, b in edges:
        reach[index[a]][index[b]] = True
        reach[index[b]][index[a]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return {frozenset(nodes[j] for j in range(n) if reach[i][j]) for i in range(n)}


def directed_reachability(nodes: list[str], edges: list[tuple[str, str]]) -> set[tuple[str, str]]:
    """Transitive (non-reflexive) closure of a directed edge list."""
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for a, b in edges:
        reach[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return {(nodes[i], nodes[j]) for i in range(n) for j in range(n) if reach[i][j]}


def level_rule_breaks(adjacency: dict, levels: dict) -> list[tuple]:
    """The edges of ``adjacency`` whose levels break the rule: a level never
    falls along an edge, and rises along one whose subject lies on no cycle
    and above none, by the transitive closure of the edges."""
    edges = [(u, v) for u, targets in adjacency.items() for v in targets]
    nodes = sorted({n for edge in edges for n in edge})
    reach = directed_reachability(nodes, edges)
    on_cycles = {c for c in nodes if (c, c) in reach}
    cyclic = on_cycles | {u for c in on_cycles for u in nodes if (c, u) in reach}
    return [
        (u, v)
        for u, v in edges
        if u not in levels or v not in levels or levels[u] > levels[v] or (levels[u] == levels[v] and u not in cyclic)
    ]


def all_shortest_paths(
    adjacency: dict[str, set[str]], start: str, goal: str
) -> list[list[str]]:
    """Every shortest node path from start to goal, by exhaustive BFS layers."""
    if start == goal:
        return [[start]]
    frontier = [[start]]
    seen_depth = {start: 0}
    found: list[list[str]] = []
    depth = 0
    while frontier and not found:
        depth += 1
        next_frontier = []
        for path in frontier:
            for nxt in sorted(adjacency.get(path[-1], ())):
                if seen_depth.get(nxt, depth) < depth:
                    continue
                seen_depth[nxt] = depth
                new_path = path + [nxt]
                if nxt == goal:
                    found.append(new_path)
                else:
                    next_frontier.append(new_path)
        frontier = next_frontier
    return found


def pairwise_links(ids: list[str]) -> list[tuple[str, str]]:
    return [tuple(sorted(p)) for p in combinations(sorted(ids), 2)]


def hub_links(ids: list[str], hub: str) -> list[tuple[str, str]]:
    return [tuple(sorted((s, hub))) for s in sorted(ids) if s != hub]


def random_mapping_set(
    rng: random.Random, prefix_map, max_terms: int = 20, max_edges: int = 40
) -> tuple[list[str], list[EntityMapping]]:
    """A random edge multiset over a small term universe, all predicate kinds."""
    n_terms = rng.randint(2, max_terms)
    terms = [f"ex:t{i}" for i in range(n_terms)]
    canonical = [prefix_map.canonicalize(t) for t in terms]
    predicates = list(MappingPredicate)
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        a, b = rng.sample(range(n_terms), 2)
        predicate = rng.choice(predicates)
        edges.append(
            EntityMapping.create(
                Gupri(canonical[a]),
                predicate,
                Gupri(canonical[b]),
                confidence=rng.choice([1.0, 0.9, 0.5]),
            )
        )
    return canonical, edges


def oracle_closures(
    nodes: list[str], mappings: list[EntityMapping]
) -> tuple[set[frozenset[str]], set[frozenset[str]]]:
    """Ontological and referential partitions from the brute-force oracle."""
    ont_edges = [
        (m.subject.canonical, m.object.canonical)
        for m in mappings
        if m.predicate in ONTOLOGICAL_PREDICATES
    ]
    ref_edges = [
        (m.subject.canonical, m.object.canonical)
        for m in mappings
        if m.predicate in REFERENTIAL_PREDICATES
    ]
    return equivalence_partition(nodes, ont_edges), equivalence_partition(nodes, ref_edges)


def oracle_ladder(
    nodes: list[str], mappings: list[EntityMapping]
) -> tuple[dict[tuple[str, str], tuple[str, str | None, bool]], dict[str, dict[str, list[str]]]]:
    """The verdict ladder for every ordered pair of nodes, and the rendered
    hierarchy reach, from brute-force partitions and from reachability over
    referential classes.

    A verdict is ``(level label, direction, actionable)``. ``narrowMatch``
    counts as ``broadMatch`` with its ends swapped. The reach rendering keys
    each class by its smallest member and omits classes that reach nothing.
    """

    def ends(predicates) -> list[tuple[str, str]]:
        return [(m.subject.canonical, m.object.canonical) for m in mappings if m.predicate in predicates]

    ont_of = {n: c for c in equivalence_partition(nodes, ends(ONTOLOGICAL_PREDICATES)) for n in c}
    ref_classes = equivalence_partition(nodes, ends(REFERENTIAL_PREDICATES))
    ref_of = {n: c for c in ref_classes for n in c}

    def upward(m: EntityMapping) -> tuple[str, str]:
        s, o = m.subject.canonical, m.object.canonical
        return (o, s) if m.predicate is MappingPredicate.NARROW_MATCH else (s, o)

    def above(predicates) -> set[tuple[frozenset[str], frozenset[str]]]:
        """(lower, upper) referential classes joined by a chain of ``predicates``."""
        lifted = [
            (ref_of[s], ref_of[o])
            for s, o in (upward(m) for m in mappings if m.predicate in predicates)
            if ref_of[s] != ref_of[o]
        ]
        return directed_reachability(list(ref_classes), lifted)

    sub = above({MappingPredicate.SUB_CLASS_OF})
    prop = above({MappingPredicate.SUB_PROPERTY_OF})
    loose = above(
        {
            MappingPredicate.SUB_CLASS_OF,
            MappingPredicate.SUB_PROPERTY_OF,
            MappingPredicate.BROAD_MATCH,
            MappingPredicate.NARROW_MATCH,
        }
    )
    associative = {frozenset(e) for e in ends({MappingPredicate.CLOSE_MATCH, MappingPredicate.RELATED_MATCH})}
    verdicts = {}
    for a in nodes:
        for b in nodes:
            up, down = (ref_of[a], ref_of[b]), (ref_of[b], ref_of[a])
            if a == b:
                verdict = ("Identical", None, True)
            elif ont_of[a] == ont_of[b]:
                verdict = ("Ontological", None, True)
            elif ref_of[a] == ref_of[b]:
                verdict = ("Referential", None, True)
            elif up in sub or up in prop:
                verdict = ("Hierarchical", "broader", True)
            elif down in sub or down in prop:
                verdict = ("Hierarchical", "narrower", True)
            elif up in loose:
                verdict = ("Hierarchical", "broader", False)
            elif down in loose:
                verdict = ("Hierarchical", "narrower", False)
            elif frozenset((a, b)) in associative:
                verdict = ("Associative", None, False)
            else:
                verdict = ("None", None, False)
            verdicts[a, b] = verdict

    def rendered(pairs) -> dict[str, list[str]]:
        reached: dict[str, list[str]] = {}
        for lower, upper in pairs:
            reached.setdefault(min(lower), []).append(min(upper))
        return {k: sorted(v) for k, v in sorted(reached.items())}

    return verdicts, {"subclass_reach": rendered(sub), "subproperty_reach": rendered(prop)}


def find_scan(
    records: list,
    mappings: list[EntityMapping],
    schemas: list[tuple[str, str]],
    term: str | None,
    expand: str,
    statement_type: str | None,
    category,
) -> list[str]:
    """Canonical ids of the records a ``find`` query matches, in canonical
    order: every record is tested against classes taken from Floyd-Warshall
    partitions of ``mappings``.

    Terms are canonical ids; ``expand`` is ``none``, ``ontological`` or
    ``referential``; ``schemas`` are (schema id, statement type) pairs.
    """
    nodes = {e for m in mappings for e in (m.subject.canonical, m.object.canonical)}
    nodes |= {t for t in (term, statement_type) if t is not None} | {t for _, t in schemas}
    ontological, referential = oracle_closures(sorted(nodes), mappings)

    def class_of(partition: set[frozenset[str]], node: str) -> frozenset[str]:
        return next(c for c in partition if node in c)

    wanted_terms = None
    if term is not None:
        if expand == "none":
            wanted_terms = {term}
        else:
            wanted_terms = class_of(ontological if expand == "ontological" else referential, term)
    wanted_schemas = None
    if statement_type is not None:
        wanted_schemas = {s for s, t in schemas if t in class_of(referential, statement_type)}
    found = []
    for record in records:
        if isinstance(record.content, Gupri):
            instances, mentioned = (), {record.content.canonical}
        else:
            instances = record.content if isinstance(record.content, tuple) else (record.content,)
            mentioned = {
                g.canonical
                for inst in instances
                for fill in inst.fills.values()
                for g in (fill.value, fill.asserted_class)
                if isinstance(g, Gupri)
            }
        if wanted_terms is not None and not mentioned & wanted_terms:
            continue
        if wanted_schemas is not None and not {i.schema_id.canonical for i in instances} & wanted_schemas:
            continue
        if category is not None and record.category is not category:
            continue
        found.append(record.gupri.canonical)
    return sorted(found)


def mappings_between_scan(mappings: list[EntityMapping], subject: str | None, object_: str | None) -> list[str]:
    """Ids of the ``mappings`` with each given canonical term at one end, in
    the order given."""
    return [
        m.id
        for m in mappings
        if all(t is None or t in (m.subject.canonical, m.object.canonical) for t in (subject, object_))
    ]


def explain_path_scan(
    edges: Iterable[EntityMapping],
    a: str,
    b: str,
    both: Container[MappingPredicate],
    directed: Container[MappingPredicate],
    forward: bool,
) -> list[EntityMapping]:
    """The explanation path from ``a`` to ``b`` with the adjacency built by
    scanning every edge: ``both`` predicates either way, ``directed`` ones
    subject to object when ``forward`` and the reverse otherwise, and the
    smallest id among parallel edges. The search is the library's own
    ``graph.best_path``; this oracle checks which edges it is given."""
    adjacency: dict[str, dict[str, EntityMapping]] = {}

    def connect(u: str, v: str, m: EntityMapping) -> None:
        slot = adjacency.setdefault(u, {})
        best = slot.get(v)
        if best is None or m.id < best.id:
            slot[v] = m

    for m in edges:
        s, o = m.subject.canonical, m.object.canonical
        if m.predicate in both:
            connect(s, o, m)
            connect(o, s, m)
        elif m.predicate in directed:
            if forward:
                connect(s, o, m)
            else:
                connect(o, s, m)
    return list(graph.best_path(adjacency, a, (b,), lambda v, _: v) or ())


def canonicalize_by_grammar(bindings: Mapping[str, str], value: str) -> str:
    """A stripped, non-empty identifier without whitespace in canonical form,
    decided by the grammars alone, in their order: an absolute IRI or a URN
    as it is, else a CURIE of a bound prefix expanded. ``InvalidGupri`` for
    anything else."""
    if re.match(r"^[A-Za-z][A-Za-z0-9+.\-]*://\S+$", value) or re.match(
        r"^urn:[A-Za-z0-9][A-Za-z0-9\-]{0,31}:\S+$", value, re.IGNORECASE
    ):
        return value
    match = re.match(r"^([A-Za-z_][A-Za-z0-9_.\-]*):(\S+)$", value)
    if not match or match.group(1) not in bindings:
        raise InvalidGupri(value)
    return bindings[match.group(1)] + match.group(2)


def compress_scan(bindings: Iterable[tuple[str, str]], iri: str) -> str:
    """CURIE form of ``iri``: every binding scanned in prefix-name order, the
    first of the longest expansions that leave a non-empty local part wins."""
    best: tuple[str, str] | None = None
    for prefix, expansion in sorted(bindings):
        if iri.startswith(expansion) and len(iri) > len(expansion):
            if best is None or len(expansion) > len(best[1]):
                best = (prefix, expansion)
    if best is None:
        return iri
    return f"{best[0]}:{iri[len(best[1]):]}"


def import_mappings_tsv_by_row(registry, data: bytes | str, *, table1_direction: bool = False) -> ImportReport:
    """The TSV import one row at a time, as ``import_mappings_tsv`` did before
    its batch load: each row read through a dict of its header's columns and
    stored on its own, with the registry's ``_mappings`` table."""
    text = decode_utf8(data) if isinstance(data, bytes) else data
    header: list[str] | None = None
    accepted = 0
    rejected: list[RejectedRow] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if header is None:
            header = [f.strip() for f in fields]
            missing = [c for c in registry.REQUIRED_COLUMNS if c not in header]
            if missing:
                raise MissingRequiredColumn(f"missing column(s): {', '.join(missing)}")
            continue
        if len(fields) != len(header):
            rejected.append(
                RejectedRow(lineno, f"expected {len(header)} fields, got {len(fields)}")
            )
            continue
        row = dict(zip(header, fields))
        try:
            _add_row(registry, row, table1_direction=table1_direction)
        except (InvalidGupri, UnknownPredicate, MalformedRecord, ValueError) as exc:
            rejected.append(RejectedRow(lineno, str(exc)))
            continue
        accepted += 1
    if header is None:
        raise MissingRequiredColumn("file has no header row")
    return ImportReport(accepted=accepted, rejected=tuple(rejected))


def _add_row(registry, row: Mapping[str, str], *, table1_direction: bool) -> str:
    subject = registry.prefix_map.gupri(row["subject_id"].strip())
    object_ = registry.prefix_map.gupri(row["object_id"].strip())
    predicate = MappingPredicate.from_curie(row["predicate_id"].strip())
    confidence_text = row.get("confidence", "").strip()
    confidence = float(confidence_text) if confidence_text else 1.0
    return _add(
        registry,
        subject,
        predicate,
        object_,
        table1_direction=table1_direction,
        justification=row.get("mapping_justification", "").strip() or "unspecified",
        confidence=confidence,
        author=row.get("author_id", "").strip() or None,
        comment=row.get("comment", "").strip() or None,
    )


def _add(
    registry,
    subject: str | Gupri,
    predicate: MappingPredicate,
    object_: str | Gupri,
    *,
    table1_direction: bool = False,
    justification: str = "unspecified",
    confidence: float = 1.0,
    author: str | None = None,
    comment: str | None = None,
) -> str:
    """Store one mapping in the stored orientation, its id derived here from
    the sha1 of its fields rather than by ``EntityMapping.create``."""
    subject, object_ = registry.prefix_map.gupri(subject), registry.prefix_map.gupri(object_)
    if table1_direction and predicate in HIERARCHICAL_PREDICATES:
        subject, object_ = object_, subject
    if predicate is MappingPredicate.NARROW_MATCH:
        subject, object_ = object_, subject
        predicate = MappingPredicate.BROAD_MATCH
    if isinstance(confidence, bool) or not isinstance(confidence, (int, float)) or not 0 <= confidence <= 1:
        raise MalformedRecord(f"confidence {confidence!r} is not a number in [0,1]")
    confidence = float(confidence)
    text = "\x1f".join(
        [subject.canonical, predicate.value, object_.canonical, justification, repr(confidence), author or "", comment or ""]
    )
    m = EntityMapping(
        f"m-{hashlib.sha1(text.encode('utf-8')).hexdigest()[:12]}",
        subject,
        predicate,
        object_,
        justification,
        confidence,
        author,
        comment,
    )
    if m.subject == m.object:
        return NOOP_MAPPING_ID  # self-mappings are implicit, never stored
    registry._mappings.add(m.id, m)
    return m.id
