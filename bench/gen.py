"""Seeded store generator shared by every workload.

A store is built through the public API (term registration, TSV import,
schema, crosswalk, operation and FDO registration) and written with
``export_store``. The same sizes and seed give a byte-identical store.

Shape of a store, for ``V`` vocabularies over ``C`` shared concepts:

* every vocabulary holds one term per concept and is a ``subClassOf`` forest
  that follows one concept tree, so cross-vocabulary equivalences never
  contradict a hierarchy; the tree's shape depends on the size only;
* anchor concepts (the schema slot constraints) are linked across all
  vocabularies by ``skos:exactMatch`` or ``owl:equivalentClass`` chains, which
  is what lets crosswalks between consecutive schemas check clean;
* the remaining edges are cross-vocabulary equivalence and SKOS links between
  copies of the same or of related concepts, with four confidence tiers;
* schemas come in ``statement_types`` groups of ``schemas_per_type``, chained
  by crosswalks ``s{i} -> s{i+1}``; one operation applies to ``s5`` of every
  group; FDO records wrap valid instances, term references or collections,
  with metadata present or missing at random.

The generator also returns a plain-data model of what it built (the edge
list, the concept tree, schemas and records), which the workloads use to make
their inputs and the answer checks use as an independent reference.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

from semint import (
    CertaintyLevel,
    DatatypeTag,
    Engine,
    EntityMapping,
    FdoRecord,
    MappingPredicate,
    OperationDescriptor,
    OperationKind,
    OperationParam,
    PrefixMap,
    SlotKind,
    SlotSpec,
    StatementCategory,
    StatementSchema,
    TermRecord,
    export_store,
)
from semint import documents

BASE = "http://bench.example.org/"
CONFIDENCE_TIERS = (1.0, 0.95, 0.8, 0.6)
#: thresholds used by ``min_confidence`` queries; each drops a different tier
MIN_CONFIDENCE_THRESHOLDS = (0.7, 0.85, 0.9)
MAPPING_HEADER = "subject_id\tpredicate_id\tobject_id\tmapping_justification\tconfidence\tcomment\tauthor_id"
ROOTS = 4
#: parents are drawn from the previous WINDOW concepts, so depth grows with size
WINDOW = 64
ANCHOR_ROLES = ("object", "quality", "unit")


@dataclass(frozen=True)
class Sizes:
    name: str
    edges: int
    vocabularies: int
    statement_types: int
    schemas_per_type: int
    fdos: int


SIZES = {
    "M": Sizes("M", edges=4000, vocabularies=8, statement_types=4, schemas_per_type=10, fdos=2000),
    "L": Sizes("L", edges=16000, vocabularies=8, statement_types=4, schemas_per_type=10, fdos=100),
    "tiny": Sizes("tiny", edges=300, vocabularies=3, statement_types=2, schemas_per_type=4, fdos=30),
}


@dataclass(frozen=True)
class Edge:
    """One mapping row as written to TSV (CURIEs, unnormalized predicate)."""

    subject: str
    predicate: str
    object: str
    confidence: float = 1.0
    justification: str = "manual-curation"
    author: str = ""
    comment: str = ""

    def tsv(self) -> str:
        return "\t".join(
            [
                self.subject,
                self.predicate,
                self.object,
                self.justification,
                repr(self.confidence),
                self.comment,
                self.author,
            ]
        )


@dataclass(frozen=True)
class SchemaInfo:
    curie: str
    group: int
    index: int
    vocab: int
    #: slot id -> (role, anchor concept or None for literal slots, required)
    slots: tuple[tuple[str, str, int | None, bool], ...]


@dataclass
class Model:
    """Plain-data description of a generated store."""

    sizes: Sizes
    seed: int
    concepts: int
    parent: list[int]
    children: list[list[int]]
    anchors: dict[tuple[int, str], int]
    edges: list[Edge]
    schemas: list[SchemaInfo]
    crosswalks: list[tuple[str, str, str]]  # (id, source schema, target schema)
    operation_schemas: list[str]
    fdo_ids: list[str]
    fdo_terms: list[str]
    counts: dict[str, int] = field(default_factory=dict)

    def term(self, vocab: int, concept: int) -> str:
        return f"v{vocab}:c{concept}"

    def all_terms(self) -> list[str]:
        return [
            self.term(k, c) for k in range(self.sizes.vocabularies) for c in range(self.concepts)
        ]

    def descendants(self, concept: int) -> list[int]:
        out, stack = [], [concept]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(self.children[node])
        return sorted(out)

    def schema(self, curie: str) -> SchemaInfo:
        for s in self.schemas:
            if s.curie == curie:
                return s
        raise KeyError(curie)


def prefix_map(sizes: Sizes) -> PrefixMap:
    bindings = {f"v{k}": f"{BASE}v{k}/" for k in range(sizes.vocabularies)}
    bindings.update(
        st=f"{BASE}statement/",
        sch=f"{BASE}schema/",
        cw=f"{BASE}crosswalk/",
        op=f"{BASE}operation/",
        fdo=f"{BASE}fdo/",
        data=f"{BASE}data/",
    )
    return PrefixMap(bindings)


def _concept_count(sizes: Sizes) -> int:
    anchor_edges = sizes.statement_types * len(ANCHOR_ROLES) * (sizes.vocabularies - 1)
    forest = round(0.62 * sizes.edges) - anchor_edges
    return ROOTS + forest // sizes.vocabularies


def _cross_edge(rng: random.Random, model: Model, tag: str) -> Edge:
    """One cross-vocabulary link; ``tag`` makes rows of a batch distinct."""
    v = model.sizes.vocabularies
    ka, kb = rng.sample(range(v), 2)
    c = rng.randrange(ROOTS, model.concepts)
    p = model.parent[c]
    roll = rng.random()
    if roll < 0.15:
        pred, s, o = rng.choice(("owl:sameAs", "skos:exactMatch")), model.term(ka, c), model.term(kb, c)
    elif roll < 0.30:
        pred = rng.choice(("owl:equivalentClass", "new:referentialMatch"))
        s, o = model.term(ka, c), model.term(kb, c)
    elif roll < 0.50:
        pred, s, o = "skos:closeMatch", model.term(ka, c), model.term(kb, c)
    elif roll < 0.65:
        other = rng.randrange(model.concepts)
        pred, s, o = "skos:relatedMatch", model.term(ka, c), model.term(kb, other)
    elif roll < 0.85:
        pred, s, o = "skos:broadMatch", model.term(ka, c), model.term(kb, p)
    else:
        pred, s, o = "skos:narrowMatch", model.term(ka, p), model.term(kb, c)
    return Edge(
        s,
        pred,
        o,
        confidence=rng.choice(CONFIDENCE_TIERS),
        justification=rng.choice(("manual-curation", "lexical-match", "logical-reasoning")),
        author=tag,
    )


def edge_key(e: Edge) -> tuple[str, str, str]:
    if e.predicate == "skos:narrowMatch":
        return (e.object, "skos:broadMatch", e.subject)
    return (e.subject, e.predicate, e.object)


def new_edges(rng: random.Random, model: Model, count: int, tag: str, taken: set) -> list[Edge]:
    """``count`` edges absent from ``taken`` (which is updated), for imports.

    A fifth are extra ``subClassOf`` links to a grandparent, the rest
    cross-vocabulary links; ``tag`` goes into the author column, so every
    row gets a mapping id that no earlier batch used.
    """
    out: list[Edge] = []
    while len(out) < count:
        if rng.random() < 0.2:
            c = rng.randrange(ROOTS, model.concepts)
            gp = model.parent[model.parent[c]] if model.parent[c] >= ROOTS else None
            if gp is None:
                continue
            k = rng.randrange(model.sizes.vocabularies)
            edge = Edge(model.term(k, c), "rdfs:subClassOf", model.term(k, gp), author=tag)
        else:
            edge = _cross_edge(rng, model, tag)
        if edge_key(edge) in taken or edge.subject == edge.object:
            continue
        taken.add(edge_key(edge))
        out.append(edge)
    return out


def tsv(edges: list[Edge]) -> str:
    return MAPPING_HEADER + "\n" + "".join(e.tsv() + "\n" for e in edges)


def mapping_id(edge: Edge, pm: PrefixMap) -> str:
    """Stored id of a row, as the terminology registry derives it."""
    s, o, pred = edge.subject, edge.object, MappingPredicate.from_curie(edge.predicate)
    if pred is MappingPredicate.NARROW_MATCH:
        s, o, pred = o, s, MappingPredicate.BROAD_MATCH
    return EntityMapping.create(
        pm.gupri(s),
        pred,
        pm.gupri(o),
        justification=edge.justification or "unspecified",
        confidence=edge.confidence,
        author=edge.author or None,
        comment=edge.comment or None,
    ).id


def make_model(sizes: Sizes, seed: int) -> Model:
    """The plain-data model alone; cheap, and identical to what :func:`build` uses."""
    concepts = _concept_count(sizes)
    parent = [-1] * concepts
    children: list[list[int]] = [[] for _ in range(concepts)]
    # the tree's shape depends on the size only: closure cost follows its depth
    # profile, and a seeded shape would make that cost vary from seed to seed
    shape = random.Random(f"tree-{sizes.name}")
    for c in range(ROOTS, concepts):
        p = shape.randrange(max(0, c - WINDOW), c)
        parent[c] = p
        children[p].append(c)
    model = Model(
        sizes=sizes,
        seed=seed,
        concepts=concepts,
        parent=parent,
        children=children,
        anchors={},
        edges=[],
        schemas=[],
        crosswalks=[],
        operation_schemas=[],
        fdo_ids=[],
        fdo_terms=[],
    )
    rng = random.Random(f"store-{sizes.name}-{seed}")
    # anchors: distinct concepts with enough descendants to fill slots from
    sized =[c for c in range(concepts) if len(model.descendants(c)) >= 6]
    picks = rng.sample(sized, sizes.statement_types * len(ANCHOR_ROLES))
    for t in range(sizes.statement_types):
        for r, role in enumerate(ANCHOR_ROLES):
            model.anchors[(t, role)] = picks[t * len(ANCHOR_ROLES) + r]

    v = sizes.vocabularies
    taken: set = set()

    def add(edge: Edge) -> None:
        taken.add(edge_key(edge))
        model.edges.append(edge)

    for k in range(v):
        for c in range(ROOTS, concepts):
            add(Edge(model.term(k, c), "rdfs:subClassOf", model.term(k, parent[c])))
    for n, a in enumerate(sorted(model.anchors.values())):
        pred = "skos:exactMatch" if n % 2 == 0 else "owl:equivalentClass"
        for k in range(v - 1):
            add(Edge(model.term(k, a), pred, model.term(k + 1, a), justification="anchor"))
    model.edges.extend(new_edges(rng, model, sizes.edges - len(model.edges), "", taken))
    # new_edges adds a fifth as subClassOf links; keep the count exact anyway
    assert len(model.edges) == sizes.edges

    for t in range(sizes.statement_types):
        for i in range(sizes.schemas_per_type):
            k = (t * 3 + i) % v
            slots = (
                (f"object{i}", "OBJECT", model.anchors[(t, "object")], True),
                (f"quality{i}", "QUALITY", model.anchors[(t, "quality")], True),
                (f"value{i}", "VALUE", None, True),
                (f"unit{i}", "UNIT", model.anchors[(t, "unit")], False),
                (f"note{i}", "NOTE", None, False),
            )
            model.schemas.append(SchemaInfo(f"sch:t{t}-s{i}", t, i, k, slots))
        for i in range(sizes.schemas_per_type - 1):
            model.crosswalks.append(
                (f"cw:t{t}-s{i}-s{i + 1}", f"sch:t{t}-s{i}", f"sch:t{t}-s{i + 1}")
            )
    five = min(5, sizes.schemas_per_type - 1)
    model.operation_schemas = [f"sch:t{t}-s{five}" for t in range(sizes.statement_types)]
    return model


def term_pair(rng: random.Random, model: Model) -> tuple[str, str]:
    """Two terms: copies of one concept, a concept and an ancestor, or random."""
    v = model.sizes.vocabularies
    roll = rng.random()
    c = rng.randrange(ROOTS, model.concepts)
    if roll < 0.35:
        return model.term(rng.randrange(v), c), model.term(rng.randrange(v), c)
    if roll < 0.7:
        up = model.parent[c]
        if rng.random() < 0.5 and up >= ROOTS:
            up = model.parent[up]
        return model.term(rng.randrange(v), c), model.term(rng.randrange(v), up)
    return model.term(rng.randrange(v), rng.randrange(model.concepts)), model.term(
        rng.randrange(v), rng.randrange(model.concepts)
    )


def instance_doc(rng: random.Random, model: Model, schema: SchemaInfo) -> dict:
    """A valid instance document of ``schema``.

    Resource fills are the anchor itself or one of its descendants, in the
    schema's vocabulary or another one; both satisfy the constraint through
    the lifted hierarchy, and the anchor itself forces a rewrite on transform.
    """
    fills = {}
    for slot_id, role, anchor, required in schema.slots:
        if not required and rng.random() < 0.4:
            continue
        if anchor is None:
            if role == "VALUE":
                n = rng.randrange(1, 10**6)
                fills[slot_id] = {"kind": "literal", "value": f"{n // 100}.{n % 100:02d}", "datatype": "decimal"}
            else:
                fills[slot_id] = {"kind": "literal", "value": f"note {rng.randrange(1000)}", "datatype": "string"}
            continue
        concept = anchor if rng.random() < 0.2 else rng.choice(model.descendants(anchor))
        vocab = schema.vocab if rng.random() < 0.7 else rng.randrange(model.sizes.vocabularies)
        fills[slot_id] = {"kind": "resource", "value": model.term(vocab, concept)}
    doc = {"schema": schema.curie, "fills": fills}
    if rng.random() < 0.5:
        doc["provenance"] = f"station {rng.randrange(20)}"
    return doc


def fdo_doc(rng: random.Random, model: Model, gupri: str) -> dict:
    roll = rng.random()
    if roll < 0.1:
        c = rng.randrange(model.concepts)
        content = {"kind": "term_ref", "term": model.term(rng.randrange(model.sizes.vocabularies), c)}
        schema_ref = None
    elif roll < 0.2:
        picked = rng.sample(model.schemas, 2)
        content = {"kind": "collection", "instances": [instance_doc(rng, model, s) for s in picked]}
        schema_ref = [s.curie for s in picked]
    else:
        schema = rng.choice(model.schemas)
        content = {"kind": "instance", "instance": instance_doc(rng, model, schema)}
        schema_ref = schema.curie
    doc: dict = {"gupri": gupri, "content": content}
    if schema_ref is not None and rng.random() < 0.9:
        doc["schema_ref"] = schema_ref
    if rng.random() < 0.9:
        doc["creator"] = f"steward-{rng.randrange(10)}"
    doc["authors"] = [f"author-{rng.randrange(50)}"] if rng.random() < 0.8 else []
    optional = (
        ("category", 0.85, lambda: rng.choice([c.value for c in StatementCategory])),
        ("logical_framework", 0.7, lambda: "owl2-dl"),
        ("human_readable", 0.6, lambda: f"record {gupri}"),
        ("certainty", 0.7, lambda: rng.choice([c.value for c in CertaintyLevel])),
        ("license", 0.8, lambda: "CC-BY-4.0"),
        ("data_identifier", 0.75, lambda: f"data:set-{rng.randrange(500)}"),
    )
    for key, p, value in optional:
        if rng.random() < p:
            doc[key] = value()
    doc["provenance"] = {"created": f"2024-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"}
    return doc


def crosswalk_doc(model: Model, cw_id: str, source: str, target: str) -> dict:
    s, t = model.schema(source), model.schema(target)
    return {
        "id": cw_id,
        "source_schema": source,
        "target_schema": target,
        "alignments": [
            {"source_slot": a[0], "target_slot": b[0]} for a, b in zip(s.slots, t.slots)
        ],
        "provenance": {"author": "bench", "date": "2024-05-14", "justification": "generated"},
    }


def build(sizes: Sizes, seed: int) -> tuple[Engine, Model]:
    """Generate the model and register it into a fresh engine."""
    model = make_model(sizes, seed)
    rng = random.Random(f"records-{sizes.name}-{seed}")
    pm = prefix_map(sizes)
    engine = Engine.empty(pm)

    for k in range(sizes.vocabularies):
        for c in range(model.concepts):
            labels = {"en": f"concept {c} of v{k}"}
            if rng.random() < 0.7:
                labels["de"] = f"Begriff {c} von v{k}"
            engine.terminology.register_term(
                TermRecord(
                    id=pm.gupri(model.term(k, c)),
                    labels=labels,
                    definition=f"definition of concept {c}" if rng.random() < 0.85 else None,
                    recognition_criteria="inspect it" if rng.random() < 0.6 else None,
                    synonyms=(f"c{c}-v{k}",) if rng.random() < 0.6 else (),
                )
            )
    report = engine.terminology.import_mappings_tsv(tsv(model.edges))
    if report.rejected or report.accepted != len(model.edges):
        raise RuntimeError(f"generated mappings rejected: {report.rejected[:3]}")

    for info in model.schemas:
        slots = []
        for slot_id, role, anchor, required in info.slots:
            if anchor is None:
                tag = DatatypeTag.DECIMAL if role == "VALUE" else DatatypeTag.STRING
                slots.append(SlotSpec(slot_id, role, SlotKind.LITERAL, tag, required))
            else:
                constraint = pm.gupri(model.term(info.vocab, anchor))
                slots.append(SlotSpec(slot_id, role, SlotKind.RESOURCE, constraint, required))
        engine.schemas.register_schema(
            StatementSchema(
                id=pm.gupri(info.curie),
                statement_type=pm.gupri(f"st:type{info.group}"),
                label=f"type {info.group} schema {info.index}",
                slots=tuple(slots),
                logical_framework="owl2-dl" if info.index % 2 == 0 else None,
            )
        )
    for cw_id, source, target in model.crosswalks:
        engine.crosswalks.register_crosswalk(
            documents.crosswalk_from_doc(crosswalk_doc(model, cw_id, source, target), pm)
        )
    engine.operations.register_operation(
        OperationDescriptor(
            id=pm.gupri("op:summarize"),
            label="summarize measurements",
            applicable_schemas=frozenset(pm.gupri(s) for s in model.operation_schemas),
            kind=OperationKind.EXTERNAL_REFERENCE,
            params=(OperationParam("format", DatatypeTag.STRING),),
            tool="summarizer",
        )
    )
    terms: set[str] = set()
    for n in range(sizes.fdos):
        gupri = f"fdo:r{n:05d}"
        record: FdoRecord = documents.fdo_from_doc(fdo_doc(rng, model, gupri), pm)
        engine.fdos.register_fdo(record)
        model.fdo_ids.append(gupri)
        terms.update(pm.compress(t.canonical) for t in record.content_terms())
    model.fdo_terms = sorted(terms)
    model.counts = {
        "edges": len(engine.terminology.mappings()),
        "terms": len(engine.terminology.terms()),
        "schemas": len(engine.schemas.schemas()),
        "crosswalks": len(engine.crosswalks.crosswalks()),
        "records": len(engine.fdos.records()),
    }
    return engine, model


def store_digest(root: Path) -> str:
    """Digest over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def write_store(sizes: Sizes, seed: int, root: Path) -> Model:
    """Build and export a store; ``root`` must not exist yet."""
    engine, model = build(sizes, seed)
    export_store(engine, root)
    return model

