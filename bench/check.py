"""Answer checks, run outside the timed windows.

* HTTP: every facade body must be byte-identical to the in-process
  ``documents.render`` of the same library call (CLI/HTTP parity).
* CLI: every process must give the exit code and stdout that the same
  library calls give in-process, on an engine that applied the same writes.
* Verdicts: sampled ``interop_level`` answers are compared with an
  independent BFS over the plain edge list, one edge set per grade.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from urllib.parse import parse_qs, unquote, urlparse

from semint import documents, store
from semint.errors import SemintError

# ---------------------------------------------------------------------------
# HTTP facade parity


@dataclass(frozen=True)
class Request:
    route: str  # label used in reports
    method: str
    path: str
    body: bytes | None = None


def expected_http(engine, request: Request) -> tuple[int, bytes]:
    """Status and body the facade contract gives for ``request``."""
    try:
        doc = _expected_doc(engine, request)
        status = 200
    except SemintError as exc:
        doc, status = {"error": exc.tag, "message": str(exc)}, exc.http_status
    return status, documents.render(doc).encode("utf-8")


def _expected_doc(engine, request: Request):
    pm = engine.prefix_map
    url = urlparse(request.path)
    params = {k: v[-1] for k, v in parse_qs(url.query).items()}
    path = url.path
    if request.method == "POST" and path == "/transform":
        body = json.loads(request.body)
        inst = documents.instance_from_doc(body["instance"], pm)
        out = engine.crosswalks.transform_instance(inst, body["crosswalk"])
        return documents.instance_to_doc(out, pm)
    if path == "/interop":
        a, b = pm.gupri(params["a"]), pm.gupri(params["b"])
        min_confidence = float(params["min_confidence"]) if "min_confidence" in params else None
        return documents.verdict_to_doc(a, b, engine.terminology.interop_level(a, b, min_confidence), pm)
    if path == "/mappings":
        found = engine.terminology.mappings_between(pm.gupri(params["subject"]))
        return [documents.mapping_to_doc(m, pm) for m in found]
    if path == "/find":
        query = store.FindQuery(term=pm.gupri(params["term"]), expand=store.ExpandMode(params["expand"]))
        return {"results": [pm.compress(g.canonical) for g in store.find(engine, query)]}
    if path == "/operations":
        entries, degree = engine.operations.applicable_operations(
            params["schema"], include_reachable=params.get("reachable") == "true"
        )
        return documents.applicable_to_doc(entries, degree, pm)
    if path.startswith("/fdos/") and path.endswith("/assessment"):
        report = engine.fdos.assess_fdo(unquote(path[len("/fdos/") : -len("/assessment")]))
        return documents.assessment_to_doc(report, pm)
    if path.startswith("/terms/"):
        return documents.term_to_doc(engine.terminology.term(unquote(path[len("/terms/") :])), pm)
    if path.startswith("/schemas/"):
        return documents.schema_to_doc(engine.schemas.schema(unquote(path[len("/schemas/") :])), pm)
    raise ValueError(f"no expectation for {request.method} {request.path}")


def http_mismatches(
    expected: dict[int, tuple[int, bytes]], responses: list[tuple[int, int, bytes]]
) -> list[str]:
    """Reasons for every ``(request index, status, body)`` that differs."""
    bad = []
    for index, status, body in responses:
        want_status, want_body = expected[index]
        if status != want_status or body != want_body:
            bad.append(f"request {index}: got {status} {body[:80]!r}, want {want_status} {want_body[:80]!r}")
    return bad


# ---------------------------------------------------------------------------
# interoperability verdicts from an independent BFS

ONTOLOGICAL = {"owl:sameAs", "skos:exactMatch"}
REFERENTIAL = ONTOLOGICAL | {"owl:equivalentClass", "new:referentialMatch", "owl:equivalentProperty"}
ASSOCIATIVE = {"skos:closeMatch", "skos:relatedMatch"}


def _normalized(edge) -> tuple[str, str, str]:
    if edge.predicate == "skos:narrowMatch":
        return edge.object, "skos:broadMatch", edge.subject
    return edge.subject, edge.predicate, edge.object


def _components(pairs: list[tuple[str, str]]) -> dict[str, int]:
    adjacency: dict[str, list[str]] = {}
    for a, b in pairs:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    label: dict[str, int] = {}
    for start in adjacency:
        if start in label:
            continue
        label[start] = len(label)
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nxt in adjacency[node]:
                if nxt not in label:
                    label[nxt] = label[start]
                    queue.append(nxt)
    return label


class VerdictOracle:
    """Interop levels of CURIE pairs, from the edge list alone.

    Classes are BFS components of the ontological and referential edge sets;
    hierarchy is BFS over referential classes along subClassOf edges, along
    subPropertyOf edges, and (for the advisory verdict) along both plus
    broadMatch; associative pairs are direct closeMatch/relatedMatch edges.
    """

    def __init__(self, edges):
        rows = [_normalized(e) for e in edges if e.subject != e.object]
        self.ont = _components([(s, o) for s, p, o in rows if p in ONTOLOGICAL])
        self.ref = _components([(s, o) for s, p, o in rows if p in REFERENTIAL])
        self.up: dict[str, dict[str, set[str]]] = {"sub": {}, "prop": {}, "loose": {}}
        for s, p, o in rows:
            kinds = {"rdfs:subClassOf": ("sub", "loose"), "rdfs:subPropertyOf": ("prop", "loose")}.get(
                p, ("loose",) if p == "skos:broadMatch" else ()
            )
            for kind in kinds:
                cs, co = self._cls(s), self._cls(o)
                if cs != co:
                    self.up[kind].setdefault(cs, set()).add(co)
        self.assoc = {frozenset((s, o)) for s, p, o in rows if p in ASSOCIATIVE}
        self.members: dict[int, set[str]] = {}
        for term, label in self.ref.items():
            self.members.setdefault(label, set()).add(term)

    def _cls(self, term: str) -> str:
        label = self.ref.get(term)
        return term if label is None else f"#{label}"

    def _reaches(self, kind: str, a: str, b: str) -> bool:
        start, goal = self._cls(a), self._cls(b)
        seen, queue = set(), deque(self.up[kind].get(start, ()))
        while queue:
            node = queue.popleft()
            if node == goal:
                return True
            if node not in seen:
                seen.add(node)
                queue.extend(self.up[kind].get(node, ()))
        return False

    def level(self, a: str, b: str) -> tuple[str, str | None, bool]:
        """(level label, direction, actionable) for CURIEs ``a`` and ``b``."""
        if a == b:
            return "Identical", None, True
        if a in self.ont and self.ont.get(a) == self.ont.get(b):
            return "Ontological", None, True
        if a in self.ref and self.ref.get(a) == self.ref.get(b):
            return "Referential", None, True
        if self._reaches("sub", a, b) or self._reaches("prop", a, b):
            return "Hierarchical", "broader", True
        if self._reaches("sub", b, a) or self._reaches("prop", b, a):
            return "Hierarchical", "narrower", True
        if self._reaches("loose", a, b):
            return "Hierarchical", "broader", False
        if self._reaches("loose", b, a):
            return "Hierarchical", "narrower", False
        if frozenset((a, b)) in self.assoc:
            return "Associative", None, False
        return "None", None, False

    def referential_class(self, term: str) -> set[str]:
        label = self.ref.get(term)
        return {term} if label is None else self.members[label]


def verdict_triple(verdict) -> tuple[str, str | None, bool]:
    return verdict.level.label, verdict.direction, verdict.actionable


def path_connects(path, a: str, b: str, pm) -> bool:
    """True when the explained edges chain from ``a`` to ``b``."""
    node = pm.gupri(a).canonical
    for m in path:
        if m.subject.canonical == node:
            node = m.object.canonical
        elif m.object.canonical == node:
            node = m.subject.canonical
        else:
            return False
    return bool(path) and node == pm.gupri(b).canonical
