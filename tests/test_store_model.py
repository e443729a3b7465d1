"""A state machine over the store's write paths.

It starts from the weight-fixture store and runs ``import`` of each of the
six kinds through an in-process ``cli.main``, with new, repeated and
conflicting records, and ``export``. Term files hold several lines that mix
new and held ids, and term text holds line breaks that ``str.splitlines``
splits at. A mirror engine registers every import that the CLI accepted.
After every step the store must be canonical (equal to a fresh export of its
own load), hold the mirror's records, and stay byte-identical when the last
import is repeated.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from semint import documents, export_store, load_store
from semint.cli import main
from semint.errors import SemintError

from conftest import build_weight_fixture
from test_store import tree_bytes

#: for each document kind: its new ids, next to the held record whose
#: document the new ones copy, and the field that tells two variants of one
#: id apart
DOCUMENT_KINDS = {
    "schema": (("ex:s0", "ex:s1"), "label"),
    "crosswalk": (("ex:c0", "ex:c1"), "provenance"),
    "operation": (("ex:o0", "ex:o1"), "label"),
    "fdo": (("ex:f0", "ex:f1"), "human_readable"),
}
HELD_TERMS = ("pato:weight", "unit:gram")
NEW_TERMS = ("ex:n0", "ex:n1", "ex:n2")
MAPPING_ENDS = ("ex:n0", "ex:n1", "pato:weight", "ncit:weight", "unit:gram", "unit:mass-unit")
MAPPING_PREDICATES = ("owl:sameAs", "rdfs:subClassOf", "skos:relatedMatch", "ex:no-such-predicate")

# variant 0 is the held content of a held id; most lines repeat or add
variants = st.sampled_from([0, 0, 0, 1])


def _register(engine, kind: str, text: str) -> None:
    """The import of ``text`` as ``kind``, registered in-process."""
    pm = engine.prefix_map
    if kind == "terms":
        for line in text.splitlines():
            engine.terminology.register_term(documents.term_from_doc(json.loads(line), pm))
    elif kind == "mappings":
        engine.terminology.import_mappings_tsv(text)
    else:
        parse, register = {
            "schema": (documents.schema_from_doc, engine.schemas.register_schema),
            "crosswalk": (documents.crosswalk_from_doc, engine.crosswalks.register_crosswalk),
            "operation": (documents.operation_from_doc, engine.operations.register_operation),
            "fdo": (documents.fdo_from_doc, engine.fdos.register_fdo),
        }[kind]
        register(parse(json.loads(text), pm))


def _replay(imports: list[tuple[str, str]]):
    engine = build_weight_fixture().engine
    for kind, text in imports:
        _register(engine, kind, text)
    return engine


def _records(engine) -> tuple:
    return (
        engine.terminology.terms(),
        sorted(engine.terminology.mapping_rows(), key=lambda m: m.id),
        engine.schemas.schemas(),
        [(cw, cw.level) for cw in engine.crosswalks.crosswalks()],
        engine.operations.operations(),
        engine.fdos.records(),
    )


class StoreModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._dir = tempfile.TemporaryDirectory()
        self.scratch = Path(self._dir.name)
        self.root = self.scratch / "store"
        self.mirror = build_weight_fixture().engine
        export_store(self.mirror, self.root)
        # the imports the CLI accepted, in order, to rebuild the mirror from
        self.imported: list[tuple[str, str]] = []
        self.last_import: list[str] | None = None
        # the first document of each kind: obi:weight-schema, ex:weight-crosswalk,
        # urn:operation:convert-unit and ex:fdo-apple-weight
        self.held_docs = {
            kind: json.loads(min((self.root / f"{kind}s").glob("*.json")).read_text()) for kind in DOCUMENT_KINDS
        }
        pm = self.mirror.prefix_map
        self.held_terms = {id: documents.term_to_doc(self.mirror.terminology.term(id), pm) for id in HELD_TERMS}
        self.files = 0

    def teardown(self):
        self._dir.cleanup()

    def cli(self, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["--store", str(self.root), *argv])

    def import_file(self, kind: str, text: str) -> None:
        self.files += 1
        file = self.scratch / f"input-{self.files}"
        file.write_text(text, encoding="utf-8")
        before = tree_bytes(self.root)
        code = self.cli("import", kind, str(file))
        try:
            _register(self.mirror, kind, text)
        except SemintError:
            # the CLI refuses the file and writes nothing
            assert code == 1
            assert tree_bytes(self.root) == before
            self.mirror = _replay(self.imported)
        else:
            assert code == 0
            self.imported.append((kind, text))
        self.last_import = ["import", kind, str(file)]

    def term_doc(self, id: str, variant: int) -> dict:
        if id in HELD_TERMS:
            doc = dict(self.held_terms[id])
        else:
            doc = {"id": id, "labels": {"en": f"{id}\u2028line", "de": "Zeile\u2029"}, "synonyms": ["a\x85b"]}
        if variant:
            doc["definition"] = "another\u2028definition"
        return doc

    @rule(lines=st.lists(st.tuples(st.sampled_from(HELD_TERMS + NEW_TERMS), variants), min_size=1, max_size=4))
    def import_terms(self, lines):
        # json.dumps escapes every break in the file; the store must too
        self.import_file("terms", "".join(json.dumps(self.term_doc(id, v)) + "\n" for id, v in lines))

    @rule(
        rows=st.lists(
            st.tuples(
                st.sampled_from(MAPPING_ENDS),
                st.sampled_from(MAPPING_PREDICATES),
                st.sampled_from(MAPPING_ENDS),
                st.sampled_from(["manual-curation", "lexical"]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def import_mappings(self, rows):
        header = "subject_id\tpredicate_id\tobject_id\tmapping_justification\n"
        self.import_file("mappings", header + "".join("\t".join(row) + "\n" for row in rows))

    @rule(kind=st.sampled_from(sorted(DOCUMENT_KINDS)), pick=st.integers(0, 2), variant=variants)
    def import_document(self, kind, pick, variant):
        new, field = DOCUMENT_KINDS[kind]
        doc = dict(self.held_docs[kind])
        id_field = "gupri" if kind == "fdo" else "id"
        if pick:
            doc[id_field] = new[pick - 1]
            if kind == "operation":
                doc["kind"] = "external-reference"
            if kind == "crosswalk" and pick == 2:
                # to a copy of its source schema, unknown until a schema import adds it
                doc["target_schema"] = "ex:s0"
                doc["alignments"] = [{"source_slot": s, "target_slot": s} for s in ("object", "quality", "value", "unit")]
        if variant:
            doc[field] = {"justification": "another"} if field == "provenance" else f"{doc[field]} (another)"
        self.import_file(kind, documents.render(doc))

    @rule()
    def export(self):
        assert self.cli("export") == 0

    @invariant()
    def store_is_canonical_and_holds_the_mirror(self):
        loaded = load_store(self.root)
        fresh = self.scratch / "fresh"
        export_store(loaded, fresh)
        assert tree_bytes(self.root) == tree_bytes(fresh)
        assert _records(loaded) == _records(self.mirror)
        shutil.rmtree(fresh)

    @invariant()
    def repeated_import_writes_nothing(self):
        if self.last_import is not None:
            before = tree_bytes(self.root)
            self.cli(*self.last_import)
            assert tree_bytes(self.root) == before


TestStoreModel = StoreModel.TestCase
TestStoreModel.settings = settings(max_examples=25, stateful_step_count=8, deadline=None)
