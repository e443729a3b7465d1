from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import documents
from semint.errors import MalformedContent, SemintError

from test_store import populated_fixture

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from(["ex:a", "resource", "literal", "decimal", "collection"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)


def _valid_documents():
    """One well-formed document per parser, rendered from the weight fixture."""
    fx = populated_fixture()
    e, pm = fx.engine, fx.engine.prefix_map
    instance = documents.instance_to_doc(fx.instance, pm)
    collection = documents.fdo_to_doc(fx.golden, pm)
    collection["content"] = {"kind": "collection", "instances": [instance, instance]}
    return {
        "term_from_doc": [documents.term_to_doc(e.terminology.terms()[0], pm)],
        "schema_from_doc": [documents.schema_to_doc(e.schemas.schema(fx.obi_schema), pm)],
        "fill_from_doc": list(instance["fills"].values()),
        "instance_from_doc": [instance],
        "crosswalk_from_doc": [documents.crosswalk_to_doc(e.crosswalks.crosswalk(fx.crosswalk_id), pm)],
        "operation_from_doc": [documents.operation_to_doc(op, pm) for op in e.operations.operations()],
        "fdo_from_doc": [documents.fdo_to_doc(fx.golden, pm), collection],
    }, pm


VALID, PM = _valid_documents()


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("parser", sorted(VALID))
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_parsers_raise_only_domain_errors(parser, data):
    # a valid document with one value, at any depth, replaced by arbitrary JSON
    doc = data.draw(st.sampled_from(VALID[parser]))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    mutated = _replaced(doc, path, data.draw(json_values))
    try:
        getattr(documents, parser)(mutated, PM)
    except SemintError:
        pass


# (parser, field path, a wrong value): fields that are kept as text, never coerced with str()
TEXT_ONLY_FIELDS = {
    "slot-slot_id": ("schema_from_doc", ("slots", 0, "slot_id"), 7),
    "slot-role": ("schema_from_doc", ("slots", 0, "role"), ["x", 1]),
    "alignment-source_slot": ("crosswalk_from_doc", ("alignments", 0, "source_slot"), None),
    "alignment-target_slot": ("crosswalk_from_doc", ("alignments", 0, "target_slot"), {"a": 1}),
    "instance-provenance": ("instance_from_doc", ("provenance",), {"a": 1}),
    "literal-fill-value": ("instance_from_doc", ("fills", "value", "value"), 7),
    "literal-fill-value-bool": ("instance_from_doc", ("fills", "value", "value"), True),
    "resource-fill-value": ("instance_from_doc", ("fills", "quality", "value"), {"x": 1}),
    "resource-fill-asserted_class": ("instance_from_doc", ("fills", "quality", "asserted_class"), False),
    "fdo-data_identifier": ("fdo_from_doc", ("data_identifier",), 0),
    "param-name": ("operation_from_doc", ("params", 0, "name"), {"x": 1}),
}


@pytest.mark.parametrize("parser,path,wrong", TEXT_ONLY_FIELDS.values(), ids=TEXT_ONLY_FIELDS)
def test_text_only_fields_reject_other_json(parser, path, wrong):
    doc = _replaced(VALID[parser][0], path, wrong)
    with pytest.raises(MalformedContent, match=f"bad {path[-1]}"):
        getattr(documents, parser)(doc, PM)


def test_instance_provenance_is_text_or_none():
    doc = VALID["instance_from_doc"][0]
    assert documents.instance_from_doc(doc, PM).provenance == doc["provenance"]
    assert documents.instance_from_doc(_replaced(doc, ("provenance",), None), PM).provenance is None
    missing = {key: value for key, value in doc.items() if key != "provenance"}
    assert documents.instance_from_doc(missing, PM).provenance is None


def test_empty_identifier_fields_are_absent():
    fill = {"kind": "resource", "value": "ex:a"}
    record = VALID["fdo_from_doc"][0]
    assert documents.fdo_from_doc(record, PM).data_identifier is not None
    for absent in ("", None):
        assert documents.fill_from_doc({**fill, "asserted_class": absent}, PM).asserted_class is None
        assert documents.fdo_from_doc({**record, "data_identifier": absent}, PM).data_identifier is None
