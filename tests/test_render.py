"""The canonical renderer: byte-for-byte ``json.dumps(obj, indent=2,
ensure_ascii=False)`` plus a newline, for any value, on every surface.

The benchmark's checks build their expected bodies with ``documents.render``
itself, so they cannot see the renderer drift; these tests can."""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
from enum import Enum, IntEnum
from pathlib import Path
from urllib.parse import quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import documents, export_store, load_store
from semint.cli import main
from semint.service import make_server

from test_cli import _commands
from test_store import populated_fixture, tree_bytes


def expected(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


class Color(str, Enum):
    RED = "red"
    LINE = "a b"


class Rank(IntEnum):
    LOW = 1
    HIGH = 2**70


texts = st.text(max_size=6) | st.sampled_from(
    ["", "\x00\x1f\x7f", '"\\/', "\x85", "  ", "\ud800", "x\udcffy", "\U0001f600", "é"]
)
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 1e16, 1e-7, 1.5e300, 5e-324, 0.1 + 0.2]
)
integers = st.integers() | st.sampled_from([2**64, -(2**64) - 1, 10**40])
scalars = (
    st.none()
    | st.booleans()
    | integers
    | floats
    | texts
    | st.sampled_from([Color.RED, Color.LINE, Rank.LOW, Rank.HIGH])
)
keys = texts | integers | floats | st.booleans() | st.none() | st.sampled_from([Color.RED, Rank.LOW])
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(texts, inner, max_size=4)
    | st.dictionaries(keys, inner, max_size=3),
    max_leaves=20,
)


@settings(deadline=None, max_examples=500)
@given(values)
def test_render_is_json_dumps_with_indent_2(value):
    assert documents.render(value) == expected(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        "",
        0,
        None,
        True,
        [[]],
        {"a": {}},
        {"a": [{"b": [1, 2.5, None]}, (), {"c": ("x", False)}]},
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 1e-7, 2**64, -(2**70)],
        {"\x00\t\n\x1f": "\x85  ", "k": "𐏿\udc00", "e": "ü\U0001f600"},
        {1: "int", 2.5: "float", True: "bool", None: "none", "s": "str"},
        {Color.RED: Color.LINE, "rank": [Rank.LOW, Rank.HIGH]},
        # nested past any fixed table of indents
        json.loads("[" * 150 + "]" * 150),
    ],
    ids=repr,
)
def test_render_edge_cases(value):
    assert documents.render(value) == expected(value)


class Opaque:
    pass


@pytest.mark.parametrize("value", [{"a": Opaque()}, {("a", "b"): 1}, [b"bytes"], {"a": {1, 2}}])
def test_unencodable_values_raise_what_json_raises(value):
    with pytest.raises(Exception) as reference:
        json.dumps(value, indent=2, ensure_ascii=False)
    with pytest.raises(type(reference.value)):
        documents.render(value)


def test_circular_values_raise_what_json_raises():
    circular_list: list = []
    circular_list.append(circular_list)
    circular_dict: dict = {}
    circular_dict["self"] = [circular_dict]
    for value in (circular_list, circular_dict):
        with pytest.raises(Exception) as reference:
            json.dumps(value, indent=2, ensure_ascii=False)
        with pytest.raises(type(reference.value)):
            documents.render(value)


# ---------------------------------------------------------------------------
# every byte the weight fixture's facade, CLI and store produce, pinned

#: SHA-256 over the replies, outputs and files below, computed with the
#: stdlib's ``json.dumps(obj, indent=2, ensure_ascii=False)`` as the renderer
PINNED_SHA256 = "2b1d93fc8c2176008c9499ba159c84d93adb339b6b961ce1e452e2ecf65a6f4b"


def _facade_replies(root: Path) -> list[tuple[str, bytes]]:
    fx = populated_fixture()
    pm = fx.engine.prefix_map
    instance = documents.instance_to_doc(fx.instance, pm)
    record = documents.fdo_to_doc(fx.golden, pm)
    get = [
        "/terms/" + quote("pato:weight", safe=""),
        "/terms/" + quote("ex:ghost", safe=""),
        "/mappings",
        "/mappings?subject=pato:weight",
        "/mappings?subject=pato:weight&object=ncit:weight",
        "/interop?a=pato:weight&b=ncit:weight",
        "/interop?a=obi:weight-assay&b=oboe:weight-observation",
        "/interop?a=pato:weight&b=ncit:weight&min_confidence=0.5",
        "/interop?a=pato:weight",
        "/schemas/" + quote("obi:weight-schema", safe=""),
        "/crosswalks",
        "/crosswalks?source=obi:weight-schema",
        "/operations?schema=obi:weight-schema",
        "/operations?schema=obi:weight-schema&reachable=true",
        "/find?term=pato:weight&expand=referential",
        "/find?category=measurement",
        "/fdos/" + quote("ex:fdo-apple-weight", safe=""),
        "/fdos/" + quote("ex:fdo-apple-weight", safe="") + "/assessment",
        "/fdos/" + quote("ex:fdo-apple-weight-oboe", safe="") + "/assessment",
        "/nowhere",
    ]
    post = [
        ("/transform", {"instance": instance, "crosswalk": "ex:weight-crosswalk"}),
        ("/transform", {"instance": instance, "crosswalk": "ex:weight-crosswalk", "min_confidence": 0.99}),
        ("/assess", record),
        ("/assess", {"gupri": "ex:x"}),
    ]
    server = make_server(load_store(root), "127.0.0.1:0")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    replies = []
    try:
        for method, path, body in [("GET", p, None) for p in get] + [
            ("POST", p, documents.render(doc).encode()) for p, doc in post
        ]:
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request(method, path, body=body)
                reply = conn.getresponse()
                replies.append((f"{method} {path} {reply.status}", reply.read()))
            finally:
                conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    return replies


def _cli_outputs(root: Path, tmp_path: Path, capsys) -> list[tuple[str, bytes]]:
    no_records, records = _commands(root, tmp_path)
    extra = {
        "interop-filtered": ["interop", "pato:weight", "ncit:weight", "--min-confidence", "0.5"],
        "crosswalk-classify": ["crosswalk", "classify", "ex:weight-crosswalk"],
        "crosswalk-invert": ["crosswalk", "invert", "ex:weight-crosswalk"],
        "find-referential": ["find", "--term", "pato:weight", "--expand", "referential"],
        "plan-hub": ["plan", "--strategy", "hub=obi:weight-schema", "obi:weight-schema", "oboe:weight-schema"],
        "assess-unknown": ["assess", "ex:ghost"],
        "interop-bad": ["interop", "pato:weight", "nope:x"],
    }
    outputs = []
    for name, argv in [*no_records.items(), *records.items(), *extra.items()]:
        code = main(["--store", str(root), *argv])
        captured = capsys.readouterr()
        text = f"{code}\n{captured.out}\n{captured.err}".replace(str(tmp_path), "<tmp>")
        outputs.append((name, text.encode("utf-8")))
    return outputs


def test_weight_fixture_bytes_are_pinned(tmp_path, capsys):
    fx = populated_fixture()
    root = tmp_path / "store"
    export_store(fx.engine, root)
    parts = [(f"file {name}", data) for name, data in tree_bytes(root).items()]
    parts += _facade_replies(root)
    parts += _cli_outputs(root, tmp_path, capsys)
    parts += [(f"exported {name}", data) for name, data in tree_bytes(root).items()]
    digest = hashlib.sha256()
    for label, data in parts:
        digest.update(f"{label}\x00{len(data)}\x00".encode())
        digest.update(data)
    assert digest.hexdigest() == PINNED_SHA256
