from __future__ import annotations

import email.utils
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace
from pathlib import Path
from urllib.parse import quote, urlencode, urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semint import export_store, load_store
from semint.cli import main
from semint import documents
from semint.documents import instance_to_doc, render
from semint import service
from semint.service import make_server

from conftest import build_weight_fixture
from test_documents import VALID, _paths, _replaced, json_values
from test_store import populated_fixture


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One exported store, served over HTTP and reachable for CLI runs."""
    root = tmp_path_factory.mktemp("served") / "store"
    fx = populated_fixture()
    export_store(fx.engine, root)
    engine = load_store(root)
    server = make_server(engine, "127.0.0.1:0")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield {"base": f"http://{host}:{port}", "store": root, "fixture": fx}
    server.shutdown()
    server.server_close()


def http_get(base: str, path: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(base + path) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def http_post(base: str, path: str, doc) -> tuple[int, bytes]:
    body = render(doc).encode()
    request = urllib.request.Request(
        base + path, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def cli_bytes(store: Path, *argv: str, capsys) -> bytes:
    code = main(["--store", str(store), *argv])
    out = capsys.readouterr().out
    assert code == 0
    return out.encode()


# ---------------------------------------------------------------------------
# reads


def test_get_term(served):
    status, body = http_get(served["base"], "/terms/" + quote("pato:weight", safe=""))
    assert status == 200
    assert json.loads(body)["id"] == "pato:weight"


def test_get_term_unknown_404(served):
    status, body = http_get(served["base"], "/terms/" + quote("ex:ghost", safe=""))
    assert status == 404
    assert json.loads(body)["error"] == "unknown-term"


def test_get_interop_referential_pair(served):
    status, body = http_get(served["base"], "/interop?a=obi:weight-assay&b=oboe:weight-observation")
    assert status == 200
    assert json.loads(body)["level"] == "Referential"


def test_get_interop_bad_gupri_400(served):
    status, body = http_get(served["base"], "/interop?a=nope:thing&b=ex:apple")
    assert status == 400
    assert json.loads(body)["error"] == "invalid-gupri"


def test_get_schema(served):
    status, body = http_get(served["base"], "/schemas/" + quote("obi:weight-schema", safe=""))
    assert status == 200
    doc = json.loads(body)
    assert [s["slot_id"] for s in doc["slots"]] == ["object", "quality", "value", "unit"]


def test_get_mappings_filtered(served):
    status, body = http_get(served["base"], "/mappings?subject=pato:weight")
    assert status == 200
    docs = json.loads(body)
    assert any(d["predicate"] == "owl:sameAs" for d in docs)


def test_get_crosswalks_filtered(served):
    status, body = http_get(served["base"], "/crosswalks?source=obi:weight-schema")
    assert status == 200
    (doc,) = json.loads(body)
    assert doc["id"] == "ex:weight-crosswalk"


def test_get_operations(served):
    status, body = http_get(served["base"], "/operations?schema=obi:weight-schema")
    assert status == 200
    assert json.loads(body)["degree"] == 1


@pytest.mark.parametrize("value", ["1", "True", "yes"])
def test_get_operations_reachable_accepts_only_true_or_false(served, value):
    # reachable=1 must not quietly get the direct-only answer
    status, body = http_get(served["base"], f"/operations?schema=obi:weight-schema&reachable={value}")
    assert status == 400
    assert json.loads(body)["error"] == "malformed-content"
    plain = http_get(served["base"], "/operations?schema=obi:weight-schema")
    assert http_get(served["base"], "/operations?schema=obi:weight-schema&reachable=false") == plain
    status, _ = http_get(served["base"], "/operations?schema=obi:weight-schema&reachable=true")
    assert status == 200


def test_get_fdo_and_assessment(served):
    status, body = http_get(served["base"], "/fdos/" + quote("ex:fdo-apple-weight", safe=""))
    assert status == 200
    assert json.loads(body)["gupri"] == "ex:fdo-apple-weight"
    status, body = http_get(
        served["base"], "/fdos/" + quote("ex:fdo-apple-weight", safe="") + "/assessment"
    )
    assert status == 200
    assert json.loads(body)["score"] == 1.0


def test_get_fdo_unknown_404(served):
    status, body = http_get(served["base"], "/fdos/" + quote("ex:fdo-ghost", safe=""))
    assert status == 404


def test_fdo_provenance_keys_render_sorted(tmp_path):
    # one record registered through the API, one read from a store file,
    # each with its provenance keys out of order
    fx = build_weight_fixture(register_golden=False)
    pm = fx.engine.prefix_map
    provenance = {"b": "second", "a": "first"}
    fx.engine.fdos.register_fdo(replace(fx.golden, gupri=pm.gupri("ex:fdo-api"), provenance=provenance))
    root = tmp_path / "store"
    export_store(fx.engine, root)
    from_file = documents.fdo_to_doc(replace(fx.golden, gupri=pm.gupri("ex:fdo-file")), pm)
    (root / "fdos" / "by-hand.json").write_text(render({**from_file, "provenance": provenance}))

    def provenance_keys(store: Path) -> dict[str, list[str]]:
        docs = [json.loads(p.read_text()) for p in (store / "fdos").glob("*.json")]
        return {doc["gupri"]: list(doc["provenance"]) for doc in docs}

    assert provenance_keys(root) == {"ex:fdo-api": ["a", "b"], "ex:fdo-file": ["b", "a"]}
    engine = load_store(root)
    exported = tmp_path / "exported"
    export_store(engine, exported)
    assert provenance_keys(exported) == {"ex:fdo-api": ["a", "b"], "ex:fdo-file": ["a", "b"]}
    server = make_server(engine, "127.0.0.1:0")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        for gupri in ("ex:fdo-api", "ex:fdo-file"):
            status, body = http_get(f"http://{host}:{port}", "/fdos/" + quote(gupri, safe=""))
            assert status == 200
            assert list(json.loads(body)["provenance"]) == ["a", "b"], gupri
    finally:
        server.shutdown()
        server.server_close()


def test_get_find(served):
    status, body = http_get(served["base"], "/find?term=pato:weight&expand=referential")
    assert status == 200
    assert "ex:fdo-apple-weight-oboe" in json.loads(body)["results"]


def test_unknown_route_404(served):
    status, body = http_get(served["base"], "/nothing/here")
    assert status == 404


FDO_PATH = "/fdos/" + quote("ex:fdo-apple-weight", safe="")


@pytest.mark.parametrize(
    "path, unknown",
    [
        ("/interop?a=pato:weight&b=ncit:weight&min_confidenc=1.1", "min_confidenc"),
        ("/operations?schema=obi:weight-schema&reachabel=true", "reachabel"),
        ("/terms/" + quote("pato:weight", safe="") + "?lang=en", "lang"),
        ("/mappings?subject=pato:weight&predicate=skos:exactMatch", "predicate"),
        ("/interop?a=pato:weight&b=ncit:weight&min_confidenc=", "min_confidenc"),
        ("/schemas/" + quote("obi:weight-schema", safe="") + "?verbose=true", "verbose"),
        ("/crosswalks?source=obi:weight-schema&sorce=ex:x", "sorce"),
        ("/operations?schema=obi:weight-schema&reachabel", "reachabel"),
        ("/find?term=pato:weight&expnd=referential", "expnd"),
        (FDO_PATH + "?format=json", "format"),
        (FDO_PATH + "/assessment?min_confidence=0.5", "min_confidence"),
    ],
)
def test_get_unknown_query_parameter_400(served, path, unknown):
    status, body = http_get(served["base"], path)
    assert status == 400
    doc = json.loads(body)
    assert doc["error"] == "malformed-content"
    assert repr(unknown) in doc["message"]


def test_get_known_query_parameter_with_blank_value_stays_unset(served):
    blank = http_get(served["base"], "/find?term=pato:weight&expand=referential&statement_type=&category=")
    assert blank == http_get(served["base"], "/find?term=pato:weight&expand=referential")
    assert blank[0] == 200


def test_unknown_route_404_whatever_its_query(served):
    status, body = http_get(served["base"], "/nothing/here?bogus=1")
    assert (status, json.loads(body)["error"]) == (404, "unknown-route")


# ---------------------------------------------------------------------------
# writes


def test_post_transform_matches_api(served):
    fx = served["fixture"]
    pm = fx.engine.prefix_map
    status, body = http_post(
        served["base"],
        "/transform",
        {
            "instance": instance_to_doc(fx.instance, pm),
            "crosswalk": "ex:weight-crosswalk",
        },
    )
    assert status == 200
    expected = fx.engine.crosswalks.transform_instance(fx.instance, fx.crosswalk_id)
    assert body.decode() == render(instance_to_doc(expected, pm))
    status, body = http_post(
        served["base"],
        "/transform",
        {
            "instance": instance_to_doc(fx.instance, pm),
            "crosswalk": "ex:weight-crosswalk",
            "min_confidence": 1,
            "allow_referential": False,
        },
    )
    assert status == 200
    expected = fx.engine.crosswalks.transform_instance(
        fx.instance, fx.crosswalk_id, min_confidence=1.0, allow_referential=False
    )
    assert body.decode() == render(instance_to_doc(expected, pm))


def test_post_transform_of_an_instance_of_another_schema_422(served):
    fx = served["fixture"]
    transformed = fx.engine.crosswalks.transform_instance(fx.instance, fx.crosswalk_id)
    status, body = http_post(
        served["base"],
        "/transform",
        {"instance": instance_to_doc(transformed, fx.engine.prefix_map), "crosswalk": "ex:weight-crosswalk"},
    )
    assert status == 422
    assert json.loads(body)["error"] == "schema-mismatch"


def test_post_transform_domain_error_422():
    # a store whose reconciling mapping was deleted still serves, and the
    # transform fails with the machine-readable mapped-term error
    fx = build_weight_fixture(register_golden=False)
    fx.engine.terminology.remove_mapping(fx.weight_mapping_id)
    server = make_server(fx.engine, "127.0.0.1:0")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        status, body = http_post(
            f"http://{host}:{port}",
            "/transform",
            {
                "instance": instance_to_doc(fx.instance, fx.engine.prefix_map),
                "crosswalk": "ex:weight-crosswalk",
            },
        )
        assert status == 422
        assert json.loads(body)["error"] == "no-mapped-term"
    finally:
        server.shutdown()
        server.server_close()


def test_post_transform_malformed_400(served):
    status, body = http_post(served["base"], "/transform", {"instance": {"nope": True}})
    assert status == 400
    fx = served["fixture"]
    request = {
        "instance": instance_to_doc(fx.instance, fx.engine.prefix_map),
        "crosswalk": "ex:weight-crosswalk",
    }
    for field, value in [
        ("allow_referential", "false"),
        ("allow_referential", 0),
        ("min_confidence", True),
        ("min_confidence", "0.5"),
        ("min_confidence", "nan"),
    ]:
        status, body = http_post(served["base"], "/transform", {**request, field: value})
        assert status == 400, (field, value)
        assert json.loads(body)["error"] == "malformed-request", (field, value)


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_post_bad_content_length_400(served, length):
    # a raw request, since HTTP clients derive Content-Length from the body;
    # the timeout makes a server that waits for a body fail the test, not hang it
    host, port = served["base"][len("http://") :].split(":")
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(
            f"POST /assess HTTP/1.1\r\nHost: {host}\r\nContent-Length: {length}\r\n\r\n{{}}".encode()
        )
        reply = conn.makefile("rb")
        status = reply.readline().split()[1]
        headers = dict(line.decode().split(":", 1) for line in iter(reply.readline, b"\r\n"))
        body = reply.read(int(headers["Content-Length"]))
        assert reply.read() == b""  # the server closed the connection
    assert status == b"400"
    assert headers["Connection"].strip() == "close"
    assert json.loads(body)["error"] == "malformed-request"


def raw_reply(reply) -> tuple[bytes, dict, bytes]:
    """Status code, headers and body of one response read from a socket file."""
    status = reply.readline().split()[1]
    headers = dict(line.decode().split(":", 1) for line in iter(reply.readline, b"\r\n"))
    return status, headers, reply.read(int(headers["Content-Length"]))


def raw_exchange(served, data: bytes, *, closes: bool) -> tuple[bytes, dict, bytes]:
    """Send ``data`` on a new connection and read the first reply; with
    ``closes``, the server must then close the connection."""
    host, port = served["base"][len("http://") :].split(":")
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(data)
        reply = conn.makefile("rb")
        got = raw_reply(reply)
        if closes:
            assert reply.read() == b""
    return got


def test_post_body_over_cap_413(served):
    host, port = served["base"][len("http://") :].split(":")
    length = service.MAX_BODY_BYTES + 1
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(
            f"POST /assess HTTP/1.1\r\nHost: {host}\r\nContent-Length: {length}\r\n\r\n{{}}".encode()
        )
        reply = conn.makefile("rb")
        status, headers, body = raw_reply(reply)
        assert reply.read() == b""  # the server closed the connection
    assert status == b"413"
    assert headers["Connection"].strip() == "close"
    assert json.loads(body)["error"] == "payload-too-large"


def test_post_short_body_400_after_timeout(served, monkeypatch):
    monkeypatch.setattr(service, "BODY_TIMEOUT_S", 0.2)
    host, port = served["base"][len("http://") :].split(":")
    post = "POST /assess HTTP/1.1\r\nHost: {host}\r\nContent-Length: {length}\r\n\r\n{{}}"
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        reply = conn.makefile("rb")
        # a complete body, then an idle keep-alive connection outlasting the
        # body timeout, which must not apply to it
        conn.sendall(post.format(host=host, length=2).encode())
        assert raw_reply(reply)[0] == b"400"
        time.sleep(0.5)
        conn.sendall(post.format(host=host, length=100).encode())
        status, headers, body = raw_reply(reply)
        assert reply.read() == b""
    assert status == b"400"
    assert headers["Connection"].strip() == "close"
    assert json.loads(body)["error"] == "malformed-request"


def test_post_trickled_body_400_at_deadline(served, monkeypatch):
    # bytes arriving faster than the timeout do not extend it: it bounds the
    # whole body, not each read
    monkeypatch.setattr(service, "BODY_TIMEOUT_S", 0.2)
    host, port = served["base"][len("http://") :].split(":")
    stop = threading.Event()
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        reply = conn.makefile("rb")

        def trickle():
            try:
                for _ in range(19):
                    if stop.wait(0.1):
                        return
                    conn.sendall(b" ")
            except OSError:
                pass  # the server closed the connection

        conn.sendall(f"POST /assess HTTP/1.1\r\nHost: {host}\r\nContent-Length: 20\r\n\r\n".encode())
        start = time.monotonic()
        sender = threading.Thread(target=trickle)
        sender.start()
        status, _, body = raw_reply(reply)
        elapsed = time.monotonic() - start
        stop.set()
        sender.join()
    assert status == b"400"
    assert json.loads(body)["error"] == "malformed-request"
    # a per-read timeout of 0.2 s would not fire until the 19 bytes, 0.1 s
    # apart, had all arrived, after 1.9 s
    assert elapsed < 1.0


def test_idle_connections_closed_without_reply_at_deadline(served, monkeypatch):
    monkeypatch.setattr(service, "IDLE_TIMEOUT_S", 0.2)
    host, port = served["base"][len("http://") :].split(":")
    post = f"POST /assess HTTP/1.1\r\nHost: {host}\r\nContent-Length: 2\r\n\r\n{{}}".encode()
    with (
        socket.create_connection((host, int(port)), timeout=5) as silent,
        socket.create_connection((host, int(port)), timeout=5) as partial,
        socket.create_connection((host, int(port)), timeout=5) as kept,
    ):
        start = time.monotonic()
        partial.sendall(b"GET /terms/pato:wei")
        # a request with a body, after which the idle deadline holds again
        kept.sendall(post)
        reply = kept.makefile("rb")
        assert raw_reply(reply)[0] == b"400"
        assert silent.recv(1) == b""
        assert partial.recv(1) == b""
        assert reply.read() == b""
        elapsed = time.monotonic() - start
    assert elapsed < 2.0


@pytest.mark.parametrize("route", ["/assess", "/transform"])
def test_post_too_deep_json_400(served, route):
    request = urllib.request.Request(served["base"] + route, data=b"[" * 100_000, method="POST")
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(request)
    assert caught.value.code == 400
    assert json.loads(caught.value.read())["error"] == "malformed-json"


def test_post_assess_lone_surrogate_400(served):
    fx = served["fixture"]
    from semint.documents import fdo_to_doc

    doc = {**fdo_to_doc(fx.golden, fx.engine.prefix_map), "gupri": "urn:x:\ud800"}
    # json.dumps escapes the surrogate, as a client library would
    request = urllib.request.Request(served["base"] + "/assess", data=json.dumps(doc).encode(), method="POST")
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(request)
    assert caught.value.code == 400
    assert json.loads(caught.value.read())["error"] == "malformed-json"


def test_post_assess_record_body(served):
    fx = served["fixture"]
    pm = fx.engine.prefix_map
    from semint.documents import fdo_to_doc

    record = replace(fx.golden, certainty=None)
    status, body = http_post(served["base"], "/assess", fdo_to_doc(record, pm))
    assert status == 200
    doc = json.loads(body)
    statuses = {c["check"]: c["status"] for c in doc["checks"]}
    assert statuses["R1.4"] == "fail"


def test_post_assess_wrong_json_shape_400(served):
    fx = served["fixture"]
    from semint.documents import fdo_to_doc

    doc = {**fdo_to_doc(fx.golden, fx.engine.prefix_map), "authors": 5}
    status, body = http_post(served["base"], "/assess", doc)
    assert status == 400
    assert json.loads(body)["error"] == "malformed-content"


@pytest.mark.parametrize(
    "field,value",
    [("license", ["not", "a", "license"]), ("creator", {"x": 1}), ("logical_framework", 7), ("human_readable", 1)],
)
def test_post_assess_text_field_not_a_string_400(served, field, value):
    # such a record would pass R1.1, R1.2 and I5 on the value's repr
    fx = served["fixture"]
    from semint.documents import fdo_to_doc

    doc = {**fdo_to_doc(fx.golden, fx.engine.prefix_map), field: value}
    status, body = http_post(served["base"], "/assess", doc)
    assert status == 400
    assert json.loads(body) == {"error": "malformed-content", "message": f"fdo document: bad {field} {value!r}"}


def test_post_bad_json_400(served):
    request = urllib.request.Request(
        served["base"] + "/assess", data=b"{broken", method="POST"
    )
    try:
        with urllib.request.urlopen(request) as response:
            status = response.status
    except urllib.error.HTTPError as exc:
        status = exc.code
    assert status == 400


def test_make_server_bad_bind():
    from semint.errors import BindFailure

    fx = build_weight_fixture(register_golden=False)
    with pytest.raises(BindFailure):
        make_server(fx.engine, "127.0.0.1:notaport")


def test_make_server_port_in_use(served):
    from semint.errors import BindFailure

    fx = build_weight_fixture(register_golden=False)
    port = served["base"].rsplit(":", 1)[1]
    with pytest.raises(BindFailure):
        make_server(fx.engine, f"127.0.0.1:{port}")


def test_concurrent_requests_identical_payloads(served):
    results: list[bytes] = []
    errors: list[Exception] = []

    def worker():
        try:
            status, body = http_get(served["base"], "/interop?a=pato:weight&b=ncit:weight")
            assert status == 200
            results.append(body)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(set(results)) == 1


def test_interop_min_confidence_param(served):
    for accepted in ("0.5", "0", "1"):
        status, body = http_get(
            served["base"], f"/interop?a=pato:weight&b=ncit:weight&min_confidence={accepted}"
        )
        assert status == 200
        assert json.loads(body)["level"] == "Ontological"
    for rejected in ("not-a-number", "nan", "2", "-0.1"):
        for b in ("ncit:weight", "pato:weight"):
            status, body = http_get(
                served["base"], f"/interop?a=pato:weight&b={b}&min_confidence={rejected}"
            )
            assert status == 400, (rejected, b)
            assert json.loads(body)["error"] == "malformed-content"
    fx = served["fixture"]
    # NaN goes out as the JSON literal NaN, which the facade's parser accepts
    for rejected in (float("nan"), 2, -0.1):
        status, body = http_post(
            served["base"],
            "/transform",
            {
                "instance": instance_to_doc(fx.instance, fx.engine.prefix_map),
                "crosswalk": "ex:weight-crosswalk",
                "min_confidence": rejected,
            },
        )
        assert status == 400, rejected
        assert json.loads(body)["error"] == "malformed-content"


# ---------------------------------------------------------------------------
# each reply is one write


class _WriteCounting(service._Handler):
    """Records the size of each ``wfile.write`` call, one list per connection."""

    def setup(self):
        super().setup()
        self.server.writes.append(writes := [])
        write = self.wfile.write

        def counted(data):
            writes.append(len(data))
            return write(data)

        self.wfile.write = counted


@pytest.fixture(scope="module")
def write_counted(served):
    """A second server over the same store whose handlers count their writes."""
    server = make_server(load_store(served["store"]), "127.0.0.1:0")
    server.RequestHandlerClass = _WriteCounting
    server.writes = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def test_each_reply_is_one_write(served, write_counted):
    # a head and a body written apart would leave the body to Nagle's
    # algorithm, which holds it until the client's delayed ACK
    fx = served["fixture"]
    transform = {"instance": instance_to_doc(fx.instance, fx.engine.prefix_map), "crosswalk": "ex:weight-crosswalk"}
    host, port = write_counted.server_address[:2]
    cases = [
        ("GET", "/terms/pato:weight", b"", None, b"200"),
        ("POST", "/transform", render(transform).encode(), None, b"200"),
        ("GET", "/terms/ex:ghost", b"", None, b"404"),
        ("POST", "/assess", b"{}", service.MAX_BODY_BYTES + 1, b"413"),
        ("PUT", "/terms/pato:weight", b"", None, b"501"),
        ("POST", "/assess", b"{}", None, b"400", "Content-Length : 2\r\n"),
    ]
    for method, path, body, length, status, *extra in cases:
        length = len(body) if length is None else length
        head = f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n{''.join(extra)}Connection: close\r\nContent-Length: {length}\r\n\r\n"
        with socket.create_connection((host, port), timeout=5) as conn:
            conn.sendall(head.encode() + body)
            received = conn.makefile("rb").read()  # until the server closes
        assert received.split()[1] == status, (method, path)
        assert write_counted.writes[-1] == [len(received)], (method, path)


def test_keep_alive_replies_are_not_held_back(served):
    # at about 40 ms a reply, a stall between head and body takes 0.8 s here
    url = urlsplit(served["base"])
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        start = time.monotonic()
        for _ in range(20):
            conn.request("GET", "/terms/" + quote("pato:weight", safe=""))
            reply = conn.getresponse()
            assert reply.status == 200
            reply.read()
        elapsed = time.monotonic() - start
    finally:
        conn.close()
    assert elapsed < 0.4


#: A head refused for its header lines: the lines after a bad one, here the
#: body's length and the close, must not be dropped.
_BAD_LINE = "POST /assess HTTP/1.1\r\nX-Before: 1\r\n{}\r\nContent-Length: 2\r\nConnection: close"
_NO_CODING = "Transfer-Encoding is not supported; send Content-Length"


@pytest.mark.parametrize(
    "head,status,tag,message",
    [
        ("PUT /terms/pato:weight HTTP/1.1", b"501", "unsupported-method", None),
        ("GET /" + "a" * 70_000 + " HTTP/1.1", b"414", "malformed-request", None),
        ("GET /terms/pato:weight HTTP/1.1" + "\r\nX: y" * 101, b"431", "malformed-request", None),
        (
            "GET /terms/pato:weight HTTP/1.1\r\nX: " + "y" * 65_536,
            b"431",
            "malformed-request",
            "Line too long: got more than 65536 bytes when reading header line",
        ),
        # not HTTP/0.9, though the stdlib refuses the version before it takes it
        ("GET /terms/pato:weight FOO/1", b"400", "malformed-request", None),
        ("GET /terms/pato:weight now FOO/1", b"400", "malformed-request", None),
        # the facade reads only bodies framed by Content-Length: a chunked body
        # taken as empty would leave its chunks to be read as the next request
        ("POST /assess HTTP/1.1\r\nTransfer-Encoding: chunked", b"400", "malformed-request", _NO_CODING),
        ("POST /assess HTTP/1.1\r\nTransfer-Encoding: identity", b"400", "malformed-request", _NO_CODING),
        # the first value would leave the rest of the connection read from inside the body
        (
            "POST /assess HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 30",
            b"400",
            "malformed-request",
            "Conflicting Content-Length values",
        ),
        *[
            (_BAD_LINE.format(line), b"400", "malformed-request", f"Bad header line ({line!r})")
            for line in ("bogus line", ": no-name", "Content-Length : 2", " folded", "\tfolded")
        ],
    ],
    ids=[
        "PUT", "long-request-line", "too-many-headers", "long-header-line", "bad-version", "four-words-bad-version",
        "transfer-encoding-chunked", "transfer-encoding-identity", "conflicting-content-lengths",
        "no-colon", "empty-name", "space-before-colon", "fold-space", "fold-tab",
    ],
)
def test_stdlib_errors_are_tagged_json(served, head, status, tag, message):
    host = served["base"][len("http://") :].split(":")[0]
    got, headers, body = raw_exchange(served, f"{head}\r\nHost: {host}\r\n\r\n".encode(), closes=True)
    assert got == status
    assert headers["Connection"].strip() == "close"
    assert headers["Content-Type"].strip() == "application/json; charset=utf-8"
    doc = json.loads(body)
    assert doc["error"] == tag
    if message is not None:
        assert doc["message"] == message


def test_head_is_unsupported_and_carries_no_body(served):
    host, port = served["base"][len("http://") :].split(":")
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(f"HEAD /terms/pato:weight HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
        reply = conn.makefile("rb")
        status = reply.readline().split()[1]
        headers = dict(line.decode().split(":", 1) for line in iter(reply.readline, b"\r\n"))
        assert reply.read() == b""
    assert status == b"501"
    assert headers["Connection"].strip() == "close"
    assert int(headers["Content-Length"]) > 0  # the length a GET of the reply would carry


def test_unsupported_http_version_is_tagged_json(served):
    # the stdlib refuses the version before the request takes it, yet a
    # three-word request line is no HTTP/0.9 request: the reply has a status line
    host, port = served["base"][len("http://") :].split(":")
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(b"GET /terms/pato:weight HTTP/9.9\r\n\r\n")
        reply = conn.makefile("rb")
        status, headers, body = raw_reply(reply)
        assert reply.read() == b""
    assert status == b"505"
    assert headers["Connection"].strip() == "close"
    assert json.loads(body) == {"error": "malformed-request", "message": "Invalid HTTP version (9.9)"}


@pytest.mark.parametrize(
    "line,field,value",
    [("GET /terms/pato:weight", "id", "pato:weight"), ("POST /assess", "error", "malformed-request")],
    ids=["GET", "POST"],
)
def test_http09_request_gets_the_bare_body(served, line, field, value):
    # a two-word request line is HTTP/0.9, whose replies have no status line or headers
    host, port = served["base"][len("http://") :].split(":")
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(f"{line}\r\n\r\n".encode())
        body = json.loads(conn.makefile("rb").read())
    assert body[field] == value


# ---------------------------------------------------------------------------
# the request head


def test_repeated_equal_content_length_accepted(served):
    # a repeat of the same value frames the body as one would
    post = b"POST /transform HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\n{}"
    status, _, body = raw_exchange(served, post, closes=False)
    assert status == b"400"
    assert json.loads(body) == {"error": "malformed-request", "message": "transform needs instance and crosswalk"}


def test_long_blank_run_in_a_header_value_is_read_promptly(served):
    # blanks that end before the value does must not make the parse
    # backtrack: a quadratic read of this line holds the GIL for some 20 s,
    # which in one process also stalls this client's socket timeout
    head = "GET /terms/pato:weight HTTP/1.1\r\nX: a" + " " * 65_000 + "b\r\n\r\n"
    start = time.monotonic()
    status, _, body = raw_exchange(served, head.encode(), closes=False)
    assert time.monotonic() - start < 2
    assert status == b"200"
    assert json.loads(body)["id"] == "pato:weight"


def test_expect_100_continue_then_reply(served):
    fx = served["fixture"]
    body = render(documents.fdo_to_doc(fx.golden, fx.engine.prefix_map)).encode()
    host, port = served["base"][len("http://") :].split(":")
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(f"POST /assess HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: {len(body)}\r\n\r\n".encode())
        reply = conn.makefile("rb")
        assert reply.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert reply.readline() == b"\r\n"
        conn.sendall(body)
        status, _, answer = raw_reply(reply)
    assert status == b"200"
    assert "checks" in json.loads(answer)


@pytest.mark.parametrize(
    "length,status",
    [(str(service.MAX_BODY_BYTES + 1), b"413"), ("abc", b"400"), ("1" * 5_000, b"413")],
    ids=["over-cap", "no-number", "more-digits-than-int-reads"],
)
def test_expect_100_continue_not_sent_for_a_refused_length(served, length, status):
    # the client is invited to send only a body the facade reads
    head = f"POST /assess HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: {length}\r\n\r\n"
    got, _, body = raw_exchange(served, head.encode(), closes=True)
    assert (got, json.loads(body)["error"]) == (status, "payload-too-large" if status == b"413" else "malformed-request")


def test_http10_request_answered_and_closed(served):
    status, headers, body = raw_exchange(served, b"GET /terms/pato:weight HTTP/1.0\r\n\r\n", closes=True)
    assert status == b"200"
    assert json.loads(body)["id"] == "pato:weight"


def test_lower_case_names_and_bare_line_feeds_accepted(served):
    fx = served["fixture"]
    transform = {"instance": instance_to_doc(fx.instance, fx.engine.prefix_map), "crosswalk": "ex:weight-crosswalk"}
    body = render(transform).encode()
    head = f"POST /transform HTTP/1.1\nhost: x\ncontent-type: application/json\ncontent-length: {len(body)}\n\n"
    status, _, answer = raw_exchange(served, head.encode() + body, closes=False)
    assert status == b"200"
    assert answer == http_post(served["base"], "/transform", transform)[1]


def test_double_slash_path_collapses(served):
    assert http_get(served["base"], "//terms/pato:weight") == http_get(served["base"], "/terms/pato:weight")


@pytest.mark.parametrize(
    "request_head,names",
    [
        (b"GET /terms/pato:weight HTTP/1.1\r\n\r\n", ["Server", "Date", "Content-Type", "Content-Length"]),
        (b"GET /terms/pato:weight FOO/1\r\n\r\n", ["Server", "Date", "Connection", "Content-Type", "Content-Length"]),
    ],
    ids=["ok", "refused"],
)
def test_reply_head_fields_and_date(served, request_head, names):
    host, port = served["base"][len("http://") :].split(":")
    with socket.create_connection((host, int(port)), timeout=5) as conn:
        conn.sendall(request_head)
        lines = list(iter(conn.makefile("rb").readline, b"\r\n"))
        now = time.time()
    fields = dict(line.decode().rstrip("\r\n").split(": ", 1) for line in lines[1:])
    assert list(fields) == names
    assert fields["Server"] == f"{service._Handler.server_version} {service._Handler.sys_version}"
    # an IMF-fixdate of this second or the last
    assert fields["Date"] in {email.utils.formatdate(now + delta, usegmt=True) for delta in (-1, 0)}


def test_stdlib_header_parse_is_off_the_request_path(served, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("http.client.parse_headers called")

    monkeypatch.setattr(http.client, "parse_headers", refuse)
    status, headers, body = raw_exchange(
        served, b"GET /terms/pato:weight HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n", closes=False
    )
    assert status == b"200"
    assert json.loads(body)["id"] == "pato:weight"


# ---------------------------------------------------------------------------
# CLI and facade parity


def test_cli_and_service_payloads_byte_identical(served, capsys):
    base, store = served["base"], served["store"]
    comparisons = [
        (("interop", "pato:weight", "ncit:weight"), "/interop?a=pato:weight&b=ncit:weight"),
        (
            ("interop", "obi:weight-assay", "oboe:weight-observation"),
            "/interop?a=obi:weight-assay&b=oboe:weight-observation",
        ),
        (
            ("find", "--term", "pato:weight", "--expand", "referential"),
            "/find?term=pato:weight&expand=referential",
        ),
        (("assess", "ex:fdo-apple-weight"), "/fdos/" + quote("ex:fdo-apple-weight", safe="") + "/assessment"),
        (
            ("ops", "applicable", "obi:weight-schema"),
            "/operations?schema=obi:weight-schema",
        ),
    ]
    for argv, path in comparisons:
        status, body = http_get(base, path)
        assert status == 200
        assert body == cli_bytes(store, *argv, capsys=capsys), (argv, path)


# ---------------------------------------------------------------------------
# no facade request gets a 5xx reply

GET_ROUTES = ["/terms/", "/mappings", "/interop", "/schemas/", "/crosswalks", "/operations", "/find", "/fdos/", "/"]
QUERY_KEYS = [
    "a", "b", "min_confidence", "subject", "object", "source", "target", "schema", "reachable",
    "term", "expand", "statement_type", "category",
]  # fmt: skip
query_values = st.text(max_size=12) | st.sampled_from(
    ["pato:weight", "ncit:weight", "ex:ghost", "true", "0.5", "nan", "referential", "measurement"]
)
VALID_POSTS = [
    *VALID["fdo_from_doc"],
    {
        "instance": VALID["instance_from_doc"][0],
        "crosswalk": VALID["crosswalk_from_doc"][0]["id"],
        "min_confidence": 0.5,
        "allow_referential": True,
    },
]
post_bodies = (
    st.binary(max_size=64)
    | json_values.map(lambda v: json.dumps(v).encode())
    # a valid request with one value, at any depth, replaced by arbitrary JSON
    | st.sampled_from(VALID_POSTS)
    .flatmap(lambda doc: st.tuples(st.just(doc), st.sampled_from(list(_paths(doc))), json_values))
    .map(lambda drawn: json.dumps(_replaced(*drawn)).encode())
)


def facade_request(base: str, method: str, path: str, body: bytes | None = None) -> None:
    """Send one request; the reply must not be a 5xx, and a 4xx must be tagged."""
    url = urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        conn.request(method, path, body=body)
        reply = conn.getresponse()
        status, data = reply.status, reply.read()
    finally:
        conn.close()
    assert status < 500, (method, path, body, data)
    if status >= 400:
        assert set(json.loads(data)) == {"error", "message"}


@settings(deadline=None, max_examples=60)
@given(
    route=st.sampled_from(GET_ROUTES),
    text=st.text(max_size=16),
    suffix=st.sampled_from(["", "/assessment"]),
    query=st.dictionaries(st.sampled_from(QUERY_KEYS), query_values, max_size=4),
)
def test_facade_get_never_5xx(served, route, text, suffix, query):
    facade_request(served["base"], "GET", route + quote(text, safe="") + suffix + "?" + urlencode(query))


@settings(deadline=None, max_examples=80)
@given(route=st.sampled_from(["/assess", "/transform"]), body=post_bodies)
@example(route="/assess", body=b"[" * 100_000)
@example(route="/transform", body=b"[" * 100_000)
@example(route="/assess", body=json.dumps({**VALID["fdo_from_doc"][0], "gupri": "urn:x:\ud800"}).encode())
def test_facade_post_never_5xx(served, route, body):
    facade_request(served["base"], "POST", route, body)
