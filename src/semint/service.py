"""Read-mostly HTTP facade over a loaded engine.

Payloads are the same canonical document forms the store files and the CLI
use, so a facade response and the equivalent CLI output are byte-identical.
Reads run against the engine's immutable snapshots; the two compute endpoints
(transform, assess) do not mutate the store.
"""

from __future__ import annotations

import dataclasses
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, unquote, urlparse

from . import documents, store
from .engine import Engine
from .errors import BindFailure, MalformedContent, SemintError

__all__ = ["StoreServer", "make_server", "serve"]

#: Largest request body accepted, in bytes; far above any real instance or record.
MAX_BODY_BYTES = 1 << 20

#: Seconds a request body may take to arrive in full.
BODY_TIMEOUT_S = 5.0

#: Seconds a connection may wait on each read or write outside a body: an
#: idle keep-alive connection, or a request line or header that stops half
#: sent. When it runs out the connection is closed without a reply.
IDLE_TIMEOUT_S = 30.0


def _float_param(params: dict[str, str], key: str) -> float | None:
    if key not in params:
        return None
    try:
        return float(params[key])
    except ValueError:
        raise MalformedContent(f"{key} must be a number, got {params[key]!r}") from None


def _flag_param(params: dict[str, str], key: str) -> bool:
    """A query flag: absent or ``false`` is False, ``true`` is True, and any
    other text is rejected."""
    value = params.get(key, "false")
    if value not in ("true", "false"):
        raise MalformedContent(f"{key} must be true or false, got {value!r}")
    return value == "true"


class StoreServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], engine: Engine):
        super().__init__(address, _Handler)
        self.engine = engine


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    @property
    def timeout(self) -> float:
        """The socket timeout the stdlib sets on each connection; on expiry
        it drops the connection without a reply."""
        return IDLE_TIMEOUT_S

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # -- plumbing -------------------------------------------------------------

    @property
    def engine(self) -> Engine:
        return self.server.engine  # type: ignore[attr-defined]

    def _send(self, status: int, doc, *, close: bool = False) -> None:
        """Reply with ``doc`` as JSON in one write; ``close`` ends the connection.

        ``end_headers`` would write the buffered head on its own and the body
        in a second write, and the server's Nagle buffering (RFC 896) holds
        that second segment until the client's delayed ACK (RFC 1122
        4.2.3.2), about 40 ms later. So the blank line and the body join the
        head, and one flush writes them all."""
        body = documents.render(doc).encode("utf-8")
        self.send_response(status)
        if close:
            self.send_header("Connection", "close")
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if self.command == "HEAD":
            body = b""
        if self.request_version == "HTTP/0.9":  # a reply with no status line or headers
            self.wfile.write(body)
        else:
            self._headers_buffer += [b"\r\n", body]
            self.flush_headers()

    def _send_error(self, status: int, tag: str, message: str, *, close: bool = False) -> None:
        self._send(status, {"error": tag, "message": message}, close=close)

    def send_error(self, code, message=None, explain=None):
        """The stdlib's own errors (a bad request line, too many headers, an
        unsupported method) as tagged JSON, closing the connection as the
        stdlib does."""
        tag = "unsupported-method" if code == HTTPStatus.NOT_IMPLEMENTED else "malformed-request"
        text = message or self.responses[code][0]
        if explain:
            text = f"{text}: {explain}"
        if self.request_version == "HTTP/0.9" and len(self.requestline.split()) >= 3:
            # the stdlib refuses a bad version before it takes it, but a
            # request line of three words or more is no HTTP/0.9 request
            self.request_version = self.protocol_version
        self._send_error(code, tag, text, close=True)

    def _dispatch(self, handler) -> None:
        try:
            handler()
        except SemintError as exc:
            self._send_error(exc.http_status, exc.tag, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error(500, "internal-error", str(exc))

    def do_GET(self):
        self._dispatch(self._get)

    def do_POST(self):
        self._dispatch(self._post)

    # -- routes -----------------------------------------------------------------

    def _get(self) -> None:
        url = urlparse(self.path)
        # a blank value leaves a parameter unset, but its name must be known
        given = parse_qsl(url.query, keep_blank_values=True)
        path = url.path
        engine = self.engine
        pm = engine.prefix_map

        def reads(*names: str) -> dict[str, str]:
            """The last non-empty value of each parameter; a name not in ``names`` is rejected."""
            for name, _ in given:
                if name not in names:
                    raise MalformedContent(f"unknown query parameter {name!r} for {path}")
            return {name: value for name, value in given if value}

        if path.startswith("/terms/"):
            reads()
            term = engine.terminology.term(unquote(path[len("/terms/") :]))
            self._send(200, documents.term_to_doc(term, pm))
        elif path == "/mappings":
            params = reads("subject", "object")
            subject = pm.gupri(params["subject"]) if "subject" in params else None
            object_ = pm.gupri(params["object"]) if "object" in params else None
            mappings = engine.terminology.mappings_between(subject, object_)
            self._send(200, [documents.mapping_to_doc(m, pm) for m in mappings])
        elif path == "/interop":
            params = reads("a", "b", "min_confidence")
            if "a" not in params or "b" not in params:
                self._send_error(400, "missing-parameter", "interop needs a and b")
                return
            a, b = pm.gupri(params["a"]), pm.gupri(params["b"])
            min_confidence = _float_param(params, "min_confidence")
            verdict = engine.terminology.interop_level(a, b, min_confidence)
            self._send(200, documents.verdict_to_doc(a, b, verdict, pm))
        elif path.startswith("/schemas/"):
            reads()
            schema = engine.schemas.schema(unquote(path[len("/schemas/") :]))
            self._send(200, documents.schema_to_doc(schema, pm))
        elif path == "/crosswalks":
            params = reads("source", "target")
            source = pm.gupri(params["source"]) if "source" in params else None
            target = pm.gupri(params["target"]) if "target" in params else None
            found = [
                cw
                for cw in engine.crosswalks.crosswalks()
                if (source is None or cw.source_schema == source)
                and (target is None or cw.target_schema == target)
            ]
            self._send(200, [documents.crosswalk_to_doc(cw, pm) for cw in found])
        elif path == "/operations":
            params = reads("schema", "reachable")
            if "schema" not in params:
                self._send_error(400, "missing-parameter", "operations needs schema")
                return
            entries, degree = engine.operations.applicable_operations(
                params["schema"], include_reachable=_flag_param(params, "reachable")
            )
            self._send(200, documents.applicable_to_doc(entries, degree, pm))
        elif path == "/find":
            params = reads(*(field.name for field in dataclasses.fields(store.FindQuery)))
            self._send(200, store.find_document(engine, params))
        elif path.startswith("/fdos/") and path.endswith("/assessment"):
            reads()
            gupri = unquote(path[len("/fdos/") : -len("/assessment")])
            report = engine.fdos.assess_fdo(gupri)
            self._send(200, documents.assessment_to_doc(report, pm))
        elif path.startswith("/fdos/"):
            reads()
            record = engine.fdos.record(unquote(path[len("/fdos/") :]))
            self._send(200, documents.fdo_to_doc(record, pm))
        else:
            self._send_error(404, "unknown-route", f"no route for {path}")

    def _read_body(self, length: int) -> bytes | None:
        """The request body, or None after replying to one that is too long
        or that has not arrived in full ``BODY_TIMEOUT_S`` after the headers."""
        # either way the unread rest of the body is unknown, so the connection
        # cannot be reused
        if length > MAX_BODY_BYTES:
            self._send_error(413, "payload-too-large", f"request body over {MAX_BODY_BYTES} bytes", close=True)
            return None
        # the deadline covers the body only; the idle timeout applies again after it
        deadline = time.monotonic() + BODY_TIMEOUT_S
        raw = bytearray()
        try:
            while len(raw) < length and (left := deadline - time.monotonic()) > 0:
                self.connection.settimeout(left)
                if not (chunk := self.rfile.read1(length - len(raw))):
                    break
                raw += chunk
        except TimeoutError:
            pass
        finally:
            self.connection.settimeout(self.timeout)
        if len(raw) < length:
            self._send_error(
                400, "malformed-request", f"request body shorter than Content-Length {length}", close=True
            )
            return None
        return bytes(raw)

    def _post(self) -> None:
        length = self.headers.get("Content-Length", "0")
        if not length.isdecimal():
            # the body's end is unknown, so the connection cannot be reused
            self._send_error(400, "malformed-request", "Content-Length must be a non-negative integer", close=True)
            return
        raw = self._read_body(int(length))
        if raw is None:
            return
        try:
            body = documents.load_json(raw.decode("utf-8"))
        except ValueError as exc:
            self._send_error(400, "malformed-json", str(exc))
            return
        engine = self.engine
        pm = engine.prefix_map
        if self.path == "/transform":
            if not isinstance(body, dict) or "instance" not in body or "crosswalk" not in body:
                self._send_error(400, "malformed-request", "transform needs instance and crosswalk")
                return
            inst = documents.instance_from_doc(body["instance"], pm)
            min_confidence = body.get("min_confidence")
            if isinstance(min_confidence, bool) or not isinstance(min_confidence, (int, float, type(None))):
                self._send_error(400, "malformed-request", "min_confidence must be a number")
                return
            allow_referential = body.get("allow_referential", True)
            if not isinstance(allow_referential, bool):
                self._send_error(400, "malformed-request", "allow_referential must be a boolean")
                return
            out = engine.crosswalks.transform_instance(
                inst,
                body["crosswalk"],
                min_confidence=min_confidence,
                allow_referential=allow_referential,
            )
            self._send(200, documents.instance_to_doc(out, pm))
        elif self.path == "/assess":
            record = documents.fdo_from_doc(body, pm)
            report = engine.fdos.assess_record(record)
            self._send(200, documents.assessment_to_doc(report, pm))
        else:
            self._send_error(404, "unknown-route", f"no route for {self.path}")


def make_server(engine: Engine, bind: str = "127.0.0.1:0") -> StoreServer:
    """Bind a server; port 0 picks a free port (see ``server_address``)."""
    host, _, port_text = bind.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise BindFailure(f"bad bind address {bind!r}") from None
    try:
        return StoreServer((host, port), engine)
    except OSError as exc:
        raise BindFailure(f"cannot bind {bind!r}: {exc}") from exc


def serve(engine: Engine, bind: str = "127.0.0.1:8402") -> None:
    """Run the facade until interrupted."""
    server = make_server(engine, bind)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}")
    try:
        server.serve_forever()
    finally:
        server.server_close()
