"""HTTP surface: agents post an observed state and receive the ranked
policy table composed for it.

POST /policies with either {"featureValues": {...}} or {"stateName": "..."}
(exactly one of the two). Unrecognized states, compositions that exhaust
the radius cap and compositions that start in or commit to a final state
that is not a goal are rejected with 422; malformed bodies get 400, bodies over
MAX_BODY_BYTES get 413, and any other failure gets 500. A body that stalls
for _Handler.timeout seconds counts as malformed. GET /health
reports readiness. The store (see ``store``) is built once at start-up and
only read: a request finds its graph and starting state in the store's
indexes and composes on its own copies of the state, so requests never
interleave state. The embedding space keeps the sorted action row of each
state it has searched from (see ``space``); the handler threads share those
rows, which are never changed once kept.

The server speaks HTTP/1.1 with persistent connections: one handler thread
serves every request of a connection, one after another, and closes it when
the client asks to or after _Handler.timeout seconds without a request.
The handler reads the header block itself, line by line with the limits of
``http.client`` (lines of at most 65,536 bytes, fewer than 100 header
lines, else 431), into a dict of lower-cased names in which the first of
repeated fields wins. A line that is not ``name: value``, such as an
obs-fold continuation or one holding a bare CR or another control byte,
gets a 400 and closes the connection. Each response goes out in one
write, its head and body together, ``send_error``'s replies too.
A response after which the connection may still hold unread bytes of the
request (404 on POST, 413, the 400 for a malformed Content-Length or a
stalled body, a GET with a Content-Length, and any request framed by
Transfer-Encoding) says "Connection: close" and ends the connection; the
400 for a body read in full that is not JSON keeps it. A Content-Length
must be ASCII digits, and repeated Content-Length fields must agree; any
other is a malformed body. A request's ensemble agents run one after
another on its handler thread: agent steps are pure Python, so under the
GIL more threads per request would add overhead and no parallelism.
"""

from __future__ import annotations

import io
import json
import logging
import re
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .composer import compose, policy_table_json
from .errors import (
    ActivityTerminatedError,
    CompositionFailureError,
    GraphValidationError,
    StartupError,
    UnknownSituationError,
)
from .kg import KnowledgeGraph
from .simulation import SimState, state_features
from .space import load_tsv
from .store import Store, graph_of_state, load_store, recognize_across

log = logging.getLogger(__name__)

MAX_BODY_BYTES = 1 << 20


class BadRequest(ValueError):
    pass


def resolve_policy_request(store: Store, body) -> tuple[KnowledgeGraph, SimState]:
    """Map a request body to (owning graph, starting state).

    Raises BadRequest for malformed bodies and UnknownSituationError when
    no state matches.
    """
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    has_features = "featureValues" in body
    has_name = "stateName" in body
    if has_features == has_name:
        raise BadRequest(
            "exactly one of featureValues and stateName must be present"
        )
    if has_name:
        state_name = body["stateName"]
        if not isinstance(state_name, str):
            raise BadRequest("stateName must be a string")
        graph = graph_of_state(store, state_name)
        features = state_features(graph, state_name)
        return graph, SimState(feature_values=features, state_label=state_name)
    features = body["featureValues"]
    if not isinstance(features, dict):
        raise BadRequest("featureValues must be an object")
    for value in features.values():
        if value is None or isinstance(value, (list, dict)):
            raise BadRequest("featureValues values must be numbers")
        if isinstance(value, int):
            try:
                float(value)  # rules compare numbers as floats
            except OverflowError:
                raise BadRequest("featureValues integers must fit a float") from None
    return recognize_across(store, features)


class PolicyService:
    """Request-independent context shared by all handler threads."""

    def __init__(self, store: Store, space):
        self.store = store
        self.space = space

    def policies_for(self, body) -> bytes:
        graph, state = resolve_policy_request(self.store, body)
        table, _trace = compose(graph, self.space, state)
        return policy_table_json(table).encode("utf-8")


def _reason(text: str) -> bytes:
    return json.dumps({"reason": text}, separators=(",", ":")).encode("utf-8")


_HEALTHY = b'{"status":"ok"}'
_NOT_FOUND = _reason("not found")
_MALFORMED = _reason("malformed request body")
_TOO_LARGE = _reason("request body too large")
_UNKNOWN_STATE = _reason("unknown state")
_NO_ACTION = _reason("no action within radius")
_TERMINATED = _reason("activity terminated")
_INTERNAL = _reason("internal error")

# the limits of http.client on one header line and on the lines of a header block
_MAX_LINE = 65536
_MAX_HEADERS = 100
# a header line (RFC 9112 section 5.1): a name of visible ASCII other than
# the colon, then a value without control bytes other than HTAB; a bare CR,
# which email.parser read as a line end, gets no header of its own but a 400
_FIELD_LINE = re.compile(rb"([!-9;-~]+):([^\x00-\x08\n-\x1f\x7f]*)(?:\r\n|\n)?")


def _content_length(text: str) -> int:
    """The body length a Content-Length value frames (RFC 9112 section 6.3):
    ASCII digits only, so ``+17``, ``1_7`` and ``-1`` raise ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"malformed Content-Length {text!r}")
    return int(text)


class _Handler(BaseHTTPRequestHandler):
    server_version = "mdpcompose/0.1"
    protocol_version = "HTTP/1.1"
    # a response goes out in one write; only the interim "100 Continue" and
    # the final response that follows it are two sends, and with Nagle's
    # algorithm the second would wait for the client's delayed ACK
    disable_nagle_algorithm = True
    # seconds one socket read or write may block; a stalled body gets a 400,
    # a stalled request line or reply and an idle connection close it
    timeout = 10

    def parse_request(self):
        """BaseHTTPRequestHandler.parse_request with the header block read
        line by line instead of through ``email.parser``.

        ``self.headers`` maps each lower-cased field name to its first
        value, stripped. A line that is not ``name: value`` (no colon,
        whitespace in or before the name, as in an obs-fold continuation, or
        a control byte other than HTAB, a bare CR among them) gets a 400;
        repeated Content-Length fields that disagree leave the value empty,
        which frames no body.
        """
        self.command = None  # set in case of error on the first line
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to determine the protocol version
            # not an HTTP/0.9 request, so an error reply gets a status line and headers
            self.request_version = self.protocol_version
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                base_version_number = version.split("/", 1)[1]
                version_number = base_version_number.split(".")
                if len(version_number) != 2:
                    raise ValueError
                # as newer standard libraries do, so that int() reads no 1_1 or +1
                if any(not component.isdigit() or len(component) > 10 for component in version_number):
                    raise ValueError
                version_number = int(version_number[0]), int(version_number[1])
            except (ValueError, IndexError):
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad request version (%r)" % version)
                return False
            if version_number >= (1, 1):  # this server speaks HTTP/1.1
                self.close_connection = False
            if version_number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED, "Invalid HTTP version (%s)" % base_version_number
                )
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST, "Bad request syntax (%r)" % requestline)
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad HTTP/0.9 request type (%r)" % command)
                return False
        self.command, self.path = command, path
        if self.path.startswith("//"):  # gh-87389: not an absolute URI to redirect to
            self.path = "/" + self.path.lstrip("/")

        headers = self.headers = {}
        for _ in range(_MAX_HEADERS):  # the blank line that ends the block counts
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {_MAX_LINE} bytes when reading header line",
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            field = _FIELD_LINE.fullmatch(line)
            if field is None:
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line")
                return False
            key = field[1].decode("ascii").lower()
            value = field[2].strip().decode("iso-8859-1")
            if key not in headers:
                headers[key] = value
            elif key == "content-length" and headers[key] != value:
                headers[key] = ""  # lengths that disagree frame no body
        else:
            self.send_error(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                "Too many headers",
                f"got more than {_MAX_HEADERS} headers",
            )
            return False

        conntype = headers.get("connection", "").lower()
        if conntype == "close":
            self.close_connection = True
        elif conntype == "keep-alive":
            self.close_connection = False
        if headers.get("expect", "").lower() == "100-continue" and self.request_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def send_error(self, code, message=None, explain=None):
        """BaseHTTPRequestHandler.send_error, its head and body sent in one write."""
        wfile, self.wfile = self.wfile, io.BytesIO()
        try:
            super().send_error(code, message, explain)
        finally:
            reply, self.wfile = self.wfile.getvalue(), wfile
        wfile.write(reply)

    def _send(self, status: int, payload: bytes, close: bool = False):
        """Send the head and ``payload`` in one write."""
        if log.isEnabledFor(logging.DEBUG):
            self.log_request(status)
        connection = ""
        if close or "transfer-encoding" in self.headers:
            # unread request bytes may follow: the stream cannot carry the
            # next request, and the client must not send one on it
            self.close_connection = True
            connection = "Connection: close\r\n"
        if self.request_version == "HTTP/0.9":  # a bare body, as BaseHTTPRequestHandler sends
            self.wfile.write(payload)
            return
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\nDate: {self.date_time_string()}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n{connection}\r\n"
        )
        self.wfile.write(head.encode("latin-1") + payload)

    def do_GET(self):
        close = "content-length" in self.headers  # a GET body is never read
        if self.path == "/health":
            self._send(200, _HEALTHY, close)
        else:
            self._send(404, _NOT_FOUND, close)

    def do_POST(self):
        if self.path != "/policies":
            self._send(404, _NOT_FOUND, close=True)
            return
        data = None  # the body, once read in full
        try:
            length = _content_length(self.headers.get("content-length", "0"))
            if length > MAX_BODY_BYTES:
                self._send(413, _TOO_LARGE, close=True)
                return
            data = self.rfile.read(length)
            body = json.loads(data or b"")
        # JSON and UTF-8 errors are ValueErrors; a deep enough nesting of
        # arrays or objects exhausts the decoder's recursion limit. Only a
        # body not read in full may leave bytes that the next request reads.
        except (ValueError, RecursionError, TimeoutError):
            self._send(400, _MALFORMED, close=data is None)
            return
        service: PolicyService = self.server.policy_service
        try:
            payload = service.policies_for(body)
        except BadRequest as exc:
            self._send(400, _reason(str(exc)))
            return
        except UnknownSituationError:
            self._send(422, _UNKNOWN_STATE)
            return
        except CompositionFailureError:
            self._send(422, _NO_ACTION)
            return
        except ActivityTerminatedError:
            self._send(422, _TERMINATED)
            return
        except Exception:
            log.exception("POST /policies failed")
            self._send(500, _INTERNAL)
            return
        self._send(200, payload)

    def log_message(self, fmt, *args):
        log.debug("%s " + fmt, self.address_string(), *args)


def build_server(store: Store, space, bind: str = "127.0.0.1:0") -> ThreadingHTTPServer:
    host, _, port_text = bind.partition(":")
    port = int(port_text) if port_text else 0
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in 0-65535, got {port}")
    server = ThreadingHTTPServer((host or "127.0.0.1", port), _Handler)
    server.policy_service = PolicyService(store, space)
    return server


def serve(store_path, vectors_path, metadata_path, bind: str):
    """Load the store and embeddings, then serve until interrupted.

    Raises StartupError when a file is missing, unreadable or malformed.
    """
    try:
        store = load_store(store_path)
        space = load_tsv(vectors_path, metadata_path)
    except (OSError, ValueError, GraphValidationError) as exc:
        raise StartupError(f"startup failed: {exc}") from exc
    server = build_server(store, space, bind)
    host, port = server.server_address[:2]
    log.info("serving on %s:%s", host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()
