"""HTTP surface: agents post an observed state and receive the ranked
policy table composed for it.

POST /policies with either {"featureValues": {...}} or {"stateName": "..."}
(exactly one of the two). Unrecognized states and compositions that exhaust
the radius cap are rejected with 422; malformed bodies get 400, bodies over
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
A response after which the connection may still hold unread bytes of the
request (404 on POST, 413, the 400 for a malformed body, a GET with a
Content-Length, and any request framed by Transfer-Encoding) says
"Connection: close" and ends the connection. A request's ensemble agents run one after another on its
handler thread: agent steps are pure Python, so under the GIL more threads
per request would add overhead and no parallelism.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .composer import ComposerConfig, compose, policy_table_json
from .errors import (
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
    if any(value is None or isinstance(value, (list, dict)) for value in features.values()):
        raise BadRequest("featureValues values must be numbers")
    return recognize_across(store, features)


class PolicyService:
    """Request-independent context shared by all handler threads."""

    def __init__(self, store: Store, space, composer_cfg=None):
        self.store = store
        self.space = space
        self.composer_cfg = composer_cfg or ComposerConfig()

    def policies_for(self, body) -> bytes:
        graph, state = resolve_policy_request(self.store, body)
        table, _trace = compose(graph, self.space, state, self.composer_cfg)
        return policy_table_json(table).encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    server_version = "mdpcompose/0.1"
    protocol_version = "HTTP/1.1"
    # the head and the body go out in two sends; with Nagle's algorithm the
    # second waits for the client's delayed ACK
    disable_nagle_algorithm = True
    # seconds one socket read or write may block; a stalled body gets a 400,
    # a stalled request line or reply and an idle connection close it
    timeout = 10

    def _send(self, status: int, payload: bytes, close: bool = False):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if close or "Transfer-Encoding" in self.headers:
            # unread request bytes may follow: the stream cannot carry the
            # next request, and the client must not send one on it
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, document, close: bool = False):
        self._send(status, json.dumps(document, separators=(",", ":")).encode("utf-8"), close)

    def do_GET(self):
        close = "Content-Length" in self.headers  # a GET body is never read
        if self.path == "/health":
            self._send_json(200, {"status": "ok"}, close)
        else:
            self._send_json(404, {"reason": "not found"}, close)

    def do_POST(self):
        if self.path != "/policies":
            self._send_json(404, {"reason": "not found"}, close=True)
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                raise ValueError("negative Content-Length")
            if length > MAX_BODY_BYTES:
                self._send_json(413, {"reason": "request body too large"}, close=True)
                return
            body = json.loads(self.rfile.read(length) or b"")
        except (ValueError, json.JSONDecodeError, TimeoutError):
            self._send_json(400, {"reason": "malformed request body"}, close=True)
            return
        service: PolicyService = self.server.policy_service
        try:
            payload = service.policies_for(body)
        except BadRequest as exc:
            self._send_json(400, {"reason": str(exc)})
            return
        except UnknownSituationError:
            self._send_json(422, {"reason": "unknown state"})
            return
        except CompositionFailureError:
            self._send_json(422, {"reason": "no action within radius"})
            return
        except Exception:
            log.exception("POST /policies failed")
            self._send_json(500, {"reason": "internal error"})
            return
        self._send(200, payload)

    def log_message(self, fmt, *args):
        log.debug("%s " + fmt, self.address_string(), *args)


def build_server(store: Store, space, bind: str = "127.0.0.1:0", composer_cfg=None) -> ThreadingHTTPServer:
    host, _, port_text = bind.partition(":")
    port = int(port_text) if port_text else 0
    server = ThreadingHTTPServer((host or "127.0.0.1", port), _Handler)
    server.policy_service = PolicyService(store, space, composer_cfg)
    return server


def serve(store_path, vectors_path, metadata_path, bind: str = "127.0.0.1:8080", composer_cfg=None):
    """Load the store and embeddings, then serve until interrupted.

    Raises StartupError when a file is missing, unreadable or malformed.
    """
    try:
        store = load_store(store_path)
        space = load_tsv(vectors_path, metadata_path)
    except (OSError, ValueError, GraphValidationError) as exc:
        raise StartupError(f"startup failed: {exc}") from exc
    server = build_server(store, space, bind, composer_cfg)
    host, port = server.server_address[:2]
    log.info("serving on %s:%s", host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()
