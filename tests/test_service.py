import http.client
import json
import logging
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from email.utils import parsedate_to_datetime
from http.server import ThreadingHTTPServer

import pytest

from conftest import WATCH_TV_49_TTL
from mdpcompose.composer import compose, policy_table_json
from mdpcompose import service
from mdpcompose.service import (
    MAX_BODY_BYTES,
    BadRequest,
    PolicyService,
    _Handler,
    build_server,
    resolve_policy_request,
)
from mdpcompose.simulation import SimState, initial_features
from mdpcompose.store import Store
from mdpcompose.turtle_io import parse_turtle


@pytest.fixture(scope="module")
def server(desk_store, desk_space):
    srv = build_server(desk_store, desk_space, "127.0.0.1:0")
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def _post(server, path, document):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(request)


def _post_raw(server, path, payload: bytes):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=payload
    )
    return urllib.request.urlopen(request)


def test_policies_byte_identical_to_direct_compose(server, graphs, desk_space):
    g = graphs["Watch_TV_49"]
    features = initial_features(g, "Watch_TV_49")
    with _post(server, "/policies", {"featureValues": features}) as response:
        assert response.status == 200
        body = response.read()
    table, _ = compose(
        g,
        desk_space,
        SimState(feature_values=features, state_label="InitialState_Watch_TV_49"),
    )
    assert body == policy_table_json(table).encode("utf-8")


def test_unknown_state_rejected_422(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/policies", {"featureValues": {"Nonsense": 1.0}})
    with err.value:
        assert err.value.code == 422
        assert json.loads(err.value.read()) == {"reason": "unknown state"}


def test_both_fields_rejected_400(server, graphs):
    features = initial_features(graphs["Watch_TV_49"], "Watch_TV_49")
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/policies", {"featureValues": features, "stateName": "x"})
    with err.value:
        assert err.value.code == 400


def test_neither_field_rejected_400(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/policies", {})
    with err.value:
        assert err.value.code == 400


def test_malformed_body_rejected_400(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _post_raw(server, "/policies", b"{this is not json")
    with err.value:
        assert err.value.code == 400


def _raw_exchange(server, head: bytes, timeout: float) -> tuple[bytes, list[bytes], bytes]:
    """Send raw bytes and read until the server closes; (status, header
    lines, body). A server that keeps the connection open fails the read
    with a timeout."""
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(head)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    status_line, *headers = head.split(b"\r\n")
    return status_line.split()[1], [h.lower() for h in headers], body


def _post_head(length, path: bytes = b"/policies") -> bytes:
    return (
        b"POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Length: %s\r\n\r\n" % (path, str(length).encode())
    )


MALFORMED = b'{"reason":"malformed request body"}'
_UNKNOWN_17 = b'{"stateName":"x"}'  # 17 bytes; an unknown state gets a 422


def test_negative_content_length_rejected_400(server):
    status, headers, body = _raw_exchange(server, _post_head(-1), timeout=5)
    assert (status, body) == (b"400", MALFORMED)
    assert b"connection: close" in headers


def test_oversized_body_rejected_413_unread(server):
    # only the head is sent: a reply proves the body was never waited for
    status, headers, body = _raw_exchange(server, _post_head(MAX_BODY_BYTES + 1), timeout=5)
    assert (status, body) == (b"413", b'{"reason":"request body too large"}')
    assert b"connection: close" in headers


@pytest.mark.parametrize(
    "request_bytes, status, body",
    [
        (_post_head("twelve"), b"400", MALFORMED),
        (_post_head(2, b"/nope") + b"{}", b"404", b'{"reason":"not found"}'),
        (
            b"POST /policies HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            b"400",
            MALFORMED,
        ),
        (
            b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 5\r\n\r\nhello",
            b"200",
            b'{"status":"ok"}',
        ),
        (_post_head("+17") + _UNKNOWN_17, b"400", MALFORMED),
        (_post_head("1_7") + _UNKNOWN_17, b"400", MALFORMED),
        (
            b"POST /policies HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Length: 17\r\nContent-Length: 3\r\n\r\n" + _UNKNOWN_17,
            b"400",
            MALFORMED,
        ),
    ],
    ids=[
        "text-length",
        "post-404",
        "chunked",
        "get-with-body",
        "signed-length",
        "underscored-length",
        "conflicting-lengths",
    ],
)
def test_responses_that_may_leave_unread_bytes_close_the_connection(server, request_bytes, status, body):
    got_status, headers, got_body = _raw_exchange(server, request_bytes, timeout=5)
    assert (got_status, got_body) == (status, body)
    assert b"connection: close" in headers


@pytest.mark.parametrize(
    "body",
    [b"\xff\xfe", b"{this", b"[" * 100_000],  # not UTF-8, not JSON, nested too deep
    ids=["undecodable", "bad-json", "nested-too-deep"],
)
def test_a_malformed_body_read_in_full_keeps_the_connection_open(server, body):
    connection = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
    try:
        connection.request("POST", "/policies", body=body)
        with connection.getresponse() as response:
            assert (response.status, response.read()) == (400, MALFORMED)
            assert response.getheader("Connection") is None
        sock = connection.sock
        connection.request("GET", "/health")
        with connection.getresponse() as response:
            assert (response.status, response.read()) == (200, b'{"status":"ok"}')
        assert sock is not None and connection.sock is sock
    finally:
        connection.close()


@pytest.mark.parametrize(
    "lengths",
    [[b"17"], [b"17", b"17"], [b" 17\t"], [b"017"]],
    ids=["one", "repeated", "padded", "leading-zero"],
)
def test_digit_content_lengths_frame_the_body(server, lengths):
    fields = b"".join(b"Content-Length:%s\r\n" % length for length in lengths)
    request = b"POST /policies HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n%s\r\n" % fields
    status, headers, body = _raw_exchange(server, request + _UNKNOWN_17, timeout=5)
    assert (status, body) == (b"422", b'{"reason":"unknown state"}')
    assert b"connection: close" not in headers


_POST = b"POST /policies HTTP/1.1\r\n"


@pytest.mark.parametrize(
    "request_bytes",
    [
        _POST + b"Host: 127.0.0.1\r\nno colon here\r\nContent-Length: 2\r\n\r\n{}",
        _POST + b"Host: 127.0.0.1\r\nX-Note: a\r\n  folded: b\r\nContent-Length: 2\r\n\r\n{}",
        _POST + b"Host: 127.0.0.1\r\nX-Note: a\r\n\tfolded: b\r\nContent-Length: 2\r\n\r\n{}",
        _POST + b"Host: 127.0.0.1\r\nContent-Length : 2\r\n\r\n{}",
        # email.parser ended a line at a bare CR, so these hid a Content-Length
        _POST + b"Host: 127.0.0.1\r\nX-Note: a\rContent-Length: 2\r\n\r\n{}",
        b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Note: a\rContent-Length: 40\r\n\r\n"
        + b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
        _POST + b"Host: 127.0.0.1\r\nX-Note: a\r\r\nContent-Length: 2\r\n\r\n{}",
        _POST + b"Host: 127.0.0.1\r\nX-Note: a\x00b\r\nContent-Length: 2\r\n\r\n{}",
    ],
    ids=[
        "no-colon",
        "obs-fold-space",
        "obs-fold-tab",
        "space-before-colon",
        "bare-cr",
        "bare-cr-on-get",
        "cr-before-line-end",
        "nul-in-value",
    ],
)
def test_header_syntax_errors_get_400_and_close(server, request_bytes):
    status, headers, body = _raw_exchange(server, request_bytes, timeout=5)
    assert status == b"400"
    assert b"connection: close" in headers
    assert b"Bad header line" in body


@pytest.mark.parametrize(
    "version, status, answer",
    [
        (b"HTTP/01.1", b"200", b'{"status":"ok"}'),
        (b"HTTP/1_1.1", b"400", b"Bad request version"),
        (b"HTTP/+1.1", b"400", b"Bad request version"),
        (b"HTTP/1.12345678901", b"400", b"Bad request version"),
        (b"HTTP/1.x", b"400", b"Bad request version"),
        (b"HTTP/2.0", b"505", b"Invalid HTTP version"),
    ],
    ids=["leading-zero", "underscore", "plus-sign", "eleven-digits", "letter-minor", "major-2"],
)
def test_version_numbers_must_be_digits(server, version, status, answer):
    # the rule of newer standard libraries (3.11.7's and 3.13's have it,
    # 3.11.2's has not), kept on every interpreter: int() alone would read
    # 1_1 as 11 and +1 as 1
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(b"GET /health " + version + b"\r\nConnection: close\r\n\r\n")
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    status_line, *headers = head.split(b"\r\n")
    assert status_line.split()[:2] == [b"HTTP/1.1", status]
    assert answer in body
    if status != b"200":
        assert b"connection: close" in [h.lower() for h in headers]


def test_the_first_of_repeated_fields_wins(server):
    # a server that took the second field would keep the connection open
    request = (
        b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Connection: close\r\nConnection: keep-alive\r\n\r\n"
    )
    status, _, body = _raw_exchange(server, request, timeout=5)
    assert (status, body) == (b"200", b'{"status":"ok"}')


@pytest.mark.parametrize(
    "fields, status",
    [
        (b"X-Note: a\r\n" * 98, b"200"),  # 99 header lines with Connection
        (b"X-Note: a\r\n" * 99, b"431"),
        (b"X-Note: " + b"a" * 65_526 + b"\r\n", b"200"),  # a 65,536-byte line
        (b"X-Note: " + b"a" * 65_527 + b"\r\n", b"431"),
    ],
    ids=["99-lines", "100-lines", "longest-line", "line-too-long"],
)
def test_header_block_keeps_the_http_client_limits(server, fields, status):
    request = b"GET /health HTTP/1.1\r\nConnection: close\r\n" + fields + b"\r\n"
    got_status, headers, _ = _raw_exchange(server, request, timeout=5)
    assert got_status == status
    assert (status == b"431") == (b"connection: close" in headers)


# --- each response in one write ----------------------------------------------


class _CountingHandler(_Handler):
    """Records every write to the socket in ``server.writes``."""

    def setup(self):
        super().setup()
        write, writes = self.wfile.write, self.server.writes

        def counted(data):
            writes.append(bytes(data))
            return write(data)

        self.wfile.write = counted


@pytest.fixture(scope="module")
def counting_server(desk_store, desk_space):
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
    srv.policy_service = PolicyService(desk_store, desk_space)
    srv.writes = []
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def _closing_request(method: bytes, path: bytes, body: bytes = b"", extra: bytes = b"") -> bytes:
    return b"%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n%sContent-Length: %d\r\n\r\n%s" % (
        method, path, extra, len(body), body
    )


HEAD_FIELDS = [b"server", b"date", b"content-type", b"content-length"]
# the fields of a reply from BaseHTTPRequestHandler.send_error
ERROR_FIELDS = [b"server", b"date", b"connection", b"content-type", b"content-length"]
_FEED_CAT = b'{"stateName":"InitialState_Feed_cat"}'
_HEALTH = b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"


@pytest.mark.parametrize(
    "request_bytes, status, fields",
    [
        (_closing_request(b"POST", b"/policies", _FEED_CAT), b"200", HEAD_FIELDS),
        (_closing_request(b"POST", b"/policies", b"{}"), b"400", HEAD_FIELDS),
        (_closing_request(b"POST", b"/policies", b"{this"), b"400", HEAD_FIELDS),
        (_closing_request(b"POST", b"/nope", b"{}"), b"404", HEAD_FIELDS + [b"connection"]),
        (_post_head(MAX_BODY_BYTES + 1), b"413", HEAD_FIELDS + [b"connection"]),
        (_closing_request(b"POST", b"/policies", _UNKNOWN_17), b"422", HEAD_FIELDS),
        (_HEALTH, b"200", HEAD_FIELDS),
        (b"GET /a b HTTP/1.1\r\n\r\n", b"400", ERROR_FIELDS),
        (b"GET /health HTTP/1.x\r\n\r\n", b"400", ERROR_FIELDS),
        (b"GET /health HTTP/1.1\r\nno-colon\r\n\r\n", b"400", ERROR_FIELDS),
        (b"GET /health HTTP/1.1\r\n" + b"X-Note: a\r\n" * 100 + b"\r\n", b"431", ERROR_FIELDS),
        (b"BREW /policies HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n", b"501", ERROR_FIELDS),
        (b"GET /health HTTP/2.0\r\n\r\n", b"505", ERROR_FIELDS),
    ],
    ids=[
        "200", "400", "400-malformed", "404", "413", "422", "health",
        "400-request-line", "400-version", "400-header-line", "431", "501", "505",
    ],
)
def test_each_response_goes_out_in_one_write(counting_server, request_bytes, status, fields):
    counting_server.writes.clear()
    port = counting_server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request_bytes)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    assert counting_server.writes == [response]
    head, _, _ = response.partition(b"\r\n\r\n")
    status_line, *lines = head.split(b"\r\n")
    assert status_line.split()[:2] == [b"HTTP/1.1", status]
    assert [line.partition(b":")[0].lower() for line in lines] == fields
    date = next(line for line in lines if line.startswith(b"Date: "))[6:].decode()
    assert parsedate_to_datetime(date).tzinfo is not None


def test_expect_100_continue_precedes_the_response(server):
    port = server.server_address[1]
    head = (
        b"POST /policies HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
        b"Expect: 100-continue\r\nContent-Length: 17\r\n\r\n"
    )
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(head)
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            chunk = sock.recv(1)
            assert chunk, "the server closed before 100 Continue"
            interim += chunk
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(_UNKNOWN_17)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    assert response.startswith(b"HTTP/1.1 422 ")
    assert response.endswith(b'{"reason":"unknown state"}')


def test_requests_do_not_use_the_email_header_parser(server, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("http.client.parse_headers called")

    monkeypatch.setattr(http.client, "parse_headers", fail)
    status, _, payload = _raw_exchange(server, _closing_request(b"POST", b"/policies", _FEED_CAT), timeout=5)
    assert status == b"200" and json.loads(payload)["policies"]
    status, _, payload = _raw_exchange(server, _HEALTH, timeout=5)
    assert (status, payload) == (b"200", b'{"status":"ok"}')


def test_debug_logging_keeps_one_access_line_per_request(server, caplog):
    with caplog.at_level(logging.DEBUG, logger="mdpcompose.service"):
        for _ in range(3):
            _raw_exchange(server, _HEALTH, timeout=5)
        _raw_exchange(server, _closing_request(b"POST", b"/policies", _UNKNOWN_17), timeout=5)
    lines = [r.getMessage() for r in caplog.records if r.name == "mdpcompose.service"]
    assert sum(line.endswith('"GET /health HTTP/1.1" 200 -') for line in lines) == 3
    assert sum(line.endswith('"POST /policies HTTP/1.1" 422 -') for line in lines) == 1


def test_stalled_body_rejected_within_timeout(server, monkeypatch):
    assert 0 < _Handler.timeout <= 60
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    # 100 bytes declared, 2 sent: the read must give up, not hold the thread
    status, headers, body = _raw_exchange(server, _post_head(100) + b"{}", timeout=5)
    assert (status, body) == (b"400", MALFORMED)
    assert b"connection: close" in headers


def test_idle_connection_closes_after_the_timeout(server, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
        expected = b'{"status":"ok"}'
        response = b""
        while not response.endswith(expected):
            chunk = sock.recv(4096)
            assert chunk, "the server closed before replying"
            response += chunk
        assert b"connection: close" not in response.lower()
        idle_from = time.monotonic()
        assert sock.recv(4096) == b""  # the server closed the idle connection
        assert 0.4 < time.monotonic() - idle_from < 5


def test_requests_share_one_persistent_connection(server, graphs, desk_space):
    expected = []
    for name in ("Watch_TV_49", "Make_coffee"):
        graph = graphs[name]
        table, _ = compose(graph, desk_space, SimState(feature_values=initial_features(graph, name)))
        expected.append(policy_table_json(table).encode("utf-8"))
    connection = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
    try:
        sockets = []
        for name, body in zip(("Watch_TV_49", "Make_coffee"), expected):
            document = {"featureValues": initial_features(graphs[name], name)}
            connection.request("POST", "/policies", body=json.dumps(document))
            with connection.getresponse() as response:
                assert (response.status, response.read()) == (200, body)
                assert response.getheader("Connection") is None
            sockets.append(connection.sock)
        assert sockets[0] is not None and sockets[0] is sockets[1]
    finally:
        connection.close()


@pytest.mark.parametrize("value", [[0.0], {"x": 1.0}, None])
def test_non_scalar_feature_value_rejected_400(server, graphs, value):
    features = initial_features(graphs["Watch_TV_49"], "Watch_TV_49")
    features[next(iter(features))] = value
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/policies", {"featureValues": features})
    with err.value:
        assert err.value.code == 400
        assert json.loads(err.value.read()) == {"reason": "featureValues values must be numbers"}


def test_integer_too_large_for_a_float_rejected_400(server):
    # a float literal too large parses as inf: a number that matches no state
    for literal, status, reason in [
        (b"1e400", 422, "unknown state"),
        (b"1" + b"0" * 400, 400, "featureValues integers must fit a float"),
    ]:
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_raw(server, "/policies", b'{"featureValues": {"IsWalk_living_room_1": %s}}' % literal)
        with err.value:
            assert (err.value.code, json.loads(err.value.read())) == (status, {"reason": reason})


def test_string_and_boolean_feature_values_keep_responses(server, graphs):
    features = initial_features(graphs["Watch_TV_49"], "Watch_TV_49")
    first = next(iter(features))
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/policies", {"featureValues": {**features, first: "x"}})
    with err.value:
        assert err.value.code == 422
    for flag in (True, False):
        with _post(server, "/policies", {"featureValues": {**features, first: flag}}) as response:
            assert response.status == 200


def test_final_state_that_is_not_a_goal_rejected_422(desk_space):
    text = WATCH_TV_49_TTL.replace(
        'entity:TurnTo_television_1_Done a concept:State;\n'
        'property:isGoal "true"^^xsd:boolean;',
        'entity:TurnTo_television_1_Done a concept:State;\n'
        'property:isGoal "false"^^xsd:boolean;',
    )
    assert text != WATCH_TV_49_TTL
    srv = build_server(Store([parse_turtle(text)]), desk_space, "127.0.0.1:0")
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(srv, "/policies", {"stateName": "TurnTo_television_1_Done"})
        with err.value:
            assert err.value.code == 422
            assert json.loads(err.value.read()) == {"reason": "activity terminated"}
    finally:
        srv.shutdown()
        srv.server_close()


def test_unexpected_error_answered_500(server, monkeypatch, caplog):
    def fail(self, body):
        raise ValueError("cosine distance is undefined for zero-norm vectors")

    monkeypatch.setattr(PolicyService, "policies_for", fail)
    with caplog.at_level("ERROR", logger="mdpcompose.service"):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, "/policies", {"stateName": "InitialState_Feed_cat"})
    with err.value:
        assert err.value.code == 500
        assert json.loads(err.value.read()) == {"reason": "internal error"}
    assert any(r.exc_info and "zero-norm" in str(r.exc_info[1]) for r in caplog.records)


def test_state_name_request(server, corpus):
    with _post(server, "/policies", {"stateName": "InitialState_Feed_cat"}) as response:
        document = json.loads(response.read())
    script = next(s for s in corpus.scripts if s.activity_name == "Feed_cat")
    assert len(document["policies"][0]["actions"]) == len(script.steps)


def test_mid_chain_state_composes_remaining_suffix(server, corpus):
    script = next(s for s in corpus.scripts if s.activity_name == "Watch_TV_49")
    with _post(server, "/policies", {"stateName": "Sit_couch_1_Done"}) as response:
        document = json.loads(response.read())
    from mdpcompose.vhome import action_sequence

    assert document["policies"][0]["actions"] == action_sequence(script)[4:]


def test_health_endpoint(server):
    port = server.server_address[1]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/health") as response:
        assert response.status == 200
        assert json.loads(response.read()) == {"status": "ok"}


def test_unknown_path_404(server):
    port = server.server_address[1]
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(f"http://127.0.0.1:{port}/nope")
    with err.value:
        assert err.value.code == 404


@pytest.mark.parametrize("port", [70000, 65536, -1])
def test_port_outside_the_tcp_range_rejected_before_binding(desk_store, desk_space, port):
    with pytest.raises(ValueError, match=f"port must be in 0-65535, got {port}"):
        build_server(desk_store, desk_space, f"127.0.0.1:{port}")


def test_concurrent_requests_do_not_interleave(server, graphs):
    features_tv = initial_features(graphs["Watch_TV_49"], "Watch_TV_49")
    features_coffee = initial_features(graphs["Make_coffee"], "Make_coffee")

    def call(features):
        with _post(server, "/policies", {"featureValues": features}) as response:
            return json.loads(response.read())

    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [
            pool.submit(call, features_tv if k % 2 == 0 else features_coffee)
            for k in range(16)
        ]
        documents = [f.result() for f in futures]
    for k, document in enumerate(documents):
        expected_length = 7 if k % 2 == 0 else 2
        assert len(document["policies"][0]["actions"]) == expected_length


def _health_over_a_new_connection(server) -> bytes:
    port = server.server_address[1]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", "/health")
        return conn.getresponse().read()
    finally:
        conn.close()


def test_a_connection_beyond_the_cap_gets_503_before_a_thread_starts(desk_store, desk_space, monkeypatch):
    monkeypatch.setattr(service, "MAX_CONNECTIONS", 2)
    server = build_server(desk_store, desk_space, "127.0.0.1:0")  # no connections of other tests
    threading.Thread(target=server.serve_forever, daemon=True).start()
    port = server.server_address[1]
    try:
        threads = threading.active_count()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as first, \
                socket.create_connection(("127.0.0.1", port), timeout=5) as second:
            for held in (first, second):  # each is served: its thread answers
                held.sendall(b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
                assert held.recv(4096).endswith(b'{"status":"ok"}')
            with socket.create_connection(("127.0.0.1", port), timeout=5) as third:
                response = b""
                while chunk := third.recv(4096):  # until the server closes it
                    response += chunk
            assert threading.active_count() <= threads + 2
        head, _, body = response.partition(b"\r\n\r\n")
        status_line, *fields = head.lower().split(b"\r\n")
        assert status_line == b"http/1.1 503 service unavailable"
        assert json.loads(body) == {"reason": "server busy"}
        assert {b"connection: close", b"content-length: %d" % len(body)} <= set(fields)
        # a slot is free again once a held connection's thread has ended
        deadline = time.monotonic() + 5
        while (answer := _health_over_a_new_connection(server)) != b'{"status":"ok"}':
            assert time.monotonic() < deadline, answer
            time.sleep(0.05)
    finally:
        server.shutdown()
        server.server_close()


def test_connections_racing_for_the_cap_release_every_slot(desk_store, desk_space, monkeypatch):
    monkeypatch.setattr(service, "MAX_CONNECTIONS", 2)
    server = build_server(desk_store, desk_space, "127.0.0.1:0")
    threading.Thread(target=server.serve_forever, daemon=True).start()
    answers = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the counter's updates as often as possible
    try:
        def client():
            for _ in range(10):
                try:
                    answers.append(_health_over_a_new_connection(server))
                except ConnectionError:  # a request sent before the 503 can reset it
                    answers.append(b"reset")

        clients = [threading.Thread(target=client) for _ in range(6)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in clients)
    finally:
        sys.setswitchinterval(switch)
    try:
        assert len(answers) == 60
        assert set(answers) <= {b'{"status":"ok"}', b'{"reason":"server busy"}', b"reset"}
        assert b'{"status":"ok"}' in answers
        deadline = time.monotonic() + 5
        while server._serving:  # every handler thread gives its slot back
            assert time.monotonic() < deadline, server._serving
            time.sleep(0.01)
    finally:
        server.shutdown()
        server.server_close()


def test_resolve_policy_request_validation(desk_store):
    with pytest.raises(BadRequest):
        resolve_policy_request(desk_store, ["not", "an", "object"])
    with pytest.raises(BadRequest):
        resolve_policy_request(desk_store, {"stateName": 7})
    with pytest.raises(BadRequest):
        resolve_policy_request(desk_store, {"featureValues": "text"})


# --- every body gets exactly one JSON response ------------------------------

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
_STATE_NAMES = ["InitialState_Watch_TV_49", "Sit_couch_1_Done", "InitialState_Feed_cat", "Nope"]


@st.composite
def _bodies(draw, feature_names):
    features = st.dictionaries(
        st.sampled_from(feature_names + ["Nonsense"]),
        st.sampled_from([0, 1, 0.0, 1.0, 2.5, True, "x", None, [0.0]]),
    )
    document = draw(
        st.one_of(
            _JSON,
            st.builds(lambda f: {"featureValues": f}, features),
            st.builds(lambda n: {"stateName": n}, st.sampled_from(_STATE_NAMES) | st.text(max_size=8)),
            st.builds(lambda f, n: {"featureValues": f, "stateName": n}, features, st.text(max_size=4)),
        )
    )
    return draw(st.one_of(st.just(json.dumps(document).encode()), st.binary(max_size=40)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_body_gets_one_json_response_on_a_persistent_connection(server, graphs, data):
    complete = initial_features(graphs["Watch_TV_49"], "Watch_TV_49")
    valid = json.dumps({"featureValues": complete}).encode()
    bodies = data.draw(st.lists(_bodies(sorted(complete)) | st.just(valid), min_size=1, max_size=5))
    connection = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
    kept = None  # the socket the last reply left open
    try:
        for method, body in [("POST", body) for body in bodies] + [("GET", None)]:
            connection.request(method, "/policies" if body is not None else "/health", body=body)
            assert kept is None or connection.sock is kept
            with connection.getresponse() as response:
                document = json.loads(response.read())
                assert response.status in (200, 400, 422)
                assert isinstance(document, dict)
                closes = response.getheader("Connection") == "close"
                assert closes == response.will_close
            kept = None if closes else connection.sock
            assert (connection.sock is None) == closes
    finally:
        connection.close()


# --- raw request bytes never hang the server -----------------------------------

_RAW_TEXT = st.text(alphabet="aZ09:;- \t\r\n", max_size=10)
_REQUEST_LINES = st.tuples(
    st.sampled_from(["GET", "POST", "POST", "PUT"]),
    st.sampled_from(["/health", "/policies", "/policies", "//health", "/nope"]),
    st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/1.x"]),
).map(list)
_FIELD_NAMES = st.sampled_from(
    ["Host", "Content-Length", "content-length", "Transfer-Encoding", "Connection", "Expect"]
)
_FIELD_VALUES = st.sampled_from(
    ["0", "2", "17", "99", "+17", "1_7", "-1", " 17 ", "close", "keep-alive", "100-continue", "chunked"]
)


@st.composite
def _raw_requests(draw) -> bytes:
    # mostly well-formed heads, so that bodies get framed and read too
    words = draw(st.one_of(_REQUEST_LINES, _REQUEST_LINES, st.lists(_RAW_TEXT, max_size=4)))
    fields = draw(
        st.lists(
            st.tuples(
                st.one_of(_FIELD_NAMES, _FIELD_NAMES, _FIELD_NAMES, _RAW_TEXT),
                st.sampled_from([": ", ": ", ": ", ":", " : ", "", "\r\n "]),
                st.one_of(_FIELD_VALUES, _FIELD_VALUES, _FIELD_VALUES, _RAW_TEXT),
            ),
            max_size=5,
        )
    )
    head = " ".join(words) + "\r\n" + "".join(name + sep + value + "\r\n" for name, sep, value in fields)
    end = draw(st.sampled_from(["\r\n", "\n", ""]))
    return (head + end).encode("latin-1") + draw(st.binary(max_size=24))


def _final_response_complete(data: bytes) -> bool:
    """Whether ``data`` holds a whole final (not 1xx) response framed by
    Content-Length."""
    while True:
        head, blank, rest = data.partition(b"\r\n\r\n")
        if not blank or not head.startswith(b"HTTP/1.1 "):
            return False
        if not head.startswith(b"HTTP/1.1 1"):
            break
        data = rest
    lengths = [line[15:] for line in head.lower().split(b"\r\n") if line.startswith(b"content-length:")]
    return bool(lengths) and len(rest) >= int(lengths[0])


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(request_bytes=_raw_requests(), half_close=st.booleans())
def test_raw_request_bytes_get_a_response_or_a_close(server, monkeypatch, request_bytes, half_close):
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    deadline = time.monotonic() + 0.5 + 2
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        try:
            sock.sendall(request_bytes)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:  # the server answered and closed before the last byte
            pass
        response = b""
        while not _final_response_complete(response):
            sock.settimeout(max(deadline - time.monotonic(), 0.001))
            try:
                chunk = sock.recv(65536)  # a timeout here is a hung exchange
            except ConnectionResetError:  # closed with request bytes unread
                break
            if not chunk:
                break
            response += chunk
    status, _, payload = _raw_exchange(server, _HEALTH, timeout=5)
    assert (status, payload) == (b"200", b'{"status":"ok"}')
