import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from mdpcompose.composer import ComposerConfig, compose, policy_table_json
from mdpcompose.service import (
    MAX_BODY_BYTES,
    BadRequest,
    PolicyService,
    _Handler,
    build_server,
    resolve_policy_request,
)
from mdpcompose.simulation import SimState, initial_features


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
        ComposerConfig(),
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
        (_post_head(2) + b"\xff\xfe", b"400", MALFORMED),  # not UTF-8
        (_post_head(5) + b"{this", b"400", MALFORMED),
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
    ],
    ids=["text-length", "undecodable", "bad-json", "post-404", "chunked", "get-with-body"],
)
def test_responses_that_may_leave_unread_bytes_close_the_connection(server, request_bytes, status, body):
    got_status, headers, got_body = _raw_exchange(server, request_bytes, timeout=5)
    assert (got_status, got_body) == (status, body)
    assert b"connection: close" in headers


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
