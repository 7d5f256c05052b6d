import json
import socket
import threading
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
def server(graph_list, desk_space):
    srv = build_server(graph_list, desk_space, "127.0.0.1:0")
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


def _raw_exchange(server, head: bytes, timeout: float) -> tuple[bytes, bytes]:
    """Send raw bytes and read until the server closes; (status, body)."""
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(head)
        response = b""
        while chunk := sock.recv(4096):  # the server closes after replying
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].split()[1], body


def _post_head(length: int) -> bytes:
    return (
        b"POST /policies HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Length: %d\r\n\r\n" % length
    )


def test_negative_content_length_rejected_400(server):
    status, body = _raw_exchange(server, _post_head(-1), timeout=5)
    assert status == b"400"
    assert body == b'{"reason":"malformed request body"}'


def test_oversized_body_rejected_413_unread(server):
    # only the head is sent: a reply proves the body was never waited for
    status, body = _raw_exchange(server, _post_head(MAX_BODY_BYTES + 1), timeout=5)
    assert status == b"413"
    assert body == b'{"reason":"request body too large"}'


def test_stalled_body_rejected_within_timeout(server, monkeypatch):
    assert 0 < _Handler.timeout <= 60
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    # 100 bytes declared, 2 sent: the read must give up, not hold the thread
    status, body = _raw_exchange(server, _post_head(100) + b"{}", timeout=5)
    assert status == b"400"
    assert body == b'{"reason":"malformed request body"}'


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


def test_resolve_policy_request_validation(graph_list):
    with pytest.raises(BadRequest):
        resolve_policy_request(graph_list, ["not", "an", "object"])
    with pytest.raises(BadRequest):
        resolve_policy_request(graph_list, {"stateName": 7})
    with pytest.raises(BadRequest):
        resolve_policy_request(graph_list, {"featureValues": "text"})
