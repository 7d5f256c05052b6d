import json
import socket
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from mdpcompose.composer import ComposerConfig, compose, policy_table_json
from mdpcompose.service import build_server, resolve_policy_request, BadRequest
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
    response = _post(server, "/policies", {"featureValues": features})
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
    assert err.value.code == 422
    assert json.loads(err.value.read()) == {"reason": "unknown state"}


def test_both_fields_rejected_400(server, graphs):
    features = initial_features(graphs["Watch_TV_49"], "Watch_TV_49")
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/policies", {"featureValues": features, "stateName": "x"})
    assert err.value.code == 400


def test_neither_field_rejected_400(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/policies", {})
    assert err.value.code == 400


def test_malformed_body_rejected_400(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _post_raw(server, "/policies", b"{this is not json")
    assert err.value.code == 400


def test_negative_content_length_rejected_400(server):
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(
            b"POST /policies HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Length: -1\r\n\r\n"
        )
        response = b""
        while chunk := sock.recv(4096):  # the server closes after replying
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split()[1] == b"400"
    assert body == b'{"reason":"malformed request body"}'


def test_state_name_request(server, corpus):
    response = _post(server, "/policies", {"stateName": "InitialState_Feed_cat"})
    document = json.loads(response.read())
    script = next(s for s in corpus.scripts if s.activity_name == "Feed_cat")
    assert len(document["policies"][0]["actions"]) == len(script.steps)


def test_mid_chain_state_composes_remaining_suffix(server, corpus):
    script = next(s for s in corpus.scripts if s.activity_name == "Watch_TV_49")
    response = _post(server, "/policies", {"stateName": "Sit_couch_1_Done"})
    document = json.loads(response.read())
    from mdpcompose.vhome import action_sequence

    assert document["policies"][0]["actions"] == action_sequence(script)[4:]


def test_health_endpoint(server):
    port = server.server_address[1]
    response = urllib.request.urlopen(f"http://127.0.0.1:{port}/health")
    assert response.status == 200
    assert json.loads(response.read()) == {"status": "ok"}


def test_unknown_path_404(server):
    port = server.server_address[1]
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(f"http://127.0.0.1:{port}/nope")
    assert err.value.code == 404


def test_concurrent_requests_do_not_interleave(server, graphs):
    features_tv = initial_features(graphs["Watch_TV_49"], "Watch_TV_49")
    features_coffee = initial_features(graphs["Make_coffee"], "Make_coffee")

    def call(features):
        return json.loads(_post(server, "/policies", {"featureValues": features}).read())

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
