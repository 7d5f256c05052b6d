"""The benchmark's span recorder (``perfbench/tracing.py``) wraps program
functions by name. A rename or a move onto a class must fail here, not
only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from mdpcompose import service
from mdpcompose.simulation import initial_features

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are defined
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists(tracing):
    missing = [
        f"{target.owner}.{target.attr}"
        for target in tracing.TARGETS
        if target.attr not in vars(tracing._resolve(target.owner))
    ]
    assert missing == []


def test_policy_requests_reach_the_traced_store_lookups(tracing, desk_store):
    recorder = tracing.Recorder()
    graph = desk_store.graphs[0]
    activity = graph.activities[0]
    initial = next(s for s in activity.states if graph.get(s).is_initial_state)
    with recorder.active():
        # through the module, whose binding the recorder replaces
        service.resolve_policy_request(desk_store, {"stateName": initial})
        service.resolve_policy_request(
            desk_store, {"featureValues": initial_features(graph, activity.name)}
        )
    # a span is recorded when it closes, a child before its parent
    assert [span[tracing.NAME] for span in recorder.spans] == [
        "store.graph_of_state",
        "service.resolve_policy_request",
        "store.recognize_across",
        "service.resolve_policy_request",
    ]
