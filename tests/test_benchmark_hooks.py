"""The benchmark's span recorder (``perfbench/tracing.py``) wraps program
functions by name. A rename or a move onto a class must fail here, not
only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from mdpcompose import composer, dqn, embedding, service
from mdpcompose.simulation import initial_features, initial_state
from mdpcompose.store import load_store, save_store

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


def test_a_loaded_store_validates_each_graph_once(tracing, graphs, desk_space, tmp_path):
    # kg.validate_s is the freeze work only while no lookup builds outside
    # validate, so loading and then using a store must show one span per graph
    save_store({name: graphs[name] for name in ("Watch_TV_49", "Make_coffee")}, tmp_path)
    recorder = tracing.Recorder()
    with recorder.active():
        store = load_store(tmp_path)
        for graph in store.graphs:
            activity = graph.activities[0].name
            service.resolve_policy_request(store, {"featureValues": initial_features(graph, activity)})
            composer.compose(graph, desk_space, initial_state(graph, activity))
    parents = [span[tracing.PARENT] for span in recorder.spans if span[tracing.NAME] == "kg.validate"]
    parses = [span[tracing.ID] for span in recorder.spans if span[tracing.NAME] == "turtle_io.parse_turtle"]
    assert len(parses) == len(store.graphs) == 2
    assert sorted(parents) == sorted(parses)


def test_a_composed_request_reaches_the_traced_agent_and_search_calls(tracing, desk_store, desk_space):
    # the benchmark reads the simulation and search layers from these spans,
    # so a composition routed around them must fail here, not read 0 there
    recorder = tracing.Recorder()
    graph = desk_store.graphs[0]
    initial = next(s for s in graph.activities[0].states if graph.get(s).is_initial_state)
    with recorder.active():
        payload = service.PolicyService(desk_store, desk_space).policies_for({"stateName": initial})
    assert payload.startswith(b'{"policies":')
    names = {span[tracing.NAME] for span in recorder.spans}
    assert {
        "composer.compose",
        "simulation.make_simulation",
        "simulation.step",
        "space.find_closest_actions",
    } <= names


def _round_counts(trace) -> dict:
    rounds = trace.rounds
    return {
        "rounds": len(rounds),
        "agent_steps": sum(len(rnd.results) for rnd in rounds),
        "wrong_decisions": sum(reward < rnd.reward for rnd in rounds for _a, reward in rnd.results),
        "commits": sum(rnd.committed for rnd in rounds),
    }


def test_the_compose_spans_count_what_the_trace_rounds_hold(tracing, desk_store, desk_space):
    # the benchmark reads these span attributes by name: each must keep
    # counting what the returned trace's rounds hold
    recorder = tracing.Recorder()
    with recorder.active():
        traces = [
            composer.compose(graph, desk_space, initial_state(graph, graph.activities[0].name))[1]
            for graph in desk_store.graphs
        ]
    expected = [_round_counts(trace) for trace in traces]
    read = [
        {key: span[tracing.ATTRS][key] for key in expected[0]}
        for span in recorder.spans
        if span[tracing.NAME] == "composer.compose"
    ]
    assert read == expected
    # some rounds grow the radius and some agent steps lose reward, so no
    # count is trivially equal to another
    totals = {key: sum(counts[key] for counts in expected) for key in expected[0]}
    assert 0 < totals["commits"] < totals["rounds"]
    assert 0 < totals["wrong_decisions"] < totals["agent_steps"]


def _count_calls(monkeypatch, module, names) -> dict:
    """Replace each module binding with a counting wrapper, as the recorder
    does, and return the counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_dqn_training_reaches_the_traced_update_and_evaluation(monkeypatch, graphs):
    # the dqn.* layers time these module bindings; a learner that calls
    # around them must fail here, not read 0 in a traced run
    counts = _count_calls(monkeypatch, dqn, ["td_loss_and_grads", "evaluate_greedy"])
    cfg = dqn.DqnConfig(episode_cap=2, rng_seed=3)
    _net, record = dqn.train_dqn(graphs["Watch_TV_49"], "Watch_TV_49", cfg)
    assert counts["td_loss_and_grads"] == record.total_steps - dqn.REPLAY_BATCH + 1
    assert counts["evaluate_greedy"] == record.episodes_used


def test_embedding_training_reaches_the_traced_batch_calls(monkeypatch, graph_list, vocab):
    counts = _count_calls(monkeypatch, embedding, ["generate_batch", "batch_loss_and_grad"])
    cfg = embedding.TrainConfig(dimension=4, iterations=3, epochs_per_iteration=2, batch_size=8)
    embedding.train(graph_list, vocab, cfg)
    assert counts == {"generate_batch": 3, "batch_loss_and_grad": 6}
