"""The lookup indexes a graph builds when it freezes give the answers of the
plain scans they replace, on fuzzed graphs, frozen or not, and under
concurrent readers."""

import json
import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_graph, random_rule
from mdpcompose.composer import compose, policy_table_json
from mdpcompose.errors import (
    EvaluationError,
    MissingFeatureError,
    UnknownSituationError,
)
from mdpcompose.json_io import from_json, to_json
from mdpcompose.kg import Concept, KnowledgeGraph, State
from mdpcompose.rules import parse_rule
from mdpcompose.simulation import (
    UNKNOWN_STATE,
    SimState,
    _relabel,
    initial_features,
    make_simulation,
    recognize_state,
)
from mdpcompose.store import recognize_across

# --- reference scans: the lookups as they were before the indexes --------


def _reference_by_concept(graph, concept):
    return [e for e in graph.entities() if e.concept is concept]


def _reference_activities_of_state(graph, state_name):
    return [
        a for a in _reference_by_concept(graph, Concept.ACTIVITY) if state_name in a.states
    ]


def _reference_holds(state, features):
    try:
        return parse_rule(state.expression).evaluate(features)
    except (MissingFeatureError, EvaluationError):
        return None


def _reference_recognize(graph, features):
    """Every state in name order, each rule evaluated; the first that
    holds wins."""
    states = sorted(_reference_by_concept(graph, Concept.STATE), key=lambda s: s.name)
    for state in states:
        if _reference_holds(state, features):
            return state
    raise UnknownSituationError("observed features match no known state")


def _reference_relabel(graph, target, features, scope):
    """The label after a transition into ``target``: the target when its
    rule holds or pins values, else the first state of the scope (or of the
    graph) in name order whose rule holds."""
    if _reference_holds(target, features):
        return target.name
    pinned = parse_rule(target.expression).pinned_values()
    if pinned:
        features.update(pinned)
        return target.name
    candidates = (
        [graph.get(s) for s in scope.states]
        if scope is not None
        else _reference_by_concept(graph, Concept.STATE)
    )
    for state in sorted(candidates, key=lambda s: s.name):
        if _reference_holds(state, features):
            return state.name
    return UNKNOWN_STATE


# --- fuzzed graphs with richer rules -------------------------------------

_VALUES = [0, 1, 0.0, 1.0, 0.5, 2, -1, True, False, "on", "off", None]


def fuzzed_document(seed):
    """The JSON document of one to three fuzzed activities in one graph,
    sometimes with an activity that shares states with two of them, and
    with about half the state rules replaced by random ones."""
    rng = random.Random(seed)
    entities, triples, activities = [], [], []
    names = set()
    for _ in range(rng.randint(1, 3)):
        document = json.loads(to_json(make_random_graph(rng)))
        part = document["entities"]
        if names & {e["name"] for e in part}:
            continue  # a repeated tag would repeat entity names
        names |= {e["name"] for e in part}
        entities += part
        triples += document.get("x-triples", [])
        activities += [e for e in part if e["concept"] == "Activity"]
    if len(activities) >= 2 and rng.random() < 0.5:
        first, second = (a["properties"] for a in activities[:2])
        initial = next(s for s in first["hasState"] if s.startswith("InitialState_"))
        entities.append(
            {
                "name": "Overlap",
                "concept": "Activity",
                "properties": {
                    **first,
                    "hasState": [initial]
                    + [s for s in second["hasState"] if not s.startswith("InitialState_")],
                    "hasAction": first["hasAction"] + second["hasAction"],
                    "hasObservationFeature": first["hasObservationFeature"]
                    + second["hasObservationFeature"],
                },
            }
        )
    for entity in entities:
        if entity["concept"] == "State" and rng.random() < 0.5:
            declared = entity["properties"]["hasObservationFeature"]
            entity["properties"]["hasExpression"] = random_rule(rng, declared)
    rng.shuffle(entities)  # insertion order must not matter to the indexes
    return {"entities": entities, "x-triples": triples}


def fuzzed_graph(seed) -> KnowledgeGraph:
    return from_json(json.dumps(fuzzed_document(seed)))


def unfrozen_copy(graph) -> KnowledgeGraph:
    copy = KnowledgeGraph()
    for entity in graph.entities():
        copy.add(entity)
    return copy


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exception type is part of the answer
        return "raised", type(exc)


def _label(state):
    return state.name, bool(state.is_goal), bool(state.is_final_state)


def _sim_label(state):
    return state.state_label, state.is_goal, state.is_final


def _feature_maps(data, graph, count):
    keys = sorted(f.name for f in graph.features) + ["Bogus"]
    maps = st.dictionaries(st.sampled_from(keys), st.sampled_from(_VALUES))
    return [data.draw(maps) for _ in range(count)]


def _identical(left, right):
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


# --- equivalence ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_concept_tables_equal_the_entity_filter(seed):
    graph = fuzzed_graph(seed)
    for concept in Concept:
        assert _identical(graph.by_concept(concept), _reference_by_concept(graph, concept))
    for attr, concept in [
        ("activities", Concept.ACTIVITY),
        ("states", Concept.STATE),
        ("actions", Concept.ACTION),
        ("features", Concept.OBSERVATION_FEATURE),
        ("transitions", Concept.TRANSITION),
        ("effects", Concept.EFFECT),
    ]:
        assert _identical(getattr(graph, attr), _reference_by_concept(graph, concept))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_activities_of_state_equals_the_activity_scan(seed):
    graph = fuzzed_graph(seed)
    for name in [s.name for s in graph.states] + ["NotAState"]:
        assert _identical(
            graph.activities_of_state(name), _reference_activities_of_state(graph, name)
        )
    for activity in graph.activities:
        assert graph.scope_names(activity.name) == (
            set(activity.states),
            set(activity.actions),
        )
    for entry in graph.recognition_order():
        assert entry.rule is graph.rule(entry.state.name)
        assert entry.lead_feature == entry.rule.clauses[0][0].feature


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.data())
def test_recognize_state_equals_the_sorted_scan(seed, data):
    graph = fuzzed_graph(seed)
    maps = _feature_maps(data, graph, 12)
    for entry in graph.recognition_order():
        # maps over some of one rule's features, so that matches, rules
        # holding through a later clause and unbound lead features are common
        names = sorted(entry.rule.feature_names())
        values = st.sampled_from([0, 1, 2, 0.5, "on"])
        maps.append(data.draw(st.dictionaries(st.sampled_from(names), values)))
        maps.append(dict(entry.rule.pinned_values()))
    for features in maps:
        got = _outcome(lambda f: _sim_label(recognize_state(graph, f)), features)
        want = _outcome(lambda f: _label(_reference_recognize(graph, f)), features)
        assert got == want, features


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.data())
def test_unfrozen_graph_gives_the_same_answers(seed, data):
    graph = fuzzed_graph(seed)
    loose = unfrozen_copy(graph)
    for concept in Concept:
        assert _identical(loose.by_concept(concept), graph.by_concept(concept))
    for state in graph.states:
        assert _identical(
            loose.activities_of_state(state.name), graph.activities_of_state(state.name)
        )
        for action in graph.actions:
            assert _identical(
                loose.transitions_from(state.name, action.name),
                graph.transitions_from(state.name, action.name),
            )
    assert loose.recognition_order() == graph.recognition_order()
    for activity in graph.activities:
        assert loose.scope_names(activity.name) == graph.scope_names(activity.name)
    for features in _feature_maps(data, graph, 8):
        assert _outcome(lambda f: recognize_state(loose, f), features) == _outcome(
            lambda f: recognize_state(graph, f), features
        )
    # the same action walk from every activity's start
    rng = random.Random(seed)
    actions = sorted(a.name for a in graph.actions)
    for activity in graph.activities:
        start = SimState(feature_values=initial_features(graph, activity.name))
        frozen, unfrozen = (_outcome(make_simulation, g, start) for g in (graph, loose))
        if frozen[0] != "ok":
            assert unfrozen == frozen
            continue
        for action in [rng.choice(actions) for _ in range(10)]:
            assert _outcome(frozen[1], action) == _outcome(unfrozen[1], action)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.data())
def test_relabel_equals_the_scoped_sorted_scan(seed, data):
    graph = fuzzed_graph(seed)
    maps = _feature_maps(data, graph, 4)
    for entry in graph.recognition_order():
        maps.append(dict(entry.rule.pinned_values()))
    for scope in [None] + graph.activities:
        for target in graph.states if scope is None else map(graph.get, scope.states):
            for features in maps:
                got, want = dict(features), dict(features)
                assert _outcome(_relabel, graph, target, got, scope) == _outcome(
                    _reference_relabel, graph, target, want, scope
                )
                assert got == want


def test_unfrozen_lookups_need_no_parsable_rules():
    graph = unfrozen_copy(fuzzed_graph(0))
    state = graph.states[0]
    graph.add(State(name="NoRule", observation_features=list(state.observation_features)))
    for transition in graph.transitions:
        key = transition.previous_state, transition.action
        assert graph.transitions_from(*key) == [
            t for t in graph.transitions if (t.previous_state, t.action) == key
        ]
    assert graph.activities_of_state(state.name) == _reference_activities_of_state(
        graph, state.name
    )
    activity = graph.activities[0]
    assert graph.scope_names(activity.name)[0] == set(activity.states)


# --- concurrent readers --------------------------------------------------


def _requests(graphs):
    out = []
    for graph in graphs:
        activity = graph.activities[0]
        initial = next(s for s in activity.states if graph.get(s).is_initial_state)
        out.append((graph, initial_features(graph, activity.name), initial))
    return out


def _serve(store, space, requests, order):
    """What a request thread computes, by request: the matched graph, the
    recognized state and the policy JSON."""
    out = {}
    for k in order:
        graph, features, label = requests[k]
        matched, state = recognize_across(store, features)
        table, _trace = compose(graph, space, SimState(feature_values=features, state_label=label))
        out[k] = (store.graphs.index(matched), state.state_label, policy_table_json(table))
    return out


def test_concurrent_readers_match_a_sequential_run(desk_store, desk_space):
    requests = _requests(desk_store.graphs)
    expected = _serve(desk_store, desk_space, requests, range(len(requests)))
    results: dict[int, dict] = {}
    errors: list[BaseException] = []

    def worker(k):
        order = [(k + i) % len(requests) for i in range(len(requests))]
        try:
            results[k] = _serve(desk_store, desk_space, requests, order)
        except BaseException as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads), "a reader hung"
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert sorted(results) == list(range(8))
    for k in range(8):
        assert results[k] == expected
