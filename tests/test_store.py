"""The store's indexes give the answers of the graph-by-graph scans they
replace, on fuzzed stores whose graphs share activity, state and feature
names."""

import json
import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_graph, random_rule
from mdpcompose.errors import UnknownSituationError
from mdpcompose.json_io import from_json, to_json
from mdpcompose.kg import Action, Concept
from mdpcompose.simulation import initial_features, recognize_state
from mdpcompose.store import Store, graph_of_state, recognize_across

# --- reference scans: the lookups as they were before the store ----------


def _scan_recognize(graphs, features):
    for graph in graphs:
        try:
            return graph, recognize_state(graph, features)
        except UnknownSituationError:
            continue
    raise UnknownSituationError("observed features match no state in the store")


def _scan_graph_of_state(graphs, state_name):
    for graph in graphs:
        entity = graph.find(state_name)
        if entity is not None and entity.concept is Concept.STATE:
            return graph
    raise UnknownSituationError(f"state {state_name!r} is not in the store")


def _scan_activities(graphs):
    index = {}
    for graph in graphs:
        for activity in graph.activities:
            index.setdefault(activity.name, graph)
    return index


# --- fuzzed stores with shared names -------------------------------------

_TAGS = (1, 2)
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a list is no feature value: Comparison.evaluate raises TypeError on it
_VALUES = [0, 1, 0.0, 1.0, 0.5, 2, -1, True, False, "on", None, [0.0]]


def _renamed(value, rename):
    """``value`` with every name token in its strings mapped by ``rename``:
    references and rule expressions alike."""
    if isinstance(value, str):
        return _NAME.sub(lambda m: rename.get(m.group(), m.group()), value)
    if isinstance(value, list):
        return [_renamed(item, rename) for item in value]
    if isinstance(value, dict):
        return {key: _renamed(item, rename) for key, item in value.items()}
    return value


def fuzzed_store_graphs(seed):
    """Two to five fuzzed graphs whose names carry one of two shared tags in
    place of their own, so graphs share names, lead features and matching
    states. About half the state rules are random ones, and some graphs
    name an action after a state of the other tag."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(rng.randint(2, 5)):
        document = json.loads(to_json(make_random_graph(rng)))
        entities = document["entities"]
        own = next(e["name"] for e in entities if e["concept"] == "Activity").split("_")[1]
        tag, other = rng.sample(_TAGS, 2)
        # every name holds its tag once, after a prefix without digits
        rename = {e["name"]: e["name"].replace(own, str(tag), 1) for e in entities}
        if rng.random() < 0.4:
            action = rng.choice([e["name"] for e in entities if e["concept"] == "Action"])
            rename[action] = f"S{other}_0_Done"
        document = _renamed(document, rename)
        for entity in document["entities"]:
            if entity["concept"] == "State" and rng.random() < 0.5:
                declared = entity["properties"]["hasObservationFeature"]
                entity["properties"]["hasExpression"] = random_rule(rng, declared)
        graphs.append(from_json(json.dumps(document)))
    return graphs


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exception is part of the answer
        return "raised", type(exc), str(exc)


def _position(graphs, graph):
    return next(k for k, g in enumerate(graphs) if g is graph)


def _feature_maps(data, graphs, count):
    keys = sorted({f.name for g in graphs for f in g.features}) + ["Bogus"]
    maps = st.dictionaries(st.sampled_from(keys), st.sampled_from(_VALUES))
    out = [data.draw(maps) for _ in range(count)]
    for graph in graphs:
        for entry in graph.recognition_order():
            # maps over one rule's features, so that matches, ties across
            # graphs and rules that raise are common
            names = sorted(entry.rule.feature_names())
            out.append(data.draw(st.dictionaries(st.sampled_from(names), st.sampled_from(_VALUES))))
            out.append(dict(entry.rule.pinned_values()))
    return out


# --- equivalence ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.data())
def test_recognize_across_equals_the_graph_scan(seed, data):
    graphs = fuzzed_store_graphs(seed)
    store = Store(graphs)

    def indexed(features):
        graph, state = recognize_across(store, features)
        return _position(graphs, graph), state

    def scanned(features):
        graph, state = _scan_recognize(graphs, features)
        return _position(graphs, graph), state

    for features in _feature_maps(data, graphs, 8):
        assert _outcome(indexed, features) == _outcome(scanned, features), features


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_graph_of_state_and_activities_equal_the_graph_scan(seed):
    graphs = fuzzed_store_graphs(seed)
    store = Store(graphs)
    names = sorted({e.name for g in graphs for e in g.entities()}) + ["NotAState"]
    for name in names:
        indexed = _outcome(lambda n: _position(graphs, graph_of_state(store, n)), name)
        scanned = _outcome(lambda n: _position(graphs, _scan_graph_of_state(graphs, n)), name)
        assert indexed == scanned, name
    reference = _scan_activities(graphs)
    assert list(store.activities) == list(reference)
    assert all(store.activities[name] is graph for name, graph in reference.items())
    assert store.graphs == tuple(graphs)


def test_fuzzed_stores_share_names_tie_and_raise():
    """The fuzzer makes the cases the equivalence tests exist for."""
    shared_leads = ties = state_after_action = type_errors = 0
    for seed in range(40):
        graphs = fuzzed_store_graphs(seed)
        store = Store(graphs)
        shared_leads += any(
            len({position for position, _rank, _entry in triples}) > 1
            for triples in store.entries_by_lead.values()
        )
        for k, graph in enumerate(graphs):
            for entry in graph.recognition_order():
                pinned = dict(entry.rule.pinned_values())
                matching = [g for g in graphs if _outcome(recognize_state, g, pinned)[0] == "ok"]
                ties += len(matching) > 1
                state_after_action += any(
                    isinstance(g.find(entry.state.name), Action) for g in graphs[:k]
                )
                listed = {**pinned, entry.lead_feature: [0.0]}
                type_errors += _outcome(recognize_across, store, listed)[1] is TypeError
    assert shared_leads > 10
    assert ties > 10
    assert state_after_action > 0
    assert type_errors > 10


def test_recognize_across_first_graph_in_store_order_wins():
    rng = random.Random(11)
    first, second = make_random_graph(rng), make_random_graph(rng)
    first_state, first_features = _initial(first)
    second_state, second_features = _initial(second)
    assert first_state != second_state
    # both graphs have a state whose rule holds for these features
    features = {**first_features, **second_features}
    graph, state = recognize_across(Store([first, second]), features)
    assert graph is first and state.state_label == first_state
    graph, state = recognize_across(Store([second, first]), features)
    assert graph is second and state.state_label == second_state


def _initial(graph):
    activity = graph.activities[0]
    state = next(s for s in activity.states if graph.get(s).is_initial_state)
    return state, initial_features(graph, activity.name)
