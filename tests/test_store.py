import random

from conftest import make_random_graph
from mdpcompose.simulation import initial_features
from mdpcompose.store import recognize_across


def _initial(graph):
    activity = graph.activities[0]
    state = next(s for s in activity.states if graph.get(s).is_initial_state)
    return state, initial_features(graph, activity.name)


def test_recognize_across_first_graph_in_store_order_wins():
    rng = random.Random(11)
    first, second = make_random_graph(rng), make_random_graph(rng)
    first_state, first_features = _initial(first)
    second_state, second_features = _initial(second)
    assert first_state != second_state
    # both graphs have a state whose rule holds for these features
    features = {**first_features, **second_features}
    graph, state = recognize_across([first, second], features)
    assert graph is first and state.state_label == first_state
    graph, state = recognize_across([second, first], features)
    assert graph is second and state.state_label == second_state
