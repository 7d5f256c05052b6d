import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from conftest import make_random_graph
from mdpcompose import composer
from mdpcompose.composer import (
    AgentResult,
    ComposerConfig,
    _run_agent,
    compose,
    policy_table_json,
    select_best,
)
from mdpcompose.embedding import Vocabulary, build_vocabulary
from mdpcompose.errors import CompositionFailureError, UnknownSituationError
from mdpcompose.kg import (
    Action,
    Activity,
    CommunicationType,
    Concept,
    Effect,
    FeatureType,
    ImpactType,
    KnowledgeGraph,
    ObservationFeature,
    State,
    Transition,
)
from mdpcompose.simulation import SimConfig, SimState, initial_features, start_state
from mdpcompose.space import EmbeddingSpace
from mdpcompose.vhome import action_sequence


def _start(graph, name):
    activity = graph.get(name)
    initial = next(s for s in activity.states if graph.get(s).is_initial_state)
    return SimState(feature_values=initial_features(graph, name), state_label=initial)


# --- select_best ---------------------------------------------------------


def _result(action, distance, reward, goal=False):
    return AgentResult(
        action, distance, SimState(state_label="X", reward=reward, is_goal=goal)
    )


def test_select_best_argmax_reward():
    results = [_result("a", 0.1, 0.25), _result("b", 0.1, -0.25), _result("c", 0.1, 0.5)]
    assert select_best(results).action == "c"


def test_select_best_distance_breaks_reward_ties():
    results = [_result("a", 0.4, 0.5), _result("b", 0.3, 0.5)]
    assert select_best(results).action == "b"


def test_select_best_full_tie_uses_name():
    results = [_result("b", 0.3, 0.5), _result("a", 0.3, 0.5)]
    assert select_best(results).action == "a"


def test_select_best_empty_rejected():
    with pytest.raises(ValueError):
        select_best([])


# --- composing over the trained mini-corpus -----------------------------


def test_watch_tv_policy_matches_ground_truth(corpus, graphs, desk_space):
    script = next(s for s in corpus.scripts if s.activity_name == "Watch_TV_49")
    g = graphs["Watch_TV_49"]
    table, trace = compose(g, desk_space, _start(g, "Watch_TV_49"))
    assert table.rows[0].rank == 1
    assert list(table.rows[0].actions) == action_sequence(script)
    assert table.rows[0].cumulative == pytest.approx(7.0)
    assert trace.episodes == 1


def test_committed_rewards_strictly_increase(graphs, desk_space):
    g = graphs["Wash_dishes"]
    table, _ = compose(g, desk_space, _start(g, "Wash_dishes"))
    rewards = table.rows[0].rewards
    assert all(b > a for a, b in zip(rewards, rewards[1:]))


def test_radius_resets_after_commit(graphs, desk_space):
    g = graphs["Clean_kitchen"]
    cfg = ComposerConfig(max_distance=0.25)
    _, trace = compose(g, desk_space, _start(g, "Clean_kitchen"), cfg)
    committed_rounds = [r for r in trace.rounds if r.committed]
    for i, r in enumerate(trace.rounds):
        if i == 0 or trace.rounds[i - 1].committed:
            assert r.radius == pytest.approx(0.25)
    assert len(committed_rounds) == len(trace.commit_radii)


def test_unrecognized_initial_state_rejected(graphs, desk_space):
    g = graphs["Watch_TV_49"]
    with pytest.raises(UnknownSituationError):
        compose(g, desk_space, SimState(feature_values={"Nothing": 1.0}))


def test_no_state_leaks_between_compositions(graphs, desk_space):
    tables = []
    for name in ("Do_laundry", "Make_coffee", "Do_laundry"):
        # Make_coffee runs on the same graph store and space in between
        table, _ = compose(graphs[name], desk_space, _start(graphs[name], name))
        tables.append(policy_table_json(table))
    assert tables[0] == tables[2]
    assert tables[0] != tables[1]


# --- one agent per (commit, action) --------------------------------------


def _repeated_candidates(trace) -> int:
    """Candidates that an earlier round since the last commit already had."""
    repeats, seen = 0, set()
    for rnd in trace.rounds:
        repeats += sum(1 for action, _ in rnd.results if action in seen)
        seen.update(action for action, _ in rnd.results)
        if rnd.committed:
            seen = set()
    return repeats


def _check_against_fresh_agents(graph, start, trace, sim_cfg):
    """Replay the trace with a fresh agent for every candidate of every
    round: results, winners and commits must be those of the traced run."""
    current, _ = start_state(graph, start)
    for rnd in trace.rounds:
        fresh = [_run_agent(graph, current, sim_cfg, a, d) for a, d in rnd.candidates]
        assert rnd.results == [(r.action, r.state.reward) for r in fresh]
        if rnd.committed:
            best = select_best(fresh)
            assert rnd.chosen == best.action
            current = best.state
    assert current.is_goal


def _fuzzed_cases(graphs, desk_space):
    for name, graph in graphs.items():
        yield graph, desk_space, _start(graph, name), SimConfig()
    for seed in range(40):
        graph = make_random_graph(random.Random(seed))
        vocab = build_vocabulary([graph])
        space = EmbeddingSpace(vocab, np.random.default_rng(seed).normal(size=(len(vocab), 8)))
        start = _start(graph, graph.activities[0].name)
        for sim_cfg in (SimConfig(), SimConfig(stochastic=True, rng_seed=seed)):
            yield graph, space, start, sim_cfg


def test_each_candidate_is_simulated_once_per_commit(graphs, desk_space, monkeypatch):
    steps = Counter()
    make = composer.make_simulation

    def counting(graph, initial, cfg=None):
        step = make(graph, initial, cfg)

        def counted(action):
            steps[initial.step_index, initial.state_label, action] += 1
            return step(action)

        return counted

    reused = 0
    for graph, space, start, sim_cfg in _fuzzed_cases(graphs, desk_space):
        steps.clear()
        with monkeypatch.context() as patch:
            patch.setattr(composer, "make_simulation", counting)
            _table, trace = compose(graph, space, start, sim_cfg=sim_cfg)
        assert set(steps.values()) <= {1}
        reused += _repeated_candidates(trace)
        _check_against_fresh_agents(graph, start, trace, sim_cfg)
    assert reused > 0  # some candidates did come back after the radius grew


# --- crafted fixtures ----------------------------------------------------


def _single_action_graph(goal_action="Press_button_1"):
    g = KnowledgeGraph()
    g.add(
        ObservationFeature(
            name="IsPressed", range_start=0.0, range_end=1.0,
            feature_type=FeatureType.NOMINAL, unit="",
        )
    )
    g.add(
        State(
            name="Ready", is_initial_state=True, is_final_state=False, is_goal=False,
            reward=0.0, expression="IsPressed == 0", observation_features=["IsPressed"],
        )
    )
    g.add(
        State(
            name="Pressed", is_initial_state=False, is_final_state=True, is_goal=True,
            reward=0.0, expression="IsPressed == 1", observation_features=["IsPressed"],
        )
    )
    g.add(Effect(name="SetPressed", target_features=["IsPressed"], impact_type=ImpactType.ON))
    g.add(
        Transition(
            name="T", previous_state="Ready", next_state="Pressed",
            action=goal_action, probability=1.0,
        )
    )
    g.add(Action(name=goal_action, effects=["SetPressed"], transitions=["T"]))
    g.add(
        Activity(
            name="Press", is_sequential=True, number_of_actors=1,
            communication_type=CommunicationType.ASYNCHRONOUS,
            states=["Ready", "Pressed"], actions=[goal_action],
            observation_features=["IsPressed"],
        )
    )
    g.validate()
    return g


def _space_with(entries):
    vocab = Vocabulary()
    rows = []
    for name, concept, vector in entries:
        vocab.add(name, concept)
        rows.append(vector)
    return EmbeddingSpace(vocab, np.array(rows, dtype=float))


def test_single_action_within_radius_composes_without_expansion():
    g = _single_action_graph()
    space = _space_with(
        [
            ("Ready", Concept.STATE, [1.0, 0.0]),
            ("Pressed", Concept.STATE, [0.8, 0.6]),
            ("Press_button_1", Concept.ACTION, [0.999, 0.01]),
        ]
    )
    table, trace = compose(g, space, SimState(feature_values={"IsPressed": 0.0}, state_label="Ready"))
    assert [r.radius for r in trace.rounds] == [0.25]
    assert list(table.rows[0].actions) == ["Press_button_1"]
    assert trace.commit_radii == [0.25]


def test_radius_expansion_sequence_for_distant_action():
    # the useful action sits at cosine distance 0.6: radii 0.25 and 0.5
    # find nothing, 0.75 succeeds
    g = _single_action_graph()
    angle = math.acos(0.4)
    space = _space_with(
        [
            ("Ready", Concept.STATE, [1.0, 0.0]),
            ("Pressed", Concept.STATE, [0.0, -1.0]),
            ("Press_button_1", Concept.ACTION, [math.cos(angle), math.sin(angle)]),
        ]
    )
    _, trace = compose(g, space, SimState(feature_values={"IsPressed": 0.0}, state_label="Ready"))
    assert trace.radii == [0.25, 0.5, 0.75]
    assert trace.commit_radii == [0.75]
    assert trace.steps == 3


def test_composition_fails_beyond_radius_cap():
    g = _single_action_graph()
    # no action carries a transition from Ready, so nothing ever improves
    space = _space_with(
        [
            ("Ready", Concept.STATE, [1.0, 0.0]),
            ("Pressed", Concept.STATE, [0.0, 1.0]),
            ("Press_button_1", Concept.ACTION, [1.0, 0.0]),
            ("Useless_action", Concept.ACTION, [1.0, 0.0]),
        ]
    )
    bad_start = SimState(feature_values={"IsPressed": 0.0}, state_label="Ready")
    cfg = ComposerConfig(radius_cap=0.5)
    broken = _single_action_graph(goal_action="Unreachable_1")
    with pytest.raises(CompositionFailureError):
        compose(broken, space, bad_start, cfg)


def test_foreign_candidate_actions_are_penalized_not_fatal():
    g = _single_action_graph()
    space = _space_with(
        [
            ("Ready", Concept.STATE, [1.0, 0.0]),
            ("Pressed", Concept.STATE, [0.0, 1.0]),
            ("Foreign_action", Concept.ACTION, [1.0, 0.0]),       # distance 0
            ("Press_button_1", Concept.ACTION, [0.995, 0.0999]),  # close enough
        ]
    )
    table, trace = compose(g, space, SimState(feature_values={"IsPressed": 0.0}, state_label="Ready"))
    assert list(table.rows[0].actions) == ["Press_button_1"]
    assert trace.wrong_decisions >= 1


def _two_goal_graph():
    g = KnowledgeGraph()
    g.add(
        ObservationFeature(
            name="Done", range_start=0.0, range_end=1.0,
            feature_type=FeatureType.NOMINAL, unit="",
        )
    )
    g.add(
        State(
            name="Begin", is_initial_state=True, is_final_state=False, is_goal=False,
            reward=0.0, expression="Done == 0", observation_features=["Done"],
        )
    )
    g.add(
        State(
            name="Finished", is_initial_state=False, is_final_state=True, is_goal=True,
            reward=0.0, expression="Done == 1", observation_features=["Done"],
        )
    )
    g.add(Effect(name="SetDone", target_features=["Done"], impact_type=ImpactType.ON))
    for action in ("Route_a", "Route_b"):
        g.add(
            Transition(
                name=f"T_{action}", previous_state="Begin", next_state="Finished",
                action=action, probability=1.0,
            )
        )
        g.add(Action(name=action, effects=["SetDone"], transitions=[f"T_{action}"]))
    g.add(
        Activity(
            name="TwoRoutes", is_sequential=True, number_of_actors=1,
            communication_type=CommunicationType.ASYNCHRONOUS,
            states=["Begin", "Finished"], actions=["Route_a", "Route_b"],
            observation_features=["Done"],
        )
    )
    g.validate()
    return g


def test_alternative_goal_paths_become_lower_ranks():
    g = _two_goal_graph()
    space = _space_with(
        [
            ("Begin", Concept.STATE, [1.0, 0.0]),
            ("Finished", Concept.STATE, [0.0, 1.0]),
            ("Route_a", Concept.ACTION, [0.999, 0.04]),
            ("Route_b", Concept.ACTION, [0.99, 0.14]),
        ]
    )
    table, _ = compose(g, space, SimState(feature_values={"Done": 0.0}, state_label="Begin"))
    assert len(table.rows) == 2
    assert list(table.rows[0].actions) == ["Route_a"]  # closer action wins the tie
    assert list(table.rows[1].actions) == ["Route_b"]
    assert table.rows[1].rank == 2
    assert table.rows[0].cumulative == table.rows[1].cumulative == pytest.approx(0.25)


def test_step_budget_exhaustion_raises():
    g = _two_goal_graph()
    space = _space_with(
        [
            ("Begin", Concept.STATE, [1.0, 0.0]),
            ("Finished", Concept.STATE, [0.0, 1.0]),
            ("Route_a", Concept.ACTION, [-1.0, 0.0]),
            ("Route_b", Concept.ACTION, [-1.0, 0.0]),
        ]
    )
    cfg = ComposerConfig(step_budget=2)
    with pytest.raises(CompositionFailureError) as err:
        compose(g, space, SimState(feature_values={"Done": 0.0}, state_label="Begin"), cfg)
    assert "budget" in str(err.value)


def test_policy_json_shape():
    g = _single_action_graph()
    space = _space_with(
        [
            ("Ready", Concept.STATE, [1.0, 0.0]),
            ("Pressed", Concept.STATE, [0.0, 1.0]),
            ("Press_button_1", Concept.ACTION, [1.0, 0.0]),
        ]
    )
    table, _ = compose(g, space, SimState(feature_values={"IsPressed": 0.0}, state_label="Ready"))
    document = json.loads(policy_table_json(table))
    assert document == {
        "policies": [
            {"rank": 1, "actions": ["Press_button_1"], "rewards": [0.25], "cumulative": 0.25}
        ]
    }


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        ComposerConfig(max_distance=0.0)
    with pytest.raises(ValueError):
        ComposerConfig(max_distance=3.0, radius_cap=2.0)


# --- properties over fuzzed graphs ---------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.one_of(
        # radii that land on the cap
        st.sampled_from([(0.125, 0.125), (0.25, 0.25), (0.5, 0.25), (0.5, 0.5), (2.0, 0.25)]),
        # radii whose steps skip the cap, so only the cap itself reaches
        # every action
        st.tuples(st.floats(min_value=0.01, max_value=2.0), st.floats(min_value=0.05, max_value=1.0)),
    ),
)
def test_composition_invariants_on_fuzzed_graphs(seed, radii):
    _check_composition_invariants(seed, *radii)


def test_composition_reaches_a_radius_cap_off_the_step_grid():
    # radii 0.05, 0.30, ..., 1.80 never reach the cap of 2.0; A5608_5 lies
    # at 1.842 from S5608_4_Done, so only the cap itself finds it
    trace = _check_composition_invariants(186, 0.05, 0.25)
    assert 2.0 in trace.commit_radii


def test_radius_cap_off_the_step_grid_is_tried_once_before_failing(monkeypatch):
    radii = []
    find = EmbeddingSpace.find_closest_actions

    def recording(self, state_name, radius):
        radii.append(radius)
        return find(self, state_name, radius)

    monkeypatch.setattr(EmbeddingSpace, "find_closest_actions", recording)
    space = _space_with(
        [
            ("Ready", Concept.STATE, [1.0, 0.0]),
            ("Pressed", Concept.STATE, [0.0, 1.0]),
            ("Press_button_1", Concept.ACTION, [1.0, 0.0]),
        ]
    )
    start = SimState(feature_values={"IsPressed": 0.0}, state_label="Ready")
    cfg = ComposerConfig(max_distance=0.2, radius_step=0.25, radius_cap=0.5)
    with pytest.raises(CompositionFailureError):
        compose(_single_action_graph(goal_action="Unreachable_1"), space, start, cfg)
    assert radii == [0.2, 0.45, 0.5]


def _check_composition_invariants(seed, max_distance, radius_step):
    g = make_random_graph(random.Random(seed))
    vocab = build_vocabulary([g])
    matrix = np.random.default_rng(seed).normal(size=(len(vocab), 8))
    cfg = ComposerConfig(max_distance=max_distance, radius_step=radius_step)
    name = g.activities[0].name
    table, trace = compose(g, EmbeddingSpace(vocab, matrix), _start(g, name), cfg)

    committed = [r for r in trace.rounds if r.committed]
    # committed rewards strictly increase
    rewards = table.rows[0].rewards
    assert all(b > a for a, b in zip(rewards, rewards[1:]))
    assert list(rewards) == [dict(r.results)[r.chosen] for r in committed]
    # rank 1 is the committed path
    assert table.rows[0].rank == 1
    assert table.rows[0].actions == tuple(r.chosen for r in committed)
    assert [row.rank for row in table.rows] == list(range(1, len(table.rows) + 1))
    # radii grow by one step, up to the cap, between commits and reset
    # after each commit
    for previous, current in zip([None] + trace.rounds, trace.rounds):
        if previous is None or previous.committed:
            assert current.radius == max_distance
        else:
            assert current.radius == pytest.approx(min(previous.radius + radius_step, cfg.radius_cap))
    assert trace.commit_radii == [r.radius for r in committed]
    assert trace.rounds[-1].committed
    return trace
