import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_graph
from mdpcompose import composer
from mdpcompose.composer import (
    CompositionTrace,
    PolicyRow,
    PolicyTable,
    TraceRound,
    compose,
    policy_table_json,
)
from mdpcompose.embedding import Vocabulary, build_vocabulary
from mdpcompose.errors import (
    ActivityTerminatedError,
    CompositionFailureError,
    EvaluationError,
    StepLimitExceededError,
    UnknownEntityError,
    UnknownSituationError,
)
from mdpcompose.kg import (
    Action,
    Activity,
    CommunicationType,
    Concept,
    Effect,
    Equation,
    FeatureType,
    ImpactType,
    KnowledgeGraph,
    ObservationFeature,
    Parameter,
    State,
    Transition,
)
from mdpcompose.simulation import (
    SimState,
    Start,
    default_step_limit,
    initial_features,
    make_simulation,
    start_state,
    state_features,
    wrong_step,
)
from mdpcompose.space import EmbeddingSpace
from mdpcompose.vhome import action_sequence


def _start(graph, name):
    activity = graph.get(name)
    initial = next(s for s in activity.states if graph.get(s).is_initial_state)
    return SimState(feature_values=initial_features(graph, name), state_label=initial)


def _with_steps_left(graph, state: SimState, steps: int | None) -> SimState:
    """``state`` moved to ``steps`` steps before the graph's step limit;
    None leaves it where it is."""
    if steps is not None:
        state.step_index += default_step_limit(graph) - steps
    return state


# --- the fresh-agent reference's pick -----------------------------------


@dataclass(frozen=True)
class AgentResult:
    action: str
    distance: float
    state: SimState


def select_best(results: list[AgentResult]) -> AgentResult:
    """Deterministic argmax: reward, then smaller embedding distance, then
    lexicographic action name."""
    if not results:
        raise ValueError("no agent results to select from")
    return min(results, key=lambda r: (-r.state.reward, r.distance, r.action))


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
    _, trace = compose(g, desk_space, _start(g, "Clean_kitchen"))
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


# --- one agent per (commit, action with a transition) ------------------


def _repeated_candidates(trace) -> int:
    """Candidates that an earlier round since the last commit already had."""
    repeats, seen = 0, set()
    for rnd in trace.rounds:
        repeats += sum(1 for action, _ in rnd.results if action in seen)
        seen.update(action for action, _ in rnd.results)
        if rnd.committed:
            seen = set()
    return repeats


def _run_agent(graph, current: SimState, action: str, distance: float) -> AgentResult:
    """The reference agent: a fresh ``make_simulation`` closure, which
    validates ``current`` itself, for every candidate in the graph."""
    if graph.find(action) is None:
        return AgentResult(action, distance, wrong_step(current.clone()))
    return AgentResult(action, distance, make_simulation(graph, current)(action))


def _check_against_fresh_agents(graph, start, trace):
    """Replay the trace with a fresh agent for every candidate of every
    round: results, winners and commits must be those of the traced run."""
    current = start_state(graph, start).state
    for rnd in trace.rounds:
        fresh = [_run_agent(graph, current, a, d) for a, d in rnd.candidates]
        assert rnd.results == [(r.action, r.state.reward) for r in fresh]
        if rnd.committed:
            best = select_best(fresh)
            assert rnd.chosen == best.action
            current = best.state
    assert current.is_goal


def _fuzzed_cases(graphs, desk_space):
    for name, graph in graphs.items():
        yield graph, desk_space, _start(graph, name)
    for seed in range(40):
        graph = make_random_graph(random.Random(seed))
        vocab = build_vocabulary([graph])
        space = EmbeddingSpace(vocab, np.random.default_rng(seed).normal(size=(len(vocab), 8)))
        yield graph, space, _start(graph, graph.activities[0].name)


def _moves(graph, start: Start, action: str) -> bool:
    """Whether ``action`` names an action with a transition from the start
    state that stays in the start's activity, read from the graph's full
    transition list rather than its index."""
    if not isinstance(graph.find(action), Action):
        return False
    scope = start.scope
    return any(
        t.previous_state == start.state.state_label
        and t.action == action
        and (scope is None or (t.next_state in scope.states and t.action in scope.actions))
        for t in graph.transitions
    )


def _commit_runs(trace):
    """The rounds between two commits, each run ending in its commit."""
    runs = [[]]
    for rnd in trace.rounds:
        runs[-1].append(rnd)
        if rnd.committed:
            runs.append([])
    return runs[:-1]  # a composition ends with a commit


def test_each_candidate_is_simulated_once_per_commit(graphs, desk_space, monkeypatch):
    """An agent runs once per commit for every candidate with a scoped
    transition from that commit's start, and for no other candidate. The
    scoped transition check runs at most once per commit and action, and
    only for an action with a transition from that commit's start."""
    starts = []  # one entry per start_state call: a commit's start
    steps = Counter()  # (start_state calls so far, action) -> agent steps
    checks = Counter()  # (start_state calls so far, action) -> scoped checks
    validate, make = composer.start_state, composer.make_simulation
    scoped = composer.scoped_transitions

    def counting_start(graph, initial):
        starts.append(validate(graph, initial))
        return starts[-1]

    def counting_make(graph, initial):
        assert isinstance(initial, Start)  # validated by start_state above
        step = make(graph, initial)

        def counted(action):
            steps[len(starts), action] += 1
            return step(action)

        return counted

    def counting_scoped(graph, start, state, action):
        checks[len(starts), action] += 1
        return scoped(graph, start, state, action)

    monkeypatch.setattr(composer, "start_state", counting_start)
    monkeypatch.setattr(composer, "make_simulation", counting_make)
    monkeypatch.setattr(composer, "scoped_transitions", counting_scoped)
    reused = charged = 0
    for graph, space, start in _fuzzed_cases(graphs, desk_space):
        starts.clear()
        steps.clear()
        checks.clear()
        _table, trace = compose(graph, space, start)
        assert steps and set(steps.values()) == {1}
        assert set(checks.values()) == {1}
        # the initial state, then the state of every commit but the last
        assert len(starts) == max(1, len(trace.commit_radii))
        runs = _commit_runs(trace)
        assert len(runs) == len(starts)
        for index, (run, run_start) in enumerate(zip(runs, starts), start=1):
            candidates = {action for rnd in run for action, _distance in rnd.candidates}
            moving = {action for action in candidates if _moves(graph, run_start, action)}
            assert {action for n, action in steps if n == index} == moving
            label = run_start.state.state_label
            with_transition = {t.action for t in graph.transitions if t.previous_state == label}
            assert {action for n, action in checks if n == index} <= with_transition
            charged += len(candidates - moving)
        reused += _repeated_candidates(trace)
        _check_against_fresh_agents(graph, start, trace)
    assert reused > 0  # some candidates did come back after the radius grew
    assert charged > 0  # and some were charged without a simulation


# --- the reference composition: a fresh closure per agent ----------------


def _reference_compose(graph, space, initial_state):
    """``compose`` with every agent run by ``_run_agent``: a candidate's
    start state is validated by its own ``make_simulation`` call. The radius
    grows by 0.25 up to 2.0, and the budget is 50 rounds per state."""
    current = start_state(graph, initial_state).state
    budget = 50 * max(1, len(graph.states))
    trace = CompositionTrace()
    committed_actions, committed_rewards = [], []
    alternatives = {}
    simulated = {}
    radius = 0.25
    while not current.is_goal:
        if len(trace.rounds) >= budget:
            raise CompositionFailureError(f"step budget {budget} exhausted before reaching a goal")
        candidates = space.find_closest_actions(current.state_label, radius)
        record = TraceRound(radius=radius, reward=current.reward, candidates=candidates, results=[])
        trace.rounds.append(record)
        results = []
        for action, distance in candidates:
            if action not in simulated:
                simulated[action] = _run_agent(graph, current, action, distance)
            results.append(simulated[action])
        record.results = [(r.action, r.state.reward) for r in results]
        best = select_best(results) if results else None
        if best is None or best.state.reward <= current.reward:
            if radius >= 2.0:
                raise CompositionFailureError(
                    f"no reward-improving action within radius cap "
                    f"2.0 from state {current.state_label!r}"
                )
            radius += 0.25
            continue
        for result in results:
            if result is not best and result.state.is_goal:
                actions = tuple(committed_actions) + (result.action,)
                rewards = tuple(committed_rewards) + (result.state.reward,)
                alternatives.setdefault(actions, (rewards, sum(rewards)))
        record.chosen, record.committed = best.action, True
        committed_actions.append(best.action)
        committed_rewards.append(best.state.reward)
        current = best.state
        simulated.clear()
        radius = 0.25
    trace.cumulative_reward = sum(committed_rewards)
    rows = [(tuple(committed_actions), tuple(committed_rewards), trace.cumulative_reward)]
    rows += [(a, r, c) for a, (r, c) in alternatives.items() if a != rows[0][0]]
    rows.sort(key=lambda row: (-row[2], row[0]))
    table = PolicyTable([PolicyRow(i + 1, a, r, c) for i, (a, r, c) in enumerate(rows)])
    return table, trace


def _outcome(run, *args, **kwargs):
    """The policy JSON and the trace of a composition, or the type and
    message of the error it raised."""
    try:
        table, trace = run(*args, **kwargs)
    except Exception as exc:  # every error must match the reference's
        return type(exc), str(exc)
    return policy_table_json(table), trace


def _assert_matches_reference(*args, **kwargs):
    # trace equality compares every field of every round, its starting reward too
    outcome = _outcome(compose, *args, **kwargs)
    assert outcome == _outcome(_reference_compose, *args, **kwargs)
    return outcome


def test_desk_compositions_match_the_reference(graphs, desk_space):
    composed = 0
    for name, graph in graphs.items():
        for state in graph.get(name).states:
            start = SimState(feature_values=state_features(graph, state), state_label=state)
            outcome = _assert_matches_reference(graph, desk_space, start)
            composed += isinstance(outcome[0], str)
    assert composed > 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
)
def test_fuzzed_compositions_match_the_reference(seed, steps_left):
    graph = make_random_graph(random.Random(seed))
    vocab = build_vocabulary([graph])
    space = EmbeddingSpace(vocab, np.random.default_rng(seed).normal(size=(len(vocab), 8)))
    start = _with_steps_left(graph, _start(graph, graph.activities[0].name), steps_left)
    _assert_matches_reference(graph, space, start)


# --- the desk policy bytes and traces ------------------------------------

DESK_POLICY_SHA256 = "83870c8380050e0528ee8f20f387b0362078d5deaa547910c8d2103c44899b8d"
DESK_TRACE_SHA256 = "1a1bd1db26d2dd52d616e86952d1cdd7e4cb701a31201a72a74fb9f217ffb5c1"

_DESK_ERRORS = (
    ActivityTerminatedError,
    CompositionFailureError,
    StepLimitExceededError,
    UnknownEntityError,
    UnknownSituationError,
)


def _desk_digest(graphs, space, render):
    """Every state of the 12 desk activities, labelled and with its
    features: ``render(table, trace)``, or the error's class, hashed in
    order."""
    digest = hashlib.sha256()
    for name in sorted(graphs):
        graph = graphs[name]
        for state in graph.get(name).states:
            start = SimState(feature_values=state_features(graph, state), state_label=state)
            try:
                payload = render(*compose(graph, space, start))
            except _DESK_ERRORS as exc:
                payload = type(exc).__name__
            digest.update(f"{name}\t{state}\t{payload}\n".encode())
    return digest.hexdigest()


def _trace_json(trace: CompositionTrace) -> str:
    """The canonical JSON of a trace: every round, and the totals."""
    return json.dumps(
        {
            "rounds": [
                {
                    "radius": rnd.radius,
                    "candidates": rnd.candidates,
                    "results": rnd.results,
                    "chosen": rnd.chosen,
                    "committed": rnd.committed,
                }
                for rnd in trace.rounds
            ],
            "steps": trace.steps,
            "agent_steps": trace.agent_steps,
            "wrong_decisions": trace.wrong_decisions,
            "commit_radii": trace.commit_radii,
            "cumulative_reward": trace.cumulative_reward,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def test_desk_policy_bytes_are_pinned(graphs, desk_space):
    digest = _desk_digest(graphs, desk_space, lambda table, _trace: policy_table_json(table))
    assert digest == DESK_POLICY_SHA256


def test_desk_traces_are_pinned(graphs, desk_space):
    digest = _desk_digest(graphs, desk_space, lambda _table, trace: _trace_json(trace))
    assert digest == DESK_TRACE_SHA256


# --- crafted fixtures ----------------------------------------------------


def _single_action_graph(
    goal_action="Press_button_1", pressed_expression="IsPressed == 1", pressed_goal=True
):
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
            name="Pressed", is_initial_state=False, is_final_state=True, is_goal=pressed_goal,
            reward=0.0, expression=pressed_expression, observation_features=["IsPressed"],
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
    assert [r.radius for r in trace.rounds] == [0.25, 0.5, 0.75]
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
    broken = _single_action_graph(goal_action="Unreachable_1")
    with pytest.raises(CompositionFailureError, match="radius cap 2.0"):
        compose(broken, space, bad_start)


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


def test_step_budget_exhaustion_raises(monkeypatch):
    # Go_1 leads from A to C and Go_2 back, where A's rule pins Pos to 0
    # again; the final state D is never reached and no state is a goal.
    # Every commit of the sequential loop gains 0.25, so each round commits
    # until the 150 rounds of three states run out
    g = _graph({"Loop": (True, "ACD", "A", "D", "", [("Go_1", "A", "C"), ("Go_2", "C", "A")])})
    space = _space_with(
        [
            ("A", Concept.STATE, _at(0)),
            ("C", Concept.STATE, _at(0)),
            ("Go_1", Concept.ACTION, _at(10)),
            ("Go_2", Concept.ACTION, _at(20)),
        ]
    )
    radii = []
    find = EmbeddingSpace.find_closest_actions

    def recording(self, state_name, radius):
        radii.append(radius)
        return find(self, state_name, radius)

    monkeypatch.setattr(EmbeddingSpace, "find_closest_actions", recording)
    start = SimState(feature_values={"Pos": 0.0}, state_label="A")
    with pytest.raises(CompositionFailureError, match="step budget 150 exhausted"):
        compose(g, space, start)
    assert radii == [0.25] * 150
    outcome = _assert_matches_reference(g, space, start)
    assert outcome == (CompositionFailureError, "step budget 150 exhausted before reaching a goal")


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


# --- error paths against the reference -----------------------------------


def _error_of(outcome):
    assert not isinstance(outcome[0], str), "composition did not fail"
    return outcome[0]


def test_commit_onto_an_unrecognisable_state_fails_like_the_reference():
    # Pressed's rule never holds after the ON effect and pins no value, so
    # the commit lands on UNKNOWN; the space embeds that label, so the
    # next round's agents must validate it and fail
    g = _single_action_graph(pressed_expression="IsPressed > 5")
    space = _space_with(
        [
            ("Ready", Concept.STATE, [1.0, 0.0]),
            ("UNKNOWN", Concept.STATE, [1.0, 0.0]),
            ("Foreign_action", Concept.ACTION, [1.0, 0.0]),
            ("Press_button_1", Concept.ACTION, [0.999, 0.01]),
        ]
    )
    start = SimState(feature_values={"IsPressed": 0.0}, state_label="Ready")
    outcome = _assert_matches_reference(g, space, start)
    assert outcome == (UnknownSituationError, "observed features match no known state")


@pytest.mark.parametrize("steps_left", [None, 1])
def test_commit_onto_a_final_non_goal_state_fails_like_the_reference(steps_left):
    # at the step limit too: the terminated state is checked first
    g = _single_action_graph(pressed_goal=False)
    space = _space_with(
        [
            ("Ready", Concept.STATE, [1.0, 0.0]),
            ("Pressed", Concept.STATE, [1.0, 0.0]),
            ("Press_button_1", Concept.ACTION, [1.0, 0.0]),
        ]
    )
    start = SimState(feature_values={"IsPressed": 0.0}, state_label="Ready")
    outcome = _assert_matches_reference(g, space, _with_steps_left(g, start, steps_left))
    assert _error_of(outcome) is ActivityTerminatedError


def test_step_limit_fails_like_the_reference(graphs, desk_space):
    g = graphs["Watch_TV_49"]
    outcome = _assert_matches_reference(
        g, desk_space, _with_steps_left(g, _start(g, "Watch_TV_49"), 2)
    )
    assert _error_of(outcome) is StepLimitExceededError


@pytest.mark.parametrize(
    "steps_left, error", [(None, UnknownEntityError), (0, StepLimitExceededError)]
)
def test_candidate_naming_a_non_action_fails_like_the_reference(steps_left, error):
    # at the step limit, the limit is checked before the action's name
    g = _single_action_graph()
    space = _space_with(
        [
            ("Ready", Concept.STATE, [1.0, 0.0]),
            ("IsPressed", Concept.ACTION, [1.0, 0.0]),  # a feature in the graph
            ("Press_button_1", Concept.ACTION, [0.999, 0.01]),
        ]
    )
    start = SimState(feature_values={"IsPressed": 0.0}, state_label="Ready")
    outcome = _assert_matches_reference(g, space, _with_steps_left(g, start, steps_left))
    assert _error_of(outcome) is error


def _three_step_graph():
    """A -> B -> C (the goal) by Step_1 then Step_2, each raising Pos by
    one; D is a final state that no goal follows."""
    g = KnowledgeGraph()
    g.add(
        ObservationFeature(
            name="Pos", range_start=0.0, range_end=10.0,
            feature_type=FeatureType.NUMERICAL, unit="",
        )
    )
    for value, name in enumerate("ABCD"):
        g.add(
            State(
                name=name, is_initial_state=name == "A", is_final_state=name in "CD",
                is_goal=name == "C", reward=0.0, expression=f"Pos == {value}",
                observation_features=["Pos"],
            )
        )
    g.add(Effect(name="Advance", target_features=["Pos"], impact_type=ImpactType.INCREASE))
    for action, previous, following in (("Step_1", "A", "B"), ("Step_2", "B", "C")):
        g.add(
            Transition(
                name=f"T_{action}", previous_state=previous, next_state=following,
                action=action, probability=1.0,
            )
        )
        g.add(Action(name=action, effects=["Advance"], transitions=[f"T_{action}"]))
    g.add(
        Activity(
            name="Walk", is_sequential=True, number_of_actors=1,
            communication_type=CommunicationType.ASYNCHRONOUS,
            states=list("ABCD"), actions=["Step_1", "Step_2"],
            observation_features=["Pos"],
        )
    )
    g.validate()
    return g


def _at(degrees):
    return [math.cos(math.radians(degrees)), math.sin(math.radians(degrees))]


# Within radius 0.5 (60 degrees) A sees, closest first: Foreign (absent from
# the graph), Step_2 (no transition from A) and Step_1 (a transition). After
# the commit B sees Step_1 (no transition from B), Step_2 (a transition),
# Foreign, and then Pos and Advance, which the graph knows as a feature and
# an effect: the round fails at Pos.
_MIXED_SPACE = [
    ("A", Concept.STATE, _at(0)),
    ("B", Concept.STATE, _at(90)),
    ("D", Concept.STATE, _at(0)),
    ("Foreign", Concept.ACTION, _at(40)),
    ("Step_2", Concept.ACTION, _at(45)),
    ("Step_1", Concept.ACTION, _at(50)),
    ("Pos", Concept.ACTION, _at(145)),
    ("Advance", Concept.ACTION, _at(148)),
]


def test_rounds_mixing_every_kind_of_candidate_fail_like_the_reference():
    g, space = _three_step_graph(), _space_with(_MIXED_SPACE)
    assert [a for a, _d in space.find_closest_actions("A", 0.5)] == ["Foreign", "Step_2", "Step_1"]
    assert [a for a, _d in space.find_closest_actions("B", 0.5)] == [
        "Step_1", "Step_2", "Foreign", "Pos", "Advance",
    ]
    start = SimState(feature_values={"Pos": 0.0}, state_label="A")
    outcome = _assert_matches_reference(g, space, start)
    assert outcome == (UnknownEntityError, "unknown action 'Pos'")


@pytest.mark.parametrize(
    "label, step_index, error",
    [("D", 0, ActivityTerminatedError), ("A", 3, StepLimitExceededError)],
)
def test_mixed_rounds_from_a_stuck_start_fail_like_the_reference(label, step_index, error):
    # from a final non-goal state, and from a state at the step limit: the
    # candidate absent from the graph is charged, the next one fails
    g, space = _three_step_graph(), _space_with(_MIXED_SPACE)
    features = {"Pos": 3.0 if label == "D" else 0.0}
    start = _with_steps_left(
        g, SimState(feature_values=features, state_label=label, step_index=step_index), 3
    )
    outcome = _assert_matches_reference(g, space, start)
    assert _error_of(outcome) is error


def _dividing_graph():
    """A -> B (the goal) by Step, which raises Pos by one, or by Divide,
    whose COMPUTE effect divides Pos by a parameter bound to zero."""
    g = KnowledgeGraph()
    g.add(
        ObservationFeature(
            name="Pos", range_start=0.0, range_end=10.0,
            feature_type=FeatureType.NUMERICAL, unit="",
        )
    )
    for value, name in enumerate("AB"):
        g.add(
            State(
                name=name, is_initial_state=name == "A", is_final_state=name == "B",
                is_goal=name == "B", reward=0.0, expression=f"Pos == {value}",
                observation_features=["Pos"],
            )
        )
    g.add(Parameter(name="Zero", parameter_name="z", value=0.0))
    g.add(Equation(name="Ratio", expression="Pos / z", parameters=["Zero"]))
    g.add(Effect(name="Advance", target_features=["Pos"], impact_type=ImpactType.INCREASE))
    g.add(
        Effect(
            name="Halt", target_features=["Pos"],
            impact_type=ImpactType.COMPUTE, equation="Ratio",
        )
    )
    for action, effects in (("Step", ["Advance"]), ("Divide", ["Halt", "Advance"])):
        g.add(
            Transition(
                name=f"T_{action}", previous_state="A", next_state="B",
                action=action, probability=1.0,
            )
        )
        g.add(Action(name=action, effects=effects, transitions=[f"T_{action}"]))
    g.add(
        Activity(
            name="Walk", is_sequential=True, number_of_actors=1,
            communication_type=CommunicationType.ASYNCHRONOUS,
            states=["A", "B"], actions=["Step", "Divide"],
            observation_features=["Pos"],
        )
    )
    g.validate()
    return g


@pytest.mark.parametrize("divide_at, error", [(55, EvaluationError), (70, None)])
def test_a_raising_mover_first_found_at_a_grown_radius_fails_like_the_reference(
    divide_at, error
):
    # radius 0.25 (41 degrees) finds only Foreign, absent from the graph;
    # 0.5 (60 degrees) adds Step, which reaches the goal, and Divide at 55
    # degrees, whose agent raises. At 70 degrees Divide lies beyond the
    # radius that commits Step, so no agent ever runs it.
    g = _dividing_graph()
    space = _space_with(
        [
            ("A", Concept.STATE, _at(0)),
            ("B", Concept.STATE, _at(90)),
            ("Foreign", Concept.ACTION, _at(30)),
            ("Step", Concept.ACTION, _at(50)),
            ("Divide", Concept.ACTION, _at(divide_at)),
        ]
    )
    assert [a for a, _d in space.find_closest_actions("A", 0.25)] == ["Foreign"]
    start = SimState(feature_values={"Pos": 0.0}, state_label="A")
    outcome = _assert_matches_reference(g, space, start)
    if error is None:
        assert json.loads(outcome[0])["policies"][0]["actions"] == ["Step"]
        assert [r.radius for r in outcome[1].rounds] == [0.25, 0.5]
    else:
        assert _error_of(outcome) is error
        assert outcome[1].startswith("division by zero")


def _graph(activities, rewards=None):
    """One feature Pos in [0, 10]: A holds at Pos == 0, C and G at 1, D
    and H at 2, and B never. ``activities`` maps an activity to
    (sequential, states, initial, finals, goals, steps), each step
    (action, from, to) raising Pos by one."""
    g = KnowledgeGraph()
    g.add(
        ObservationFeature(
            name="Pos", range_start=0.0, range_end=10.0,
            feature_type=FeatureType.NUMERICAL, unit="",
        )
    )
    g.add(Effect(name="Advance", target_features=["Pos"], impact_type=ImpactType.INCREASE))
    for activity, (sequential, states, initial, finals, goals, steps) in activities.items():
        for name in states:
            value = {"A": 0, "C": 1, "G": 1, "D": 2, "H": 2}.get(name)
            g.add(
                State(
                    name=name, is_initial_state=name == initial, is_final_state=name in finals,
                    is_goal=name in goals, reward=(rewards or {}).get(name, 0.0),
                    expression="Pos > 20" if name == "B" else f"Pos == {value}",
                    observation_features=["Pos"],
                )
            )
        for action, previous, following in steps:
            g.add(
                Transition(
                    name=f"T_{action}", previous_state=previous, next_state=following,
                    action=action, probability=1.0,
                )
            )
            g.add(Action(name=action, effects=["Advance"], transitions=[f"T_{action}"]))
        g.add(
            Activity(
                name=activity, is_sequential=sequential, number_of_actors=1,
                communication_type=CommunicationType.ASYNCHRONOUS, states=list(states),
                actions=[action for action, _p, _f in steps], observation_features=["Pos"],
            )
        )
    g.validate()
    return g


def test_a_charged_candidate_from_a_start_recognised_as_a_goal_is_an_alternative():
    # Step_1 leaves A for B, whose rule never holds, and Walk has no other
    # state for Pos == 1, so the commit lands on UNKNOWN. The next start is
    # recognised across the graph as G, a goal of Run: Step_1 is charged
    # from there, and reaches that goal, while Go moves on to H
    g = _graph(
        {
            "Walk": (True, "AB", "A", "B", "", [("Step_1", "A", "B")]),
            "Run": (True, "GH", "G", "H", "GH", [("Go", "G", "H")]),
        }
    )
    space = _space_with(
        [
            ("A", Concept.STATE, _at(0)),
            ("UNKNOWN", Concept.STATE, _at(20)),
            ("Step_1", Concept.ACTION, _at(10)),
            ("Go", Concept.ACTION, _at(50)),
        ]
    )
    start = SimState(feature_values={"Pos": 0.0}, state_label="A")
    outcome = _assert_matches_reference(g, space, start)
    assert json.loads(outcome[0])["policies"] == [
        {"rank": 1, "actions": ["Step_1", "Go"], "rewards": [0.25, 0.5], "cumulative": 0.75},
        {"rank": 2, "actions": ["Step_1", "Step_1"], "rewards": [0.25, 0.0], "cumulative": 0.25},
    ]


def test_a_penalty_lost_beside_a_huge_reward_is_no_wrong_decision():
    # in a non-sequential activity B's reward of 1e20 absorbs the
    # increment, so a candidate charged from B loses no reward
    g = _graph(
        {"Climb": (False, "ACD", "A", "D", "D", [("Up_1", "A", "C"), ("Up_2", "C", "D")])},
        rewards={"C": 1e20, "D": 1e21},
    )
    space = _space_with(
        [
            ("A", Concept.STATE, _at(0)),
            ("C", Concept.STATE, _at(0)),
            ("Up_1", Concept.ACTION, _at(10)),
            ("Up_2", Concept.ACTION, _at(20)),
        ]
    )
    start = SimState(feature_values={"Pos": 0.0}, state_label="A")
    _table, trace = _assert_matches_reference(g, space, start)
    assert [rnd.results for rnd in trace.rounds] == [
        [("Up_1", 1e20), ("Up_2", -0.25)],
        [("Up_1", 1e20), ("Up_2", 1e20 + 1e21)],
    ]
    assert trace.wrong_decisions == 1


def test_radius_grows_from_0_25_to_the_cap_before_failing(monkeypatch):
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
    with pytest.raises(CompositionFailureError, match="within radius cap 2.0 from state 'Ready'"):
        compose(_single_action_graph(goal_action="Unreachable_1"), space, start)
    # 0.25, 0.5, ..., 2.0, each exact in binary; the round at the cap is the last
    assert radii == [0.25 * k for k in range(1, 9)]


# --- properties over fuzzed graphs ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_composition_invariants_on_fuzzed_graphs(seed):
    g = make_random_graph(random.Random(seed))
    vocab = build_vocabulary([g])
    matrix = np.random.default_rng(seed).normal(size=(len(vocab), 8))
    name = g.activities[0].name
    table, trace = compose(g, EmbeddingSpace(vocab, matrix), _start(g, name))

    committed = [r for r in trace.rounds if r.committed]
    # committed rewards strictly increase
    rewards = table.rows[0].rewards
    assert all(b > a for a, b in zip(rewards, rewards[1:]))
    assert list(rewards) == [dict(r.results)[r.chosen] for r in committed]
    # rank 1 is the committed path
    assert table.rows[0].rank == 1
    assert table.rows[0].actions == tuple(r.chosen for r in committed)
    assert [row.rank for row in table.rows] == list(range(1, len(table.rows) + 1))
    # radii start at 0.25, grow by exactly 0.25 between commits, never past
    # the cap of 2.0, and reset after each commit
    for previous, current in zip([None] + trace.rounds, trace.rounds):
        if previous is None or previous.committed:
            assert current.radius == 0.25
        else:
            assert current.radius == previous.radius + 0.25 <= 2.0
    assert trace.commit_radii == [r.radius for r in committed]
    assert trace.rounds[-1].committed
    # each round starts from the start's reward or from the reward its last
    # commit chose
    expected = _start(g, name).reward
    for rnd in trace.rounds:
        assert rnd.reward == expected
        if rnd.committed:
            expected = dict(rnd.results)[rnd.chosen]
