import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import watch_tv_49_graph, watch_tv_49_script
from mdpcompose.composer import compose, policy_table_json
from mdpcompose.errors import (
    ActivityTerminatedError,
    EvaluationError,
    StepLimitExceededError,
    UnknownEntityError,
    UnknownSituationError,
)
from mdpcompose.kg import (
    Action,
    Activity,
    CommunicationType,
    Effect,
    Equation,
    FeatureType,
    ImpactType,
    KnowledgeGraph,
    ObservationFeature,
    Parameter,
    State,
    Transition,
    in_scope,
)
from mdpcompose.simulation import (
    REWARD_INCREMENT,
    SimState,
    default_step_limit,
    initial_features,
    make_simulation,
    recognize_state,
    start_state,
    state_features,
    step_state,
)
from mdpcompose.vhome import action_sequence


@pytest.fixture(scope="module")
def watch_tv():
    return watch_tv_49_graph()


def _start(graph, name="Watch_TV_49"):
    activity = graph.get(name)
    initial = next(s for s in activity.states if graph.get(s).is_initial_state)
    return SimState(feature_values=initial_features(graph, name), state_label=initial)


def test_correct_action_advances_and_rewards(watch_tv):
    sim = make_simulation(watch_tv, _start(watch_tv))
    state = sim("Walk_living_room_1")
    assert state.state_label == "Walk_living_room_1_Done"
    assert state.reward == 0.25
    assert state.feature_values["IsWalk_living_room_1"] == 1.0


def test_wrong_action_penalizes_without_state_change(watch_tv):
    sim = make_simulation(watch_tv, _start(watch_tv))
    state = sim("Find_couch_1")
    assert state.state_label == "InitialState_Watch_TV_49"
    assert state.reward == -0.25
    assert state.feature_values["IsFind_couch_1"] == 0.0
    assert state.step_index == 1


def test_full_replay_cumulative_reward(watch_tv):
    sim = make_simulation(watch_tv, _start(watch_tv))
    rewards = [sim(a).reward for a in action_sequence(watch_tv_49_script())]
    assert rewards == [0.25 * k for k in range(1, 8)]
    assert sum(rewards) == pytest.approx(7.0)


def test_step_after_final_raises(watch_tv):
    sim = make_simulation(watch_tv, _start(watch_tv))
    for action in action_sequence(watch_tv_49_script()):
        state = sim(action)
    assert state.is_final
    with pytest.raises(ActivityTerminatedError):
        sim("TurnTo_television_1")


def test_unknown_action_raises(watch_tv):
    sim = make_simulation(watch_tv, _start(watch_tv))
    with pytest.raises(UnknownEntityError):
        sim("Fly_to_the_moon_1")


def test_closure_isolation(watch_tv):
    a = make_simulation(watch_tv, _start(watch_tv))
    b = make_simulation(watch_tv, _start(watch_tv))
    state_a = a("Walk_living_room_1")
    state_b = b("Find_couch_1")
    assert state_a.state_label == "Walk_living_room_1_Done"
    assert state_b.state_label == "InitialState_Watch_TV_49"
    assert a("Walk_couch_1").state_label == "Walk_couch_1_Done"


def test_returned_snapshots_are_detached(watch_tv):
    sim = make_simulation(watch_tv, _start(watch_tv))
    first = sim("Walk_living_room_1")
    first.feature_values["IsWalk_couch_1"] = 999
    second = sim("Walk_couch_1")
    assert second.feature_values["IsWalk_couch_1"] == 1.0


def test_contradictory_initial_features_rejected(watch_tv):
    bad = _start(watch_tv)
    bad.feature_values["IsWalk_living_room_1"] = 1.0  # contradicts the initial rule
    with pytest.raises(UnknownSituationError):
        make_simulation(watch_tv, bad)


def test_missing_feature_coverage_rejected(watch_tv):
    bad = _start(watch_tv)
    del bad.feature_values["IsSit_couch_1"]
    with pytest.raises(UnknownSituationError):
        make_simulation(watch_tv, bad)


def test_recognize_state_matches_initial(watch_tv):
    state = recognize_state(watch_tv, initial_features(watch_tv, "Watch_TV_49"))
    assert state.state_label == "InitialState_Watch_TV_49"
    with pytest.raises(UnknownSituationError):
        recognize_state(watch_tv, {"Bogus": 1})


def test_state_features_are_consistent(watch_tv):
    features = state_features(watch_tv, "Sit_couch_1_Done")
    assert features["IsSit_couch_1"] == 1.0
    assert watch_tv.rule("Sit_couch_1_Done").evaluate(features)


@pytest.mark.parametrize("label", ["Sit_couch_1", "Watch_TV_49", "IsSit_couch_1"])
def test_a_label_naming_no_state_is_recognised_from_the_features(graphs, desk_space, label):
    # an action, the activity and a feature: each names an entity, not a state
    graph = graphs["Watch_TV_49"]
    for features in (
        initial_features(graph, "Watch_TV_49"),
        state_features(graph, "Find_couch_1_Done"),
    ):
        given, absent = (SimState(dict(features), state_label=x) for x in (label, "NoSuchState"))
        assert start_state(graph, given) == start_state(graph, absent)
        assert policy_table_json(compose(graph, desk_space, given)[0]) == policy_table_json(
            compose(graph, desk_space, absent)[0]
        )


def test_deterministic_replay(watch_tv):
    runs = []
    for _ in range(2):
        sim = make_simulation(watch_tv, _start(watch_tv))
        runs.append([sim(a).state_label for a in action_sequence(watch_tv_49_script())])
    assert runs[0] == runs[1]


def test_max_steps_guard(watch_tv):
    start = _start(watch_tv)
    start.step_index = default_step_limit(watch_tv) - 3  # three steps left
    sim = make_simulation(watch_tv, start)
    for _ in range(3):
        sim("Find_couch_1")
    with pytest.raises(StepLimitExceededError):
        sim("Find_couch_1")


# --- a hand-built graph exercising every effect type -------------------


def _effects_graph():
    g = KnowledgeGraph()
    feats = {
        "Switch": ObservationFeature(
            name="Switch", range_start=0.0, range_end=1.0,
            feature_type=FeatureType.NOMINAL, unit="",
        ),
        "Level": ObservationFeature(
            name="Level", range_start=0.0, range_end=10.0,
            feature_type=FeatureType.NUMERICAL, unit="",
        ),
        "Temp": ObservationFeature(
            name="Temp", range_start=-5.0, range_end=5.0,
            feature_type=FeatureType.NUMERICAL, unit="C",
        ),
    }
    for f in feats.values():
        g.add(f)
    g.add(
        State(
            name="Idle", is_initial_state=True, is_final_state=False, is_goal=False,
            reward=0.0, expression="Switch == 0",
            observation_features=["Switch", "Level", "Temp"],
        )
    )
    g.add(
        State(
            name="Running", is_initial_state=False, is_final_state=True, is_goal=True,
            reward=0.0, expression="Switch == 1",
            observation_features=["Switch", "Level", "Temp"],
        )
    )
    g.add(Parameter(name="GainParam", parameter_name="gain", value=2.0))
    g.add(Equation(name="Heat", expression="gain * Level + 1", parameters=["GainParam"]))
    g.add(Effect(name="FlipOn", target_features=["Switch"], impact_type=ImpactType.ON))
    g.add(Effect(name="Raise", target_features=["Level"], impact_type=ImpactType.INCREASE))
    g.add(Effect(name="Lower", target_features=["Level"], impact_type=ImpactType.DECREASE))
    g.add(Effect(name="Mirror", target_features=["Temp"], impact_type=ImpactType.CONVERT))
    g.add(Effect(name="Hold", target_features=["Temp"], impact_type=ImpactType.CONSTANT))
    g.add(
        Effect(
            name="Recompute", target_features=["Temp"],
            impact_type=ImpactType.COMPUTE, equation="Heat",
        )
    )
    g.add(
        Transition(
            name="T0", previous_state="Idle", next_state="Running",
            action="Engage", probability=1.0,
        )
    )
    g.add(
        Action(
            name="Engage",
            effects=["Raise", "Raise", "Lower", "Mirror", "Hold", "Recompute", "FlipOn"],
            transitions=["T0"],
        )
    )
    g.add(
        Activity(
            name="Machine", is_sequential=True, number_of_actors=1,
            communication_type=CommunicationType.ASYNCHRONOUS,
            states=["Idle", "Running"], actions=["Engage"],
            observation_features=["Switch", "Level", "Temp"],
        )
    )
    g.validate()
    return g


def test_effect_kinds_applied_in_order():
    g = _effects_graph()
    start = SimState(
        feature_values={"Switch": 0.0, "Level": 4.0, "Temp": 1.5}, state_label="Idle"
    )
    sim = make_simulation(g, start)
    state = sim("Engage")
    # Raise twice then Lower: 4 + 1 + 1 - 1 = 5; Mirror reflects Temp over
    # [-5, 5]: -1.5; Hold keeps it; Recompute: 2 * Level + 1 = 11
    assert state.feature_values["Level"] == pytest.approx(5.0)
    assert state.feature_values["Temp"] == pytest.approx(11.0)
    assert state.feature_values["Switch"] == 1.0
    assert state.state_label == "Running"
    assert state.is_goal and state.is_final


def test_increase_clips_to_range():
    g = _effects_graph()
    start = SimState(
        feature_values={"Switch": 0.0, "Level": 9.9, "Temp": 0.0}, state_label="Idle"
    )
    state = make_simulation(g, start)("Engage")
    assert state.feature_values["Level"] <= 10.0


def _branching_graph(left=0.7, right=0.3):
    """One action out of Origin with two transitions: to Left with
    probability ``left`` and to Right with ``right``."""
    g = KnowledgeGraph()
    g.add(
        ObservationFeature(
            name="Pos", range_start=0.0, range_end=2.0,
            feature_type=FeatureType.NOMINAL, unit="",
        )
    )
    for name, expr, initial in [
        ("Origin", "Pos == 0", True),
        ("Left", "Pos == 1", False),
        ("Right", "Pos == 2", False),
    ]:
        g.add(
            State(
                name=name, is_initial_state=initial, is_final_state=not initial,
                is_goal=not initial, reward=0.0, expression=expr,
                observation_features=["Pos"],
            )
        )
    g.add(Effect(name="Noop", target_features=["Pos"], impact_type=ImpactType.CONSTANT))
    g.add(Transition(name="TL", previous_state="Origin", next_state="Left", action="Go", probability=left))
    g.add(Transition(name="TR", previous_state="Origin", next_state="Right", action="Go", probability=right))
    g.add(Action(name="Go", effects=["Noop"], transitions=["TL", "TR"]))
    g.add(
        Activity(
            name="Coin", is_sequential=True, number_of_actors=1,
            communication_type=CommunicationType.ASYNCHRONOUS,
            states=["Origin", "Left", "Right"], actions=["Go"],
            observation_features=["Pos"],
        )
    )
    g.validate()
    return g


def test_deterministic_mode_takes_argmax():
    for left, right in ((0.7, 0.3), (0.3, 0.7)):
        g = _branching_graph(left, right)
        expected = "Left" if left > right else "Right"
        for _ in range(5):
            sim = make_simulation(g, SimState(feature_values={"Pos": 0.0}, state_label="Origin"))
            assert sim("Go").state_label == expected


def test_a_tie_goes_to_the_smaller_next_state_name():
    g = _branching_graph(0.5, 0.5)
    sim = make_simulation(g, SimState(feature_values={"Pos": 0.0}, state_label="Origin"))
    assert sim("Go").state_label == "Left"


def test_label_reconciliation_via_pinned_values():
    # the branching graph's Noop effect never updates Pos, so the label
    # must be reconciled from the transition target's pinned equality
    g = _branching_graph()
    sim = make_simulation(g, SimState(feature_values={"Pos": 0.0}, state_label="Origin"))
    state = sim("Go")
    assert state.state_label == "Left"
    assert state.feature_values["Pos"] == 1.0


def _compute_graph():
    g = KnowledgeGraph()
    for name, hi in (("Done", 1.0), ("x", 10.0), ("y", 100.0)):
        g.add(
            ObservationFeature(
                name=name, range_start=0.0, range_end=hi,
                feature_type=FeatureType.NUMERICAL, unit="",
            )
        )
    for name, expr, initial in (("Start", "Done == 0", True), ("End", "Done == 1", False)):
        g.add(
            State(
                name=name, is_initial_state=initial, is_final_state=not initial,
                is_goal=not initial, reward=0.0, expression=expr,
                observation_features=["Done", "x", "y"],
            )
        )
    g.add(Parameter(name="Scale", parameter_name="a", value=2.0))
    g.add(Equation(name="E", expression="a * x", parameters=["Scale"]))
    g.add(
        Effect(
            name="Compute", target_features=["y"],
            impact_type=ImpactType.COMPUTE, equation="E",
        )
    )
    g.add(Effect(name="Finish", target_features=["Done"], impact_type=ImpactType.ON))
    g.add(Transition(name="T", previous_state="Start", next_state="End", action="Go", probability=1.0))
    g.add(Action(name="Go", effects=["Compute", "Finish"], transitions=["T"]))
    g.add(
        Activity(
            name="Calc", is_sequential=True, number_of_actors=1,
            communication_type=CommunicationType.ASYNCHRONOUS,
            states=["Start", "End"], actions=["Go"],
            observation_features=["Done", "x", "y"],
        )
    )
    g.validate()
    return g


def test_compute_effect_binds_parameters():
    g = _compute_graph()
    features = {"Done": 0.0, "x": 3.0, "y": 0.0}
    state = make_simulation(g, SimState(feature_values=features, state_label="Start"))("Go")
    assert state.feature_values["y"] == 6.0  # a * x with the parameter a = 2
    # a symbol bound both as a feature and as a parameter is ambiguous
    clash = make_simulation(
        g, SimState(feature_values={**features, "a": 1.0}, state_label="Start")
    )
    with pytest.raises(EvaluationError):
        clash("Go")


# --- recognition skips only on the lead feature --------------------------


def _disjunction_graph():
    g = KnowledgeGraph()
    for name in ("A", "B", "C"):
        g.add(
            ObservationFeature(
                name=name, range_start=0.0, range_end=1.0,
                feature_type=FeatureType.NOMINAL, unit="",
            )
        )
    for name, expr, initial in (
        ("Either", "A == 1 AND B == 1 OR C == 1", True),
        ("Other", "B == 1 OR A == 0", False),
    ):
        g.add(
            State(
                name=name, is_initial_state=initial, is_final_state=not initial,
                is_goal=not initial, reward=0.0, expression=expr,
                observation_features=["A", "B", "C"],
            )
        )
    g.add(Effect(name="SetC", target_features=["C"], impact_type=ImpactType.ON))
    g.add(Transition(name="T", previous_state="Either", next_state="Other", action="Go", probability=1.0))
    g.add(Action(name="Go", effects=["SetC"], transitions=["T"]))
    g.add(
        Activity(
            name="Pick", is_sequential=True, number_of_actors=1,
            communication_type=CommunicationType.ASYNCHRONOUS,
            states=["Either", "Other"], actions=["Go"],
            observation_features=["A", "B", "C"],
        )
    )
    g.validate()
    return g


@pytest.mark.parametrize(
    "features,label",
    [
        ({"A": 0, "C": 1}, "Either"),  # holds through the second clause; B unbound
        ({"A": 1, "B": 1}, "Either"),  # holds through the first clause; C unbound
        ({"B": 1, "C": 1}, "Other"),  # lead feature A unbound: Either is skipped
        ({"C": 1}, None),  # Either skipped, Other not evaluable
    ],
)
def test_only_an_unbound_lead_feature_skips_a_state(features, label):
    g = _disjunction_graph()
    if label is None:
        with pytest.raises(UnknownSituationError):
            recognize_state(g, features)
    else:
        assert recognize_state(g, features).state_label == label


# --- the stored transition against the transition scan ------------------

_WALK_STATES = [f"S{k}" for k in range(7)]
_WALK_ACTIONS = ["Go", "Flip", "Stay"]
_WALK_RULES = ["F0 == 1", "F0 == 0 AND F1 == 1", "F1 == 0", "F0 == 1 OR F1 == 1", "F0 != 1"]
_SPLITS = [(), (1.0,), (0.5, 0.5), (0.25, 0.25, 0.5), (0.4, 0.6)]


def _walk_graph(data) -> KnowledgeGraph:
    """Two activities over seven states. S0 is the initial state of both,
    so a start there has no single owner, and so has S6, which neither
    owns; S2 and S3 are shared. Each state and action draws up to three
    transitions to any state, often with tied probabilities, so that some
    leave the activity they start in."""
    g = KnowledgeGraph()
    features = ["F0", "F1"]
    for f in features:
        g.add(ObservationFeature(name=f, range_start=0.0, range_end=1.0,
                                 feature_type=FeatureType.NOMINAL, unit=""))
    impacts = st.sampled_from([ImpactType.ON, ImpactType.OFF, ImpactType.CONVERT])
    for action in _WALK_ACTIONS:
        g.add(Effect(name=f"Set_{action}", target_features=[data.draw(st.sampled_from(features))],
                     impact_type=data.draw(impacts)))
    for k, name in enumerate(_WALK_STATES):
        g.add(State(
            name=name, is_initial_state=k == 0, is_final_state=k in (3, 5),
            is_goal=data.draw(st.booleans()), reward=data.draw(st.sampled_from([0.0, 0.5, -1.0])),
            expression=data.draw(st.sampled_from(_WALK_RULES)), observation_features=features,
        ))
    by_action = {action: [] for action in _WALK_ACTIONS}
    for state in _WALK_STATES:
        for action in _WALK_ACTIONS:
            split = data.draw(st.sampled_from(_SPLITS))
            targets = data.draw(st.lists(st.sampled_from(_WALK_STATES), min_size=len(split),
                                         max_size=len(split), unique=True))
            for probability, target in zip(split, targets):
                name = f"T_{state}_{action}_{target}"
                g.add(Transition(name=name, previous_state=state, next_state=target,
                                 action=action, probability=probability))
                by_action[action].append(name)
    for action, names in by_action.items():
        g.add(Action(name=action, effects=[f"Set_{action}"], transitions=names))
    for name, states, actions in (
        ("First", _WALK_STATES[:4], ["Go", "Flip"]),
        ("Second", [_WALK_STATES[0], *_WALK_STATES[2:6]], ["Go", "Stay"]),
    ):
        g.add(Activity(
            name=name, is_sequential=data.draw(st.booleans()), number_of_actors=1,
            communication_type=CommunicationType.SYNCHRONOUS, states=states, actions=actions,
            observation_features=features,
        ))
    g.validate()
    return g


def _reference_transition(graph, start, state, action):
    """What a step chose before the choice was stored: the action's
    transitions from the state, kept to the start's scope, then the most
    probable, the smaller next state on a tie."""
    found = [t for t in graph.transitions
             if t.previous_state == state.state_label and t.action == action]
    scope = start.scope
    names = None if scope is None else (frozenset(scope.states), frozenset(scope.actions))
    matching = in_scope(found, names)
    if not matching:
        return None
    return min(matching, key=lambda t: (-t.probability, t.next_state))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_each_step_of_a_walk_takes_the_transition_the_scan_chooses(data):
    graph = _walk_graph(data)
    label = data.draw(st.sampled_from(_WALK_STATES))
    features = data.draw(st.fixed_dictionaries({"F0": st.sampled_from([0.0, 1.0]),
                                                "F1": st.sampled_from([0.0, 1.0])}))
    try:
        start = start_state(graph, SimState(feature_values=features, state_label=label))
    except UnknownSituationError:  # the features contradict the label
        try:
            start = start_state(graph, SimState(feature_values=features))
        except UnknownSituationError:
            return  # and match no state
    owners = graph.activities_of_state(start.state.state_label)
    assert start.scope is (owners[0] if len(owners) == 1 else None)
    state = start.state.clone()
    for action in data.draw(st.lists(st.sampled_from(_WALK_ACTIONS), max_size=12)):
        if state.is_final:
            break
        want = _reference_transition(graph, start, state, action)
        moves = start.steps.get(state.state_label, {})
        assert moves.get(action) is want
        before = state.clone()
        step_state(graph, start, state, action)
        if want is None:  # a wrong step
            assert (state.state_label, state.reward) == (
                before.state_label, before.reward - REWARD_INCREMENT
            )
