"""Activity simulation: a validated start and a plain step function.

``start_state`` validates a starting state once and returns a ``Start``:
the state, the activity that scopes its steps, that scope's stored steps
and the step limit. ``check_state`` makes the checks on a state before a
step, in a fixed order, and ``as_action`` the check on the action.
``step_state`` makes both and performs one action on a copy of that state
in place: it reads the transition that ``validate()`` chose for the
(scope, state, action), the most probable one that stays in the scope,
applies the action's effects, re-derives the state label and updates the
running reward (+``REWARD_INCREMENT`` for a transition, -``REWARD_INCREMENT``
when the scope stores none); ``wrong_step`` charges that penalty.
``make_simulation`` wraps the pair in a closure that owns its state across
steps. It validates a given state itself, or steps a copy of a ``Start``
without validating again, which is how the composer runs an agent from a
state it validated once per commit. The composer makes the state checks
once per commit too, and runs an agent only for a candidate with a scoped
transition. Any number of callers can read the same frozen graph.

Every graph lookup reads the record that ``validate()`` stored when it
froze the graph (see ``kg``), so a simulation needs a validated graph: the
parsed rules and equations, the owning activity of a state, the chosen
transitions by scope, state and action, each activity's state names, and
the states in name order with their rules. A rule that is a conjunction
of numeric equalities is evaluated from its (feature, value) pairs, and
its pinned values are read, not rebuilt (see ``rules``).

Recognition scans that name order and skips, without evaluating it, every state whose lead
feature (the feature of its rule's first comparison) is absent from the
feature map. The skip is exact: ``RuleExpr.evaluate`` always evaluates
that comparison first, it raises ``MissingFeatureError`` for an absent
feature, and a rule that raises is "not evaluable", which never matches.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import (
    ActivityTerminatedError,
    EvaluationError,
    MissingFeatureError,
    StepLimitExceededError,
    UnknownEntityError,
    UnknownSituationError,
)
from .kg import (
    Action,
    Activity,
    Concept,
    Entity,
    ImpactType,
    KnowledgeGraph,
    RecognitionEntry,
    State,
    Transition,
)

UNKNOWN_STATE = "UNKNOWN"
REWARD_INCREMENT = 0.25  # gained by a sequential transition, lost by a wrong step


@dataclass(slots=True)
class SimState:
    feature_values: dict[str, float | str] = field(default_factory=dict)
    state_label: str = UNKNOWN_STATE
    reward: float = 0.0
    is_goal: bool = False
    is_final: bool = False
    step_index: int = 0

    def clone(self) -> "SimState":
        # positional and slotted: every agent step clones twice
        return SimState(
            dict(self.feature_values),
            self.state_label,
            self.reward,
            self.is_goal,
            self.is_final,
            self.step_index,
        )


def _rule_holds(rule, features):
    try:
        return rule.evaluate(features)
    except (MissingFeatureError, EvaluationError):
        return None  # not evaluable against this feature map


def _first_match(entries: Iterable[RecognitionEntry], features) -> State | None:
    """The first state whose rule holds. A state whose lead feature is
    unbound is skipped unevaluated: its rule would raise on that feature."""
    for state, rule, lead_feature in entries:
        if lead_feature in features and _rule_holds(rule, features):
            return state
    return None


def recognize_state(graph: KnowledgeGraph, feature_values) -> SimState:
    """Match observed feature values against state expressions.

    States are scanned in name order; the first whose expression holds wins.
    Raises UnknownSituationError when nothing matches (the rejection path).
    """
    state = _first_match(graph.recognition_order(), feature_values)
    if state is None:
        raise UnknownSituationError("observed features match no known state")
    return _recognized(state, feature_values)


def _recognized(state: State, feature_values) -> SimState:
    """The simulation state of a recognized ``state``: a copy of the
    observed features, no reward yet, and the state's goal and final flags."""
    return SimState(
        feature_values=dict(feature_values),
        state_label=state.name,
        reward=0.0,
        is_goal=bool(state.is_goal),
        is_final=bool(state.is_final_state),
    )


def initial_features(graph: KnowledgeGraph, activity_name: str) -> dict[str, float]:
    """Range-start defaults for every feature of an activity."""
    activity = graph.get(activity_name)
    return {
        fname: graph.get(fname).range_start for fname in activity.observation_features
    }


def initial_state(graph: KnowledgeGraph, activity_name: str) -> SimState:
    """An activity's start: its initial state, with range-start features."""
    activity = graph.get(activity_name)
    label = next(s for s in activity.states if graph.get(s).is_initial_state)
    return SimState(feature_values=initial_features(graph, activity_name), state_label=label)


def state_features(graph: KnowledgeGraph, state_name: str) -> dict[str, float | str]:
    """A feature map consistent with one state: range-start defaults for the
    owning activity overlaid with the values pinned by the state's rule."""
    state = graph.get(state_name)
    if not isinstance(state, State):
        raise UnknownEntityError(f"{state_name!r} is not a state")
    owners = graph.activities_of_state(state_name)
    features: dict[str, float | str] = {}
    if owners:
        features.update(initial_features(graph, owners[0].name))
    else:
        for fname in state.observation_features:
            features[fname] = graph.get(fname).range_start
    features.update(graph.rule(state_name).pinned_values())
    return features


def _owning_activity(graph: KnowledgeGraph, state_name: str) -> Activity | None:
    owners = graph.activities_of_state(state_name)
    return owners[0] if len(owners) == 1 else None


def _apply_effect(graph, effect, features):
    for fname in effect.target_features:
        feature = graph.get(fname)
        lo, hi = feature.range_start, feature.range_end
        current = features.get(fname, lo)
        if effect.impact_type is ImpactType.ON:
            features[fname] = 1.0
        elif effect.impact_type is ImpactType.OFF:
            features[fname] = 0.0
        elif effect.impact_type is ImpactType.CONVERT:
            # reflection across the range; 1 - v on binary [0, 1] features
            features[fname] = lo + hi - float(current)
        elif effect.impact_type is ImpactType.INCREASE:
            features[fname] = min(hi, float(current) + (hi - lo) / 10.0)
        elif effect.impact_type is ImpactType.DECREASE:
            features[fname] = max(lo, float(current) - (hi - lo) / 10.0)
        elif effect.impact_type is ImpactType.CONSTANT:
            pass
        elif effect.impact_type is ImpactType.COMPUTE:
            equation = graph.get(effect.equation)
            bindings = dict(features)
            for pname, pvalue in graph.parameter_bindings(equation).items():
                if pname in bindings and pname in features:
                    raise EvaluationError(
                        f"symbol {pname!r} is both a feature and a parameter"
                    )
                bindings[pname] = pvalue
            features[fname] = graph.equation_expr(equation.name).evaluate(bindings)


def _relabel(graph, target: State, features, scope: Activity | None) -> str:
    """Derive the state label after a transition.

    The transition target wins when its rule holds. When the features do not
    encode the target (rule false or not evaluable) but the rule pins plain
    equality values, those values are written into the feature map and the
    target is kept. Otherwise the states of the scope (or of the graph) are
    scanned in name order for the first match.
    """
    rule = graph.rule(target.name)
    if _rule_holds(rule, features):
        return target.name
    pinned = rule.pinned_values()
    if pinned:
        features.update(pinned)
        return target.name
    entries = graph.recognition_order()
    if scope is not None:
        states = graph.scope_names(scope.name)[0]
        entries = (entry for entry in entries if entry.state.name in states)
    match = _first_match(entries, features)
    return match.name if match is not None else UNKNOWN_STATE


@dataclass(frozen=True, slots=True)
class Start:
    """A validated starting state and what every step from it needs: the
    activity that scopes the steps (None when no single activity owns the
    state), that scope's entry of the stored steps (state name -> action
    name -> the transition taken, ``KnowledgeGraph.scope_steps``), and the
    step limit, ``default_step_limit`` of the graph."""

    state: SimState
    scope: Activity | None
    steps: dict[str, dict[str, Transition]]
    max_steps: int


def start_state(graph: KnowledgeGraph, initial: SimState) -> Start:
    """Validate a starting state once, for any number of walks from it.

    The state is a copy of ``initial``: an unset label, or one that names
    no state of the graph, is recognized from the features, and the goal
    and final flags come from the graph. Raises UnknownSituationError when
    no state matches, when the features contradict the given label, or when
    they do not cover the owning activity's features.
    """
    entity = graph.find(initial.state_label)
    if initial.state_label == UNKNOWN_STATE or not isinstance(entity, State):
        state = recognize_state(graph, initial.feature_values)
        state.reward = initial.reward
        state.step_index = initial.step_index
    else:
        holds = _rule_holds(graph.rule(entity.name), initial.feature_values)
        if holds is False:
            raise UnknownSituationError(
                f"features contradict state {initial.state_label!r}"
            )
        state = initial.clone()
        state.is_goal = bool(entity.is_goal)
        state.is_final = bool(entity.is_final_state)

    scope = _owning_activity(graph, state.state_label)
    if scope is not None:
        missing = [
            f for f in scope.observation_features if f not in state.feature_values
        ]
        if missing:
            raise UnknownSituationError(
                f"initial features do not cover activity {scope.name!r}: "
                f"missing {missing}"
            )
    steps = graph.scope_steps(scope.name if scope is not None else None)
    return Start(state, scope, steps, default_step_limit(graph))


def default_step_limit(graph: KnowledgeGraph) -> int:
    """50 per state of the graph: an episode's default step limit and a
    composition's default round budget."""
    return 50 * max(1, graph.count(Concept.STATE))


def check_state(start: Start, state: SimState) -> None:
    """The checks on ``state``, a copy of ``start.state`` or a state that
    steps from it reached, before any step from it: ActivityTerminatedError
    in a final state, then StepLimitExceededError at the step limit."""
    if state.is_final:
        raise ActivityTerminatedError(f"activity terminated in state {state.state_label!r}")
    if state.step_index >= start.max_steps:
        raise StepLimitExceededError(f"exceeded {start.max_steps} steps")


def as_action(entity: Entity | None, action_name: str) -> Action:
    """The check on a performed action: ``entity`` is what the graph holds
    under ``action_name``. Raises UnknownEntityError unless it is an
    action."""
    if not isinstance(entity, Action):
        raise UnknownEntityError(f"unknown action {action_name!r}")
    return entity


def wrong_step_reward(reward: float) -> float:
    """The running reward after a step from ``reward`` that makes no transition."""
    return reward - REWARD_INCREMENT


def wrong_step(state: SimState) -> SimState:
    """Charge a step that makes no transition: the label stays and the
    reward drops to ``wrong_step_reward``. Mutates and returns ``state``."""
    state.reward = wrong_step_reward(state.reward)
    state.step_index += 1
    return state


def step_state(
    graph: KnowledgeGraph,
    start: Start,
    state: SimState,
    performed_action: str,
) -> SimState:
    """Perform one action on ``state``, a copy of ``start.state`` or of a
    state that earlier steps from it returned. Mutates and returns
    ``state``.

    The transition taken is the one ``start.steps`` stores for the state
    and the action: the most probable in the scope, the smaller next-state
    name on a tie. None stored means a wrong step. Raises what
    ``check_state`` and ``as_action`` raise, in that order, before any
    change to ``state``.
    """
    check_state(start, state)
    entity = as_action(graph.find(performed_action), performed_action)
    moves = start.steps.get(state.state_label)
    chosen = moves.get(performed_action) if moves else None
    if chosen is None:
        return wrong_step(state)
    target = graph.get(chosen.next_state)
    for effect_name in entity.effects:
        _apply_effect(graph, graph.get(effect_name), state.feature_values)
    scope = start.scope
    state.state_label = _relabel(graph, target, state.feature_values, scope)
    matched = graph.find(state.state_label)
    if scope is None or not scope.is_sequential:
        state.reward += matched.reward if isinstance(matched, State) else 0.0
    else:
        state.reward += REWARD_INCREMENT
    if isinstance(matched, State):
        state.is_goal = bool(matched.is_goal)
        state.is_final = bool(matched.is_final_state)
    state.step_index += 1
    return state


def make_simulation(graph: KnowledgeGraph, initial: SimState | Start):
    """Create a simulation closure over (graph, state snapshot).

    ``initial`` is a state, which must pass ``start_state``, or a ``Start``
    that ``start_state`` returned; then the closure steps a copy of it and
    validates nothing again. The returned callable takes an action name,
    performs it with ``step_state`` on the closure's own state and returns
    a copy of the updated state.
    """
    if isinstance(initial, Start):
        start, state = initial, initial.state.clone()
    else:
        start = start_state(graph, initial)
        state = start.state

    def step(performed_action: str) -> SimState:
        return step_state(graph, start, state, performed_action).clone()

    return step
