"""Activity simulation: a validated start and a plain step function.

``start_state`` validates a starting state once and returns a ``Start``:
the state, the activity that scopes its steps and the step limit.
``step_state`` performs one action on a copy of that state in place: it
looks up the matching transition for (current state label, action), applies
the action's effects, re-derives the state label and updates the running
reward (+increment for a matched transition, -increment otherwise);
``wrong_step`` charges that penalty for a step that makes no transition.
``make_simulation`` wraps the pair in a closure that owns its state across
steps. It validates a given state itself, or steps a copy of a ``Start``
without validating again, which is how the composer runs one agent per
candidate from a state it validated once per commit. Any number of
callers can read the same frozen graph.

Lookups read the indexes a graph builds when it freezes (see ``kg``): the
owning activity of a state, the transitions by (state, action), each
activity's state and action names, and the states in name order with
their rules. Recognition scans that name order and skips, without
evaluating it, every state whose lead feature (the feature of its rule's
first comparison) is absent from the feature map. The skip is exact:
``RuleExpr.evaluate`` always evaluates that comparison first, it raises
``MissingFeatureError`` for an absent feature, and a rule that raises is
"not evaluable", which never matches.
"""

from __future__ import annotations

import random
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
from .kg import Action, Activity, ImpactType, KnowledgeGraph, RecognitionEntry, State

UNKNOWN_STATE = "UNKNOWN"


@dataclass
class SimConfig:
    reward_increment: float = 0.25
    stochastic: bool = False
    rng_seed: int = 0
    max_steps: int | None = None  # defaults to 50 x number of states


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
    state), that activity's (state names, action names), and the step
    limit, ``cfg.max_steps`` or 50 steps per state of the graph."""

    state: SimState
    scope: Activity | None
    names: tuple[frozenset[str], frozenset[str]] | None
    max_steps: int


def start_state(graph: KnowledgeGraph, initial: SimState, cfg: SimConfig | None = None) -> Start:
    """Validate a starting state once, for any number of walks from it.

    The state is a copy of ``initial``: an unset or unknown label is
    recognized from the features, and the goal and final flags come from
    the graph. Raises UnknownSituationError when no state matches, when the
    features contradict the given label, or when they do not cover the
    owning activity's features.
    """
    cfg = cfg or SimConfig()
    if initial.state_label == UNKNOWN_STATE or initial.state_label not in graph:
        state = recognize_state(graph, initial.feature_values)
        state.reward = initial.reward
        state.step_index = initial.step_index
    else:
        holds = _rule_holds(graph.rule(initial.state_label), initial.feature_values)
        if holds is False:
            raise UnknownSituationError(
                f"features contradict state {initial.state_label!r}"
            )
        state = initial.clone()
        entity = graph.get(state.state_label)
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
    names = graph.scope_names(scope.name) if scope is not None else None
    max_steps = cfg.max_steps if cfg.max_steps is not None else 50 * max(
        1, len(graph.states)
    )
    return Start(state, scope, names, max_steps)


def wrong_step(state: SimState, cfg: SimConfig) -> SimState:
    """Charge a step that makes no transition: the label stays and the
    reward drops by one increment. Mutates and returns ``state``."""
    state.reward -= cfg.reward_increment
    state.step_index += 1
    return state


def step_state(
    graph: KnowledgeGraph,
    start: Start,
    state: SimState,
    performed_action: str,
    cfg: SimConfig,
    rng: random.Random | None,
) -> SimState:
    """Perform one action on ``state``, a copy of ``start.state`` or of a
    state that earlier steps from it returned. Mutates and returns
    ``state``.

    A stochastic walk draws its transitions from ``rng``; with None the
    most probable transition is taken. Raises ActivityTerminatedError in a
    final state, StepLimitExceededError at the step limit and
    UnknownEntityError for a name that is not an action, in that order.
    """
    if state.is_final:
        raise ActivityTerminatedError(f"activity terminated in state {state.state_label!r}")
    if state.step_index >= start.max_steps:
        raise StepLimitExceededError(f"exceeded {start.max_steps} steps")
    entity = graph.find(performed_action)
    if not isinstance(entity, Action):
        raise UnknownEntityError(f"unknown action {performed_action!r}")

    matching = graph.transitions_from(state.state_label, performed_action)
    if start.names is not None:
        scope_states, scope_actions = start.names
        matching = [
            t for t in matching if t.next_state in scope_states and t.action in scope_actions
        ]
    if not matching:
        return wrong_step(state, cfg)
    if rng is not None:
        ordered = sorted(matching, key=lambda t: t.next_state)
        draw = rng.random()
        cumulative = 0.0
        chosen = ordered[-1]
        for t in ordered:
            cumulative += t.probability
            if draw < cumulative:
                chosen = t
                break
    else:
        chosen = min(matching, key=lambda t: (-t.probability, t.next_state))
    target = graph.get(chosen.next_state)
    for effect_name in entity.effects:
        _apply_effect(graph, graph.get(effect_name), state.feature_values)
    scope = start.scope
    state.state_label = _relabel(graph, target, state.feature_values, scope)
    matched = graph.find(state.state_label)
    if scope is None or not scope.is_sequential:
        state.reward += matched.reward if isinstance(matched, State) else 0.0
    else:
        state.reward += cfg.reward_increment
    if isinstance(matched, State):
        state.is_goal = bool(matched.is_goal)
        state.is_final = bool(matched.is_final_state)
    state.step_index += 1
    return state


def make_simulation(
    graph: KnowledgeGraph, initial: SimState | Start, cfg: SimConfig | None = None
):
    """Create a simulation closure over (graph, state snapshot).

    ``initial`` is a state, which must pass ``start_state``, or a ``Start``
    that ``start_state`` returned for the same ``cfg``; then the closure
    steps a copy of it and validates nothing again. The returned callable
    takes an action name, performs it with ``step_state`` on the closure's
    own state and returns a copy of the updated state.
    """
    cfg = cfg or SimConfig()
    if isinstance(initial, Start):
        start, state = initial, initial.state.clone()
    else:
        start = start_state(graph, initial, cfg)
        state = start.state
    # deterministic steps never draw, so only a stochastic closure seeds one
    rng = random.Random(cfg.rng_seed) if cfg.stochastic else None

    def step(performed_action: str) -> SimState:
        return step_state(graph, start, state, performed_action, cfg, rng).clone()

    return step
