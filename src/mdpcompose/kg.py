"""Domain model for activity knowledge graphs.

Entities follow a small MDP ontology: an Activity groups States, Actions and
ObservationFeatures; Transitions connect states through actions with a
probability; Effects describe how actions change feature values, optionally
through an Equation with Parameters.

The KnowledgeGraph is an in-memory store indexed by entity name and by
concept, with a derived triple view used for pattern matching and for the
serialization round trips.

A graph is built, validated once, then read. ``validate()`` is the one
place that derives data from the entities: when the graph is valid it
freezes it and stores one ``_Index`` holding the parsed rules and
equations, the states in name order with their lead features, the owning
activities of each state, the transitions by state, then action, and each
activity's state and action names. Every derived lookup only reads that
record, so any number of readers can share a frozen graph; on a graph that
``validate()`` has not frozen they raise ``RuntimeError``.
"""

from __future__ import annotations

import math
import uuid
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, get_args

from .errors import GraphValidationError, RuleSyntaxError, UnknownEntityError
from .rules import EquationExpr, RuleExpr, parse_equation, parse_rule

PROBABILITY_TOLERANCE = 1e-9


class Concept(str, Enum):
    ACTIVITY = "Activity"
    STATE = "State"
    OBSERVATION_FEATURE = "ObservationFeature"
    TRANSITION = "Transition"
    ACTION = "Action"
    EFFECT = "Effect"
    EQUATION = "Equation"
    PARAMETER = "Parameter"


class CommunicationType(str, Enum):
    # Canonical lexical forms match the serialized activity datasets.
    ASYNCHRONOUS = "Asynchronised"
    SYNCHRONOUS = "Synchronised"

    @classmethod
    def _missing_(cls, value):
        # The other spellings in the datasets, in any case.
        lowered = str(value).strip().lower()
        if lowered in ("asynchronous", "asynchronised", "async"):
            return cls.ASYNCHRONOUS
        if lowered in ("synchronous", "synchronised", "sync"):
            return cls.SYNCHRONOUS
        return None


class FeatureType(str, Enum):
    NOMINAL = "NOMINAL"
    NUMERICAL = "NUMERICAL"
    ORDINAL = "ORDINAL"


class Distribution(str, Enum):
    NONE = "NONE"
    GAUSSIAN = "GAUSSIAN"
    EXPONENTIAL = "EXPONENTIAL"
    BINOMIAL = "BINOMIAL"
    POISSON = "POISSON"
    UNIFORM = "UNIFORM"


class ImpactType(str, Enum):
    INCREASE = "INCREASE"
    DECREASE = "DECREASE"
    CONVERT = "CONVERT"
    ON = "ON"
    OFF = "OFF"
    CONSTANT = "CONSTANT"
    COMPUTE = "COMPUTE"


@dataclass
class Activity:
    name: str
    is_sequential: bool | None = None
    number_of_actors: int | None = None
    communication_type: CommunicationType | None = None
    states: list[str] = field(default_factory=list)
    actions: list[str] = field(default_factory=list)
    observation_features: list[str] = field(default_factory=list)

    concept = Concept.ACTIVITY


@dataclass
class State:
    name: str
    is_initial_state: bool | None = None
    is_final_state: bool | None = None
    is_goal: bool | None = None
    reward: float | None = None
    expression: str | None = None
    observation_features: list[str] = field(default_factory=list)
    actions: list[str] = field(default_factory=list)

    concept = Concept.STATE


@dataclass
class ObservationFeature:
    name: str
    range_start: float | None = None
    range_end: float | None = None
    feature_type: FeatureType | None = None
    unit: str | None = None
    distribution: Distribution | None = None
    lambda_: float | None = None
    mean: float | None = None
    standard_deviation: float | None = None
    variance: float | None = None
    median: float | None = None
    mode: float | None = None
    number_experiments: int | None = None
    number_successes: int | None = None
    success_rate: float | None = None
    failure_rate: float | None = None

    concept = Concept.OBSERVATION_FEATURE


@dataclass
class Transition:
    name: str
    previous_state: str | None = None
    next_state: str | None = None
    action: str | None = None
    probability: float | None = None

    concept = Concept.TRANSITION


def transition_name(prev: str, action: str, nxt: str) -> str:
    """The stable name of the transition from `prev` by `action` to `nxt`."""
    return str(uuid.uuid5(uuid.NAMESPACE_URL, f"transition:{prev}:{action}:{nxt}"))


@dataclass
class Action:
    name: str
    effects: list[str] = field(default_factory=list)
    transitions: list[str] = field(default_factory=list)
    duration: float | None = None
    frequency: int | None = None

    concept = Concept.ACTION


@dataclass
class Effect:
    name: str
    target_features: list[str] = field(default_factory=list)
    impact_type: ImpactType | None = None
    equation: str | None = None

    concept = Concept.EFFECT


@dataclass
class Equation:
    name: str
    expression: str | None = None
    parameters: list[str] = field(default_factory=list)

    concept = Concept.EQUATION


@dataclass
class Parameter:
    name: str
    parameter_name: str | None = None
    value: float | None = None

    concept = Concept.PARAMETER


Entity = (
    Activity
    | State
    | ObservationFeature
    | Transition
    | Action
    | Effect
    | Equation
    | Parameter
)


# The one schema: per concept, each serialized property name ->
# (field, kind, multi, required), in the order the writers emit them.
# A kind is "bool", "int", "double" or "string" for a plain literal, the
# Concept a reference must point to, or the Enum of a coded value. The
# Turtle and JSON readers and writers and validation all read this table.
PropertySpec = tuple[str, "str | Concept | type[Enum]", bool, bool]

PROPERTIES: dict[Concept, dict[str, PropertySpec]] = {
    Concept.ACTIVITY: {
        "isSequential": ("is_sequential", "bool", False, True),
        "hasNumberOfActors": ("number_of_actors", "int", False, True),
        "hasCommunicationType": ("communication_type", CommunicationType, False, True),
        "hasState": ("states", Concept.STATE, True, True),
        "hasObservationFeature": ("observation_features", Concept.OBSERVATION_FEATURE, True, True),
        "hasAction": ("actions", Concept.ACTION, True, True),
    },
    Concept.STATE: {
        "isGoal": ("is_goal", "bool", False, True),
        "isFinalState": ("is_final_state", "bool", False, True),
        "isInitialState": ("is_initial_state", "bool", False, True),
        "hasExpression": ("expression", "string", False, True),
        "hasReward": ("reward", "double", False, True),
        "hasObservationFeature": ("observation_features", Concept.OBSERVATION_FEATURE, True, True),
        "hasAction": ("actions", Concept.ACTION, True, False),
    },
    Concept.OBSERVATION_FEATURE: {
        "hasRangeStart": ("range_start", "double", False, True),
        "hasRangeEnd": ("range_end", "double", False, True),
        "hasFeatureType": ("feature_type", FeatureType, False, True),
        "hasUnit": ("unit", "string", False, False),
        "hasProbabilityDistribution": ("distribution", Distribution, False, False),
        "hasLambda": ("lambda_", "double", False, False),
        "hasMeanValue": ("mean", "double", False, False),
        "hasStandardDeviation": ("standard_deviation", "double", False, False),
        "hasVariance": ("variance", "double", False, False),
        "hasMedian": ("median", "double", False, False),
        "hasModeValue": ("mode", "double", False, False),
        "hasNumberExperiments": ("number_experiments", "int", False, False),
        "hasNumberSuccesses": ("number_successes", "int", False, False),
        "hasSuccessRate": ("success_rate", "double", False, False),
        "hasFailureRate": ("failure_rate", "double", False, False),
    },
    Concept.TRANSITION: {
        "hasPreviousState": ("previous_state", Concept.STATE, False, True),
        "hasNextState": ("next_state", Concept.STATE, False, True),
        "hasAction": ("action", Concept.ACTION, False, True),
        "hasTransitionProbability": ("probability", "double", False, True),
    },
    Concept.ACTION: {
        "hasTransition": ("transitions", Concept.TRANSITION, True, False),
        "hasEffect": ("effects", Concept.EFFECT, True, True),
        "hasDuration": ("duration", "double", False, False),
        "hasFrequency": ("frequency", "int", False, False),
    },
    Concept.EFFECT: {
        "hasImpactType": ("impact_type", ImpactType, False, True),
        "hasObservationFeature": ("target_features", Concept.OBSERVATION_FEATURE, True, True),
        "hasEquation": ("equation", Concept.EQUATION, False, False),
    },
    Concept.EQUATION: {
        "hasExpression": ("expression", "string", False, True),
        "hasParameter": ("parameters", Concept.PARAMETER, True, True),
    },
    Concept.PARAMETER: {
        "hasName": ("parameter_name", "string", False, True),
        "hasValue": ("value", "double", False, True),
    },
}

# Case-insensitive lookup (dataset exports mix hasTransition / HasTransition).
_PROPERTY_LOOKUP: dict[Concept, dict[str, str]] = {
    concept: {prop.lower(): prop for prop in props}
    for concept, props in PROPERTIES.items()
}


def resolve_property(concept: Concept, name: str) -> str | None:
    return _PROPERTY_LOOKUP[concept].get(name.lower())


def parse_property_value(kind, raw):
    """Convert a raw lexical/JSON value to the typed field value."""
    if kind == "bool":
        if isinstance(raw, bool):
            return raw
        if str(raw).strip().lower() in ("true", "1"):
            return True
        if str(raw).strip().lower() in ("false", "0"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if kind == "int":
        return int(str(raw).strip())
    if kind == "double":
        return float(str(raw).strip())
    if isinstance(kind, type):  # the Enum of a coded value
        return kind(str(raw).strip().upper())
    return str(raw)  # a string or a reference


def render_property_value(kind, value) -> str:
    """Canonical lexical form used in triples and in the Turtle writer."""
    if kind == "bool":
        return "true" if value else "false"
    if kind == "int":
        return str(int(value))
    if kind == "double":
        return repr(float(value))
    if isinstance(kind, type):
        return value.value
    return str(value)


_CONCEPT_CLASSES = {cls.concept: cls for cls in get_args(Entity)}

_CONCEPT_ORDER = [
    Concept.ACTIVITY,
    Concept.STATE,
    Concept.OBSERVATION_FEATURE,
    Concept.ACTION,
    Concept.EFFECT,
    Concept.EQUATION,
    Concept.PARAMETER,
    Concept.TRANSITION,
]


def new_entity(concept: Concept, name: str) -> Entity:
    return _CONCEPT_CLASSES[concept](name=name)


class RecognitionEntry(NamedTuple):
    """A state with its parsed rule and the feature of the rule's first
    comparison, ``rule.clauses[0][0]``, which evaluation always reads first."""

    state: State
    rule: RuleExpr
    lead_feature: str


@dataclass(frozen=True)
class _Index:
    rules: dict[str, RuleExpr]  # state name -> parsed rule
    equations: dict[str, EquationExpr]  # equation name -> parsed expression
    recognition: tuple[RecognitionEntry, ...]  # every state, in name order
    owners: dict[str, tuple[Activity, ...]]  # state name -> owning activities
    transitions: dict[str, dict[str, list[Transition]]]  # state -> action -> list
    scope_names: dict[str, tuple[frozenset[str], frozenset[str]]]  # states, actions


class KnowledgeGraph:
    """In-memory entity store with a derived triple view."""

    def __init__(self):
        self._entities: dict[str, Entity] = {}
        self._by_concept: dict[Concept, dict[str, Entity]] = {c: {} for c in Concept}
        self.extra_triples: list[tuple[str, str, str]] = []
        self._index: _Index | None = None  # set when validate() freezes the graph

    # -- construction --------------------------------------------------

    def add(self, entity: Entity) -> Entity:
        if self._index is not None:
            raise RuntimeError("graph is frozen after validation")
        existing = self._entities.get(entity.name)
        if existing is not None and existing is not entity:
            raise GraphValidationError(
                [f"duplicate entity name {entity.name!r}"]
            )
        self._entities[entity.name] = entity
        self._by_concept[entity.concept][entity.name] = entity
        return entity

    def add_extra_triple(self, subject: str, predicate: str, obj: str):
        if self._index is not None:
            raise RuntimeError("graph is frozen after validation")
        self.extra_triples.append((subject, predicate, obj))

    # -- lookups --------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._entities

    def __len__(self) -> int:
        return len(self._entities)

    def get(self, name: str) -> Entity:
        try:
            return self._entities[name]
        except KeyError:
            raise UnknownEntityError(f"no entity named {name!r}") from None

    def find(self, name: str) -> Entity | None:
        return self._entities.get(name)

    def entities(self) -> list[Entity]:
        return list(self._entities.values())

    def by_concept(self, concept: Concept) -> list[Entity]:
        """The entities of one concept, in insertion order."""
        return list(self._by_concept[concept].values())

    def count(self, concept: Concept) -> int:
        """The number of entities of one concept, without listing them."""
        return len(self._by_concept[concept])

    @property
    def activities(self) -> list[Activity]:
        return self.by_concept(Concept.ACTIVITY)

    @property
    def states(self) -> list[State]:
        return self.by_concept(Concept.STATE)

    @property
    def actions(self) -> list[Action]:
        return self.by_concept(Concept.ACTION)

    @property
    def features(self) -> list[ObservationFeature]:
        return self.by_concept(Concept.OBSERVATION_FEATURE)

    @property
    def transitions(self) -> list[Transition]:
        return self.by_concept(Concept.TRANSITION)

    def transitions_from(self, state_name: str, action_name: str) -> list[Transition]:
        return self._indexes().transitions.get(state_name, {}).get(action_name, [])

    def actions_from(self, state_name: str) -> tuple[str, ...]:
        """The names of the actions with any transition from a state, in
        the order of their first transition."""
        return tuple(self._indexes().transitions.get(state_name, ()))

    def activities_of_state(self, state_name: str) -> list[Activity]:
        return list(self._indexes().owners.get(state_name, ()))

    def recognition_order(self) -> tuple[RecognitionEntry, ...]:
        """The states in name order, each with its rule and lead feature."""
        return self._indexes().recognition

    def scope_names(self, activity_name: str) -> tuple[frozenset[str], frozenset[str]]:
        """The state names and the action names of one activity."""
        return self._indexes().scope_names[activity_name]

    def _indexes(self) -> _Index:
        if self._index is None:
            raise RuntimeError("graph is not validated")
        return self._index

    def rule(self, state_name: str) -> RuleExpr:
        try:
            return self._indexes().rules[state_name]
        except KeyError:
            raise UnknownEntityError(f"no state named {state_name!r}") from None

    def equation_expr(self, equation_name: str) -> EquationExpr:
        try:
            return self._indexes().equations[equation_name]
        except KeyError:
            raise UnknownEntityError(f"no equation named {equation_name!r}") from None

    def parameter_bindings(self, equation: Equation) -> dict[str, float]:
        bindings: dict[str, float] = {}
        for pname in equation.parameters:
            param = self.get(pname)
            bindings[param.parameter_name] = param.value
        return bindings

    # -- triple view ------------------------------------------------------

    def triples(self) -> list[tuple[str, str, str]]:
        """All statements as (subject, predicate, object) strings, sorted."""
        out: list[tuple[str, str, str]] = []
        for entity in self._entities.values():
            out.append((entity.name, "a", entity.concept.value))
            for prop, (attr, kind, multi, _req) in PROPERTIES[entity.concept].items():
                value = getattr(entity, attr)
                if value is None:
                    continue
                if multi:
                    for item in value:
                        out.append((entity.name, prop, render_property_value(kind, item)))
                else:
                    out.append((entity.name, prop, render_property_value(kind, value)))
        out.extend(self.extra_triples)
        out.sort()
        return out

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        """Check referential integrity, cardinalities and value rules.

        Raises GraphValidationError listing every problem found.
        """
        problems: list[str] = []
        rules: dict[str, RuleExpr] = {}
        equations: dict[str, EquationExpr] = {}

        for entity in self._entities.values():
            label = f"{entity.concept.value} {entity.name!r}"
            for prop, (attr, kind, multi, required) in PROPERTIES[entity.concept].items():
                value = getattr(entity, attr)
                if required:
                    if value is None or (multi and len(value) == 0):
                        problems.append(f"{label}: missing mandatory property {prop}")
                        continue
                if value is None:
                    continue
                if isinstance(kind, Concept):
                    names = value if multi else [value]
                    for ref in names:
                        other = self._entities.get(ref)
                        if other is None:
                            problems.append(
                                f"{label}: dangling reference {prop} -> {ref!r}"
                            )
                        elif other.concept is not kind:
                            problems.append(
                                f"{label}: {prop} -> {ref!r} is a "
                                f"{other.concept.value}, expected {kind.value}"
                            )

        for activity in self.activities:
            label = f"Activity {activity.name!r}"
            if activity.number_of_actors is not None and activity.number_of_actors < 1:
                problems.append(f"{label}: hasNumberOfActors must be positive")
            initial = [
                s for s in activity.states
                if isinstance(self._entities.get(s), State)
                and self._entities[s].is_initial_state
            ]
            final = [
                s for s in activity.states
                if isinstance(self._entities.get(s), State)
                and self._entities[s].is_final_state
            ]
            if len(initial) != 1:
                problems.append(
                    f"{label}: expected exactly one initial state, found {len(initial)}"
                )
            if not final:
                problems.append(f"{label}: no state has isFinalState=true")

        for state in self.states:
            label = f"State {state.name!r}"
            # compose compares rewards, and a NaN has no order
            if state.reward is not None and not math.isfinite(state.reward):
                problems.append(f"{label}: hasReward {state.reward!r} is not finite")
            if state.expression is None:
                continue
            try:
                expr = parse_rule(state.expression)
            except RuleSyntaxError as exc:
                problems.append(f"{label}: hasExpression does not parse ({exc})")
                continue
            rules[state.name] = expr
            declared = set(state.observation_features)
            # sorted: a set's order changes with the string hash seed
            for feat in sorted(expr.feature_names()):
                if feat not in declared:
                    problems.append(
                        f"{label}: expression references feature {feat!r} "
                        "not listed under hasObservationFeature"
                    )

        for feature in self.features:
            label = f"ObservationFeature {feature.name!r}"
            if (
                feature.range_start is not None
                and feature.range_end is not None
                and feature.range_start > feature.range_end
            ):
                problems.append(f"{label}: hasRangeStart exceeds hasRangeEnd")
            if feature.distribution is Distribution.GAUSSIAN:
                if feature.mean is None or feature.standard_deviation is None:
                    problems.append(
                        f"{label}: GAUSSIAN requires hasMeanValue and "
                        "hasStandardDeviation"
                    )
                elif feature.standard_deviation < 0:
                    problems.append(f"{label}: hasStandardDeviation must be >= 0")
            if feature.distribution is Distribution.POISSON:
                if feature.lambda_ is None or feature.lambda_ <= 0:
                    problems.append(f"{label}: POISSON requires hasLambda > 0")
            if feature.distribution is Distribution.BINOMIAL:
                if feature.success_rate is None or not (0 <= feature.success_rate <= 1):
                    problems.append(
                        f"{label}: BINOMIAL requires hasSuccessRate in [0,1]"
                    )

        for transition in self.transitions:
            if transition.probability is None:
                continue
            if not (0.0 <= transition.probability <= 1.0):
                problems.append(
                    f"Transition {transition.name!r}: hasTransitionProbability "
                    f"{transition.probability!r} outside [0,1]"
                )

        groups: dict[tuple[str, str], float] = {}
        for transition in self.transitions:
            if transition.previous_state and transition.action:
                key = (transition.previous_state, transition.action)
                groups[key] = groups.get(key, 0.0) + (transition.probability or 0.0)
        for (prev, act), total in sorted(groups.items()):
            if abs(total - 1.0) > PROBABILITY_TOLERANCE:
                problems.append(
                    f"transitions from state {prev!r} via action {act!r} "
                    f"sum to {total!r}, expected 1"
                )

        for effect in self.effects:
            if effect.impact_type is ImpactType.COMPUTE and not effect.equation:
                problems.append(
                    f"Effect {effect.name!r}: COMPUTE impact requires hasEquation"
                )

        for equation in self.by_concept(Concept.EQUATION):
            label = f"Equation {equation.name!r}"
            if equation.expression is None:
                continue
            try:
                expr = parse_equation(equation.expression)
            except RuleSyntaxError as exc:
                problems.append(f"{label}: hasExpression does not parse ({exc})")
                continue
            equations[equation.name] = expr
            known = {f.name for f in self.features}
            for pname in equation.parameters:
                param = self._entities.get(pname)
                if isinstance(param, Parameter):
                    known.add(param.parameter_name)
            for sym in expr.symbols:
                if sym not in known:
                    problems.append(
                        f"{label}: free symbol {sym!r} is neither a feature "
                        "nor a declared parameter"
                    )

        if problems:
            raise GraphValidationError(problems)
        transitions: dict[str, dict[str, list[Transition]]] = {}
        for t in self.transitions:
            transitions.setdefault(t.previous_state, {}).setdefault(t.action, []).append(t)
        owners: dict[str, list[Activity]] = {}
        scope_names = {}
        for activity in self.activities:
            states = frozenset(activity.states)
            for name in states:
                owners.setdefault(name, []).append(activity)
            scope_names[activity.name] = (states, frozenset(activity.actions))
        self._index = _Index(
            rules=rules,
            equations=equations,
            recognition=tuple(
                RecognitionEntry(state, rules[name], rules[name].clauses[0][0].feature)
                for name, state in sorted(self._by_concept[Concept.STATE].items())
            ),
            owners={name: tuple(acts) for name, acts in owners.items()},
            transitions=transitions,
            scope_names=scope_names,
        )

    @property
    def effects(self) -> list[Effect]:
        return self.by_concept(Concept.EFFECT)


def isomorphic(a: KnowledgeGraph, b: KnowledgeGraph) -> bool:
    """Graphs are considered equal when their triple sets coincide."""
    return a.triples() == b.triples()


def sorted_entities(graph: KnowledgeGraph) -> list[Entity]:
    """Deterministic writer order: by concept group, then by name."""
    out: list[Entity] = []
    for concept in _CONCEPT_ORDER:
        out.extend(sorted(graph.by_concept(concept), key=lambda e: e.name))
    return out
