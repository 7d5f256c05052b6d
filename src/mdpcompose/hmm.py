"""Markov model estimation from recorded agent logs.

Each log row is one step: state, performed action, observed feature values,
received reward and the next state. Fitting counts the rows once and turns
every count into a frequency by one rule (count over total, keys sorted):
P(next|state, action), P(action|state), the state marginal and, per state,
the PMF of each categorical feature. Numeric feature observations are fitted
per state as Gaussians (sample moments) and summarised over all rows; a
categorical feature has no pooled summary. A fitted model can be lowered
into an activity knowledge graph whose transitions carry the empirical
probabilities.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from .errors import UnknownSituationError
from .kg import (
    Action,
    Activity,
    CommunicationType,
    Distribution,
    Effect,
    FeatureType,
    ImpactType,
    KnowledgeGraph,
    ObservationFeature,
    State,
    Transition,
    transition_name,
)
from .turtle_io import is_local_name

LABEL_FEATURE = "state_label"


@dataclass(frozen=True)
class LogRow:
    state: str
    action: str
    observations: dict
    reward: float
    next_state: str

    def __post_init__(self):
        if not self.state or not self.action or not self.next_state:
            raise ValueError("state, action and next_state must be non-empty")


@dataclass(frozen=True)
class Gaussian:
    mean: float
    stdev: float

    def log_pdf(self, x: float) -> float:
        if self.stdev == 0.0:
            return 0.0 if x == self.mean else -math.inf
        z = (x - self.mean) / self.stdev
        return -0.5 * z * z - math.log(self.stdev * math.sqrt(2.0 * math.pi))


@dataclass
class FeatureSummary:
    """Moments and range of a numeric feature, pooled over all rows."""

    mean: float
    stdev: float
    median: float
    low: float
    high: float


@dataclass
class HmmModel:
    states: list[str]
    transition_prob: dict  # (state, action) -> {next_state: p}
    action_prob: dict  # state -> {action: p}
    observation_prob: dict  # (state, feature) -> Gaussian | PMF dict
    state_reward: dict  # state -> {"mean": float, "median": float}
    state_prob: dict  # empirical marginal of the state column
    feature_summary: dict  # feature -> FeatureSummary, None if categorical


def _mean(values):
    return sum(values) / len(values)


def _median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _moments(feature: str, values) -> tuple[float, float]:
    """The mean and the standard deviation of one numeric feature's values.
    Raises ValueError naming the feature when the mean or the variance is
    not finite."""
    m = _mean(values)
    try:
        variance = sum((v - m) ** 2 for v in values) / len(values)
    except OverflowError:  # float ** raises where * gives inf
        variance = math.inf
    if not (math.isfinite(m) and math.isfinite(variance)):
        raise ValueError(f"feature {feature!r}: mean or variance is not finite")
    return m, math.sqrt(variance)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _frequencies(counts: Counter) -> dict:
    """Each key's share of the total count, keys sorted."""
    total = sum(counts.values())
    return {key: c / total for key, c in sorted(counts.items())}


def fit_hmm(rows: list[LogRow]) -> HmmModel:
    """Estimate all conditional distributions by empirical frequency."""
    if not rows:
        raise ValueError("cannot fit a model from zero rows")

    transition_counts: dict = defaultdict(Counter)  # (state, action) -> next states
    action_counts: dict = defaultdict(Counter)  # state -> actions
    state_counts: Counter = Counter()
    rewards: dict = defaultdict(list)  # state -> [rewards]
    samples: dict = defaultdict(list)  # (state, feature) -> [values]
    pooled: dict = defaultdict(list)  # feature -> [values]
    for row in rows:
        transition_counts[row.state, row.action][row.next_state] += 1
        action_counts[row.state][row.action] += 1
        state_counts[row.state] += 1
        rewards[row.state].append(row.reward)
        for feature, value in row.observations.items():
            samples[row.state, feature].append(value)
            pooled[feature].append(value)

    for feature, values in sorted(pooled.items()):
        if len({_is_number(v) for v in values}) > 1:
            raise ValueError(f"feature {feature!r} mixes numeric and categorical values")

    return HmmModel(
        states=sorted(set(state_counts) | {row.next_state for row in rows}),
        # outer keys in first-seen order, the order _marginal_transitions sums in
        transition_prob={k: _frequencies(c) for k, c in transition_counts.items()},
        action_prob={k: _frequencies(c) for k, c in action_counts.items()},
        observation_prob={
            key: Gaussian(*_moments(key[1], values))
            if _is_number(values[0])
            else _frequencies(Counter(values))
            for key, values in samples.items()
        },
        state_reward={
            state: {"mean": _mean(values), "median": _median(values)}
            for state, values in rewards.items()
        },
        state_prob=_frequencies(state_counts),
        feature_summary={
            feature: FeatureSummary(
                *_moments(feature, values),
                median=_median(values),
                low=float(min(values)),
                high=float(max(values)),
            )
            if _is_number(values[0])
            else None
            for feature, values in sorted(pooled.items())
        },
    )


def most_likely_next(model: HmmModel, state: str, action: str):
    """Argmax of P(next | state, action); ties break lexicographically."""
    dist = model.transition_prob.get((state, action))
    if not dist:
        raise UnknownSituationError(
            f"unknown situation: no observations for ({state!r}, {action!r})"
        )
    best = min(dist.items(), key=lambda kv: (-kv[1], kv[0]))
    return best


def _marginal_transitions(model: HmmModel) -> dict:
    """P(next | state) marginalized over the per-state action distribution."""
    marginal: dict = {}
    for (state, action), dist in model.transition_prob.items():
        p_action = model.action_prob.get(state, {}).get(action, 0.0)
        bucket = marginal.setdefault(state, {})
        for nxt, p in dist.items():
            bucket[nxt] = bucket.get(nxt, 0.0) + p_action * p
    return marginal


def _emission_log_prob(model: HmmModel, state: str, observations: dict) -> float:
    total = 0.0
    for feature, value in sorted(observations.items()):
        dist = model.observation_prob.get((state, feature))
        if dist is None:
            return -math.inf
        if isinstance(dist, Gaussian):
            if not _is_number(value):
                return -math.inf
            total += dist.log_pdf(float(value))
        else:
            p = dist.get(value, 0.0)
            if p == 0.0:
                return -math.inf
            total += math.log(p)
    return total


def viterbi_path(model: HmmModel, observation_seq: list[dict]) -> list[str]:
    """Maximum-probability state sequence in log space.

    Uses the empirical state marginal as the starting distribution and the
    action-marginalized transition matrix between steps. When several
    sequences share the maximum probability, the lexicographically smallest
    one is returned (backward scores, forward reconstruction).
    """
    if not observation_seq:
        raise ValueError("empty observation sequence")
    marginal = _marginal_transitions(model)
    states = model.states
    steps = len(observation_seq)
    known_features = {f for (_s, f) in model.observation_prob}
    for observations in observation_seq:  # before any emission can read zero
        for feature in sorted(observations):
            if feature not in known_features:
                raise ValueError(f"unknown feature {feature!r}")

    emit = [
        [_emission_log_prob(model, s, observation_seq[t]) for s in states]
        for t in range(steps)
    ]
    log_trans = [
        [
            math.log(marginal.get(a, {}).get(b, 0.0))
            if marginal.get(a, {}).get(b, 0.0) > 0.0
            else -math.inf
            for b in states
        ]
        for a in states
    ]

    # future[t][i]: best achievable score of steps t+1.. given state i at t
    future = [[0.0] * len(states) for _ in range(steps)]
    for t in range(steps - 2, -1, -1):
        for i in range(len(states)):
            future[t][i] = max(
                log_trans[i][j] + emit[t + 1][j] + future[t + 1][j]
                for j in range(len(states))
            )

    def prior(i):
        p = model.state_prob.get(states[i], 0.0)
        return math.log(p) if p > 0.0 else -math.inf

    totals = [prior(i) + emit[0][i] + future[0][i] for i in range(len(states))]
    best = max(totals)
    if best == -math.inf:
        raise ValueError("observation sequence has zero likelihood everywhere")
    path = [totals.index(best)]  # first index = smallest state name on ties
    for t in range(1, steps):
        i = path[-1]
        choices = [
            log_trans[i][j] + emit[t][j] + future[t][j] for j in range(len(states))
        ]
        path.append(choices.index(max(choices)))
    return [states[i] for i in path]


def hmm_to_kg(model: HmmModel, activity_name: str = "DerivedActivity") -> KnowledgeGraph:
    """Lower a fitted model into an activity knowledge graph.

    State identity is carried by a synthetic ``state_label`` feature holding
    the state's index, so that state rules stay expressible in the rule
    grammar. Terminal states are those never observed with an outgoing
    action; the first state of the sorted state list that has outgoing
    observations becomes the initial state. Before building, raises
    ValueError for the first entity name, generated ones too, that is not a
    Turtle local name, so that the graph can be written, or not unique.
    """
    feature_names = [LABEL_FEATURE] + sorted(model.feature_summary)
    action_names = sorted({a for (_s, a) in model.transition_prob})
    effect_names = {a: f"Keep_{LABEL_FEATURE}_{a}" for a in action_names}
    owners: dict[str, str] = {}
    for kind, names in [
        ("activity", [activity_name]),
        ("state", model.states),
        ("action", action_names),
        ("generated feature", [LABEL_FEATURE]),
        ("feature", feature_names[1:]),
        ("generated effect", list(effect_names.values())),
    ]:
        for name in names:
            if not is_local_name(name):
                raise ValueError(f"{kind} name {name!r} is not a Turtle local name")
            if name in owners:
                raise ValueError(f"{owners[name]} and {kind} share the name {name!r}")
            owners[name] = kind

    graph = KnowledgeGraph()
    index = {state: k for k, state in enumerate(model.states)}
    outgoing = {state for (state, _a) in model.transition_prob}
    terminal = [s for s in model.states if s not in outgoing]
    if not terminal:
        terminal = [model.states[-1]]
    initial_candidates = [s for s in model.states if s in outgoing] or model.states
    initial = initial_candidates[0]

    graph.add(
        Activity(
            name=activity_name,
            is_sequential=False,
            number_of_actors=1,
            communication_type=CommunicationType.ASYNCHRONOUS,
            states=list(model.states),
            actions=action_names,
            observation_features=feature_names,
        )
    )

    for state in model.states:
        reward = model.state_reward.get(state, {"mean": 0.0})["mean"]
        graph.add(
            State(
                name=state,
                is_initial_state=(state == initial),
                is_final_state=(state in terminal),
                is_goal=(state in terminal),
                reward=reward,
                expression=f"{LABEL_FEATURE} == {index[state]}",
                observation_features=feature_names,
            )
        )

    nominal = dict(range_start=0.0, feature_type=FeatureType.NOMINAL, distribution=Distribution.NONE)
    label_end = float(len(model.states) - 1)
    graph.add(ObservationFeature(name=LABEL_FEATURE, range_end=label_end, **nominal))
    for feature, summary in sorted(model.feature_summary.items()):
        if summary is None:  # categorical: range 0-0, no moments and no mode
            graph.add(ObservationFeature(name=feature, range_end=0.0, **nominal))
            continue
        graph.add(
            ObservationFeature(
                name=feature,
                range_start=summary.low,
                range_end=summary.high,
                feature_type=FeatureType.NUMERICAL,
                distribution=Distribution.GAUSSIAN,
                mean=summary.mean,
                standard_deviation=summary.stdev,
                variance=summary.stdev ** 2,
                median=summary.median,
            )
        )

    action_transitions: dict = {a: [] for a in action_names}
    for (state, action), dist in sorted(model.transition_prob.items()):
        for nxt, p in dist.items():
            name = transition_name(state, action, nxt)
            graph.add(
                Transition(
                    name=name,
                    previous_state=state,
                    next_state=nxt,
                    action=action,
                    probability=p,
                )
            )
            action_transitions[action].append(name)

    for action in action_names:
        effect_name = effect_names[action]
        graph.add(
            Effect(
                name=effect_name,
                target_features=[LABEL_FEATURE],
                impact_type=ImpactType.CONSTANT,
            )
        )
        graph.add(
            Action(
                name=action,
                effects=[effect_name],
                transitions=action_transitions[action],
            )
        )

    graph.validate()
    return graph


def read_log_csv(path) -> list[LogRow]:
    """Load rows from ``state,action,reward,next_state,<features...>`` CSV."""
    rows = []
    with open(Path(path), newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV file")
        expected = ["state", "action", "reward", "next_state"]
        if [h.strip() for h in header[:4]] != expected:
            raise ValueError(f"CSV header must start with {','.join(expected)}")
        feature_names = [h.strip() for h in header[4:]]
        for k, name in enumerate(feature_names):
            if name in feature_names[:k]:
                raise ValueError(f"CSV header repeats the feature {name!r}")
        for lineno, record in enumerate(reader, start=2):
            if not record or all(not cell.strip() for cell in record):
                continue
            if len(record) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} fields")
            observations = {}
            for feature, cell in zip(feature_names, record[4:]):
                cell = cell.strip()
                try:
                    observations[feature] = float(cell)
                except ValueError:
                    observations[feature] = cell
            try:
                reward = float(record[2])
            except ValueError:
                raise ValueError(f"line {lineno}: reward is not numeric") from None
            try:
                rows.append(
                    LogRow(
                        state=record[0].strip(),
                        action=record[1].strip(),
                        observations=observations,
                        reward=reward,
                        next_state=record[3].strip(),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return rows
