"""Markov model estimation from recorded agent logs.

Each log row is one step: state, performed action, observed feature values,
received reward and the next state. Fitting counts empirical conditional
frequencies P(next|state, action) and P(action|state), fits numeric feature
observations per state as Gaussians (sample moments) and tallies PMFs for
categorical ones. A fitted model can be lowered into an activity knowledge
graph whose transitions carry the empirical probabilities.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
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
    numeric: bool
    mean: float | None = None
    stdev: float | None = None
    variance: float | None = None
    median: float | None = None
    low: float | None = None
    high: float | None = None
    pmf: dict = field(default_factory=dict)
    mode: object = None


@dataclass
class HmmModel:
    states: list[str]
    transition_prob: dict  # (state, action) -> {next_state: p}
    action_prob: dict  # state -> {action: p}
    observation_prob: dict  # (state, feature) -> Gaussian | PMF dict
    state_reward: dict  # state -> {"mean": float, "median": float}
    state_prob: dict  # empirical marginal of the state column
    feature_summary: dict  # feature -> FeatureSummary (pooled over states)


def _mean(values):
    return sum(values) / len(values)


def _median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _stdev(values):
    m = _mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def fit_hmm(rows: list[LogRow]) -> HmmModel:
    """Estimate all conditional distributions by empirical frequency."""
    if not rows:
        raise ValueError("cannot fit a model from zero rows")

    transition_counts: dict = {}
    action_counts: dict = {}
    state_counts: dict = {}
    rewards: dict = {}
    samples: dict = {}  # (state, feature) -> [values]
    pooled: dict = {}  # feature -> [values]

    for row in rows:
        key = (row.state, row.action)
        transition_counts.setdefault(key, {})
        transition_counts[key][row.next_state] = (
            transition_counts[key].get(row.next_state, 0) + 1
        )
        action_counts.setdefault(row.state, {})
        action_counts[row.state][row.action] = (
            action_counts[row.state].get(row.action, 0) + 1
        )
        state_counts[row.state] = state_counts.get(row.state, 0) + 1
        rewards.setdefault(row.state, []).append(row.reward)
        for feature, value in row.observations.items():
            samples.setdefault((row.state, feature), []).append(value)
            pooled.setdefault(feature, []).append(value)

    for feature, values in sorted(pooled.items()):
        numeric = [_is_number(v) for v in values]
        if any(numeric) and not all(numeric):
            raise ValueError(
                f"feature {feature!r} mixes numeric and categorical values"
            )

    state_names = sorted(
        set(state_counts)
        | {row.next_state for row in rows}
    )

    transition_prob = {}
    for key, counts in transition_counts.items():
        total = sum(counts.values())
        transition_prob[key] = {nxt: c / total for nxt, c in sorted(counts.items())}

    action_prob = {}
    for state, counts in action_counts.items():
        total = sum(counts.values())
        action_prob[state] = {a: c / total for a, c in sorted(counts.items())}

    observation_prob = {}
    for (state, feature), values in samples.items():
        if _is_number(values[0]):
            observation_prob[(state, feature)] = Gaussian(_mean(values), _stdev(values))
        else:
            total = len(values)
            pmf: dict = {}
            for v in values:
                pmf[v] = pmf.get(v, 0) + 1
            observation_prob[(state, feature)] = {
                v: c / total for v, c in sorted(pmf.items())
            }

    state_reward = {
        state: {"mean": _mean(vals), "median": _median(vals)}
        for state, vals in rewards.items()
    }

    total_rows = len(rows)
    state_prob = {s: c / total_rows for s, c in sorted(state_counts.items())}

    feature_summary = {}
    for feature, values in sorted(pooled.items()):
        if _is_number(values[0]):
            feature_summary[feature] = FeatureSummary(
                numeric=True,
                mean=_mean(values),
                stdev=_stdev(values),
                variance=_stdev(values) ** 2,
                median=_median(values),
                low=float(min(values)),
                high=float(max(values)),
            )
        else:
            counts: dict = {}
            for v in values:
                counts[v] = counts.get(v, 0) + 1
            pmf = {v: c / len(values) for v, c in sorted(counts.items())}
            mode = max(sorted(counts), key=lambda v: counts[v])
            feature_summary[feature] = FeatureSummary(numeric=False, pmf=pmf, mode=mode)

    return HmmModel(
        states=state_names,
        transition_prob=transition_prob,
        action_prob=action_prob,
        observation_prob=observation_prob,
        state_reward=state_reward,
        state_prob=state_prob,
        feature_summary=feature_summary,
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
    known_features = {f for (_s, f) in model.observation_prob}
    total = 0.0
    for feature, value in sorted(observations.items()):
        if feature not in known_features:
            raise ValueError(f"unknown feature {feature!r}")
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

    graph.add(
        ObservationFeature(
            name=LABEL_FEATURE,
            range_start=0.0,
            range_end=float(len(model.states) - 1),
            feature_type=FeatureType.NOMINAL,
            distribution=Distribution.NONE,
        )
    )
    for feature in sorted(model.feature_summary):
        summary = model.feature_summary[feature]
        if summary.numeric:
            graph.add(
                ObservationFeature(
                    name=feature,
                    range_start=summary.low,
                    range_end=summary.high,
                    feature_type=FeatureType.NUMERICAL,
                    distribution=Distribution.GAUSSIAN,
                    mean=summary.mean,
                    standard_deviation=summary.stdev,
                    variance=summary.variance,
                    median=summary.median,
                )
            )
        else:
            graph.add(
                ObservationFeature(
                    name=feature,
                    range_start=0.0,
                    range_end=0.0,
                    feature_type=FeatureType.NOMINAL,
                    distribution=Distribution.NONE,
                    mode=summary.mode if _is_number(summary.mode) else None,
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
            rows.append(
                LogRow(
                    state=record[0].strip(),
                    action=record[1].strip(),
                    observations=observations,
                    reward=reward,
                    next_state=record[3].strip(),
                )
            )
    return rows
