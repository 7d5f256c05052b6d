"""On-demand policy composition by ensembles of agents.

Starting from a recognized state, each round finds the actions whose
embeddings lie within the current search radius, gives each candidate one
agent step, and keeps the reward-maximising outcome. When none improves the
reward the radius grows by RADIUS_STEP from MAX_DISTANCE to RADIUS_CAP
(0.25, 0.5, ..., 2.0, all exact in binary), the last round; a commit resets
it. The loop ends at a goal state and returns the ranked policy table and
a trace of every round.

The work is done once per commit. The radius only grows and hits come in
(distance, name) order, so a round's candidates extend the last round's
and only the new ones are classified, in order. At the commit's first
candidate in the graph, ``start_state`` validates the agents' start and
``check_state`` checks it; the movers are the actions of its transition
index entry that ``scoped_transitions`` keeps in scope. A candidate absent
from the graph is charged the wrong-step penalty, one that ``as_action``
rejects fails, a mover runs a ``make_simulation`` agent over the validated
``Start``, and any other is charged. So an error comes from the candidate
where a per-agent check fails. A charged candidate counts as an agent step
but never wins, its reward being below the current one, so the first mover
with the highest reward is the (reward, distance, name) argmax. Agents run
one after another: under the GIL, threads would add no parallelism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import CompositionFailureError
from .kg import KnowledgeGraph
from .simulation import (
    SimState,
    as_action,
    check_state,
    default_step_limit,
    make_simulation,
    scoped_transitions,
    start_state,
    wrong_step_reward,
)
from .space import EmbeddingSpace


MAX_DISTANCE = 0.25  # the start radius
RADIUS_STEP = 0.25
RADIUS_CAP = 2.0  # the maximum cosine distance


@dataclass(frozen=True)
class PolicyRow:
    rank: int
    actions: tuple[str, ...]
    rewards: tuple[float, ...]
    cumulative: float


@dataclass
class PolicyTable:
    rows: list[PolicyRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "policies": [
                {
                    "rank": row.rank,
                    "actions": list(row.actions),
                    "rewards": list(row.rewards),
                    "cumulative": row.cumulative,
                }
                for row in self.rows
            ]
        }


def policy_table_json(table: PolicyTable) -> str:
    """Canonical JSON rendering; the HTTP service returns these bytes."""
    return json.dumps(table.to_dict(), separators=(",", ":"))


@dataclass
class TraceRound:
    """One round of a composition. The rounds are a trace's only record:
    its totals are counted from their fields."""

    radius: float
    reward: float  # the running reward the round starts from
    candidates: list[tuple[str, float]]
    results: list[tuple[str, float]]  # (action, reward): a mover's agent, else the penalty
    chosen: str | None = None
    committed: bool = False


@dataclass
class CompositionTrace:
    """Every round of a composition, in order. The totals are properties
    derived from the rounds."""

    rounds: list[TraceRound] = field(default_factory=list)
    cumulative_reward: float = 0.0  # sum of the running reward at each commit
    episodes: int = 1

    @property
    def steps(self) -> int:  # coordinator rounds until the goal
        return len(self.rounds)

    @property
    def agent_steps(self) -> int:  # candidates of every round, simulated or charged
        return sum(len(rnd.results) for rnd in self.rounds)

    @property
    def wrong_decisions(self) -> int:
        # agent steps whose reward fell below their round's; a huge reward
        # can absorb the increment, and then a charged one loses nothing
        return sum(reward < rnd.reward for rnd in self.rounds for _a, reward in rnd.results)

    @property
    def commit_radii(self) -> list[float]:
        return [rnd.radius for rnd in self.rounds if rnd.committed]


def compose(
    graph: KnowledgeGraph,
    space: EmbeddingSpace,
    initial_state: SimState,
) -> tuple[PolicyTable, CompositionTrace]:
    """Compose a ranked action sequence for the given starting state.

    Raises UnknownSituationError when the state is not recognized and
    CompositionFailureError when the round at RADIUS_CAP or the step
    budget, ``default_step_limit`` rounds, ends short of a goal.
    """
    # after a commit, None until the first candidate found in the graph
    start = start_state(graph, initial_state)
    current = start.state
    budget = default_step_limit(graph)
    trace = CompositionTrace()
    committed_actions: list[str] = []
    committed_rewards: list[float] = []
    alternatives: dict[tuple[str, ...], tuple[tuple[float, ...], float]] = {}
    radius = MAX_DISTANCE
    penalty = wrong_step_reward(current.reward)  # of every charged candidate
    seen = 0  # the commit's candidates classified so far
    movers: set[str] | None = None  # actions with a scoped transition from `start`
    moved: dict[str, float] = {}  # mover -> reward its agent reached
    goals: list[tuple[str, float]] = []  # in-graph candidates reaching a goal
    best: tuple[str, SimState] | None = None  # first mover with the highest reward

    while not current.is_goal:
        if len(trace.rounds) >= budget:
            raise CompositionFailureError(
                f"step budget {budget} exhausted before reaching a goal"
            )
        candidates = space.find_closest_actions(current.state_label, radius)
        for action, _distance in candidates[seen:]:
            entity = graph.find(action)
            if entity is None:
                # known to the embedding space but absent from this
                # activity graph: penalized like a transition-less action
                continue
            if movers is None:
                if start is None:
                    start = start_state(graph, current)
                check_state(start, start.state)
                movers = {
                    a for a in graph.actions_from(start.state.state_label)
                    if scoped_transitions(graph, start, start.state, a)
                }
            as_action(entity, action)
            if action in movers:
                state = make_simulation(graph, start)(action)
                moved[action] = state.reward
                if best is None or state.reward > best[1].reward:
                    best = action, state
                if state.is_goal:
                    goals.append((action, state.reward))
            elif start.state.is_goal:
                # a start re-recognised from an UNKNOWN label can be a goal
                goals.append((action, penalty))
        seen = len(candidates)
        results = [(action, moved.get(action, penalty)) for action, _d in candidates]
        round_record = TraceRound(radius, current.reward, candidates, results)
        trace.rounds.append(round_record)

        if best is None or best[1].reward <= current.reward:
            if radius == RADIUS_CAP:
                raise CompositionFailureError(
                    f"no reward-improving action within radius cap "
                    f"{RADIUS_CAP} from state {current.state_label!r}"
                )
            radius += RADIUS_STEP
            continue

        chosen, current = best
        for action, reward in goals:
            if action != chosen:
                actions = tuple(committed_actions) + (action,)
                rewards = tuple(committed_rewards) + (reward,)
                alternatives.setdefault(actions, (rewards, sum(rewards)))

        round_record.chosen = chosen
        round_record.committed = True
        committed_actions.append(chosen)
        committed_rewards.append(current.reward)
        start = movers = best = None
        seen = 0
        penalty = wrong_step_reward(current.reward)
        moved.clear()
        goals.clear()
        radius = MAX_DISTANCE

    trace.cumulative_reward = sum(committed_rewards)

    rows = [
        (tuple(committed_actions), tuple(committed_rewards), trace.cumulative_reward)
    ]
    for actions, (rewards, cumulative) in alternatives.items():
        if actions != rows[0][0]:
            rows.append((actions, rewards, cumulative))
    rows.sort(key=lambda row: (-row[2], row[0]))
    table = PolicyTable(
        rows=[
            PolicyRow(rank=i + 1, actions=actions, rewards=rewards, cumulative=cumulative)
            for i, (actions, rewards, cumulative) in enumerate(rows)
        ]
    )
    return table, trace
