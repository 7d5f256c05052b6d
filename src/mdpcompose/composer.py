"""On-demand policy composition by ensembles of agents.

Starting from a recognized state, each round finds the actions whose
embeddings lie within the current search radius, evaluates one agent step
per candidate, and keeps the reward-maximising outcome. The state the agents
start from is validated once per commit, by ``start_state`` at the first
candidate that the graph knows, and ``scoped_transitions`` makes each
candidate's checks in the order ``step_state`` makes them, so an invalid
state or action fails at the same candidate as a per-agent check would.
Only a candidate with a scoped transition runs an agent: a
``make_simulation`` closure over the validated ``Start`` that steps its own
copy of the state. A candidate without one, or absent from the graph, is
charged the wrong-step penalty without a simulation and still counts as an
agent step. The charged candidates of a commit share one penalty state (of
the start state, or of the current state for one absent from the graph),
which a positive increment keeps from ever being committed. The agents of a
round run one after another in candidate order: an agent step is pure
Python, so under the GIL threads would add overhead and no parallelism.
When no candidate improves the reward the radius grows by a fixed step, up
to the radius cap, which is tried itself even when the steps skip it; a
commit resets it. An agent is a pure function of (state, action), so a
candidate that an earlier round already simulated from the same state reuses
that result instead of running again; the trace still counts it in every
round it was a candidate. The loop ends at a goal state and returns the
ranked policy table together with a trace of every round.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import CompositionFailureError
from .kg import KnowledgeGraph
from .simulation import (
    SimConfig,
    SimState,
    make_simulation,
    scoped_transitions,
    start_state,
    wrong_step,
)
from .space import EmbeddingSpace


@dataclass
class ComposerConfig:
    max_distance: float = 0.25  # initial search radius
    radius_step: float = 0.25
    radius_cap: float = 2.0  # the maximum cosine distance
    step_budget: int | None = None  # rounds per episode; default 50 x states

    def __post_init__(self):
        if not (0 < self.max_distance <= self.radius_cap):
            raise ValueError("max_distance must be in (0, radius_cap]")
        # a radius that cannot grow, or no round at all, could only end in
        # an exhausted step budget
        if not (math.isfinite(self.radius_step) and self.radius_step > 0):
            raise ValueError("radius_step must be a finite number > 0")
        if self.step_budget is not None and self.step_budget < 1:
            raise ValueError("step_budget must be at least 1")


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


@dataclass(frozen=True)
class AgentResult:
    action: str
    distance: float
    state: SimState


@dataclass
class TraceRound:
    radius: float
    candidates: list[tuple[str, float]]
    results: list[tuple[str, float]]  # (action, resulting reward)
    chosen: str | None
    committed: bool


@dataclass
class CompositionTrace:
    rounds: list[TraceRound] = field(default_factory=list)
    commit_radii: list[float] = field(default_factory=list)
    steps: int = 0  # coordinator rounds until the goal
    agent_steps: int = 0  # candidates evaluated, simulated or charged the penalty
    wrong_decisions: int = 0  # agent steps whose reward dropped
    cumulative_reward: float = 0.0  # sum of the running reward at each commit
    episodes: int = 1

    @property
    def radii(self) -> list[float]:
        return [r.radius for r in self.rounds]


def select_best(results: list[AgentResult]) -> AgentResult:
    """Deterministic argmax: reward, then smaller embedding distance, then
    lexicographic action name."""
    if not results:
        raise ValueError("no agent results to select from")
    return min(results, key=lambda r: (-r.state.reward, r.distance, r.action))


def compose(
    graph: KnowledgeGraph,
    space: EmbeddingSpace,
    initial_state: SimState,
    cfg: ComposerConfig | None = None,
    sim_cfg: SimConfig | None = None,
) -> tuple[PolicyTable, CompositionTrace]:
    """Compose a ranked action sequence for the given starting state.

    Raises UnknownSituationError when the state is not recognized and
    CompositionFailureError when the radius cap or step budget is exhausted
    without reaching a goal.
    """
    cfg = cfg or ComposerConfig()
    sim_cfg = sim_cfg or SimConfig()

    # what the agents start from: after a commit it is None until the first
    # candidate found in the graph validates the new state, so an invalid
    # one fails there
    start = start_state(graph, initial_state, sim_cfg)
    current = start.state
    # the shared outcome of a candidate that makes no transition: `absent`
    # for one absent from the graph, `stay` for one in it
    absent = wrong_step(current.clone(), sim_cfg)
    stay = wrong_step(start.state.clone(), sim_cfg)

    budget = cfg.step_budget if cfg.step_budget is not None else 50 * max(
        1, len(graph.states)
    )
    trace = CompositionTrace()
    committed_actions: list[str] = []
    committed_rewards: list[float] = []
    alternatives: dict[tuple[str, ...], tuple[tuple[float, ...], float]] = {}
    simulated: dict[str, AgentResult] = {}  # action -> result from `current`
    radius = cfg.max_distance

    while not current.is_goal:
        if trace.steps >= budget:
            raise CompositionFailureError(
                f"step budget {budget} exhausted before reaching a goal"
            )
        trace.steps += 1
        candidates = space.find_closest_actions(current.state_label, radius)
        round_record = TraceRound(
            radius=radius, candidates=candidates, results=[], chosen=None, committed=False
        )
        trace.rounds.append(round_record)

        results = []
        for action, distance in candidates:
            result = simulated.get(action)
            if result is None:
                if graph.find(action) is None:
                    # known to the embedding space but absent from this
                    # activity graph: penalized like a transition-less action
                    state = absent
                else:
                    if start is None:
                        start = start_state(graph, current, sim_cfg)
                        stay = wrong_step(start.state.clone(), sim_cfg)
                    _action, moves = scoped_transitions(graph, start, start.state, action)
                    state = make_simulation(graph, start, sim_cfg)(action) if moves else stay
                result = simulated[action] = AgentResult(action, distance, state)
            results.append(result)
        trace.agent_steps += len(results)
        trace.wrong_decisions += sum(1 for r in results if r.state.reward < current.reward)
        round_record.results = [(r.action, r.state.reward) for r in results]

        best = select_best(results) if results else None
        if best is None or best.state.reward <= current.reward:
            grown = radius + cfg.radius_step
            if grown > cfg.radius_cap + 1e-12:
                if radius >= cfg.radius_cap - 1e-12:
                    raise CompositionFailureError(
                        f"no reward-improving action within radius cap "
                        f"{cfg.radius_cap} from state {current.state_label!r}"
                    )
                grown = cfg.radius_cap  # the steps skip the cap: try it once
            radius = grown
            continue

        for result in results:
            if result is not best and result.state.is_goal:
                actions = tuple(committed_actions) + (result.action,)
                rewards = tuple(committed_rewards) + (result.state.reward,)
                alternatives.setdefault(actions, (rewards, sum(rewards)))

        round_record.chosen = best.action
        round_record.committed = True
        trace.commit_radii.append(radius)
        committed_actions.append(best.action)
        committed_rewards.append(best.state.reward)
        current = best.state
        start = None
        absent = wrong_step(current.clone(), sim_cfg)
        simulated.clear()
        radius = cfg.max_distance

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
