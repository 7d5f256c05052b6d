"""Deep Q-learning baseline trained per activity against the simulation.

A one-hidden-layer network maps a one-hot state encoding to one Q-value per
activity action. Training is epsilon-greedy with a ring-buffer experience
replay; each environment step performs one minibatch temporal-difference
update toward r + gamma * max_a' Q(s', a') (plain r on terminal moves).
The hyper-parameters are module constants; training stops after the first
episode whose greedy walk succeeds. The per-step reward signal is the
change of the simulation's running reward, so correct moves yield +0.25
and wrong ones -0.25.

A minibatch draws its rows from only the activity's few states, so each TD
update works on per-state tables: one hidden table tanh(w1 + b1) and one Q
table, from which it reads both the taken-action values and the bootstrap
maxima. The loss gradient of the batch rows is summed per (state, action)
cell, and the weight gradients are products of that cell table with the
hidden table and w2.
The network's four parameters are views into one flat vector, and the
gradients views into one vector of the same layout, so a training step is
one array update, elementwise the same p - lr * g as one per parameter.
Greedy evaluation stops at the sequence length: success means reaching the
final state in exactly that many steps, so a longer walk cannot succeed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergenceError
from .kg import KnowledgeGraph
from .simulation import initial_state, make_simulation


LEARNING_RATE = 0.05
EPSILON = 0.9  # exploration rate while training; 0 when evaluating
GAMMA = 0.9
HIDDEN_UNITS = 100
REPLAY_CAPACITY = 5000
REPLAY_BATCH = 64


@dataclass
class DqnConfig:
    episode_cap: int = 100
    rng_seed: int = 0


@dataclass
class TrainingRecord:
    episodes_used: int = 0
    total_steps: int = 0
    wrong_decisions: int = 0
    cumulative_reward: float = 0.0
    success: bool = False


class QNetwork:
    """tanh hidden layer; linear Q-value head; float64 weights.

    ``params`` holds w1, b1, w2 and b2 back to back; the four attributes are
    views into it, so an update of ``params`` updates them all.
    """

    def __init__(self, states: list[str], actions: list[str], hidden_units: int, rng):
        self.states = list(states)
        self.actions = list(actions)
        self.state_index = {s: i for i, s in enumerate(self.states)}
        n_s, n_a = len(self.states), len(self.actions)
        shapes = {
            "w1": (n_s, hidden_units),
            "b1": (hidden_units,),
            "w2": (hidden_units, n_a),
            "b2": (n_a,),
        }
        # (name, start, end, shape) of each parameter in the flat vector
        self._layout, end = [], 0
        for key, shape in shapes.items():
            start, end = end, end + math.prod(shape)
            self._layout.append((key, start, end, shape))
        self.params = np.zeros(end)
        for key, view in self.unflatten(self.params).items():
            setattr(self, key, view)
        scale = 0.1
        self.w1[:] = rng.uniform(-scale, scale, size=self.w1.shape)
        self.w2[:] = rng.uniform(-scale, scale, size=self.w2.shape)

    def unflatten(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Views of w1, b1, w2 and b2 in a vector laid out like ``params``."""
        return {key: vector[start:end].reshape(shape) for key, start, end, shape in self._layout}

    def q_values(self, state_idx: int) -> np.ndarray:
        hidden = np.tanh(self.w1[state_idx] + self.b1)
        return hidden @ self.w2 + self.b2

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations and Q-values of every state, one row per
        state index."""
        hidden = np.tanh(self.w1 + self.b1)
        q = hidden @ self.w2
        q += self.b2
        return hidden, q


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.state = np.zeros(capacity, dtype=np.int64)
        self.action = np.zeros(capacity, dtype=np.int64)
        self.reward = np.zeros(capacity, dtype=np.float64)
        self.next_state = np.zeros(capacity, dtype=np.int64)
        self.terminal = np.zeros(capacity, dtype=np.float64)
        self.size = 0
        self._cursor = 0

    def push(self, s, a, r, s_next, terminal):
        i = self._cursor
        self.state[i] = s
        self.action[i] = a
        self.reward[i] = r
        self.next_state[i] = s_next
        self.terminal[i] = 1.0 if terminal else 0.0
        self._cursor = (self._cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample_indices(self, rng, count: int) -> np.ndarray:
        return rng.integers(0, self.size, size=count)


def _bootstrap(q: np.ndarray, batch, gamma: float) -> np.ndarray:
    _s, _a, r, s_next, terminal = batch
    return r + gamma * (1.0 - terminal) * q.max(axis=1)[s_next]


def td_targets(net: QNetwork, batch, gamma: float) -> np.ndarray:
    """Bootstrapped targets r + gamma * max_a' Q(s', a'), r alone on
    terminal moves."""
    return _bootstrap(net.tables()[1], batch, gamma)


def td_loss_and_grads(net: QNetwork, batch, gamma: float, targets=None):
    """Mean squared TD error on the taken actions and its gradients.

    batch = (states, actions, rewards, next_states, terminals) as arrays.
    Targets are constants (semi-gradient: no gradient through the
    bootstrap); pass precomputed ``targets`` to hold them fixed while
    perturbing parameters.
    """
    s, a, _r, _s_next, _terminal = batch
    hidden, q = net.tables()
    if targets is None:
        targets = _bootstrap(q, batch, gamma)
    cells = s * q.shape[1] + a
    errors = q.take(cells) - targets
    loss = float(errors @ errors) / len(s)

    dq = np.bincount(cells, weights=2.0 * errors / len(s), minlength=q.size).reshape(q.shape)
    # The gradients are views into one fresh vector laid out like params.
    grads = net.unflatten(np.empty_like(net.params))
    np.matmul(dq, net.w2.T, out=grads["w1"])
    grads["w1"] *= 1.0 - hidden * hidden
    dq.sum(axis=0, out=grads["b2"])
    grads["w1"].sum(axis=0, out=grads["b1"])
    np.matmul(hidden.T, dq, out=grads["w2"])
    return loss, grads


def _activity_layout(graph: KnowledgeGraph, activity_name: str):
    activity = graph.get(activity_name)
    return sorted(activity.states), sorted(activity.actions)


def train_dqn(graph: KnowledgeGraph, activity_name: str, cfg: DqnConfig | None = None):
    """Train a Q-network for one activity; returns (network, record)."""
    cfg = cfg or DqnConfig()
    states, actions = _activity_layout(graph, activity_name)
    max_steps = 50 * max(1, len(actions))  # per training episode

    rng = np.random.default_rng(cfg.rng_seed)
    net = QNetwork(states, actions, HIDDEN_UNITS, rng)
    replay = ReplayBuffer(REPLAY_CAPACITY)
    record = TrainingRecord()

    for _episode in range(cfg.episode_cap):
        record.episodes_used += 1
        steps, wrong, reward = 0, 0, 0.0
        start = initial_state(graph, activity_name)
        closure = make_simulation(graph, start)
        current = start
        s_idx = net.state_index[current.state_label]

        while not current.is_final and steps < max_steps:
            if rng.random() < EPSILON:
                a_idx = int(rng.integers(len(actions)))
            else:
                a_idx = int(np.argmax(net.q_values(s_idx)))
            result = closure(actions[a_idx])
            delta = result.reward - current.reward
            next_label = result.state_label
            next_idx = net.state_index.get(next_label)
            if next_idx is None:
                break  # left the activity's state set; abandon the episode
            replay.push(s_idx, a_idx, delta, next_idx, result.is_final)

            steps += 1
            reward += delta
            if delta < 0:
                wrong += 1

            if replay.size >= REPLAY_BATCH:
                picks = replay.sample_indices(rng, REPLAY_BATCH)
                batch = (
                    replay.state[picks],
                    replay.action[picks],
                    replay.reward[picks],
                    replay.next_state[picks],
                    replay.terminal[picks],
                )
                loss, grads = td_loss_and_grads(net, batch, GAMMA)
                if not math.isfinite(loss):
                    raise TrainingDivergenceError(
                        f"non-finite TD loss in episode {record.episodes_used}"
                    )
                # the four gradients share one vector laid out like params
                net.params -= LEARNING_RATE * grads["w1"].base

            current = result
            s_idx = next_idx

        # added once per episode, so the record's float sum keeps its order
        record.total_steps += steps
        record.wrong_decisions += wrong
        record.cumulative_reward += reward

        if evaluate_greedy(net, graph, activity_name):
            record.success = True
            break
    return net, record


def evaluate_greedy(net: QNetwork, graph: KnowledgeGraph, activity_name: str) -> bool:
    """One greedy episode; success means the final state is reached in
    exactly as many steps as the activity has actions."""
    _states, actions = _activity_layout(graph, activity_name)
    sequence_length = len(actions)

    start = initial_state(graph, activity_name)
    closure = make_simulation(graph, start)
    current = start
    steps = 0
    # steps only grow, so a walk not final after sequence_length steps fails
    while not current.is_final and steps < sequence_length:
        s_idx = net.state_index.get(current.state_label)
        if s_idx is None:
            return False
        a_idx = int(np.argmax(net.q_values(s_idx)))
        current = closure(actions[a_idx])
        steps += 1
    return current.is_final and steps == sequence_length
