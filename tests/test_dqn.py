import copy

import numpy as np
import pytest
from scipy.stats import chi2

from mdpcompose import dqn
from mdpcompose.dqn import (
    EPSILON,
    GAMMA,
    HIDDEN_UNITS,
    LEARNING_RATE,
    REPLAY_BATCH,
    REPLAY_CAPACITY,
    DqnConfig,
    QNetwork,
    ReplayBuffer,
    TrainingRecord,
    evaluate_greedy,
    td_loss_and_grads,
    td_targets,
    train_dqn,
)
from mdpcompose.simulation import initial_state, make_simulation
from mdpcompose.vhome import VhScript, VhStep, script_to_kg


def _chain_graph(steps):
    script = VhScript("Chain", "x", steps)
    return script_to_kg(script)


TWO_STEP = [VhStep("Walk", "door", 1), VhStep("Find", "cup", 1)]


def test_zero_episode_cap_returns_initial_network():
    g = _chain_graph(TWO_STEP)
    cfg = DqnConfig(episode_cap=0, rng_seed=5)
    net, record = train_dqn(g, "Chain", cfg)
    reference = QNetwork(net.states, net.actions, HIDDEN_UNITS, np.random.default_rng(5))
    assert np.array_equal(net.w1, reference.w1)
    assert np.array_equal(net.w2, reference.w2)
    assert record.episodes_used == 0
    assert record.total_steps == 0


def test_td_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    net = QNetwork(["s0", "s1", "s2"], ["a0", "a1"], hidden_units=5, rng=rng)
    batch = (
        rng.integers(0, 3, size=8),
        rng.integers(0, 2, size=8),
        rng.normal(size=8) * 0.25,
        rng.integers(0, 3, size=8),
        (rng.random(size=8) < 0.3).astype(float),
    )
    targets = td_targets(net, batch, gamma=0.9)
    _loss, grads = td_loss_and_grads(net, batch, gamma=0.9, targets=targets)
    h = 1e-5
    for key in ("w1", "b1", "w2", "b2"):
        param = getattr(net, key)
        grad = grads[key]
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = param[idx]
            param[idx] = original + h
            up, _ = td_loss_and_grads(net, batch, gamma=0.9, targets=targets)
            param[idx] = original - h
            down, _ = td_loss_and_grads(net, batch, gamma=0.9, targets=targets)
            param[idx] = original
            numeric = (up - down) / (2 * h)
            if abs(grad[idx]) < 1e-8:
                assert abs(numeric) < 1e-6
            else:
                assert abs(numeric - grad[idx]) / abs(grad[idx]) < 1e-4
            it.iternext()


def _one_hot_td(net, batch, gamma):
    """The TD loss and gradients with a dense one-hot state encoding and
    per-row tanh, for the forward pass and the targets alike."""
    s, a, r, s_next, terminal = batch
    n = len(s)
    q_next = np.tanh(net.w1[s_next] + net.b1) @ net.w2 + net.b2
    targets = r + gamma * (1.0 - terminal) * q_next.max(axis=1)
    x = np.zeros((n, len(net.states)))
    x[np.arange(n), s] = 1.0
    h = np.tanh(x @ net.w1 + net.b1)
    q = h @ net.w2 + net.b2
    errors = q[np.arange(n), a] - targets
    dq = np.zeros_like(q)
    dq[np.arange(n), a] = 2.0 * errors / n
    dz1 = (dq @ net.w2.T) * (1.0 - h**2)
    grads = {"w2": h.T @ dq, "b2": dq.sum(axis=0), "w1": x.T @ dz1, "b1": dz1.sum(axis=0)}
    return float((errors**2).mean()), grads


# (states, actions) of every mini-corpus activity, (4, 2) up to (32, 30)
MINI_CORPUS_SHAPES = [(n + 2, n) for n in (2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 22, 30)]


@pytest.mark.parametrize("n_states, n_actions", MINI_CORPUS_SHAPES)
def test_td_update_equals_one_hot_reference(n_states, n_actions):
    rng = np.random.default_rng(n_states * 100 + n_actions)
    net = QNetwork(
        [f"s{i}" for i in range(n_states)], [f"a{i}" for i in range(n_actions)],
        HIDDEN_UNITS, rng,
    )
    n = REPLAY_BATCH
    for trial in range(10):
        net.w1 += rng.normal(scale=0.3, size=net.w1.shape)
        net.b1 += rng.normal(scale=0.1, size=net.b1.shape)
        net.w2 += rng.normal(scale=0.3, size=net.w2.shape)
        net.b2 += rng.normal(scale=0.1, size=net.b2.shape)
        batch = (
            rng.integers(0, n_states, size=n),
            rng.integers(0, n_actions, size=n),
            rng.choice([-0.25, 0.25], size=n),
            rng.integers(0, n_states, size=n),
            (rng.random(size=n) < 0.2).astype(float),
        )
        loss, grads = td_loss_and_grads(net, batch, GAMMA)
        want_loss, want_grads = _one_hot_td(net, batch, GAMMA)
        # the sums run in another order than the reference's, so each
        # result may differ by a few ulps of that array's largest magnitude
        assert abs(loss - want_loss) <= 8 * np.spacing(abs(want_loss))
        assert grads.keys() == want_grads.keys()
        for key, want in want_grads.items():
            tolerance = 8 * np.spacing(np.abs(want).max())
            assert np.abs(grads[key] - want).max() <= tolerance, (trial, key)


class _ReferenceNetwork:
    """The Q-network with its four parameters as separate arrays, drawn
    from the generator in the same order."""

    def __init__(self, states, actions, hidden_units, rng):
        self.states, self.actions = list(states), list(actions)
        self.state_index = {s: i for i, s in enumerate(self.states)}
        self.w1 = rng.uniform(-0.1, 0.1, size=(len(states), hidden_units))
        self.b1 = np.zeros(hidden_units)
        self.w2 = rng.uniform(-0.1, 0.1, size=(hidden_units, len(actions)))
        self.b2 = np.zeros(len(actions))

    def q_values(self, state_idx):
        hidden = np.tanh(self.w1[state_idx] + self.b1)
        return hidden @ self.w2 + self.b2


def _reference_td(net, batch, gamma):
    """The per-state-table TD update with allocating products."""
    s, a, r, s_next, terminal = batch
    hidden = np.tanh(net.w1 + net.b1)
    q = hidden @ net.w2 + net.b2
    targets = r + gamma * (1.0 - terminal) * q.max(axis=1)[s_next]
    errors = q[s, a] - targets
    cells = s * q.shape[1] + a
    dq = np.bincount(cells, weights=2.0 * errors / len(s), minlength=q.size).reshape(q.shape)
    dz1 = (dq @ net.w2.T) * (1.0 - hidden**2)
    grads = {"w2": hidden.T @ dq, "b2": dq.sum(axis=0), "w1": dz1, "b1": dz1.sum(axis=0)}
    return float((errors**2).mean()), grads


def _reference_train_dqn(graph, activity_name, cfg, stop_on_success=True):
    """train_dqn's loop with one update per parameter array. With
    ``stop_on_success`` False it trains for all ``cfg.episode_cap``
    episodes and evaluates once at the end."""
    states = sorted(graph.get(activity_name).states)
    actions = sorted(graph.get(activity_name).actions)
    max_steps = 50 * max(1, len(actions))
    rng = np.random.default_rng(cfg.rng_seed)
    net = _ReferenceNetwork(states, actions, HIDDEN_UNITS, rng)
    replay = ReplayBuffer(REPLAY_CAPACITY)
    record = TrainingRecord()
    for _episode in range(cfg.episode_cap):
        record.episodes_used += 1
        steps, wrong, reward = 0, 0, 0.0
        start = initial_state(graph, activity_name)
        closure = make_simulation(graph, start)
        current, s_idx = start, net.state_index[start.state_label]
        while not current.is_final and steps < max_steps:
            if rng.random() < EPSILON:
                a_idx = int(rng.integers(len(actions)))
            else:
                a_idx = int(np.argmax(net.q_values(s_idx)))
            result = closure(actions[a_idx])
            delta = result.reward - current.reward
            next_idx = net.state_index.get(result.state_label)
            if next_idx is None:
                break
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
                loss, grads = _reference_td(net, batch, GAMMA)
                assert np.isfinite(loss)
                for key, grad in grads.items():
                    param = getattr(net, key)
                    param -= LEARNING_RATE * grad
            current, s_idx = result, next_idx
        record.total_steps += steps
        record.wrong_decisions += wrong
        record.cumulative_reward += reward
        if stop_on_success and evaluate_greedy(net, graph, activity_name):
            record.success = True
            break
    if not stop_on_success and record.episodes_used:
        record.success = evaluate_greedy(net, graph, activity_name)
    return net, record


@pytest.mark.parametrize("cap", [1, 10])
@pytest.mark.parametrize("name", ["Watch_TV_49", "Clean_kitchen", "Morning_routine"])
def test_training_matches_per_parameter_reference_bytes(graphs, name, cap):
    cfg = DqnConfig(episode_cap=cap, rng_seed=1000 + cap)
    net, record = train_dqn(graphs[name], name, cfg)
    want_net, want_record = _reference_train_dqn(graphs[name], name, cfg)
    assert record == want_record
    assert record.total_steps >= REPLAY_BATCH  # some TD updates ran
    for key in ("w1", "b1", "w2", "b2"):
        assert getattr(net, key).tobytes() == getattr(want_net, key).tobytes(), key


def _value_iteration_oracle(gamma=0.9):
    """Exact Q for the 2-step chain under the +/-0.25 scheme."""
    states = ["InitialState_Chain", "Walk_door_1_Done"]
    actions = ["Find_cup_1", "Walk_door_1"]
    correct = {"InitialState_Chain": "Walk_door_1", "Walk_door_1_Done": "Find_cup_1"}
    nxt = {"InitialState_Chain": "Walk_door_1_Done", "Walk_door_1_Done": "Find_cup_1_Done"}
    q = {(s, a): 0.0 for s in states for a in actions}
    for _ in range(1000):
        for s, a in q:
            if a == correct[s]:
                s2, r = nxt[s], 0.25
            else:
                s2, r = s, -0.25
            boot = 0.0 if s2 == "Find_cup_1_Done" else max(q[(s2, b)] for b in actions)
            q[(s, a)] = r + gamma * boot
    return q


def test_q_values_converge_to_value_iteration():
    g = _chain_graph(TWO_STEP)
    oracle = _value_iteration_oracle()
    # all 500 episodes: train_dqn would stop at the first greedy success
    cfg = DqnConfig(episode_cap=500, rng_seed=1)
    net, _record = _reference_train_dqn(g, "Chain", cfg, stop_on_success=False)
    for (state, action), expected in oracle.items():
        learned = net.q_values(net.state_index[state])[net.actions.index(action)]
        assert learned == pytest.approx(expected, abs=0.05)


def test_evaluate_greedy_is_deterministic():
    g = _chain_graph(TWO_STEP)
    net, _ = train_dqn(g, "Chain", DqnConfig(episode_cap=3, rng_seed=2))
    outcomes = {evaluate_greedy(net, g, "Chain") for _ in range(5)}
    assert len(outcomes) == 1


def test_evaluate_greedy_total_on_untrained_net():
    g = _chain_graph(TWO_STEP)
    net = QNetwork(
        sorted(g.get("Chain").states), sorted(g.get("Chain").actions), 10,
        np.random.default_rng(0),
    )
    assert evaluate_greedy(net, g, "Chain") in (True, False)


def test_handcrafted_network_succeeds():
    g = _chain_graph(TWO_STEP)
    states = sorted(g.get("Chain").states)
    actions = sorted(g.get("Chain").actions)
    net = QNetwork(states, actions, hidden_units=len(states), rng=np.random.default_rng(0))
    correct = {"InitialState_Chain": "Walk_door_1", "Walk_door_1_Done": "Find_cup_1"}
    net.w1 = np.eye(len(states)) * 10.0
    net.b1 = np.zeros(len(states))
    net.w2 = np.zeros((len(states), len(actions)))
    net.b2 = np.zeros(len(actions))
    for state, action in correct.items():
        net.w2[states.index(state), actions.index(action)] = 1.0
    assert evaluate_greedy(net, g, "Chain") is True


def test_zero_weights_tie_break_to_lowest_action_index():
    g = _chain_graph(TWO_STEP)
    states = sorted(g.get("Chain").states)
    actions = sorted(g.get("Chain").actions)
    net = QNetwork(states, actions, hidden_units=4, rng=np.random.default_rng(0))
    net.w1[:] = 0.0
    net.b1[:] = 0.0
    net.w2[:] = 0.0
    net.b2[:] = 0.0
    assert np.argmax(net.q_values(0)) == 0
    # lowest-index action is Find_cup_1, which is wrong at the initial state
    assert evaluate_greedy(net, g, "Chain") is False


def _full_greedy_walk(net, graph, activity_name) -> bool:
    """A greedy episode that walks the whole 50 x L step budget."""
    activity = graph.get(activity_name)
    actions = sorted(activity.actions)
    start = initial_state(graph, activity_name)
    closure = make_simulation(graph, start)
    current, steps = start, 0
    while not current.is_final and steps < 50 * len(actions):
        s_idx = net.state_index.get(current.state_label)
        if s_idx is None:
            return False
        current = closure(actions[int(np.argmax(net.q_values(s_idx)))])
        steps += 1
    return current.is_final and steps == len(actions)


def _stuck(net, graph, activity_name) -> bool:
    """True when the greedy action at the initial state leaves it unchanged."""
    start = initial_state(graph, activity_name)
    actions = sorted(graph.get(activity_name).actions)
    action = actions[int(np.argmax(net.q_values(net.state_index[start.state_label])))]
    return make_simulation(graph, start)(action).state_label == start.state_label


def test_short_greedy_walk_agrees_with_full_walk(graphs, monkeypatch):
    snapshots = []
    original = dqn.evaluate_greedy

    def snapshot(net, graph, activity_name):
        snapshots.append((copy.deepcopy(net), graph, activity_name))
        return original(net, graph, activity_name)

    monkeypatch.setattr(dqn, "evaluate_greedy", snapshot)
    for name in ("Make_coffee", "Watch_TV_49"):
        for seed in range(3):
            train_dqn(graphs[name], name, DqnConfig(episode_cap=40, rng_seed=seed))
    outcomes = []
    for net, graph, name in snapshots:
        outcome = original(net, graph, name)
        assert outcome == _full_greedy_walk(net, graph, name)
        outcomes.append((outcome, _stuck(net, graph, name)))
    assert (True, False) in outcomes
    assert (False, True) in outcomes


def test_replay_buffer_never_exceeds_capacity():
    buf = ReplayBuffer(capacity=10)
    for k in range(25):
        buf.push(k % 3, k % 2, 0.25, (k + 1) % 3, False)
    assert buf.size == 10


def test_replay_sampling_uniform_chi_square():
    buf = ReplayBuffer(capacity=100)
    for k in range(100):
        buf.push(k, 0, 0.0, 0, False)
    rng = np.random.default_rng(12)
    draws = buf.state[buf.sample_indices(rng, 10_000)]
    counts = np.bincount(draws, minlength=100)
    expected = 100.0
    statistic = float(((counts - expected) ** 2 / expected).sum())
    p_value = float(chi2.sf(statistic, df=99))
    assert p_value > 0.001


def test_two_step_activity_usually_learned_within_cap(graphs):
    successes = 0
    for seed in range(5):
        _, record = train_dqn(
            graphs["Make_coffee"], "Make_coffee", DqnConfig(episode_cap=100, rng_seed=seed)
        )
        successes += record.success
    assert successes >= 4


def test_metrics_track_wrong_decisions_and_reward():
    # each step gains or loses 0.25: the reward counts the right steps less
    # the wrong ones
    g = _chain_graph(TWO_STEP)
    _, record = train_dqn(g, "Chain", DqnConfig(episode_cap=2, rng_seed=0))
    assert record.episodes_used == 2
    assert record.total_steps >= 2
    assert 0 <= record.wrong_decisions < record.total_steps
    right = record.total_steps - record.wrong_decisions
    assert record.cumulative_reward == 0.25 * (right - record.wrong_decisions)
