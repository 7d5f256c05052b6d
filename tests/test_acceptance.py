"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold (run with ``pytest -s`` to see them).

Desk scale: the bundled mini-corpus (Watch_TV_49 plus 11 synthetic scripts
spanning sequence lengths 2 to 30) with reduced training (200 iterations x
5 epochs, batch 256, d=50, fixed seed). The full-scale training budget
stays available behind the CLI --full-scale flag.
"""

import itertools
import json
import math
import random
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from conftest import DESK_TRAIN, make_random_graph
from mdpcompose.bench import CSV_HEADERS, ENSEMBLE, mean_commit_radius, run_benchmark
from mdpcompose.composer import compose, policy_table_json
from mdpcompose.dqn import DqnConfig, QNetwork, td_loss_and_grads, td_targets, train_dqn
from mdpcompose.embedding import (
    PairType,
    TrainConfig,
    TrainSample,
    batch_loss_and_grad,
    build_vocabulary,
    export_tsv,
    train,
)
from mdpcompose.hmm import LogRow, fit_hmm, viterbi_path
from mdpcompose.json_io import from_json, to_json
from mdpcompose.kg import Concept, isomorphic
from mdpcompose.sample_corpus import corpus_graphs, mini_corpus
from mdpcompose.service import build_server
from mdpcompose.simulation import SimState, initial_features
from mdpcompose.space import EmbeddingSpace, load_tsv, space_from_table
from mdpcompose.turtle_io import parse_turtle, write_turtle
from mdpcompose.vhome import action_sequence


def report(number, message):
    print(f"\nACCEPTANCE CRITERION {number}: PASS - {message}")


def _start(graph, name):
    activity = graph.get(name)
    initial = next(s for s in activity.states if graph.get(s).is_initial_state)
    return SimState(feature_values=initial_features(graph, name), state_label=initial)


@pytest.fixture(scope="module")
def bench_run(graphs, desk_space, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_bench")
    corpus = mini_corpus()
    activities = [s.activity_name for s in corpus.scripts]
    metrics = run_benchmark(
        graphs, desk_space, activities, caps=[1], seed=42, out_dir=out
    )
    return metrics, out


def test_criterion_1_one_episode_composition(corpus):
    started = time.time()
    graphs = corpus_graphs(corpus)
    graph_list = [graphs[s.activity_name] for s in corpus.scripts]
    vocab = build_vocabulary(graph_list)
    table = train(graph_list, vocab, TrainConfig(**DESK_TRAIN))
    space = space_from_table(vocab, table)

    for script in corpus.scripts:
        name = script.activity_name
        policy, trace = compose(graphs[name], space, _start(graphs[name], name))
        assert trace.episodes == 1, name
        assert list(policy.rows[0].actions) == action_sequence(script), name
    elapsed = time.time() - started
    assert elapsed < 300.0
    report(
        1,
        f"all {len(corpus.scripts)} activities composed in 1 episode each, "
        f"rank-1 equal to ground truth ({elapsed:.1f}s including training)",
    )


def test_criterion_2_positive_cumulative_reward(bench_run):
    metrics, _ = bench_run
    ensemble_rows = [m for m in metrics if m.method == ENSEMBLE]
    assert ensemble_rows
    for row in ensemble_rows:
        assert row.cumulative_reward > 0, row.activity_name
        n = row.sequence_length
        if row.steps_until_success == n:  # no radius expansions, clean run
            assert row.cumulative_reward == 0.25 * n * (n + 1) / 2, row.activity_name
    clean = sum(1 for m in ensemble_rows if m.steps_until_success == m.sequence_length)
    report(
        2,
        f"{len(ensemble_rows)} ensemble rows all positive; "
        f"{clean} clean runs match 0.25*n*(n+1)/2 exactly",
    )


def test_criterion_3_dqn_contrast(corpus, graphs, desk_space):
    # (a) cap 1, sequence length >= 5: no successes over 5 seeds
    long_names = [s.activity_name for s in corpus.scripts if len(s.steps) >= 5]
    for name in long_names:
        for seed in range(5):
            _, record = train_dqn(graphs[name], name, DqnConfig(episode_cap=1, rng_seed=seed))
            assert not record.success, (name, seed)

    # (b) a length-2 activity at cap 100 learns in at least 4 of 5 seeds,
    # and (c) the composer needs fewer steps on every joint success
    joint_checked = 0
    successes = 0
    for name in ["Make_coffee", "Wash_hands", "Water_plants"]:
        g = graphs[name]
        _, trace = compose(g, desk_space, _start(g, name))
        for seed in range(5):
            _, record = train_dqn(g, name, DqnConfig(episode_cap=100, rng_seed=seed))
            if name == "Make_coffee" and record.success:
                successes += 1
            if record.success:
                assert record.total_steps > trace.steps, (name, seed)
                joint_checked += 1
    assert successes >= 4
    report(
        3,
        f"cap-1 success rate 0/{5 * len(long_names)} on lengths >= 5; "
        f"length-2 learned in {successes}/5 seeds at cap 100; composer "
        f"faster on all {joint_checked} joint successes",
    )


def test_criterion_4_gradient_checks():
    rng = np.random.default_rng(17)

    # embedding network: 10 random samples, all touched coordinates
    matrix = rng.normal(scale=0.6, size=(8, 5))
    samples = [
        TrainSample(int(rng.integers(4)), int(4 + rng.integers(4)),
                    PairType.ACTION_STATE, int(rng.integers(2)))
        for _ in range(10)
    ]
    _, grad = batch_loss_and_grad(matrix, samples)
    h = 1e-5
    checked = 0
    for r in range(8):
        for c in range(5):
            up = matrix.copy(); up[r, c] += h
            down = matrix.copy(); down[r, c] -= h
            numeric = (batch_loss_and_grad(up, samples)[0] - batch_loss_and_grad(down, samples)[0]) / (2 * h)
            if abs(grad[r, c]) < 1e-8:
                assert abs(numeric) < 1e-6
            else:
                assert abs(numeric - grad[r, c]) / abs(grad[r, c]) < 1e-4
                checked += 1

    # Q-network TD update on a fixed minibatch of 10 samples
    net = QNetwork(["s0", "s1", "s2", "s3"], ["a0", "a1", "a2"], 6, rng)
    batch = (
        rng.integers(0, 4, size=10),
        rng.integers(0, 3, size=10),
        rng.normal(size=10) * 0.25,
        rng.integers(0, 4, size=10),
        (rng.random(size=10) < 0.25).astype(float),
    )
    targets = td_targets(net, batch, gamma=0.9)
    _, grads = td_loss_and_grads(net, batch, gamma=0.9, targets=targets)
    dqn_checked = 0
    for key in ("w1", "b1", "w2", "b2"):
        param = getattr(net, key)
        grad_tensor = grads[key]
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = param[idx]
            param[idx] = original + h
            up_loss, _ = td_loss_and_grads(net, batch, gamma=0.9, targets=targets)
            param[idx] = original - h
            down_loss, _ = td_loss_and_grads(net, batch, gamma=0.9, targets=targets)
            param[idx] = original
            numeric = (up_loss - down_loss) / (2 * h)
            if abs(grad_tensor[idx]) < 1e-8:
                assert abs(numeric) < 1e-6
            else:
                assert abs(numeric - grad_tensor[idx]) / abs(grad_tensor[idx]) < 1e-4
                dqn_checked += 1
            it.iternext()
    report(
        4,
        f"analytic gradients within 1e-4 of central differences "
        f"({checked} embedding coordinates, {dqn_checked} Q-network parameters)",
    )


def test_criterion_5_normalization_on_fuzzed_inputs():
    rng = random.Random(2001)
    cases = 0

    # 500 fuzzed log datasets: every fitted distribution sums to 1
    state_pool = ["S1", "S2", "S3", "S4"]
    action_pool = ["a", "b", "c"]
    for _ in range(500):
        rows = [
            LogRow(
                rng.choice(state_pool),
                rng.choice(action_pool),
                {"color": rng.choice(["red", "blue"]), "level": rng.uniform(0, 9)},
                rng.uniform(-1, 1),
                rng.choice(state_pool),
            )
            for _ in range(rng.randint(1, 40))
        ]
        model = fit_hmm(rows)
        for dist in model.transition_prob.values():
            assert abs(sum(dist.values()) - 1.0) <= 1e-9
        for dist in model.action_prob.values():
            assert abs(sum(dist.values()) - 1.0) <= 1e-9
        for dist in model.observation_prob.values():
            if isinstance(dist, dict):
                assert abs(sum(dist.values()) - 1.0) <= 1e-9
        assert abs(sum(model.state_prob.values()) - 1.0) <= 1e-9
        cases += 1

    # 500 fuzzed graphs: every (state, action) transition group sums to 1
    for _ in range(500):
        g = make_random_graph(rng)
        groups = {}
        for t in g.transitions:
            groups.setdefault((t.previous_state, t.action), 0.0)
            groups[(t.previous_state, t.action)] += t.probability
        for total in groups.values():
            assert abs(total - 1.0) <= 1e-9
        cases += 1

    assert cases == 1000
    report(5, "all distributions and transition groups sum to 1 +/- 1e-9 on 1000 fuzzed cases")


def _brute_force_actions(space, state, radius):
    out = []
    sv = space.matrix[space.vocab.index(state)]
    for idx in range(len(space.vocab)):
        if space.vocab.concept(idx) is not Concept.ACTION:
            continue
        av = space.matrix[idx]
        nb = math.sqrt(float((av * av).sum()))
        if nb == 0.0:
            continue
        na = math.sqrt(float((sv * sv).sum()))
        d = 1.0 - float((sv * av).sum()) / (na * nb)
        if d <= radius:
            out.append((space.vocab.name(idx), d))
    out.sort(key=lambda pair: (pair[1], pair[0]))
    return out


def _enumerate_viterbi(model, observations, tolerance=1e-9):
    """Exhaustive log-space scores for every state sequence; returns the
    lexicographically smallest argmax and every path within ``tolerance``
    of the maximum (for tie-aware comparison)."""
    from mdpcompose.hmm import Gaussian, _marginal_transitions

    def log_emission(state, obs):
        logp = 0.0
        for feature, value in obs.items():
            dist = model.observation_prob.get((state, feature))
            if dist is None:
                return -math.inf
            if isinstance(dist, Gaussian):
                logp += dist.log_pdf(value)
            else:
                p = dist.get(value, 0.0)
                if p == 0.0:
                    return -math.inf
                logp += math.log(p)
        return logp

    marginal = _marginal_transitions(model)
    scores = {}
    for path in itertools.product(model.states, repeat=len(observations)):
        prior = model.state_prob.get(path[0], 0.0)
        score = (math.log(prior) if prior > 0 else -math.inf) + log_emission(
            path[0], observations[0]
        )
        for t in range(1, len(path)):
            p = marginal.get(path[t - 1], {}).get(path[t], 0.0)
            score += (math.log(p) if p > 0 else -math.inf) + log_emission(
                path[t], observations[t]
            )
        scores[path] = score
    best = max(scores.values())
    if best == -math.inf:
        return None, best, []
    candidates = sorted(p for p, s in scores.items() if s >= best - tolerance)
    return list(candidates[0]), best, candidates


def test_criterion_6_oracle_equivalence():
    from mdpcompose.embedding import Vocabulary

    rng = np.random.default_rng(31)
    fixtures = 0
    for _ in range(100):
        n = int(rng.integers(2, 25))
        vocab = Vocabulary()
        vocab.add("Query_state", Concept.STATE)
        for k in range(n):
            concept = Concept.ACTION if rng.random() < 0.75 else Concept.STATE
            vocab.add(f"E_{k}", concept)
        matrix = rng.normal(size=(n + 1, int(rng.integers(2, 10))))
        space = EmbeddingSpace(vocab, matrix)
        radius = float(rng.uniform(0.05, 2.0))
        fast = space.find_closest_actions("Query_state", radius)
        slow = _brute_force_actions(space, "Query_state", radius)
        assert [a for a, _ in fast] == [a for a, _ in slow]
        for (_, df), (_, ds) in zip(fast, slow):
            assert df == pytest.approx(ds, abs=1e-9)
        fixtures += 1

    # viterbi vs exhaustive enumeration on models with <= 4 states over
    # sequences of <= 5 steps (all short sequences, sampled longer ones)
    py_rng = random.Random(8)
    model_count, sequence_count = 0, 0
    values = ["low", "high"]
    for _ in range(25):
        n_states = py_rng.randint(2, 4)
        states = [f"Z{k}" for k in range(n_states)]
        rows = []
        for _ in range(py_rng.randint(4, 30)):
            rows.append(
                LogRow(
                    py_rng.choice(states),
                    py_rng.choice(["go", "stay"]),
                    {"sensor": py_rng.choice(values)},
                    0.0,
                    py_rng.choice(states),
                )
            )
        model = fit_hmm(rows)
        model_count += 1
        sequences = [
            [{"sensor": v} for v in combo]
            for t in (1, 2, 3)
            for combo in itertools.product(values, repeat=t)
        ]
        sequences += [
            [{"sensor": py_rng.choice(values)} for _ in range(t)] for t in (4, 5, 5)
        ]
        for seq in sequences:
            expected, best, candidates = _enumerate_viterbi(model, seq)
            if best == -math.inf:
                with pytest.raises(ValueError):
                    viterbi_path(model, seq)
            else:
                got = tuple(viterbi_path(model, seq))
                assert got in candidates
                if len(candidates) == 1:
                    assert list(got) == expected
            sequence_count += 1
    report(
        6,
        f"neighborhood search equals brute force on {fixtures} fixtures; "
        f"viterbi equals enumeration on {model_count} models x "
        f"{sequence_count} sequences",
    )


def test_criterion_7_round_trips(vocab, desk_table, tmp_path):
    rng = random.Random(424242)
    for _ in range(100):
        g = make_random_graph(rng)
        assert isomorphic(parse_turtle(write_turtle(g)), g)
        assert isomorphic(from_json(to_json(g)), g)

    vectors, metadata = tmp_path / "v.tsv", tmp_path / "m.tsv"
    export_tsv(desk_table, vocab, vectors, metadata)
    space = load_tsv(vectors, metadata)
    assert np.array_equal(space.matrix, desk_table.matrix)
    assert space.vocab.names() == vocab.names()
    report(7, "100 fuzzed graphs round-trip through Turtle and JSON; TSV export/import equal")


def test_criterion_8_radius_behavior(bench_run):
    from mdpcompose.embedding import Vocabulary
    from test_composer import _single_action_graph

    g = _single_action_graph()
    angle = math.acos(0.4)  # cosine distance 0.6
    vocab = Vocabulary()
    vocab.add("Ready", Concept.STATE)
    vocab.add("Pressed", Concept.STATE)
    vocab.add("Press_button_1", Concept.ACTION)
    matrix = np.array(
        [[1.0, 0.0], [0.0, -1.0], [math.cos(angle), math.sin(angle)]]
    )
    space = EmbeddingSpace(vocab, matrix)
    _, trace = compose(
        g, space, SimState(feature_values={"IsPressed": 0.0}, state_label="Ready")
    )
    assert [r.radius for r in trace.rounds] == [0.25, 0.5, 0.75]

    _, out = bench_run
    density = out / "radius_density.csv"
    assert density.exists()
    rows = density.read_text().splitlines()[1:]
    radii = [(r.split(",")[0], int(r.split(",")[1]), float(r.split(",")[2])) for r in rows]
    mean_radius = mean_commit_radius(radii)
    assert mean_radius is not None
    report(
        8,
        f"expansion trace is exactly [0.25, 0.5, 0.75]; radius_density.csv "
        f"written, mini-corpus mean commit radius {mean_radius:.3f} (reported)",
    )


def test_criterion_9_service_fidelity(desk_store, graphs, desk_space):
    server = build_server(desk_store, desk_space, "127.0.0.1:0")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        g = graphs["Watch_TV_49"]
        features = initial_features(g, "Watch_TV_49")
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/policies",
            data=json.dumps({"featureValues": features}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            body = response.read()
        table, _ = compose(g, desk_space, _start(g, "Watch_TV_49"))
        assert body == policy_table_json(table).encode("utf-8")

        bad = urllib.request.Request(
            f"http://127.0.0.1:{port}/policies",
            data=json.dumps({"featureValues": {"Unknown": 1.0}}).encode(),
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(bad)
        with err.value:
            assert err.value.code == 422
            assert json.loads(err.value.read()) == {"reason": "unknown state"}
    finally:
        server.shutdown()
        server.server_close()
    report(9, "service response byte-identical to direct composition; unknown state -> 422")


def test_criterion_10_benchmark_determinism(corpus, graphs, desk_space, tmp_path):
    activities = [s.activity_name for s in corpus.scripts]
    outputs = []
    for label, order in (("forward", activities), ("reversed", activities[::-1])):
        out = tmp_path / label
        run_benchmark(graphs, desk_space, order, caps=[1], seed=42, out_dir=out)
        outputs.append(out)
    for filename in CSV_HEADERS:
        a = (outputs[0] / filename).read_bytes()
        b = (outputs[1] / filename).read_bytes()
        assert a == b, filename
    report(10, "two full benchmark runs byte-identical with the activity list forward and reversed")
