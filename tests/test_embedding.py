import hashlib
import logging
import math

import numpy as np
import pytest

from conftest import WATCH_TV_49_TTL
from mdpcompose import embedding
from mdpcompose.embedding import (
    DESK_SCALE,
    NEGATIVE_RETRY_CAP,
    Batch,
    PairType,
    TrainConfig,
    TrainSample,
    Vocabulary,
    batch_loss_and_grad,
    build_vocabulary,
    export_tsv,
    generate_batch,
    initialize_table,
    pair_pools,
    positive_pairs,
    train,
)
from mdpcompose.hmm import LogRow, fit_hmm, hmm_to_kg
from mdpcompose.kg import Concept
from mdpcompose.sample_corpus import synthetic_script_text
from mdpcompose.space import load_tsv
from mdpcompose.turtle_io import parse_turtle
from mdpcompose.vhome import VhScript, VhStep, dedupe_activity_names, parse_script, script_to_kg

# SHA-256 of the TSV pair that training the mini-corpus at DESK_SCALE with
# seed 42 exports; the same digests gate the pipeline benchmark's outputs.
DESK_TSV_SHA256 = {
    "vectors": "a9b132e3864859b9f079866282ddac8df4897cb1c8067183bd742b551bc0f15d",
    "metadata": "2acaf98c5e61ff6d50f10fb2b8318948718d832e1f1b6a808d7e03e3999fe34b",
}
# SHA-256 of the float64 bytes of that run's loss_history.
DESK_LOSS_HISTORY_SHA256 = "e94fec6428fa3d071e59f607331ec6add124d09a0935ed1df73022602cd1e720"


@pytest.fixture(scope="module")
def watch_tv():
    return parse_turtle(WATCH_TV_49_TTL)


def test_vocabulary_counts_watch_tv(watch_tv):
    vocab = build_vocabulary([watch_tv])
    assert len(vocab) == 17  # 1 activity + 9 states + 7 actions
    assert vocab.concept(vocab.index("Watch_TV_49")) is Concept.ACTIVITY
    assert vocab.concept(vocab.index("Walk_couch_1_Done")) is Concept.STATE
    assert vocab.concept(vocab.index("Walk_couch_1")) is Concept.ACTION


def test_vocabulary_empty():
    assert len(build_vocabulary([])) == 0


def test_vocabulary_idempotent_dedup(watch_tv):
    once = build_vocabulary([watch_tv])
    twice = build_vocabulary([watch_tv, watch_tv])
    assert once.names() == twice.names()


def test_action_state_positives_follow_transitions(watch_tv):
    vocab = build_vocabulary([watch_tv])
    pools = positive_pairs([watch_tv], vocab)
    pairs = {
        (vocab.name(l), vocab.name(r)) for l, r in pools[PairType.ACTION_STATE]
    }
    assert ("Walk_living_room_1", "Walk_living_room_1_Done") in pairs
    assert ("TurnTo_television_1", "FinalState_Watch_TV_49") in pairs
    assert len(pairs) == 8  # seven chain pairs plus the final adjacency


def test_batch_is_balanced(watch_tv):
    vocab = build_vocabulary([watch_tv])
    cfg = TrainConfig(dimension=8, batch_size=64)
    rng = np.random.default_rng(0)
    batch = generate_batch(pair_pools([watch_tv], vocab), cfg, rng)
    assert len(batch.left) == len(batch.right) == len(batch.labels) == 64
    assert batch.labels.tolist() == [1.0] * 32 + [0.0] * 32


def test_batch_of_two(watch_tv):
    vocab = build_vocabulary([watch_tv])
    cfg = TrainConfig(dimension=8, batch_size=2)
    batch = generate_batch(pair_pools([watch_tv], vocab), cfg, np.random.default_rng(1))
    assert batch.labels.tolist() == [1.0, 0.0]


def test_negatives_do_not_cooccur(watch_tv):
    vocab = build_vocabulary([watch_tv])
    pools = positive_pairs([watch_tv], vocab)
    cooccurring = set().union(*pools.values())
    cfg = TrainConfig(dimension=8, batch_size=128)
    batch = generate_batch(pair_pools([watch_tv], vocab), cfg, np.random.default_rng(2))
    for left, right, label in zip(batch.left, batch.right, batch.labels):
        assert ((int(left), int(right)) in cooccurring) == (label == 1.0)


def test_saturated_relation_is_skipped_with_warning(caplog):
    # one activity, one action, one state pair: every activity/action pair
    # co-occurs, so that relation cannot produce negatives
    script = VhScript("Tiny", "x", [VhStep("Walk", "door", 1)])
    g = script_to_kg(script)
    vocab = build_vocabulary([g])
    cfg = TrainConfig(dimension=4, batch_size=8)
    with caplog.at_level(logging.WARNING):
        batch = generate_batch(pair_pools([g], vocab), cfg, np.random.default_rng(3))
    assert any("no negative pair" in r.message for r in caplog.records)
    assert batch.labels.tolist() == [1.0] * 4 + [0.0] * 4


def test_batch_without_negative_pairs_is_all_positive(caplog):
    # One state that its one action leads back to: every pair of every
    # relation co-occurs, so the batch ends after its positive half.
    rows = [LogRow(state="S", action="go", observations={}, reward=1.0, next_state="S")]
    graph = hmm_to_kg(fit_hmm(rows), activity_name="Loop")
    vocab = build_vocabulary([graph])
    cfg = TrainConfig(dimension=4, iterations=3, epochs_per_iteration=2, batch_size=8)
    with caplog.at_level(logging.WARNING):
        batch = generate_batch(pair_pools([graph], vocab), cfg, np.random.default_rng(0))
    dropped = [r.getMessage() for r in caplog.records if "no negative pair" in r.getMessage()]
    assert len(dropped) == 3
    assert batch.labels.tolist() == [1.0] * 4
    assert len(batch.left) == len(batch.right) == 4
    table = train([graph], vocab, cfg)
    assert len(table.loss_history) == 3
    assert np.isfinite(table.matrix).all()


def _reference_batch(graphs, vocab, cfg, rng) -> list[TrainSample]:
    """The per-iteration batch generator that rebuilt its pools on every
    call and drew one scalar at a time; generate_batch must draw the same
    samples from the same rng and leave it in the same state."""
    pools = positive_pairs(graphs, vocab)
    half = cfg.batch_size // 2
    active = [pt for pt in embedding._PAIR_ROTATION if pools[pt]]
    samples = []
    for k in range(half):
        pt = active[k % len(active)]
        pool = pools[pt]
        left, right = pool[int(rng.integers(len(pool)))]
        samples.append(TrainSample(left, right, pt, 1))
    positive_sets = {pt: set(pools[pt]) for pt in embedding._PAIR_ROTATION}
    concept_indices = {
        pt: (vocab.indices_of(ca), vocab.indices_of(cb))
        for pt, (ca, cb) in embedding._PAIR_CONCEPTS.items()
    }
    usable = list(active)
    k = 0
    while usable and len(samples) < 2 * half:
        pt = usable[k % len(usable)]
        lefts, rights = concept_indices[pt]
        found = None
        if lefts and rights:
            for _attempt in range(NEGATIVE_RETRY_CAP):
                pair = (
                    lefts[int(rng.integers(len(lefts)))],
                    rights[int(rng.integers(len(rights)))],
                )
                if pair not in positive_sets[pt]:
                    found = pair
                    break
        if found is None:
            usable.remove(pt)
            continue
        samples.append(TrainSample(found[0], found[1], pt, 0))
        k += 1
    return samples


def _draw_corpora(graph_list):
    """(name, graphs, vocab) whose batches take every drawing path."""
    tiny = script_to_kg(VhScript("Tiny", "x", [VhStep("Walk", "door", 1)]))
    # One activity: its action and state relations are saturated, so the
    # first negative pair already falls back to the scalar loop.
    saturated = build_vocabulary([tiny])
    # A spare action gives the activity/action relation negatives, so the
    # array draws run until the saturated activity/state relation comes up.
    spare = build_vocabulary([tiny])
    spare.add("Spare_action_1", Concept.ACTION)
    # The action is indexed as a state: its relations keep positive pairs
    # but have no action candidates.
    no_candidates = Vocabulary()
    for idx, name in enumerate(saturated.names()):
        concept = saturated.concept(idx)
        no_candidates.add(name, Concept.STATE if concept is Concept.ACTION else concept)
    return [
        ("desk", graph_list, build_vocabulary(graph_list)),
        ("saturated", [tiny], saturated),
        ("saturates-mid-batch", [tiny], spare),
        ("no-candidates", [tiny], no_candidates),
    ]


@pytest.mark.parametrize("seed", [0, 5, 99])
def test_batches_match_reference_draws(graph_list, seed):
    cfg = TrainConfig(dimension=4, batch_size=256)
    for name, graphs, vocab in _draw_corpora(graph_list):
        pools = pair_pools(graphs, vocab)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            batch = generate_batch(pools, cfg, fast)
            reference = Batch.of(_reference_batch(graphs, vocab, cfg, slow))
            for got, want in zip(batch, reference):
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), name
            assert fast.bit_generator.state == slow.bit_generator.state, name


def test_desk_batches_need_no_scalar_fallback(graph_list, monkeypatch):
    # Rejections are frequent on the desk corpus, but no relation saturates,
    # so every rejected pair is redrawn by the array path.
    def fail(*_args):
        raise AssertionError("fell back to scalar draws")

    monkeypatch.setattr(embedding, "_scalar_negatives", fail)
    vocab = build_vocabulary(graph_list)
    pools = pair_pools(graph_list, vocab)
    rng = np.random.default_rng(11)
    for _ in range(20):
        generate_batch(pools, TrainConfig(dimension=4, batch_size=256), rng)


def test_fallback_drops_the_saturated_relation_mid_batch(graph_list, caplog):
    graphs, vocab = next(
        (g, v) for name, g, v in _draw_corpora(graph_list) if name == "saturates-mid-batch"
    )
    cfg = TrainConfig(dimension=4, batch_size=64)
    with caplog.at_level(logging.WARNING):
        batch = generate_batch(pair_pools(graphs, vocab), cfg, np.random.default_rng(7))
    dropped = [r.getMessage() for r in caplog.records if "no negative pair" in r.getMessage()]
    assert dropped == [
        f"relation ACTIVITY_STATE: no negative pair found after {NEGATIVE_RETRY_CAP} draws; skipped"
    ]
    # The first negative comes from the activity/action relation.
    assert vocab.concept(int(batch.left[32])) is Concept.ACTIVITY
    assert vocab.concept(int(batch.right[32])) is Concept.ACTION


def test_array_integer_draws_consume_the_generator_like_scalar_draws():
    """generate_batch relies on this numpy behaviour: one rng.integers call
    over an array of bounds returns, and leaves the generator, exactly as
    one scalar call per bound. A numpy release that changes it must fail
    here instead of silently changing the trained tables."""
    special = [1, 2, 3, 255, 256, 65_536, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 7, 2**62]
    mix = np.random.default_rng(2024)
    for seed in range(50):
        bounds = np.concatenate(
            [
                mix.choice(special, size=100),
                mix.integers(1, 2_000, size=100),
                mix.integers(1, 2**63 - 1, size=100, dtype=np.int64),
            ]
        )
        mix.shuffle(bounds)
        array_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = array_rng.integers(0, bounds)
        expected = [int(scalar_rng.integers(int(bound))) for bound in bounds]
        assert drawn.tolist() == expected
        assert array_rng.bit_generator.state == scalar_rng.bit_generator.state


def test_training_builds_pair_pools_once(watch_tv, monkeypatch):
    calls = []

    def counted(graphs, vocab):
        calls.append(1)
        return positive_pairs(graphs, vocab)

    monkeypatch.setattr(embedding, "positive_pairs", counted)
    vocab = build_vocabulary([watch_tv])
    train([watch_tv], vocab, TrainConfig(dimension=4, iterations=6, epochs_per_iteration=1, batch_size=8))
    assert len(calls) == 1


def forward(table, sample: TrainSample) -> float:
    """Sigmoid of the dot product of the two entity rows, in (0, 1), one
    sample at a time: the scalar reference for the batched probabilities."""
    z = float(table.matrix[sample.left_index] @ table.matrix[sample.right_index])
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _batched_probabilities(table, samples) -> np.ndarray:
    left, right, _labels = Batch.of(samples)
    return embedding._sigmoid(np.einsum("ij,ij->i", table.matrix[left], table.matrix[right]))


def test_forward_matches_scalar_recomputation(watch_tv):
    vocab = build_vocabulary([watch_tv])
    cfg = TrainConfig(dimension=12, batch_size=4)
    rng = np.random.default_rng(5)
    table = initialize_table(vocab, cfg, rng)
    table.matrix = rng.normal(size=table.matrix.shape)
    samples = []
    for _ in range(10):
        i, j = rng.integers(len(vocab)), rng.integers(len(vocab))
        sample = TrainSample(int(i), int(j), PairType.ACTIVITY_ACTION, int(rng.integers(2)))
        expected = 1.0 / (
            1.0 + math.exp(-sum(table.matrix[i][k] * table.matrix[j][k] for k in range(12)))
        )
        assert forward(table, sample) == pytest.approx(expected, rel=1e-12)
        samples.append(sample)
    scalar = [forward(table, s) for s in samples]
    assert _batched_probabilities(table, samples).tolist() == pytest.approx(scalar, rel=1e-12)
    bce = [
        -math.log(p + 1e-12) if s.label else -math.log(1.0 - p + 1e-12)
        for s, p in zip(samples, scalar)
    ]
    loss, _grad = batch_loss_and_grad(table.matrix, samples)
    assert loss == pytest.approx(sum(bce) / len(bce), rel=1e-12)


def test_forward_zero_vectors_give_half(watch_tv):
    vocab = build_vocabulary([watch_tv])
    cfg = TrainConfig(dimension=6, batch_size=4)
    table = initialize_table(vocab, cfg, np.random.default_rng(0))
    table.matrix[:] = 0.0
    sample = TrainSample(0, 1, PairType.ACTIVITY_STATE, 1)
    assert forward(table, sample) == 0.5
    assert _batched_probabilities(table, [sample]).tolist() == [0.5]


def test_forward_saturates_toward_one(watch_tv):
    vocab = build_vocabulary([watch_tv])
    cfg = TrainConfig(dimension=4, batch_size=4)
    table = initialize_table(vocab, cfg, np.random.default_rng(0))
    table.matrix[0] = [100.0, 0, 0, 0]
    table.matrix[1] = [100.0, 0, 0, 0]
    table.matrix[2] = [-100.0, 0, 0, 0]
    near_one = TrainSample(0, 1, PairType.ACTIVITY_STATE, 1)
    near_zero = TrainSample(0, 2, PairType.ACTIVITY_STATE, 1)
    assert forward(table, near_one) > 1 - 1e-9
    assert forward(table, near_zero) < 1e-9
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        batched = _batched_probabilities(table, [near_one, near_zero]).tolist()
    assert batched == [forward(table, near_one), forward(table, near_zero)]


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(11)
    matrix = rng.normal(scale=0.5, size=(6, 4))
    samples = [
        TrainSample(int(rng.integers(3)), int(3 + rng.integers(3)), PairType.ACTION_STATE, int(rng.integers(2)))
        for _ in range(10)
    ]
    loss, grad = batch_loss_and_grad(matrix, samples)
    h = 1e-5
    for r in range(6):
        for c in range(4):
            bumped = matrix.copy()
            bumped[r, c] += h
            up, _ = batch_loss_and_grad(bumped, samples)
            bumped[r, c] -= 2 * h
            down, _ = batch_loss_and_grad(bumped, samples)
            numeric = (up - down) / (2 * h)
            if abs(grad[r, c]) < 1e-8:
                assert abs(numeric) < 1e-6
            else:
                assert abs(numeric - grad[r, c]) / abs(grad[r, c]) < 1e-4


def _reference_loss_and_grad(matrix, samples):
    """The gradient scatter as two sequential np.add.at calls."""
    left, right, labels = Batch.of(samples)
    lvec, rvec = matrix[left], matrix[right]
    p = embedding._sigmoid(np.einsum("ij,ij->i", lvec, rvec))
    eps = 1e-12
    losses = -(labels * np.log(p + eps) + (1.0 - labels) * np.log(1.0 - p + eps))
    coeff = (p - labels)[:, None] / len(samples)
    grad = np.zeros_like(matrix)
    np.add.at(grad, left, coeff * rvec)
    np.add.at(grad, right, coeff * lvec)
    return float(losses.mean()), grad


@pytest.mark.parametrize("seed", range(6))
def test_bincount_scatter_equals_add_at_exactly(seed):
    rng = np.random.default_rng(seed)
    rows, dim, count = [(4, 3, 2), (12, 8, 64), (40, 50, 256)][seed % 3]
    matrix = rng.normal(scale=0.5, size=(rows, dim))
    # few rows, so every row collects many terms from both sides
    samples = [
        TrainSample(int(rng.integers(rows)), int(rng.integers(rows)), PairType.ACTION_STATE, int(rng.integers(2)))
        for _ in range(count)
    ]
    want_loss, want_grad = _reference_loss_and_grad(matrix, samples)
    for batch in (samples, Batch.of(samples)):
        loss, grad = batch_loss_and_grad(matrix, batch)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)


def _reference_sigmoid(z):
    """The masked-assignment sigmoid that the batched one replaced."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_batch_loss_and_grad(matrix, samples):
    """batch_loss_and_grad as it was before a batch's layout was built once:
    two gathers, the cells and the term table rebuilt on every call."""
    left, right, labels = samples if isinstance(samples, Batch) else Batch.of(samples)
    lvec = matrix[left]
    rvec = matrix[right]
    p = _reference_sigmoid(np.einsum("ij,ij->i", lvec, rvec))
    eps = 1e-12
    losses = -(labels * np.log(p + eps) + (1.0 - labels) * np.log(1.0 - p + eps))
    coeff = (p - labels)[:, None] / len(labels)
    rows, dim = matrix.shape
    cells = np.concatenate([left, right])[:, None] * dim + np.arange(dim)
    terms = np.concatenate([coeff * rvec, coeff * lvec])
    grad = np.bincount(cells.ravel(), weights=terms.ravel(), minlength=rows * dim)
    return float(losses.mean()), grad.reshape(rows, dim)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


# logits whose sigmoid takes each branch, saturates, overflows or is undefined
_EDGE_LOGITS = [0.0, -0.0, 40.0, -40.0, 800.0, -800.0, np.inf, -np.inf, np.nan]


def test_sigmoid_matches_masked_reference_bitwise():
    z = np.concatenate([_EDGE_LOGITS, np.random.default_rng(1).normal(scale=30.0, size=500)])
    # exp may underflow to 0, but never overflows or divides by zero
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = embedding._sigmoid(z)
    assert _bits(got) == _bits(_reference_sigmoid(z))


@pytest.mark.parametrize("seed", range(4))
def test_loss_and_gradient_match_per_call_reference_bitwise(seed):
    rng = np.random.default_rng(seed)
    rows, dim, count = [(4, 3, 2), (12, 8, 64), (40, 50, 256), (300, 50, 256)][seed]
    matrix = rng.normal(scale=0.5, size=(rows, dim))
    batch = Batch(
        rng.integers(rows, size=count), rng.integers(rows, size=count), (rng.random(count) < 0.5) * 1.0
    )
    want_loss, want_grad = _reference_batch_loss_and_grad(matrix, batch)
    loss, grad = batch_loss_and_grad(matrix, batch)
    assert _bits(loss) == _bits(want_loss)
    assert _bits(grad) == _bits(want_grad)


def test_edge_logits_give_the_reference_loss_and_gradient_bitwise():
    # Row 2k holds the logit in its first cell and zeros elsewhere, row
    # 2k + 1 is (1, -0.0, ...), so pair (2k, 2k + 1) scores that logit and
    # its gradient keeps the sign of each zero.
    dim = 3
    matrix = np.zeros((2 * len(_EDGE_LOGITS), dim))
    matrix[0::2, 0] = _EDGE_LOGITS
    matrix[1::2, 0] = 1.0
    matrix[1::2, 1:] = -0.0
    samples = [
        TrainSample(2 * k + side, 2 * k + 1 - side, PairType.ACTION_STATE, label)
        for k in range(len(_EDGE_LOGITS))
        for side in (0, 1)
        for label in (0, 1)
    ]
    # one sample per logit, so a NaN or an infinity does not swamp the rest
    for sample in samples:
        with np.errstate(all="ignore"):
            want_loss, want_grad = _reference_batch_loss_and_grad(matrix, [sample])
            loss, grad = batch_loss_and_grad(matrix, [sample])
        assert _bits(loss) == _bits(want_loss), sample
        assert _bits(grad) == _bits(want_grad), sample
    finite = [s for s in samples if np.isfinite(_EDGE_LOGITS[s.left_index // 2])]
    want_loss, want_grad = _reference_batch_loss_and_grad(matrix, finite)
    loss, grad = batch_loss_and_grad(matrix, finite)
    assert _bits(loss) == _bits(want_loss)
    assert _bits(grad) == _bits(want_grad)


def test_zero_iterations_returns_initialization(watch_tv):
    vocab = build_vocabulary([watch_tv])
    cfg = TrainConfig(dimension=8, iterations=0, batch_size=16, rng_seed=9)
    table = train([watch_tv], vocab, cfg)
    reference = initialize_table(vocab, cfg, np.random.default_rng(9))
    assert np.array_equal(table.matrix, reference.matrix)
    assert table.loss_history == []


def test_training_is_bitwise_deterministic(watch_tv):
    vocab = build_vocabulary([watch_tv])
    cfg = TrainConfig(dimension=16, iterations=12, epochs_per_iteration=3, batch_size=32, rng_seed=21)
    a = train([watch_tv], vocab, cfg)
    b = train([watch_tv], vocab, cfg)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.loss_history == b.loss_history


def _reference_train(graphs, vocab, cfg):
    """train with scalar batch draws and the allocating Adam update, which
    the in-place update must reproduce bit for bit."""
    rng = np.random.default_rng(cfg.rng_seed)
    matrix = initialize_table(vocab, cfg, rng).matrix
    m = np.zeros_like(matrix)
    v = np.zeros_like(matrix)
    t = 0
    history = []
    for _iteration in range(cfg.iterations):
        batch = Batch.of(_reference_batch(graphs, vocab, cfg, rng))
        losses = []
        for _epoch in range(cfg.epochs_per_iteration):
            loss, grad = batch_loss_and_grad(matrix, batch)
            t += 1
            m = 0.9 * m + (1.0 - 0.9) * grad
            v = 0.999 * v + (1.0 - 0.999) * grad * grad
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            matrix -= 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
            losses.append(loss)
        history.append(sum(losses) / len(losses) if losses else 0.0)
    return matrix, history


def _assert_trains_like_reference(graphs, cfg):
    vocab = build_vocabulary(graphs)
    table = train(graphs, vocab, cfg)
    matrix, history = _reference_train(graphs, vocab, cfg)
    assert table.matrix.tobytes() == matrix.tobytes()
    assert table.loss_history == history


def test_training_matches_allocating_reference(watch_tv):
    cfg = TrainConfig(
        dimension=16, iterations=20, epochs_per_iteration=3, batch_size=48, rng_seed=8
    )
    _assert_trains_like_reference([watch_tv], cfg)


def test_desk_training_exports_pinned_tsv_bytes(graph_list, tmp_path):
    vocab = build_vocabulary(graph_list)
    table = train(graph_list, vocab, TrainConfig(**DESK_SCALE, rng_seed=42))
    vectors, metadata = tmp_path / "v.tsv", tmp_path / "m.tsv"
    export_tsv(table, vocab, vectors, metadata)
    assert hashlib.sha256(vectors.read_bytes()).hexdigest() == DESK_TSV_SHA256["vectors"]
    assert hashlib.sha256(metadata.read_bytes()).hexdigest() == DESK_TSV_SHA256["metadata"]
    history = np.array(table.loss_history, dtype=np.float64).tobytes()
    assert hashlib.sha256(history).hexdigest() == DESK_LOSS_HISTORY_SHA256


def _toy_graphs():
    lounge = VhScript(
        "Lounge",
        "x",
        [VhStep("Sit", "couch", 1), VhStep("Watch", "screen", 1), VhStep("Lean", "cushion", 1)],
    )
    kitchen = VhScript(
        "Kitchen",
        "x",
        [VhStep("Chop", "carrot", 1), VhStep("Boil", "kettle", 1), VhStep("Stir", "pot", 1)],
    )
    return [script_to_kg(lounge), script_to_kg(kitchen)]


def _mean_cosine(matrix, idx_a, idx_b):
    total, count = 0.0, 0
    for i in idx_a:
        for j in idx_b:
            if i == j:
                continue
            a, b = matrix[i], matrix[j]
            total += 1 - (a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            count += 1
    return total / count


def test_training_separates_activities():
    graphs = _toy_graphs()
    vocab = build_vocabulary(graphs)
    cfg = TrainConfig(dimension=24, iterations=200, epochs_per_iteration=5, batch_size=64, rng_seed=4)
    table = train(graphs, vocab, cfg)

    lounge = [vocab.index(n) for n in vocab.names() if "Lounge" in n or n in ("Sit_couch_1", "Watch_screen_1", "Lean_cushion_1", "Sit_couch_1_Done", "Watch_screen_1_Done", "Lean_cushion_1_Done")]
    kitchen = [i for i in range(len(vocab)) if i not in lounge]
    intra = (_mean_cosine(table.matrix, lounge, lounge) + _mean_cosine(table.matrix, kitchen, kitchen)) / 2
    inter = _mean_cosine(table.matrix, lounge, kitchen)
    assert intra < inter


def test_loss_decreases_on_toy_graphs():
    graphs = _toy_graphs()
    vocab = build_vocabulary(graphs)
    cfg = TrainConfig(dimension=24, iterations=100, epochs_per_iteration=5, batch_size=64, rng_seed=13)
    table = train(graphs, vocab, cfg)
    first = np.mean(table.loss_history[:10])
    last = np.mean(table.loss_history[-10:])
    assert last < first


def test_export_import_round_trip(tmp_path, watch_tv):
    vocab = build_vocabulary([watch_tv])
    cfg = TrainConfig(dimension=8, iterations=5, epochs_per_iteration=2, batch_size=16, rng_seed=3)
    table = train([watch_tv], vocab, cfg)
    vectors, metadata = tmp_path / "v.tsv", tmp_path / "m.tsv"
    export_tsv(table, vocab, vectors, metadata)
    space = load_tsv(vectors, metadata)
    assert np.array_equal(space.matrix, table.matrix)
    assert space.vocab.names() == vocab.names()


def test_export_shapes(tmp_path, watch_tv):
    vocab = build_vocabulary([watch_tv])
    cfg = TrainConfig(dimension=3, batch_size=4)
    table = initialize_table(vocab, cfg, np.random.default_rng(0))
    vectors, metadata = tmp_path / "v.tsv", tmp_path / "m.tsv"
    export_tsv(table, vocab, vectors, metadata)
    vector_lines = vectors.read_text().splitlines()
    assert len(vector_lines) == 17
    assert all(len(line.split("\t")) == 3 for line in vector_lines)
    meta_lines = metadata.read_text().splitlines()
    assert meta_lines[0] == "name\tindex\tconcept"
    assert len(meta_lines) == 18


def test_odd_batch_size_rejected():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=7)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("batch_size", 0, "batch_size must be positive"),
        ("batch_size", -2, "batch_size must be positive"),
        ("dimension", 0, "dimension must be positive"),
        ("iterations", -3, "iterations must not be negative"),
        ("epochs_per_iteration", -1, "epochs_per_iteration must not be negative"),
    ],
)
def test_out_of_range_config_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})


# --- property tests ------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=128), st.integers(min_value=0, max_value=999))
def test_every_batch_is_exactly_half_positive(half, seed):
    graph = parse_turtle(WATCH_TV_49_TTL)
    vocab = build_vocabulary([graph])
    cfg = TrainConfig(dimension=4, batch_size=2 * half)
    batch = generate_batch(pair_pools([graph], vocab), cfg, np.random.default_rng(seed))
    assert len(batch.labels) == 2 * half
    assert batch.labels.sum() == half


_routines = st.lists(
    st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=15, deadline=None)
@given(
    _routines,
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_training_matches_allocating_reference_on_synthetic_corpora(
    routines, dimension, iterations, epochs, half, seed
):
    scripts = dedupe_activity_names(
        [
            parse_script(synthetic_script_text(f"Routine {k}", length, offset))
            for k, (length, offset) in enumerate(routines)
        ]
    )
    cfg = TrainConfig(
        dimension=dimension,
        iterations=iterations,
        epochs_per_iteration=epochs,
        batch_size=2 * half,
        rng_seed=seed,
    )
    _assert_trains_like_reference([script_to_kg(s) for s in scripts], cfg)
