"""Entity embedding training by binary co-occurrence classification.

Every activity, state and action entity receives one row in a shared
embedding table. Training samples are entity pairs labelled 1 when they
co-occur (an activity links the entity, or an action directly produced the
state) and 0 otherwise; the model scores a pair with the sigmoid of the dot
product of the two rows and is optimized with Adam on binary cross-entropy.
Batches are balanced, half positive and half negative, with pair relations
drawn round-robin. The positive pair pools, their sets and the per-concept
index arrays do not change during training, so a training run builds them
once (``pair_pools``) and every batch draws from them.

A batch is drawn with array calls that consume the generator exactly as one
scalar ``rng.integers`` call per draw would: ``rng.integers(0, bounds)``
returns the same values, and leaves the same bit-generator state, as one
call per bound (``tests/test_embedding.py`` pins this). The positive half is
one such call. The negative half draws the (left, right) pairs of all
remaining samples in one call; at the first pair that turns out positive it
restores the generator state, redraws exactly up to that pair and goes on
from there. A pair rejected ``NEGATIVE_RETRY_CAP`` times, or a relation
without candidates, hands the rest of the batch to the scalar loop
(``_scalar_negatives``), the one definition of when a relation is dropped.
A batch whose relations are all dropped ends at the negatives drawn so far.

A batch's index arrays stay fixed over its epochs, so ``train`` lays each
batch out once (``BatchLayout``): the rows to gather, right rows then left
rows, and the flattened gradient cell of every gathered term. Each epoch
then gathers its 2n rows once, scales them by the coefficient column, and
sums them into the gradient with one ``np.bincount`` in the order two
sequential ``np.add.at`` calls would use.

Adam (``LEARNING_RATE``, ``BETA1``, ``BETA2``, ``ADAM_EPSILON``) updates the
moment tables and the embedding table in place, with the operations of the
textbook expressions in their order, so every element rounds as it would in
the allocating form. One scratch table and the epoch's gradient hold the
intermediate terms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import TrainingDivergenceError, UnknownEntityError
from .kg import Concept, KnowledgeGraph

log = logging.getLogger(__name__)

NEGATIVE_RETRY_CAP = 100

LEARNING_RATE = 1e-3
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPSILON = 1e-8


class PairType(str, Enum):
    ACTIVITY_ACTION = "ACTIVITY_ACTION"
    ACTIVITY_STATE = "ACTIVITY_STATE"
    ACTION_STATE = "ACTION_STATE"


_PAIR_ROTATION = (PairType.ACTIVITY_ACTION, PairType.ACTIVITY_STATE, PairType.ACTION_STATE)

_PAIR_CONCEPTS = {
    PairType.ACTIVITY_ACTION: (Concept.ACTIVITY, Concept.ACTION),
    PairType.ACTIVITY_STATE: (Concept.ACTIVITY, Concept.STATE),
    PairType.ACTION_STATE: (Concept.ACTION, Concept.STATE),
}


class Vocabulary:
    """Bijection between entity names and dense indices, with concept tags."""

    def __init__(self):
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self._concepts: list[Concept] = []

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def add(self, name: str, concept: Concept) -> int:
        if name in self._index:
            idx = self._index[name]
            if self._concepts[idx] is not concept:
                raise ValueError(
                    f"entity {name!r} seen as both {self._concepts[idx].value} "
                    f"and {concept.value}"
                )
            return idx
        idx = len(self._names)
        self._index[name] = idx
        self._names.append(name)
        self._concepts.append(concept)
        return idx

    def add_graph(self, graph: KnowledgeGraph) -> None:
        """Index a graph's activities, states and actions. A name that is
        held under another concept raises ``ValueError`` and leaves none of
        the graph's new names behind."""
        size = len(self._names)
        try:
            for activity in graph.activities:
                self.add(activity.name, Concept.ACTIVITY)
                for state in activity.states:
                    self.add(state, Concept.STATE)
                for action in activity.actions:
                    self.add(action, Concept.ACTION)
            for state in graph.states:
                self.add(state.name, Concept.STATE)
            for action_entity in graph.actions:
                self.add(action_entity.name, Concept.ACTION)
        except ValueError:
            for name in self._names[size:]:
                del self._index[name]
            del self._names[size:]
            del self._concepts[size:]
            raise

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownEntityError(f"{name!r} is not in the vocabulary") from None

    def name(self, idx: int) -> str:
        return self._names[idx]

    def concept(self, idx: int) -> Concept:
        return self._concepts[idx]

    def names(self) -> list[str]:
        return list(self._names)

    def indices_of(self, concept: Concept) -> list[int]:
        return [i for i, c in enumerate(self._concepts) if c is concept]


@dataclass(frozen=True)
class TrainSample:
    left_index: int
    right_index: int
    pair_type: PairType
    label: int


class Batch(NamedTuple):
    """A batch of samples as aligned arrays of entity indices and labels."""

    left: np.ndarray
    right: np.ndarray
    labels: np.ndarray

    @classmethod
    def of(cls, samples) -> "Batch":
        return cls(
            np.array([s.left_index for s in samples], dtype=np.int64),
            np.array([s.right_index for s in samples], dtype=np.int64),
            np.array([s.label for s in samples], dtype=np.float64),
        )


@dataclass(frozen=True)
class PairPools:
    """What batches are drawn from: the sorted positive pairs of each
    relation as an (n, 2) index array and as a set, its left and right
    candidate index arrays, and the relations that have positive pairs, in
    rotation order."""

    positives: dict[PairType, np.ndarray]
    positive_sets: dict[PairType, set[tuple[int, int]]]
    candidates: dict[PairType, tuple[np.ndarray, np.ndarray]]
    active: tuple[PairType, ...]


# The training budget that finishes in seconds on a desk machine; the
# TrainConfig defaults are the full budget (1000 x 15, batch 1024).
DESK_SCALE = dict(iterations=200, epochs_per_iteration=5, batch_size=256)


@dataclass
class TrainConfig:
    dimension: int = 50
    iterations: int = 1000
    epochs_per_iteration: int = 15
    batch_size: int = 1024
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("dimension", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("iterations", "epochs_per_iteration"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        if self.batch_size % 2:
            raise ValueError("batch_size must be even (balanced 1:1)")


@dataclass
class EmbeddingTable:
    matrix: np.ndarray
    loss_history: list[float] = field(default_factory=list)


def build_vocabulary(graphs: list[KnowledgeGraph]) -> Vocabulary:
    """Index every activity, state and action, de-duplicating by name."""
    vocab = Vocabulary()
    for graph in graphs:
        vocab.add_graph(graph)
    return vocab


def positive_pairs(graphs: list[KnowledgeGraph], vocab: Vocabulary) -> dict:
    """Co-occurring index pairs per relation, de-duplicated across graphs."""
    pools: dict = {pt: set() for pt in _PAIR_ROTATION}
    for graph in graphs:
        for activity in graph.activities:
            a = vocab.index(activity.name)
            for action in activity.actions:
                pools[PairType.ACTIVITY_ACTION].add((a, vocab.index(action)))
            for state in activity.states:
                pools[PairType.ACTIVITY_STATE].add((a, vocab.index(state)))
        for transition in graph.transitions:
            if transition.action in vocab and transition.next_state in vocab:
                pools[PairType.ACTION_STATE].add(
                    (vocab.index(transition.action), vocab.index(transition.next_state))
                )
    return {pt: sorted(pool) for pt, pool in pools.items()}


def pair_pools(graphs, vocab: Vocabulary) -> PairPools:
    """The loop-invariant inputs of generate_batch; relations without
    positive pairs are skipped with a warning."""
    positives = positive_pairs(graphs, vocab)
    for pt in _PAIR_ROTATION:
        if not positives[pt]:
            log.warning("relation %s has no positive pairs; skipped", pt.value)
    active = tuple(pt for pt in _PAIR_ROTATION if positives[pt])
    if not active:
        raise ValueError("no relation has positive pairs")
    return PairPools(
        positives={
            pt: np.array(pool, dtype=np.int64).reshape(-1, 2) for pt, pool in positives.items()
        },
        positive_sets={pt: set(pool) for pt, pool in positives.items()},
        candidates={
            pt: (
                np.array(vocab.indices_of(ca), dtype=np.int64),
                np.array(vocab.indices_of(cb), dtype=np.int64),
            )
            for pt, (ca, cb) in _PAIR_CONCEPTS.items()
        },
        active=active,
    )


def generate_batch(pools: PairPools, cfg: TrainConfig, rng) -> Batch:
    """Assemble one balanced batch: cfg.batch_size samples, the first half
    positive (label 1) and the second half negative (label 0). The batch is
    cut short when no relation has negative pairs left to draw."""
    half = cfg.batch_size // 2
    left = np.empty(2 * half, dtype=np.int64)
    right = np.empty(2 * half, dtype=np.int64)
    # Sample k of the positive half belongs to relation active[k % n].
    active, n = pools.active, len(pools.active)
    sizes = np.array([len(pools.positives[pt]) for pt in active], dtype=np.int64)
    picks = rng.integers(0, sizes[np.arange(half) % n])
    for r, pt in enumerate(active):
        chosen = pools.positives[pt][picks[r::n]]
        left[r:half:n] = chosen[:, 0]
        right[r:half:n] = chosen[:, 1]
    filled = _draw_negatives(pools, rng, left, right, half)
    labels = np.zeros(filled)
    labels[:half] = 1.0
    return Batch(left[:filled], right[:filled], labels)


def _draw_negatives(pools: PairPools, rng, left, right, half: int) -> int:
    """Fill left[half:] and right[half:] with negative pairs, relations
    round-robin, consuming rng as _scalar_negatives would; return the
    length filled."""
    usable = list(pools.active)
    sizes = np.array([[len(c) for c in pools.candidates[pt]] for pt in usable], dtype=np.int64)
    if not sizes.all():
        return _scalar_negatives(pools, rng, left, right, half, usable, half)
    positive_sets = [pools.positive_sets[pt] for pt in usable]
    filled, tries, head = half, 0, None
    while filled < len(left):
        # Sample j of the rest belongs to relation usable[(k + j) % u], and
        # draws[j] holds its (left, right) candidate positions.
        k, u, rest = filled - half, len(usable), len(left) - filled
        bounds = sizes[(k + np.arange(rest)) % u].ravel()
        state = rng.bit_generator.state
        draws = rng.integers(0, bounds).reshape(rest, 2)
        lefts = np.empty(rest, dtype=np.int64)
        rights = np.empty(rest, dtype=np.int64)
        for r, pt in enumerate(usable):
            own = slice((r - k) % u, rest, u)
            lefts[own] = pools.candidates[pt][0][draws[own, 0]]
            rights[own] = pools.candidates[pt][1][draws[own, 1]]
        rejected = next(
            (
                j
                for j, pair in enumerate(zip(lefts.tolist(), rights.tolist()))
                if pair in positive_sets[(k + j) % u]
            ),
            rest,
        )
        left[filled : filled + rejected] = lefts[:rejected]
        right[filled : filled + rejected] = rights[:rejected]
        filled += rejected
        if rejected == rest:
            return filled
        # Leave the generator where the scalar loop would be after drawing
        # the rejected pair, in one call; remember how to get back to where
        # that pair's first draw began.
        rng.bit_generator.state = state
        if rejected:
            tries = 0
        if not tries:
            head = state, bounds[: 2 * rejected]
        rng.integers(0, bounds[: 2 * rejected + 2])
        tries += 1
        if tries == NEGATIVE_RETRY_CAP:
            rng.bit_generator.state = head[0]
            rng.integers(0, head[1])
            return _scalar_negatives(pools, rng, left, right, filled, usable, half)
    return filled


def _scalar_negatives(
    pools: PairPools, rng, left, right, filled: int, usable: list, half: int
) -> int:
    """Fill left[filled:] and right[filled:] with negative pairs, one scalar
    draw at a time; a relation whose pair stays positive for
    NEGATIVE_RETRY_CAP draws, or that has no candidates, is dropped from
    usable with a warning. Return the length filled, short of len(left)
    once usable is empty."""
    while usable and filled < len(left):
        pt = usable[(filled - half) % len(usable)]
        lefts, rights = pools.candidates[pt]
        positives = pools.positive_sets[pt]
        found = None
        if len(lefts) and len(rights):
            for _attempt in range(NEGATIVE_RETRY_CAP):
                pair = (
                    int(lefts[rng.integers(len(lefts))]),
                    int(rights[rng.integers(len(rights))]),
                )
                if pair not in positives:
                    found = pair
                    break
        if found is None:
            log.warning(
                "relation %s: no negative pair found after %d draws; skipped",
                pt.value,
                NEGATIVE_RETRY_CAP,
            )
            usable.remove(pt)
            continue
        left[filled], right[filled] = found
        filled += 1
    return filled


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # e = exp(-|z|) never overflows, and each branch is the stable form for
    # its sign; minimum(z, -z) is -|z| that keeps the sign of a NaN
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class BatchLayout(NamedTuple):
    """Index arrays of a batch that stay fixed while the table changes:
    the rows to gather, right rows then left rows, and the flattened
    (row, column) gradient cell of every gathered term."""

    gather: np.ndarray
    cells: np.ndarray

    @classmethod
    def of(cls, batch: Batch, dim: int) -> "BatchLayout":
        # All left-side terms come before all right-side ones, sample by
        # sample, so each cell sums its terms in the same order as two
        # sequential np.add.at calls would.
        cells = np.concatenate([batch.left, batch.right])[:, None] * dim + np.arange(dim)
        return cls(np.concatenate([batch.right, batch.left]), cells.ravel())


def batch_loss_and_grad(matrix: np.ndarray, batch, layout: BatchLayout | None = None):
    """Mean binary cross-entropy over a batch and its gradient table.

    ``batch`` is a Batch or a sequence of TrainSample; ``layout`` is its
    BatchLayout, built here when not given. For one sample with
    p = sigmoid(l . r):
        dL/dl = (p - y) * r,  dL/dr = (p - y) * l
    averaged over the batch.
    """
    if not isinstance(batch, Batch):
        batch = Batch.of(batch)
    labels = batch.labels
    rows, dim = matrix.shape
    if layout is None:
        layout = BatchLayout.of(batch, dim)
    n = len(labels)
    # right rows then left rows: the term each left-side cell collects is
    # coeff * r, and each right-side cell coeff * l
    vecs = matrix[layout.gather]
    p = _sigmoid(np.einsum("ij,ij->i", vecs[n:], vecs[:n]))
    eps = 1e-12
    losses = -(labels * np.log(p + eps) + (1.0 - labels) * np.log(1.0 - p + eps))
    loss = float(losses.mean())

    coeff = (p - labels) / n
    vecs *= np.concatenate([coeff, coeff])[:, None]
    grad = np.bincount(layout.cells, weights=vecs.ravel(), minlength=rows * dim)
    return loss, grad.reshape(rows, dim)


def initialize_table(vocab: Vocabulary, cfg: TrainConfig, rng) -> EmbeddingTable:
    matrix = rng.uniform(-0.05, 0.05, size=(len(vocab), cfg.dimension))
    return EmbeddingTable(matrix)


def train(graphs, vocab: Vocabulary, cfg: TrainConfig | None = None) -> EmbeddingTable:
    """Adam on binary cross-entropy; one fresh batch per iteration, with
    cfg.epochs_per_iteration optimizer passes over it."""
    cfg = cfg or TrainConfig()
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    rng = np.random.default_rng(cfg.rng_seed)
    table = initialize_table(vocab, cfg, rng)

    matrix = table.matrix
    m = np.zeros_like(matrix)
    v = np.zeros_like(matrix)
    step = np.empty_like(matrix)
    t = 0
    report_every = max(1, cfg.iterations // 10)
    pools = pair_pools(graphs, vocab)

    for iteration in range(cfg.iterations):
        batch = generate_batch(pools, cfg, rng)
        layout = BatchLayout.of(batch, cfg.dimension)
        epoch_losses = []
        for _epoch in range(cfg.epochs_per_iteration):
            loss, grad = batch_loss_and_grad(matrix, batch, layout)
            if not math.isfinite(loss):
                raise TrainingDivergenceError(
                    f"non-finite loss at iteration {iteration}", iteration=iteration
                )
            t += 1
            # The textbook Adam expressions, each evaluated in place in its
            # own operation order, so every element rounds as before. grad
            # is this epoch's own array and serves as scratch once read.
            # v = BETA2 * v + (1 - BETA2) * grad * grad, left to right
            np.multiply(grad, 1.0 - BETA2, out=step)
            np.multiply(step, grad, out=step)
            np.multiply(v, BETA2, out=v)
            np.add(v, step, out=v)
            # m = BETA1 * m + (1 - BETA1) * grad
            np.multiply(grad, 1.0 - BETA1, out=grad)
            np.multiply(m, BETA1, out=m)
            np.add(m, grad, out=m)
            # matrix -= LEARNING_RATE * m_hat / (sqrt(v_hat) + ADAM_EPSILON)
            np.divide(m, 1.0 - BETA1**t, out=step)
            np.multiply(step, LEARNING_RATE, out=step)
            np.divide(v, 1.0 - BETA2**t, out=grad)
            np.sqrt(grad, out=grad)
            np.add(grad, ADAM_EPSILON, out=grad)
            np.divide(step, grad, out=step)
            np.subtract(matrix, step, out=matrix)
            epoch_losses.append(loss)
        mean_loss = sum(epoch_losses) / len(epoch_losses) if epoch_losses else 0.0
        table.loss_history.append(mean_loss)
        log.debug("iteration %d: mean loss %.6f", iteration + 1, mean_loss)
        if (iteration + 1) % report_every == 0:
            log.info("iteration %d/%d: mean loss %.6f", iteration + 1, cfg.iterations, mean_loss)

    if not np.isfinite(matrix).all():
        raise TrainingDivergenceError("non-finite values in the trained table")
    return table


def export_tsv(table: EmbeddingTable, vocab: Vocabulary, path_vectors, path_metadata):
    """Write the vectors file (one row of tab-separated floats per entity)
    and the aligned metadata file (name, index, concept)."""
    with open(path_vectors, "w", encoding="utf-8") as handle:
        # Row by row: the Python floats of the whole table at once would
        # add about 4 MB to the peak at 1,912 entities.
        for row in table.matrix:
            handle.write("\t".join(map(repr, row.tolist())))
            handle.write("\n")
    with open(path_metadata, "w", encoding="utf-8") as handle:
        handle.write("name\tindex\tconcept\n")
        for idx in range(len(vocab)):
            handle.write(f"{vocab.name(idx)}\t{idx}\t{vocab.concept(idx).value}\n")
