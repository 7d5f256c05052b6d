"""Entity embedding training by binary co-occurrence classification.

Every activity, state and action entity receives one row in a shared
embedding table. Training samples are entity pairs labelled 1 when they
co-occur (an activity links the entity, or an action directly produced the
state) and 0 otherwise; the model scores a pair with the sigmoid of the dot
product of the two rows and is optimized with Adam on binary cross-entropy.
Batches are balanced, half positive and half negative, with pair relations
drawn round-robin. The positive pair pools, their sets and the per-concept
index lists do not change during training, so a training run builds them
once (``pair_pools``) and every batch draws from them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import TrainingDivergenceError, UnknownEntityError
from .kg import Concept, KnowledgeGraph

log = logging.getLogger(__name__)

NEGATIVE_RETRY_CAP = 100


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
    """What batches are drawn from: the sorted positive pairs, their sets,
    the left and right candidates of each relation, and the relations
    that have positive pairs, in rotation order."""

    positives: dict[PairType, list[tuple[int, int]]]
    positive_sets: dict[PairType, set[tuple[int, int]]]
    candidates: dict[PairType, tuple[list[int], list[int]]]
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
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("dimension", "iterations", "epochs_per_iteration", "batch_size"):
            if getattr(self, name) < 0 or (name == "dimension" and self.dimension == 0):
                raise ValueError(f"{name} must be positive")
        if self.batch_size % 2:
            raise ValueError("batch_size must be even (balanced 1:1)")

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """Read a flat key=value file; unknown keys are rejected."""
        values: dict = {}
        fields = {f: t for f, t in cls.__annotations__.items()}
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            caster = int if fields[key] == "int" else float
            values[key] = caster(raw.strip())
        return cls(**values)


@dataclass
class EmbeddingTable:
    matrix: np.ndarray
    dimension: int
    loss_history: list[float] = field(default_factory=list)


def build_vocabulary(graphs: list[KnowledgeGraph]) -> Vocabulary:
    """Index every activity, state and action, de-duplicating by name."""
    vocab = Vocabulary()
    for graph in graphs:
        for activity in graph.activities:
            vocab.add(activity.name, Concept.ACTIVITY)
            for state in activity.states:
                vocab.add(state, Concept.STATE)
            for action in activity.actions:
                vocab.add(action, Concept.ACTION)
        for state in graph.states:
            vocab.add(state.name, Concept.STATE)
        for action_entity in graph.actions:
            vocab.add(action_entity.name, Concept.ACTION)
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
        positives=positives,
        positive_sets={pt: set(pool) for pt, pool in positives.items()},
        candidates={
            pt: (vocab.indices_of(ca), vocab.indices_of(cb))
            for pt, (ca, cb) in _PAIR_CONCEPTS.items()
        },
        active=active,
    )


def generate_batch(pools: PairPools, cfg: TrainConfig, rng) -> Batch:
    """Assemble one balanced batch: cfg.batch_size samples, the first half
    positive (label 1) and the second half negative (label 0)."""
    half = cfg.batch_size // 2
    left: list[int] = []
    right: list[int] = []
    active = pools.active
    for k in range(half):
        pool = pools.positives[active[k % len(active)]]
        pair = pool[int(rng.integers(len(pool)))]
        left.append(pair[0])
        right.append(pair[1])

    usable = list(active)
    k = 0
    while len(left) < 2 * half:
        if not usable:
            raise ValueError("cannot draw negative pairs for any relation")
        pt = usable[k % len(usable)]
        lefts, rights = pools.candidates[pt]
        positives = pools.positive_sets[pt]
        found = None
        if lefts and rights:
            for _attempt in range(NEGATIVE_RETRY_CAP):
                pair = (
                    lefts[int(rng.integers(len(lefts)))],
                    rights[int(rng.integers(len(rights)))],
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
        left.append(found[0])
        right.append(found[1])
        k += 1
    labels = np.zeros(2 * half)
    labels[:half] = 1.0
    return Batch(np.array(left, dtype=np.int64), np.array(right, dtype=np.int64), labels)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward(table: EmbeddingTable, sample: TrainSample) -> float:
    """Sigmoid of the dot product of the two entity rows, in (0, 1)."""
    z = float(table.matrix[sample.left_index] @ table.matrix[sample.right_index])
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def batch_loss_and_grad(matrix: np.ndarray, batch):
    """Mean binary cross-entropy over a batch and its gradient table.

    ``batch`` is a Batch or a sequence of TrainSample. For one sample with
    p = sigmoid(l . r):
        dL/dl = (p - y) * r,  dL/dr = (p - y) * l
    averaged over the batch.
    """
    left, right, labels = batch if isinstance(batch, Batch) else Batch.of(batch)
    lvec = matrix[left]
    rvec = matrix[right]
    z = np.einsum("ij,ij->i", lvec, rvec)
    p = _sigmoid(z)
    eps = 1e-12
    losses = -(labels * np.log(p + eps) + (1.0 - labels) * np.log(1.0 - p + eps))
    loss = float(losses.mean())

    coeff = (p - labels)[:, None] / len(labels)
    # One scatter over flattened (row, column) cells. All left-side terms
    # come before all right-side ones, sample by sample, so each cell sums
    # its terms in the same order as two sequential np.add.at calls would.
    rows, dim = matrix.shape
    cells = np.concatenate([left, right])[:, None] * dim + np.arange(dim)
    terms = np.concatenate([coeff * rvec, coeff * lvec])
    grad = np.bincount(cells.ravel(), weights=terms.ravel(), minlength=rows * dim)
    return loss, grad.reshape(rows, dim)


def initialize_table(vocab: Vocabulary, cfg: TrainConfig, rng) -> EmbeddingTable:
    matrix = rng.uniform(-0.05, 0.05, size=(len(vocab), cfg.dimension))
    return EmbeddingTable(matrix=matrix, dimension=cfg.dimension)


def train(graphs, vocab: Vocabulary, cfg: TrainConfig | None = None) -> EmbeddingTable:
    """Adam on binary cross-entropy; one fresh batch per iteration, with
    cfg.epochs_per_iteration optimizer passes over it."""
    cfg = cfg or TrainConfig()
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    rng = np.random.default_rng(cfg.rng_seed)
    table = initialize_table(vocab, cfg, rng)

    m = np.zeros_like(table.matrix)
    v = np.zeros_like(table.matrix)
    t = 0
    report_every = max(1, cfg.iterations // 10)
    pools = pair_pools(graphs, vocab)

    for iteration in range(cfg.iterations):
        batch = generate_batch(pools, cfg, rng)
        epoch_losses = []
        for _epoch in range(cfg.epochs_per_iteration):
            loss, grad = batch_loss_and_grad(table.matrix, batch)
            if not math.isfinite(loss):
                raise TrainingDivergenceError(
                    f"non-finite loss at iteration {iteration}", iteration=iteration
                )
            t += 1
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad * grad
            m_hat = m / (1.0 - cfg.beta1**t)
            v_hat = v / (1.0 - cfg.beta2**t)
            table.matrix -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
            epoch_losses.append(loss)
        mean_loss = sum(epoch_losses) / len(epoch_losses) if epoch_losses else 0.0
        table.loss_history.append(mean_loss)
        log.debug("iteration %d: mean loss %.6f", iteration + 1, mean_loss)
        if (iteration + 1) % report_every == 0:
            log.info("iteration %d/%d: mean loss %.6f", iteration + 1, cfg.iterations, mean_loss)

    if not np.isfinite(table.matrix).all():
        raise TrainingDivergenceError("non-finite values in the trained table")
    return table


def export_tsv(table: EmbeddingTable, vocab: Vocabulary, path_vectors, path_metadata):
    """Write the vectors file (one row of tab-separated floats per entity)
    and the aligned metadata file (name, index, concept)."""
    with open(path_vectors, "w", encoding="utf-8") as handle:
        for row in table.matrix:
            handle.write("\t".join(repr(float(x)) for x in row))
            handle.write("\n")
    with open(path_metadata, "w", encoding="utf-8") as handle:
        handle.write("name\tindex\tconcept\n")
        for idx in range(len(vocab)):
            handle.write(f"{vocab.name(idx)}\t{idx}\t{vocab.concept(idx).value}\n")
