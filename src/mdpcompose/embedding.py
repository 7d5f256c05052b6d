"""Entity embedding training by binary co-occurrence classification.

Every activity, state and action entity receives one row in a shared
embedding table. Training samples are entity pairs labelled 1 when they
co-occur (an activity links the entity, or an action directly produced the
state) and 0 otherwise; the model scores a pair with the sigmoid of the dot
product of the two rows and is optimized with Adam on binary cross-entropy.
Batches are balanced, half positive and half negative, with pair relations
drawn round-robin.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

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


def generate_batch(graphs, vocab: Vocabulary, cfg: TrainConfig, rng) -> list[TrainSample]:
    """Assemble one balanced batch: cfg.batch_size samples, half label 1."""
    pools = positive_pairs(graphs, vocab)
    half = cfg.batch_size // 2

    active = [pt for pt in _PAIR_ROTATION if pools[pt]]
    for pt in _PAIR_ROTATION:
        if not pools[pt]:
            log.warning("relation %s has no positive pairs; skipped", pt.value)
    if not active:
        raise ValueError("no relation has positive pairs")

    samples: list[TrainSample] = []
    for k in range(half):
        pt = active[k % len(active)]
        pool = pools[pt]
        left, right = pool[int(rng.integers(len(pool)))]
        samples.append(TrainSample(left, right, pt, 1))

    positive_sets = {pt: set(pools[pt]) for pt in _PAIR_ROTATION}
    concept_indices = {
        pt: (vocab.indices_of(ca), vocab.indices_of(cb))
        for pt, (ca, cb) in _PAIR_CONCEPTS.items()
    }
    negatives: list[TrainSample] = []
    usable = list(active)
    k = 0
    while len(negatives) < half:
        if not usable:
            raise ValueError("cannot draw negative pairs for any relation")
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
            log.warning(
                "relation %s: no negative pair found after %d draws; skipped",
                pt.value,
                NEGATIVE_RETRY_CAP,
            )
            usable.remove(pt)
            continue
        negatives.append(TrainSample(found[0], found[1], pt, 0))
        k += 1
    return samples + negatives


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


def _batch_arrays(samples):
    left = np.array([s.left_index for s in samples], dtype=np.int64)
    right = np.array([s.right_index for s in samples], dtype=np.int64)
    labels = np.array([s.label for s in samples], dtype=np.float64)
    return left, right, labels


def batch_loss_and_grad(matrix: np.ndarray, samples):
    """Mean binary cross-entropy over a batch and its gradient table.

    For one sample with p = sigmoid(l . r):
        dL/dl = (p - y) * r,  dL/dr = (p - y) * l
    averaged over the batch.
    """
    left, right, labels = _batch_arrays(samples)
    lvec = matrix[left]
    rvec = matrix[right]
    z = np.einsum("ij,ij->i", lvec, rvec)
    p = _sigmoid(z)
    eps = 1e-12
    losses = -(labels * np.log(p + eps) + (1.0 - labels) * np.log(1.0 - p + eps))
    loss = float(losses.mean())

    coeff = (p - labels)[:, None] / len(samples)
    grad = np.zeros_like(matrix)
    np.add.at(grad, left, coeff * rvec)
    np.add.at(grad, right, coeff * lvec)
    return loss, grad


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

    for iteration in range(cfg.iterations):
        samples = generate_batch(graphs, vocab, cfg, rng)
        epoch_losses = []
        for _epoch in range(cfg.epochs_per_iteration):
            loss, grad = batch_loss_and_grad(table.matrix, samples)
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
