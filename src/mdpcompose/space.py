"""Distance and neighborhood queries over trained entity embeddings.

The neighborhood search computes the distances to every action row in one
array expression, then builds result tuples only for the actions inside the
radius. The action rows, their norms, their names and each name's rank in
string order are gathered once, when the space is built; a space is never
modified afterwards. At the vocabulary sizes this system works with (a few
thousand entities) a full scan is tens of microseconds and needs no index.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path

import numpy as np

from .embedding import EmbeddingTable, Vocabulary
from .errors import UnknownEntityError, UnknownSituationError
from .kg import Concept


class Metric(str, Enum):
    COSINE_DISTANCE = "COSINE_DISTANCE"
    EUCLIDEAN = "EUCLIDEAN"


class EmbeddingSpace:
    def __init__(self, vocab: Vocabulary, matrix: np.ndarray, metric: Metric = Metric.COSINE_DISTANCE):
        if len(vocab) != matrix.shape[0]:
            raise ValueError(
                f"vocabulary has {len(vocab)} entries but the table has "
                f"{matrix.shape[0]} rows"
            )
        self.vocab = vocab
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.metric = metric
        self._norms = np.linalg.norm(self.matrix, axis=1)
        action_indices = np.array(vocab.indices_of(Concept.ACTION), dtype=np.int64)
        self._action_rows = self.matrix[action_indices]
        self._action_norms = self._norms[action_indices]
        names = self._action_names = [vocab.name(i) for i in action_indices.tolist()]
        # rank of each action name in string order: sorting on (distance,
        # rank) is sorting on (distance, name)
        self._name_rank = np.empty(len(names), dtype=np.int64)
        self._name_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))

    def vector(self, name: str) -> np.ndarray:
        return self.matrix[self.vocab.index(name)]

    def distance(self, a: str, b: str) -> float:
        ia, ib = self.vocab.index(a), self.vocab.index(b)
        if self.metric is Metric.EUCLIDEAN:
            return float(np.linalg.norm(self.matrix[ia] - self.matrix[ib]))
        na, nb = self._norms[ia], self._norms[ib]
        if na == 0.0 or nb == 0.0:
            raise ValueError("cosine distance is undefined for zero-norm vectors")
        cos = float(self.matrix[ia] @ self.matrix[ib]) / float(na * nb)
        return 1.0 - cos

    def find_closest_actions(self, state_name: str, radius: float) -> list[tuple[str, float]]:
        """All actions within ``radius`` of a state, closest first; ties
        break on the action name. An empty result signals the caller to
        widen the radius."""
        try:
            idx = self.vocab.index(state_name)
        except UnknownEntityError:
            raise UnknownSituationError(
                f"state {state_name!r} has no embedding; request rejected"
            ) from None
        if not self._action_names:
            return []
        query = self.matrix[idx]
        rows = self._action_rows
        if self.metric is Metric.EUCLIDEAN:
            distances = np.linalg.norm(rows - query, axis=1)
        else:
            qn = self._norms[idx]
            if qn == 0.0:
                raise ValueError("cosine distance is undefined for zero-norm vectors")
            norms = self._action_norms
            with np.errstate(divide="ignore", invalid="ignore"):
                distances = 1.0 - (rows @ query) / (norms * qn)
            distances[norms == 0.0] = np.inf  # zero vectors are never neighbors
        hits = np.flatnonzero(distances <= radius)
        hits = hits[np.lexsort((self._name_rank[hits], distances[hits]))]
        names = self._action_names
        return [(names[i], d) for i, d in zip(hits.tolist(), distances[hits].tolist())]


def load_tsv(path_vectors, path_metadata, metric: Metric = Metric.COSINE_DISTANCE) -> EmbeddingSpace:
    """Load a space from the exported vectors/metadata TSV pair."""
    vectors = []
    for lineno, line in enumerate(
        Path(path_vectors).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        fields = line.split("\t")
        try:
            vectors.append([float(x) for x in fields])
        except ValueError:
            raise ValueError(
                f"{path_vectors}: line {lineno}: non-numeric field"
            ) from None

    vocab = Vocabulary()
    meta_lines = Path(path_metadata).read_text(encoding="utf-8").splitlines()
    if not meta_lines or meta_lines[0].split("\t") != ["name", "index", "concept"]:
        raise ValueError(f"{path_metadata}: missing name/index/concept header")
    for lineno, line in enumerate(meta_lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path_metadata}: line {lineno}: expected 3 fields")
        name, index_text, concept_text = parts
        try:
            index = int(index_text)
        except ValueError:
            raise ValueError(
                f"{path_metadata}: line {lineno}: non-numeric index"
            ) from None
        try:
            concept = Concept(concept_text)
        except ValueError:
            raise ValueError(
                f"{path_metadata}: line {lineno}: unknown concept {concept_text!r}"
            ) from None
        if vocab.add(name, concept) != index:
            raise ValueError(
                f"{path_metadata}: line {lineno}: index {index} out of order"
            )

    if len(vocab) != len(vectors):
        raise ValueError(
            f"row count mismatch: {len(vectors)} vectors, {len(vocab)} metadata rows"
        )
    widths = {len(v) for v in vectors}
    if len(widths) > 1:
        raise ValueError("vector rows have inconsistent dimensions")
    dimension = widths.pop() if widths else 0
    matrix = np.array(vectors, dtype=np.float64).reshape(len(vectors), dimension)
    return EmbeddingSpace(vocab, matrix, metric=metric)


def space_from_table(vocab: Vocabulary, table: EmbeddingTable, metric: Metric = Metric.COSINE_DISTANCE) -> EmbeddingSpace:
    return EmbeddingSpace(vocab, table.matrix, metric=metric)
