"""Cosine-distance neighborhood queries over trained entity embeddings.

The action rows, their norms, their names and each name's rank in string
order are gathered once, when the space is built. The first search from a
query entity computes its distances to every action in one array
expression and sorts them on (distance, name); that row is kept for the
life of the space, so a later search from the same entity, at any radius,
is a binary search for the radius and a list of the prefix's tuples. A
composition searches again from the same state as its radius grows, and a
service sees the same states in request after request, so the scan runs
once per state instead of once per search. A row is never changed once it
is kept, and rows are published with ``dict.setdefault``, so handler
threads may share a space. A row holds each action's distance as a float64
and its position in the smallest unsigned integer type that fits: 10 bytes
per action for up to 65,536 actions.
"""

from __future__ import annotations

from bisect import bisect_right
from pathlib import Path

import numpy as np

from .embedding import EmbeddingTable, Vocabulary
from .errors import UnknownEntityError, UnknownSituationError
from .kg import Concept


class EmbeddingSpace:
    def __init__(self, vocab: Vocabulary, matrix: np.ndarray):
        if len(vocab) != matrix.shape[0]:
            raise ValueError(
                f"vocabulary has {len(vocab)} entries but the table has "
                f"{matrix.shape[0]} rows"
            )
        self.vocab = vocab
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self._norms = np.linalg.norm(self.matrix, axis=1)
        action_indices = np.array(vocab.indices_of(Concept.ACTION), dtype=np.int64)
        self._action_rows = self.matrix[action_indices]
        self._action_norms = self._norms[action_indices]
        names = self._action_names = [vocab.name(i) for i in action_indices.tolist()]
        # rank of each action name in string order: sorting on (distance,
        # rank) is sorting on (distance, name)
        self._name_rank = np.empty(len(names), dtype=np.int64)
        self._name_rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
        self._order_type = np.min_scalar_type(max(len(names) - 1, 0))
        # query entity name -> its sorted row, built on the first search
        self._rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def find_closest_actions(self, state_name: str, radius: float) -> list[tuple[str, float]]:
        """All actions within ``radius`` of a state, closest first; ties
        break on the action name. An empty result signals the caller to
        widen the radius."""
        row = self._rows.get(state_name)
        if row is None:
            row = self._rows.setdefault(state_name, self._sorted_row(state_name))
        distances, order = row
        if radius != radius:  # NaN: no distance is within it
            return []
        end = bisect_right(distances, radius)
        names = self._action_names
        return [(names[i], d) for i, d in zip(order[:end].tolist(), distances[:end].tolist())]

    def _sorted_row(self, state_name: str) -> tuple[np.ndarray, np.ndarray]:
        """The distances from a state to every action, sorted on (distance,
        name), and the positions of those actions; a NaN distance is never
        within a radius and is left out. Raises UnknownSituationError for an
        entity without an embedding and ValueError for a zero-norm query."""
        try:
            idx = self.vocab.index(state_name)
        except UnknownEntityError:
            raise UnknownSituationError(
                f"state {state_name!r} has no embedding; request rejected"
            ) from None
        if not self._action_names:
            distances = np.empty(0)
        else:
            qn = self._norms[idx]
            if qn == 0.0:
                raise ValueError("cosine distance is undefined for zero-norm vectors")
            norms = self._action_norms
            with np.errstate(divide="ignore", invalid="ignore"):
                distances = 1.0 - (self._action_rows @ self.matrix[idx]) / (norms * qn)
            distances[norms == 0.0] = np.inf  # zero vectors are never neighbors
        order = np.lexsort((self._name_rank, distances))  # NaNs sort last
        order = order[: len(order) - int(np.isnan(distances).sum())]
        distances = distances[order]
        order = order.astype(self._order_type)
        distances.flags.writeable = order.flags.writeable = False
        return distances, order


def load_tsv(path_vectors, path_metadata) -> EmbeddingSpace:
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
    return EmbeddingSpace(vocab, matrix)


def space_from_table(vocab: Vocabulary, table: EmbeddingTable) -> EmbeddingSpace:
    return EmbeddingSpace(vocab, table.matrix)
