"""Loading and saving collections of activity graphs.

A store is either a single Turtle file or a directory of ``.ttl`` files,
one activity graph per file. Keeping activities in separate graphs keeps
every graph's transition groups self-consistent even when step names are
shared across activities.
"""

from __future__ import annotations

from pathlib import Path

from .errors import UnknownSituationError
from .kg import Concept, KnowledgeGraph
from .simulation import SimState, recognize_state
from .turtle_io import parse_turtle, write_turtle


def load_store(path) -> list[KnowledgeGraph]:
    """Load all graphs from a store path; directory entries sort by name."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.ttl"))
        if not files:
            raise FileNotFoundError(f"no .ttl files in store directory {path}")
        return [parse_turtle(f.read_text(encoding="utf-8")) for f in files]
    return [parse_turtle(path.read_text(encoding="utf-8"))]


def save_store(graphs: dict[str, KnowledgeGraph], directory) -> list[Path]:
    """Write one ``<activity>.ttl`` per graph; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(graphs):
        target = directory / f"{name}.ttl"
        target.write_text(write_turtle(graphs[name]), encoding="utf-8")
        written.append(target)
    return written


def activity_index(graphs: list[KnowledgeGraph]) -> dict[str, KnowledgeGraph]:
    index: dict[str, KnowledgeGraph] = {}
    for graph in graphs:
        for activity in graph.activities:
            index.setdefault(activity.name, graph)
    return index


def graph_of_state(graphs: list[KnowledgeGraph], state_name: str) -> KnowledgeGraph:
    for graph in graphs:
        entity = graph.find(state_name)
        if entity is not None and entity.concept is Concept.STATE:
            return graph
    raise UnknownSituationError(f"state {state_name!r} is not in the store")


def recognize_across(graphs: list[KnowledgeGraph], feature_values) -> tuple[KnowledgeGraph, SimState]:
    """Match observed features against the graphs in store order.

    Tie rule: when states of several graphs match, the first graph in store
    order wins, and the graphs after it are not scanned. Within a graph the
    first matching state in name order wins (``recognize_state``).
    """
    for graph in graphs:
        try:
            return graph, recognize_state(graph, feature_values)
        except UnknownSituationError:
            continue
    raise UnknownSituationError("observed features match no state in the store")
