"""Loading and saving collections of activity graphs, and the frozen store
that answers requests across them.

A store is either a single Turtle file or a directory of ``.ttl`` files,
one activity graph per file. Keeping activities in separate graphs keeps
every graph's transition groups self-consistent even when step names are
shared across activities.

``load_store`` validates every graph and then builds a ``Store`` once: the
graphs in store order and the indexes that requests across them read. A
request looks a state name or its bound lead features up in those indexes
and scans no graph. Nothing writes to a store after it is built, so any
number of request threads can share it.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from .errors import UnknownSituationError
from .kg import KnowledgeGraph, RecognitionEntry
from .simulation import SimState, _recognized, _rule_holds
from .turtle_io import parse_turtle, write_turtle


class Store:
    """Validated graphs in store order with the indexes built from them.

    - ``activities``: each activity name to the first graph that has it.
    - ``state_graphs``: each state name to the first graph in which it is
      a state.
    - ``entries_by_lead``: each lead feature to the ``(graph position,
      name rank, entry)`` triples of the recognition entries it leads, in
      store order and, within a graph, in ``recognition_order``.
    """

    __slots__ = ("graphs", "activities", "state_graphs", "entries_by_lead")

    def __init__(self, graphs: Iterable[KnowledgeGraph]):
        self.graphs: tuple[KnowledgeGraph, ...] = tuple(graphs)
        self.activities: dict[str, KnowledgeGraph] = {}
        self.state_graphs: dict[str, KnowledgeGraph] = {}
        by_lead: dict[str, list[tuple[int, int, RecognitionEntry]]] = {}
        for position, graph in enumerate(self.graphs):
            for activity in graph.activities:
                self.activities.setdefault(activity.name, graph)
            # recognition_order lists every state of the graph
            for rank, entry in enumerate(graph.recognition_order()):
                self.state_graphs.setdefault(entry.state.name, graph)
                by_lead.setdefault(entry.lead_feature, []).append((position, rank, entry))
        self.entries_by_lead = {lead: tuple(triples) for lead, triples in by_lead.items()}


def load_store(path) -> Store:
    """Load all graphs from a store path; directory entries sort by name."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.ttl"))
        if not files:
            raise FileNotFoundError(f"no .ttl files in store directory {path}")
        return Store(parse_turtle(f.read_text(encoding="utf-8")) for f in files)
    return Store([parse_turtle(path.read_text(encoding="utf-8"))])


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


def graph_of_state(store: Store, state_name: str) -> KnowledgeGraph:
    """The first graph in store order in which ``state_name`` is a state."""
    graph = store.state_graphs.get(state_name)
    if graph is None:
        raise UnknownSituationError(f"state {state_name!r} is not in the store")
    return graph


def recognize_across(store: Store, feature_values) -> tuple[KnowledgeGraph, SimState]:
    """Match observed features against the states of every graph.

    Tie rule: when states of several graphs match, the first graph in store
    order wins; within a graph the first matching state in name order wins.
    Only the entries led by a bound feature are evaluated, in that order:
    the states that ``recognize_state`` would evaluate graph by graph, so
    the match and any exception a rule raises are the same.
    """
    candidates: list[tuple[int, int, RecognitionEntry]] = []
    for feature in feature_values:
        candidates += store.entries_by_lead.get(feature, ())
    # (position, rank) pairs are unique, so the entries are never compared
    candidates.sort()
    for position, _rank, entry in candidates:
        if _rule_holds(entry.rule, feature_values):
            return store.graphs[position], _recognized(entry.state, feature_values)
    raise UnknownSituationError("observed features match no state in the store")
