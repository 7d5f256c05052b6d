"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of ``mdpcompose`` from outside: while it
is active, every module attribute (or class attribute) bound to a wrapped
function is replaced by a timing wrapper, and the originals come back when
it deactivates. No file of the program changes.

A span is ``[id, parent, request, name, start, end, attrs]``. The parent is
the innermost open span on the same thread. ``compose`` runs its agents on
pool threads whose stacks are empty, so simulation calls made there adopt
the open ``compose`` span of the graph they were given as parent. Spans
inherit their parent's request id; a root span starts a new request.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

ID, PARENT, REQUEST, NAME, START, END, ATTRS = range(7)


def _trace_counts(result) -> dict:
    _table, trace = result
    return {
        "rounds": len(trace.rounds),
        "agent_steps": trace.agent_steps,
        "wrong_decisions": trace.wrong_decisions,
        "commits": len(trace.commit_radii),
        "resimulated": resimulated_agent_steps(trace),
    }


def resimulated_agent_steps(trace) -> int:
    """Agent steps on an action already simulated from the same state in
    the same composition. Rounds between two commits all start from the
    same state, so each repeat of an action within such a run of rounds is
    one re-simulation."""
    repeats = 0
    seen: set[str] = set()
    for rnd in trace.rounds:
        for action, _reward in rnd.results:
            if action in seen:
                repeats += 1
            seen.add(action)
        if rnd.committed:
            seen = set()
    return repeats


def _dqn_cap(graph, activity_name, cfg=None) -> int:
    from mdpcompose.dqn import DqnConfig

    return (cfg or DqnConfig()).episode_cap


@dataclass(frozen=True)
class Target:
    """One public function to wrap: ``owner`` is a module or class path."""

    owner: str
    attr: str
    span: str
    on_args: Callable | None = None  # (args, kwargs) -> attrs
    on_result: Callable | None = None  # result -> attrs
    fanout: bool = False  # runs children on pool threads, keyed by args[0]
    adopt: bool = False  # on an empty stack, adopt the fan-out span of args[0]
    steps: bool = False  # returns a step closure whose calls are spans too


TARGETS = [
    Target("mdpcompose.vhome", "parse_script", "vhome.parse_script"),
    Target("mdpcompose.vhome", "script_to_kg", "vhome.script_to_kg"),
    Target("mdpcompose.kg.KnowledgeGraph", "validate", "kg.validate"),
    Target("mdpcompose.store", "load_store", "store.load_store"),
    Target("mdpcompose.store", "save_store", "store.save_store"),
    Target("mdpcompose.store", "recognize_across", "store.recognize_across"),
    Target("mdpcompose.store", "graph_of_state", "store.graph_of_state"),
    Target("mdpcompose.turtle_io", "parse_turtle", "turtle_io.parse_turtle"),
    Target("mdpcompose.embedding", "build_vocabulary", "embedding.build_vocabulary"),
    Target("mdpcompose.embedding", "train", "embedding.train"),
    Target("mdpcompose.embedding", "generate_batch", "embedding.generate_batch"),
    Target("mdpcompose.embedding", "positive_pairs", "embedding.positive_pairs"),
    Target("mdpcompose.embedding", "batch_loss_and_grad", "embedding.batch_loss_and_grad"),
    Target("mdpcompose.embedding", "export_tsv", "embedding.export_tsv"),
    Target("mdpcompose.space", "load_tsv", "space.load_tsv"),
    Target(
        "mdpcompose.space.EmbeddingSpace",
        "find_closest_actions",
        "space.find_closest_actions",
        on_result=lambda hits: {"candidates": len(hits)},
    ),
    Target("mdpcompose.simulation", "make_simulation", "simulation.make_simulation", adopt=True, steps=True),
    Target("mdpcompose.simulation", "recognize_state", "simulation.recognize_state", adopt=True),
    Target("mdpcompose.composer", "compose", "composer.compose", on_result=_trace_counts, fanout=True),
    Target(
        "mdpcompose.dqn",
        "train_dqn",
        "dqn.train_dqn",
        on_args=lambda args, kwargs: {"cap": _dqn_cap(*args, **kwargs)},
        on_result=lambda result: {"env_steps": result[1].total_steps},
    ),
    Target("mdpcompose.dqn", "td_loss_and_grads", "dqn.td_loss_and_grads"),
    Target("mdpcompose.dqn", "evaluate_greedy", "dqn.evaluate_greedy"),
    Target("mdpcompose.bench", "run_benchmark", "bench.run_benchmark"),
    Target("mdpcompose.bench", "write_csv_files", "bench.write_csv_files"),
    Target("mdpcompose.service.PolicyService", "policies_for", "service.policies_for"),
    Target("mdpcompose.service", "resolve_policy_request", "service.resolve_policy_request"),
]


def _resolve(path: str):
    """A module, or a class inside a module, by dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout: dict[int, list] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, fallback=None) -> tuple[list, list | None]:
        """Start a span; returns it with its parent span (or None)."""
        stack = self._stack()
        parent = stack[-1] if stack else fallback
        sid = next(self._ids)
        span = [
            sid,
            parent[ID] if parent else None,
            parent[REQUEST] if parent else sid,
            name,
            0.0,
            0.0,
            None,
        ]
        stack.append(span)
        span[START] = perf_counter()
        return span, parent

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        span, _parent = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, target: Target):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fallback = None
            if target.adopt and args and not recorder._stack():
                fallback = recorder._fanout.get(id(args[0]))
            span, parent = recorder._open(target.span, fallback)
            if target.on_args:
                span[ATTRS] = target.on_args(args, kwargs)
            if target.fanout:
                recorder._fanout[id(args[0])] = span
            try:
                result = fn(*args, **kwargs)
            finally:
                if target.fanout:
                    recorder._fanout.pop(id(args[0]), None)
                recorder._close(span)
            if target.on_result:
                span[ATTRS] = {**(span[ATTRS] or {}), **target.on_result(result)}
            if target.steps:
                return recorder._wrap_step(result, parent)
            return result

        return wrapper

    def _wrap_step(self, step, creator_parent):
        recorder = self

        def traced_step(action):
            span, _parent = recorder._open("simulation.step", creator_parent)
            try:
                return step(action)
            finally:
                recorder._close(span)

        return traced_step

    # -- activation ----------------------------------------------------

    def activate(self) -> None:
        """Replace every binding of each target: a method on its class, a
        function in every ``mdpcompose`` module that imported it."""
        owners = [_resolve(target.owner) for target in TARGETS]
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "mdpcompose"]
        for target, owner in zip(TARGETS, owners):
            original = owner.__dict__[target.attr]
            wrapper = self._wrap(original, target)
            for holder in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def deactivate(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    @contextmanager
    def active(self):
        self.activate()
        try:
            yield self
        finally:
            self.deactivate()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def self_times(spans: list[list], names: set[str]) -> dict[int, float]:
    """Self time of each span named in ``names``: its duration minus the
    part of its interval that its children's spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    wanted = {s[ID]: s for s in spans if s[NAME] in names}
    for s in spans:
        if s[PARENT] in wanted:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {}
    for sid, span in wanted.items():
        covered, reach = 0.0, span[START]
        for start, end in sorted(children.get(sid, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out[sid] = (span[END] - span[START]) - covered
    return out
