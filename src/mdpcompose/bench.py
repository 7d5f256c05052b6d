"""Evaluation harness: composer versus DQN over a corpus of activities.

Every (activity, method, episode cap) cell runs independently with a seed
derived from the cell identity, so results do not depend on the order in
which cells run, nor on where. DQN training dominates a benchmark and is
pure Python plus small numpy calls, so threads gained nothing under the
GIL; separate processes do run in parallel. The DQN cells therefore run on
a pool of worker processes, one per usable CPU, longest first. The workers
are forked, not spawned, so they inherit the graphs instead of importing
the package again and unpickling them; each sends back only a cell's
metrics and wall time. The composer cells are short and run in the
calling process meanwhile. Metrics land in one row per cell and are
projected into the CSV files consumed by the analysis plots; per-cell wall
times go to a separate ``timings.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from .composer import compose
from .dqn import DqnConfig, train_dqn
from .errors import CompositionFailureError, UnknownSituationError
from .kg import KnowledgeGraph
from .simulation import initial_state
from .space import EmbeddingSpace

log = logging.getLogger(__name__)

ENSEMBLE = "ENSEMBLE"
DQN = "DQN"

CSV_HEADERS = {
    "success_by_length.csv": ["method", "episode_cap", "sequence_length", "activity", "success"],
    "cumulative_reward.csv": ["method", "episode_cap", "activity", "sequence_length", "cumulative_reward"],
    "steps.csv": ["method", "episode_cap", "activity", "sequence_length", "steps_until_success"],
    "wrong_decisions.csv": ["method", "episode_cap", "activity", "sequence_length", "wrong_decisions"],
    "radius_density.csv": ["activity", "commit_index", "radius"],
}


@dataclass
class RunMetrics:
    activity_name: str
    method: str
    episode_cap: int
    episodes_used: int
    steps_until_success: int
    wrong_decisions: int
    cumulative_reward: float
    success: bool
    sequence_length: int
    commit_radii: tuple[float, ...] = ()  # ENSEMBLE only: radius of each commit


def _cell_seed(base: int, activity: str, method: str, cap: int) -> int:
    digest = hashlib.sha256(f"{base}:{activity}:{method}:{cap}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _run_ensemble_cell(graph, space, activity_name):
    sequence_length = len(graph.get(activity_name).actions)
    try:
        _table, trace = compose(graph, space, initial_state(graph, activity_name))
        return RunMetrics(
            activity_name=activity_name,
            method=ENSEMBLE,
            episode_cap=1,
            episodes_used=trace.episodes,
            steps_until_success=trace.steps,
            wrong_decisions=trace.wrong_decisions,
            cumulative_reward=trace.cumulative_reward,
            success=True,
            sequence_length=sequence_length,
            commit_radii=tuple(trace.commit_radii),
        )
    except (CompositionFailureError, UnknownSituationError) as exc:
        log.warning("composition failed for %s: %s", activity_name, exc)
        return RunMetrics(
            activity_name=activity_name,
            method=ENSEMBLE,
            episode_cap=1,
            episodes_used=1,
            steps_until_success=0,
            wrong_decisions=0,
            cumulative_reward=0.0,
            success=False,
            sequence_length=sequence_length,
        )


# The graphs and seed of the running benchmark. Set only in worker
# processes, by the pool's initializer; fork hands the initializer's
# arguments over without pickling them.
_worker_context: tuple = ()


def _init_worker(graphs, seed) -> None:
    global _worker_context
    _worker_context = (graphs, seed)


def _run_dqn_job(job) -> tuple[RunMetrics, float]:
    """One DQN cell in a worker process: its row and its wall time."""
    _method, name, cap = job
    graphs, seed = _worker_context
    started = perf_counter()
    cfg = DqnConfig(episode_cap=cap, rng_seed=_cell_seed(seed, name, DQN, cap))
    _net, record = train_dqn(graphs[name], name, cfg)
    row = RunMetrics(
        activity_name=name,
        method=DQN,
        episode_cap=cap,
        episodes_used=record.episodes_used,
        steps_until_success=record.total_steps,
        wrong_decisions=record.wrong_decisions,
        cumulative_reward=record.cumulative_reward,
        success=record.success,
        sequence_length=len(graphs[name].get(name).actions),
    )
    return row, perf_counter() - started


def run_benchmark(
    graphs: dict[str, KnowledgeGraph],
    space: EmbeddingSpace,
    activities: list[str],
    caps: list[int],
    seed: int,
    out_dir,
) -> list[RunMetrics]:
    """One ENSEMBLE row per activity plus one DQN row per (activity, cap),
    at default settings; writes the CSVs and ``timings.json``, returns all rows."""
    started = perf_counter()

    # longest first, by sequence length times cap; ties in cell order, so
    # the schedule does not depend on the caller's order either
    def cost(job) -> int:
        _method, name, cap = job
        return len(graphs[name].get(name).actions) * cap

    dqn_jobs = sorted(
        ((DQN, name, cap) for name in activities for cap in caps),
        key=lambda job: (-cost(job), job),
    )
    workers = max(1, min(len(os.sched_getaffinity(0)), len(dqn_jobs)))
    results: dict[tuple, tuple[RunMetrics, float]] = {}
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(graphs, seed),
    ) as pool:
        dqn_results = pool.map(_run_dqn_job, dqn_jobs)
        for name in activities:
            cell_started = perf_counter()
            row = _run_ensemble_cell(graphs[name], space, name)
            results[(ENSEMBLE, name, 0)] = row, perf_counter() - cell_started
        results.update(zip(dqn_jobs, dqn_results))
    wall_s = perf_counter() - started
    # rows are sorted by method, activity and cap, so the CSVs depend on
    # neither the caller's order nor the schedule
    cells = [results[job] for job in sorted(results)]
    metrics = [row for row, _seconds in cells]
    write_csv_files(metrics, out_dir)
    _write_timings(cells, workers, wall_s, Path(out_dir) / "timings.json")
    return metrics


def _write_timings(cells: list[tuple[RunMetrics, float]], workers: int, wall_s: float, path) -> None:
    """Each cell's wall time where it ran, kept apart from the pinned CSVs
    because it differs from run to run."""
    document = {
        "workers": workers,
        "wall_s": wall_s,
        "cells": [
            {
                "method": row.method,
                "activity": row.activity_name,
                "episode_cap": row.episode_cap,
                "seconds": seconds,
            }
            for row, seconds in cells
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv_files(metrics: list[RunMetrics], out_dir) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    projections = {
        "success_by_length.csv": lambda m: [
            m.method, m.episode_cap, m.sequence_length, m.activity_name, m.success
        ],
        "cumulative_reward.csv": lambda m: [
            m.method, m.episode_cap, m.activity_name, m.sequence_length, m.cumulative_reward
        ],
        "steps.csv": lambda m: [
            m.method, m.episode_cap, m.activity_name, m.sequence_length, m.steps_until_success
        ],
        "wrong_decisions.csv": lambda m: [
            m.method, m.episode_cap, m.activity_name, m.sequence_length, m.wrong_decisions
        ],
    }
    written = {}
    for filename, project in projections.items():
        path = out_dir / filename
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADERS[filename])
            for row in metrics:
                writer.writerow([_fmt(v) for v in project(row)])
        written[filename] = path

    path = out_dir / "radius_density.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADERS["radius_density.csv"])
        for activity, k, radius in radius_rows(metrics):
            writer.writerow([activity, str(k), repr(radius)])
    written["radius_density.csv"] = path
    return written


def radius_rows(metrics: list[RunMetrics]) -> list[tuple[str, int, float]]:
    """(activity, commit index, radius) for every commit of every row."""
    return [
        (m.activity_name, k, radius)
        for m in metrics
        for k, radius in enumerate(m.commit_radii)
    ]


def mean_commit_radius(radii_rows) -> float | None:
    values = [radius for _a, _k, radius in radii_rows]
    if not values:
        return None
    return sum(values) / len(values)
