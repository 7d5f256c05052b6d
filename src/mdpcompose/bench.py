"""Evaluation harness: composer versus DQN over a corpus of activities.

Every (activity, method, episode cap) cell runs independently with a seed
derived from the cell identity, so results do not depend on the order in
which cells run. Cells run one after another: composition and DQN training
are pure Python and small numpy calls, so under the GIL a thread pool would
add overhead and no parallelism. Metrics land in one row per cell and are
projected into the CSV files consumed by the analysis plots.
"""

from __future__ import annotations

import csv
import hashlib
import logging
from dataclasses import dataclass, replace
from pathlib import Path

from .composer import ComposerConfig, compose
from .dqn import DqnConfig, train_dqn
from .errors import CompositionFailureError, UnknownSituationError
from .kg import KnowledgeGraph
from .simulation import SimState, initial_features
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


def _initial_state(graph: KnowledgeGraph, activity_name: str) -> SimState:
    activity = graph.get(activity_name)
    initial = next(s for s in activity.states if graph.get(s).is_initial_state)
    return SimState(
        feature_values=initial_features(graph, activity_name), state_label=initial
    )


def _run_ensemble_cell(graph, space, activity_name, composer_cfg):
    sequence_length = len(graph.get(activity_name).actions)
    try:
        _table, trace = compose(
            graph, space, _initial_state(graph, activity_name), composer_cfg
        )
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


def _run_dqn_cell(graph, activity_name, cap, dqn_cfg):
    sequence_length = len(graph.get(activity_name).actions)
    _net, record = train_dqn(graph, activity_name, dqn_cfg)
    return RunMetrics(
        activity_name=activity_name,
        method=DQN,
        episode_cap=cap,
        episodes_used=record.episodes_used,
        steps_until_success=record.total_steps,
        wrong_decisions=record.wrong_decisions,
        cumulative_reward=record.cumulative_reward,
        success=record.success,
        sequence_length=sequence_length,
    )


def run_benchmark(
    graphs: dict[str, KnowledgeGraph],
    space: EmbeddingSpace,
    activities: list[str],
    caps: list[int],
    seed: int,
    out_dir,
    composer_cfg: ComposerConfig | None = None,
    dqn_cfg: DqnConfig | None = None,
) -> list[RunMetrics]:
    """One ENSEMBLE row per activity plus one DQN row per (activity, cap);
    writes the CSV files and returns all rows."""
    composer_cfg = composer_cfg or ComposerConfig()
    dqn_cfg = dqn_cfg or DqnConfig()

    def run_cell(job) -> RunMetrics:
        method, name, cap = job
        graph = graphs[name]
        if method == ENSEMBLE:
            return _run_ensemble_cell(graph, space, name, composer_cfg)
        cell_cfg = replace(
            dqn_cfg,
            episode_cap=cap,
            rng_seed=_cell_seed(seed, name, method, cap),
        )
        return _run_dqn_cell(graph, name, cap, cell_cfg)

    jobs = []
    for name in activities:
        jobs.append((ENSEMBLE, name, 0))
        jobs.extend((DQN, name, cap) for cap in caps)
    # cells run in the caller's order; rows are sorted by method, activity
    # and cap, so the CSVs do not depend on that order
    results = dict(zip(jobs, map(run_cell, jobs)))
    metrics = [results[job] for job in sorted(results)]
    write_csv_files(metrics, out_dir)
    return metrics


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
