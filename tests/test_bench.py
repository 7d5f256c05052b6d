import json
import multiprocessing
import os
import threading

import pytest

from mdpcompose import bench
from mdpcompose.bench import (
    CSV_HEADERS,
    DQN,
    ENSEMBLE,
    RunMetrics,
    mean_commit_radius,
    run_benchmark,
)
from mdpcompose.composer import ComposerConfig
from mdpcompose.dqn import DqnConfig
from mdpcompose.errors import TrainingDivergenceError


@pytest.fixture(scope="module")
def small_bench(graphs, desk_space, tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    activities = ["Make_coffee", "Wash_hands", "Watch_TV_49"]
    metrics = run_benchmark(
        graphs,
        desk_space,
        activities,
        caps=[1, 10],
        seed=99,
        out_dir=out,
        composer_cfg=ComposerConfig(),
        dqn_cfg=DqnConfig(),
    )
    return metrics, out


def test_row_counts(small_bench):
    metrics, _ = small_bench
    ensemble_rows = [m for m in metrics if m.method == ENSEMBLE]
    dqn_rows = [m for m in metrics if m.method == DQN]
    assert len(ensemble_rows) == 3
    assert len(dqn_rows) == 6  # 3 activities x 2 caps


def test_ensemble_rows_single_episode_and_positive_reward(small_bench):
    metrics, _ = small_bench
    for row in metrics:
        if row.method == ENSEMBLE:
            assert row.success
            assert row.episodes_used == 1
            assert row.cumulative_reward > 0
            assert row.steps_until_success >= row.sequence_length


def test_csv_headers_are_pinned(small_bench):
    _, out = small_bench
    for filename, header in CSV_HEADERS.items():
        lines = (out / filename).read_text().splitlines()
        assert lines[0] == ",".join(header)


def test_csv_rows_cover_all_cells(small_bench):
    metrics, out = small_bench
    lines = (out / "steps.csv").read_text().splitlines()
    assert len(lines) == 1 + len(metrics)


def test_radius_density_rows_match_commits(small_bench):
    metrics, out = small_bench
    total_commits = sum(
        m.steps_until_success - (m.steps_until_success - m.sequence_length)
        for m in metrics
        if m.method == ENSEMBLE
    )
    lines = (out / "radius_density.csv").read_text().splitlines()
    assert len(lines) - 1 >= total_commits  # one row per committed action


def test_timings_list_every_cell_once_beside_the_csvs(small_bench):
    metrics, out = small_bench
    timings = json.loads((out / "timings.json").read_text())
    listed = [(c["method"], c["activity"], c["episode_cap"]) for c in timings["cells"]]
    assert sorted(listed) == sorted((m.method, m.activity_name, m.episode_cap) for m in metrics)
    assert len(set(listed)) == len(listed)
    assert all(c["seconds"] > 0 for c in timings["cells"])
    assert timings["wall_s"] > 0


def test_determinism_across_activity_order(graphs, desk_space, tmp_path, monkeypatch):
    # cell seeds come from cell identity, not from the order cells run in
    # or the process they run on; two cells, so 8 CPUs give two workers
    activities = ["Make_coffee", "Feed_cat"]
    outs = []
    for cpus in (1, 2, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid, cpus=cpus: set(range(cpus)))
        for label, order in (("forward", activities), ("reversed", activities[::-1])):
            out = tmp_path / f"{label}-{cpus}"
            run_benchmark(graphs, desk_space, order, caps=[1], seed=7, out_dir=out)
            assert json.loads((out / "timings.json").read_text())["workers"] == min(cpus, 2)
            outs.append(out)
    for filename in CSV_HEADERS:
        expected = (outs[0] / filename).read_bytes()
        assert all((out / filename).read_bytes() == expected for out in outs[1:])


def test_failing_cell_raises_its_error_in_the_caller(graphs, desk_space, tmp_path, monkeypatch):
    caller = os.getpid()

    def diverge(*_args, **_kwargs):
        assert os.getpid() != caller, "DQN cells must run in worker processes"
        raise TrainingDivergenceError("nan", iteration=3)

    monkeypatch.setattr(bench, "train_dqn", diverge)
    outcome = {}

    def run():
        try:
            run_benchmark(graphs, desk_space, ["Make_coffee", "Feed_cat"], caps=[1, 10], seed=7, out_dir=tmp_path)
        except Exception as exc:  # checked below, in the test's own thread
            outcome["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "run_benchmark hung on a failing cell"
    error = outcome.get("error")
    assert type(error) is TrainingDivergenceError
    assert str(error) == "nan"
    assert error.iteration == 3
    assert list(tmp_path.iterdir()) == []  # no CSV, no timings.json
    assert multiprocessing.active_children() == []


def test_mean_commit_radius():
    assert mean_commit_radius([]) is None
    assert mean_commit_radius([("a", 0, 0.25), ("a", 1, 0.75)]) == pytest.approx(0.5)


def test_run_metrics_invariant_fields():
    row = RunMetrics("A", ENSEMBLE, 1, 1, 5, 2, 3.75, True, 5)
    assert row.steps_until_success >= row.sequence_length
    assert row.wrong_decisions >= 0
