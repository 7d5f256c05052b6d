import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
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
from mdpcompose.errors import TrainingDivergenceError


@pytest.fixture(scope="module")
def small_bench(graphs, desk_space, tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    activities = ["Make_coffee", "Wash_hands", "Watch_TV_49"]
    metrics = run_benchmark(graphs, desk_space, activities, caps=[1, 10], seed=99, out_dir=out)
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


@pytest.mark.parametrize("caps", [[-1, 0], [1, 0]])
def test_caps_below_one_are_refused_before_any_cell(graphs, desk_space, tmp_path, monkeypatch, caps):
    def never(*_args, **_kwargs):
        raise AssertionError("started work for a cap below 1")

    monkeypatch.setattr(bench, "ProcessPoolExecutor", never)
    monkeypatch.setattr(bench, "_run_ensemble_cell", never)
    with pytest.raises(ValueError, match="episode caps must be at least 1"):
        run_benchmark(graphs, desk_space, ["Make_coffee"], caps=caps, seed=7, out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


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


# SHA-256 of the five CSVs of run_benchmark on all 12 mini-corpus activities
# with seed 42, caps 1, 10 and 100 and the session desk_space. The DQN rows
# are counts and rewards in steps of 0.25, so a change of rounding in the
# TD update changes these bytes only when it flips a greedy or a replay
# decision.
DESK_CSV_SHA256 = {
    "cumulative_reward.csv": "619733fa26420a6e680c83d19fb011c3576767760fd10ea642b3317c0b9a3457",
    "radius_density.csv": "fcaa4daf089f5ece00c3b8b225b452f9cbc1077f3babf5419f08eca1549369f8",
    "steps.csv": "532c08552b9fb35ec71e8957ae8aac419d3df1867beff950ffbaa0af9950a8b9",
    "success_by_length.csv": "a68ab0144f995619a5f2e366a4e971436de87fd634c1ea81e8975fcbe67621f8",
    "wrong_decisions.csv": "5fc24985a38727842241def06b252c05fb3ce29db943211f9019e17cb6466137",
}


def test_desk_benchmark_writes_pinned_csv_bytes(corpus, graphs, desk_space, tmp_path):
    activities = [s.activity_name for s in corpus.scripts]
    assert len(activities) == 12
    run_benchmark(graphs, desk_space, activities, caps=[1, 10, 100], seed=42, out_dir=tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DESK_CSV_SHA256
    }
    assert digests == DESK_CSV_SHA256


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.25 cannot report its BLAS as a dict
        return ""


@pytest.mark.skipif("openblas" not in _blas_name().lower(), reason="numpy's BLAS is not OpenBLAS")
def test_pinned_csv_bytes_hold_on_another_blas_kernel():
    # Prescott's kernels round the same matmuls differently from the
    # kernels OpenBLAS picks for a current CPU
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    test = f"{Path(__file__).resolve()}::test_desk_benchmark_writes_pinned_csv_bytes"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
