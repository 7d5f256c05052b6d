import pytest

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


def test_determinism_across_activity_order(graphs, desk_space, tmp_path):
    # cell seeds come from cell identity, not from the order cells run in
    activities = ["Make_coffee", "Feed_cat"]
    outs = []
    for label, order in (("forward", activities), ("reversed", activities[::-1])):
        out = tmp_path / label
        run_benchmark(graphs, desk_space, order, caps=[1], seed=7, out_dir=out)
        outs.append(out)
    for filename in CSV_HEADERS:
        assert (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()


def test_mean_commit_radius():
    assert mean_commit_radius([]) is None
    assert mean_commit_radius([("a", 0, 0.25), ("a", 1, 0.75)]) == pytest.approx(0.5)


def test_run_metrics_invariant_fields():
    row = RunMetrics("A", ENSEMBLE, 1, 1, 5, 2, 3.75, True, 5)
    assert row.steps_until_success >= row.sequence_length
    assert row.wrong_decisions >= 0
