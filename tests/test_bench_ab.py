"""``scripts/bench_ab.py``: the summary and verdict logic on canned
benchmark result lines, and one comparison of two revisions of a small
repository whose benchmark prints fixed lines."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_ab)

END_TO_END = [
    {"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _result(pipeline_s, throughput_rps, correct=True):
    metrics = {"pipeline_s": pipeline_s, "throughput_rps": throughput_rps}
    return {
        "correct": correct,
        "attempted": 54,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    }


def test_the_last_two_output_lines_are_the_detail_and_the_result():
    stdout = 'warming up\n{"seed": 101}\n{"correct": true}\n'
    assert bench_ab.parse_output(stdout) == ({"seed": 101}, {"correct": True})
    with pytest.raises(ValueError, match="two result lines"):
        bench_ab.parse_output('{"correct": true}\n')


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_base_iqr():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    head = [b - 1.0 for b in base]
    m = bench_ab.verdict(base, head, "lower", 0.25)
    assert (m["wins"], m["losses"], m["verdict"]) == (10, 0, "better")
    assert m["base"]["median"] == 10.0 and m["head"]["median"] == 9.0
    assert m["base"]["q1"] == pytest.approx(9.925) and m["base"]["q3"] == pytest.approx(10.1)
    assert m["relative_gap"] == pytest.approx(-0.1)
    # two ties and a loss leave 7 wins of 10: no gain, and nothing worse
    worse_three = head[:7] + base[7:9] + [base[9] + 0.5]
    m = bench_ab.verdict(base, worse_three, "lower", 0.25)
    assert (m["wins"], m["losses"], m["verdict"]) == (7, 1, "within bound")
    # every pair won, but by less than the base's own interquartile range
    m = bench_ab.verdict(base, [b - 0.05 for b in base], "lower", 0.25)
    assert (m["wins"], m["verdict"]) == (10, "within bound")


def test_a_higher_is_better_metric_wins_when_the_head_reads_higher():
    base = [100.0 + k for k in range(10)]
    m = bench_ab.verdict(base, [b + 20.0 for b in base], "higher", 0.25)
    assert (m["wins"], m["verdict"]) == (10, "better")
    m = bench_ab.verdict(base, [b * 0.7 for b in base], "higher", 0.25)
    assert (m["losses"], m["verdict"]) == (10, "worse")


def test_a_spread_beyond_the_bound_is_unresolved_unless_the_head_wins_every_run():
    base = [1.0, 2.0, 1.0, 2.0]
    m = bench_ab.verdict(base, [2.0, 1.0, 2.0, 1.0], "lower", 0.25)
    assert m["base"]["spread_share"] == pytest.approx(1 / 1.5)
    assert m["verdict"] == "unresolved"
    # every head run is below every base run: resolved, though the gap of
    # 0.6 is within the base's interquartile range of 1.0
    m = bench_ab.verdict(base, [0.9, 0.8, 0.9, 0.95], "lower", 0.25)
    assert (m["wins"], m["verdict"]) == (4, "within bound")
    # tight spreads and a 30% slower head
    m = bench_ab.verdict([1.0] * 4, [1.3] * 4, "lower", 0.25)
    assert (m["base"]["spread_share"], m["verdict"]) == (0.0, "worse")


def test_each_side_records_its_interquartile_spread_beside_the_max_min_spread():
    # nine runs near 20 ms and one outlier at 30 ms, as a head side once read
    head = [19.0, 18.9, 19.0, 19.3, 22.6, 30.1, 20.1, 19.8, 17.5, 17.5]
    m = bench_ab.verdict([21.5] * 10, head, "lower", 0.25)
    stats = m["head"]
    assert stats["spread_share"] == pytest.approx((30.1 - 17.5) / 19.15)
    assert stats["iqr_share"] == pytest.approx((stats["q3"] - stats["q1"]) / 19.15)
    assert stats["iqr_share"] < 0.25 < stats["spread_share"]  # the outlier decides only max - min
    assert m["base"]["iqr_share"] == 0.0 and m["base"]["spread_share"] == 0.0


def test_summary_pairs_the_runs_of_each_workload_and_skips_a_half_pair():
    runs = []
    for pair in range(3):
        for side, scale in (("base", 1.0), ("head", 0.5)):
            runs.append({"workload": "serve-desk", "pair": pair, "side": side,
                         "result": _result(0.02 * scale, 2000 / scale)})
    runs.append({"workload": "serve-scaled", "pair": 0, "side": "head",
                 "result": _result(0.1, 500, correct=False)})
    runs.append({"workload": "serve-scaled", "pair": 0, "side": "base", "error": "exit 1"})
    summary = bench_ab.summarize(runs, END_TO_END)
    desk = summary["serve-desk"]
    assert (desk["all_correct"], desk["complete_pairs"]) == (True, 3)
    assert desk["metrics"]["pipeline_s"]["base"]["values"] == [0.02] * 3
    assert desk["metrics"]["throughput_rps"]["verdict"] == "better"
    assert summary["serve-scaled"] == {"all_correct": False, "complete_pairs": 0, "metrics": {}}


_FAKE_RUN = '''\
import json, sys
from pathlib import Path
value = float((Path(__file__).resolve().parents[1] / "src" / "cost.txt").read_text())
print("noise")
print(json.dumps({"argv": sys.argv[1:]}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"pipeline_s": {"value": value, "unit": "s"}}}))
'''


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_two_revisions_are_archived_and_run_in_alternating_order(tmp_path):
    repo = tmp_path / "repo"
    (repo / "scripts").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    (repo / "src").mkdir()
    shutil.copy(ROOT / "scripts" / "bench_ab.py", repo / "scripts")
    (repo / "perfbench" / "run.py").write_text(_FAKE_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "workloads": [{"name": "serve-desk"}],
        "end_to_end": [{"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.25}],
    }))

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    for cost in ("2.0", "1.0"):
        (repo / "src" / "cost.txt").write_text(cost)
        git("add", "-A")
        git("commit", "-q", "-m", cost)
    done = subprocess.run(
        [sys.executable, "scripts/bench_ab.py", "HEAD~1", "HEAD", "--label", "t", "--pairs", "2"],
        cwd=repo, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads((repo / "BENCH_t.json").read_text())
    assert record["base"]["rev"] == "HEAD~1" and len(record["head"]["sha"]) == 40
    assert [(r["pair"], r["side"]) for r in record["runs"]] == [
        (0, "base"), (0, "head"), (1, "head"), (1, "base"),
    ]
    assert record["runs"][0]["detail"]["argv"][-6:] == [
        "--seed", "101", "--seconds", "1", "--trace", "0",
    ]
    metric = record["summary"]["serve-desk"]["metrics"]["pipeline_s"]
    assert (metric["base"]["median"], metric["head"]["median"]) == (2.0, 1.0)
    assert (metric["wins"], metric["verdict"]) == (2, "better")
    assert "serve-desk: all correct True, 2 pairs" in done.stdout
