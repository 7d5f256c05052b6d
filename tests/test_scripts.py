"""Smoke tests of the runnable scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_compose_demo_prints_the_watch_tv_trace():
    summary = _run_script("compose_demo.py").rstrip("\n").splitlines()[-1]
    assert summary == "7 rounds, 49 agent steps, 42 penalized, cumulative reward 7.0"


def test_run_benchmark_writes_its_files_and_summary(tmp_path):
    stdout = _run_script("run_benchmark.py", "--caps", "1", "--out", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cumulative_reward.csv",
        "embeddings.metadata.tsv",
        "embeddings.vectors.tsv",
        "radius_density.csv",
        "steps.csv",
        "success_by_length.csv",
        "timings.json",
        "wrong_decisions.csv",
    ]
    assert "ensemble: 12/12 composed, all in 1 episode(s)" in stdout.splitlines()


def test_benchmark_self_test_passes():
    # the benchmark imports the program by name (compose, DqnConfig, the
    # traced functions), and no other test runs its self-test
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
