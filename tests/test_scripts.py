"""Smoke tests of the runnable scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_compose_demo_prints_the_watch_tv_trace():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compose_demo.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summary = done.stdout.rstrip("\n").splitlines()[-1]
    assert summary == "7 rounds, 49 agent steps, 42 penalized, cumulative reward 7.0"
