#!/usr/bin/env python3
"""A/B comparison of two revisions on the repository benchmark.

    python3 scripts/bench_ab.py 4e0c552 HEAD --label pr30 --workload serve-desk \\
        --pairs 10 --seconds 20 --seed 101

Each revision's ``src/`` is taken with ``git archive`` into a temporary
directory, beside the ``perfbench/`` of the repository's HEAD, so that both
sides are measured by the same benchmark. Pairs alternate which side runs
first. ``BENCH_<label>.json`` in ``--out`` (the repository root by default)
holds both SHAs, the two output lines of every run, and per workload and
end-to-end metric each side's median and quartiles, the wins per pair and
a verdict. Each side's spread is recorded twice over its median: as
``spread_share`` (max - min) and as ``iqr_share`` (q3 - q1), which no
single outlier run decides. The file is rewritten after every run, so a
stopped comparison keeps the runs it made.

The verdict follows the rule the benchmark's README and BENCHMARK.json set:
- ``better``: the head wins at least 9 of 10 pairs (ties count for
  neither) and its median beats the base's by more than the base's
  interquartile range;
- ``unresolved``: else, when either side's spread (max - min over the
  median) exceeds the metric's bound, unless every head run beats every
  base run;
- ``worse``: else, when the head's median is worse by more than the bound;
- ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")
WIN_SHARE = 0.9
RUN_TIMEOUT_S = 3600


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(sha: str, paths: list[str], dest: Path) -> None:
    """``paths`` of revision ``sha`` extracted under ``dest``."""
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha, *paths], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def parse_output(stdout: str) -> tuple[dict, dict]:
    """The benchmark's last two output lines: the run's detail and its result."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"expected two result lines, got {len(lines)}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    try:
        done = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {RUN_TIMEOUT_S} s"}
    try:
        detail, result = parse_output(done.stdout)
    except ValueError as exc:
        return {"error": f"exit {done.returncode}: {exc}: {done.stderr[-2000:]}"}
    return {"detail": detail, "result": result}


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    quartiles = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    q1, _, q3 = quartiles

    def share(spread: float) -> float:
        return spread / abs(median) if median else (0.0 if spread == 0 else float("inf"))

    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread_share": share(max(values) - min(values)),
        "iqr_share": share(q3 - q1),
        "values": values,
    }


def verdict(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """Compare one metric's paired runs, base[k] against head[k]."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (head - base) < 0: head is better
    wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    sides = {"base": _stats(base), "head": _stats(head)}
    b, h = sides["base"]["median"], sides["head"]["median"]
    gain = -sign * (h - b)  # positive when the head's median is better
    gap = (h - b) / abs(b) if b else None
    dominates = max(head) < min(base) if better == "lower" else min(head) > max(base)
    if wins >= WIN_SHARE * len(base) and gain > sides["base"]["q3"] - sides["base"]["q1"]:
        outcome = "better"
    elif max(s["spread_share"] for s in sides.values()) > bound and not dominates:
        outcome = "unresolved"
    elif gap is not None and -sign * gap < -bound:
        outcome = "worse"
    else:
        outcome = "within bound"
    return {
        **sides, "pairs": len(base), "wins": wins, "losses": losses,
        "relative_gap": gap, "verdict": outcome,
    }


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: whether every run was correct, and each end-to-end
    metric's verdict over the pairs where both sides produced a result."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_pair: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload and "result" in run:
                by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
        pairs = [p for _k, p in sorted(by_pair.items()) if len(p) == 2]
        ours = [run for run in runs if run["workload"] == workload]
        entry = {
            "all_correct": all(run.get("result", {}).get("correct") for run in ours),
            "complete_pairs": len(pairs),
            "metrics": {},
        }
        for metric in end_to_end if pairs else ():
            name = metric["name"]
            values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
            entry["metrics"][name] = verdict(
                values["base"], values["head"], metric["better"], metric["bound"]
            )
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the parent revision")
    parser.add_argument("head", help="the revision measured against it")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeat for several; all by default")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in zip(SIDES, (args.base, args.head))}
    bench_sha = git("rev-parse", "--verify", "HEAD^{commit}")
    out = args.out / f"BENCH_{args.label}.json"
    record = {
        "label": args.label,
        "base": {"rev": args.base, "sha": shas["base"]},
        "head": {"rev": args.head, "sha": shas["head"]},
        "benchmark_sha": bench_sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "runs": [],
        "summary": {},
    }
    work = Path(tempfile.mkdtemp(prefix="bench_ab-"))
    try:
        for side in SIDES:
            checkout(shas[side], ["src"], work / side)
            checkout(bench_sha, ["perfbench"], work / side)
        for workload in args.workload or workloads:
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    print(f"{workload} pair {pair + 1}/{args.pairs}: {side}", file=sys.stderr)
                    run = run_once(work / side, workload, args.seed, args.seconds)
                    record["runs"].append(
                        {"workload": workload, "pair": pair, "side": side, "position": position, **run}
                    )
                    record["summary"] = summarize(record["runs"], benchmark["end_to_end"])
                    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for workload, entry in record["summary"].items():
        print(f"{workload}: all correct {entry['all_correct']}, {entry['complete_pairs']} pairs")
        for name, m in entry["metrics"].items():
            gap = "n/a" if m["relative_gap"] is None else f"{m['relative_gap']:+.1%}"
            print(f"  {name}: {m['base']['median']:.4g} -> {m['head']['median']:.4g} ({gap}), "
                  f"wins {m['wins']}/{m['pairs']}, IQR/median {m['base']['iqr_share']:.1%} "
                  f"and {m['head']['iqr_share']:.1%}: {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
