#!/usr/bin/env python3
"""Benchmark of the mdpcompose repository.

    python3 perfbench/run.py --workload serve-desk --seed 1 --seconds 15 --trace 0

Workloads: pipeline-desk, serve-desk and serve-scaled (see README.md). The
program under test is imported from ``src/`` next to this directory; the
benchmark stops with exit code 2 when it is missing. The last line of
standard output is the result object; the line before it records the
seed, the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("pipeline-desk", "serve-desk", "serve-scaled")
# Seed reserved for confirming a claimed gain on inputs that no tuning saw.
HELD_OUT_SEED = 7919

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
# The count each end-to-end metric is computed from.
SAMPLES = {
    "setup_s": "setups",
    "pipeline_s": "passes",
    "throughput_rps": "operations",
    "latency_p50_ms": "operations",
    "latency_p95_ms": "operations",
}


def _blas_threads() -> int | None:
    import numpy

    for library in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(library))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    found = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return found.stdout.strip() or None


def _cpu_ticks() -> list[int] | None:
    """The kernel's aggregate CPU tick counters, steal included."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(start: list[int] | None, end: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    readings: on a shared host, the best sign of a noisy run."""
    if not start or not end or len(start) < 8:
        return None
    delta = [b - a for a, b in zip(start, end)]
    return delta[7] / sum(delta) if sum(delta) else None


def pin_to_one_cpu() -> int:
    """Run this process, and the server it spawns, on one CPU; returns it.

    On a shared 2-vCPU host, the wake-ups that cross CPUs between client,
    server and the composer's threads turned hypervisor steal into two- to
    threefold swings of serve latency; on one CPU those swings vanish.
    pipeline-desk stays unpinned: there the thread pools' cost on several
    cores is what users wait on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(nproc: int, cpu: int | None) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": nproc,
        "pinned_cpu": cpu,
        "git_sha": _git_sha(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import pipeline
    import serve

    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / ".work"))
    try:
        if workload == "pipeline-desk":
            return pipeline.run(seed, seconds, trace, work)
        return serve.run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mdpcompose" / "__init__.py").is_file():
        print(f"error: the program is missing: no package at {SRC / 'mdpcompose'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cpu = None if args.workload == "pipeline-desk" else pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER

    # a stopped benchmark still stops the servers it started
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    env = environment(nproc, cpu)
    ticks = _cpu_ticks()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env["cpu_steal_share"] = steal_share(ticks, _cpu_ticks())
    units = {m: u for m, u, _ in PER_LAYER} if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    correct = (
        result["failed"] == 0
        and not result.get("unsteady_counts")
        and result.get("deterministic_exports", True)
        and result.get("reference_digest_ok", True)
    )
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "failed_share": result["failed"] / result["attempted"],
        "samples": {metric: result["counts"][count] for metric, count in SAMPLES.items()},
        **{k: v for k, v in result.items() if k not in ("metrics", "attempted", "failed", "counts")},
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
