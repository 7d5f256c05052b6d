"""pipeline-desk: the offline composer-versus-DQN run on the mini-corpus.

One pass is what ``scripts/run_benchmark.py`` users wait on: desk-scale
training, the TSV export, and ``run_benchmark`` at caps 1, 10 and 100 with
its default worker setting. Set-up builds the corpus graphs; each pass gets
the graphs of a fresh set-up, as a new process would. The seed orders the
activities handed to ``run_benchmark``, which its CSVs do not depend on, so
every pass is checked against digests recorded at the seed commit.
"""

from __future__ import annotations

import hashlib
import random
import resource
import statistics
from pathlib import Path
from time import perf_counter

from mdpcompose import bench, embedding, sample_corpus
from mdpcompose.space import space_from_table

from inputs import CAPS, DESK_TRAIN, FIXED_SEED
from layers import layer_metrics, percentile
from tracing import Recorder

# Set-up takes about 15 ms, so many repeats steady its median.
SETUPS = 20

PINNED_SHA256 = {
    "cumulative_reward.csv": "619733fa26420a6e680c83d19fb011c3576767760fd10ea642b3317c0b9a3457",
    "radius_density.csv": "4ed6d93d6cfd420c474a8b3e7048b177437276ec1a1bfba240ffb769168c0ac3",
    "steps.csv": "b817867485decb78163bb0af58d78120c9a60dfa27f139622573ef0b3e599f14",
    "success_by_length.csv": "a68ab0144f995619a5f2e366a4e971436de87fd634c1ea81e8975fcbe67621f8",
    "wrong_decisions.csv": "541574e7a1f40ce78d492f5f7f6ea13a7bde15b463adfe5f4e4ab53b3206a4ef",
    "embeddings.vectors.tsv": "a9b132e3864859b9f079866282ddac8df4897cb1c8067183bd742b551bc0f15d",
    "embeddings.metadata.tsv": "2acaf98c5e61ff6d50f10fb2b8318948718d832e1f1b6a808d7e03e3999fe34b",
}


def setup():
    corpus = sample_corpus.mini_corpus()
    return corpus, sample_corpus.corpus_graphs(corpus)


def one_pass(corpus, graphs, activities: list[str], out: Path) -> float:
    """Train, export and benchmark; returns the pass wall time. Traced
    functions are called through their modules so that the recorder's
    wrappers apply."""
    out.mkdir(parents=True)
    started = perf_counter()
    graph_list = [graphs[s.activity_name] for s in corpus.scripts]
    vocab = embedding.build_vocabulary(graph_list)
    config = embedding.TrainConfig(**DESK_TRAIN, rng_seed=FIXED_SEED)
    table = embedding.train(graph_list, vocab, config)
    embedding.export_tsv(table, vocab, out / "embeddings.vectors.tsv", out / "embeddings.metadata.tsv")
    space = space_from_table(vocab, table)
    bench.run_benchmark(graphs, space, activities, CAPS, seed=FIXED_SEED, out_dir=out)
    return perf_counter() - started


def mismatched_outputs(out: Path) -> list[str]:
    """Output files whose SHA-256 differs from the pinned digest."""
    return [
        name
        for name, digest in sorted(PINNED_SHA256.items())
        if not (out / name).is_file()
        or hashlib.sha256((out / name).read_bytes()).hexdigest() != digest
    ]


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    names = [s.activity_name for s in sample_corpus.mini_corpus().scripts]
    activities = random.Random(f"pipeline-desk:{seed}").sample(names, len(names))
    setup_times: list[float] = []
    pass_times: list[float] = []
    untraced_times: list[float] = []
    groups: list = []
    mismatches: list[list[str]] = []

    def timed_setup(recorder: Recorder | None):
        started = perf_counter()
        if recorder is None:
            built = setup()
        else:
            with recorder.active(), recorder.region("vhome.ingest"):
                built = setup()
            groups.append([recorder.spans])
        setup_times.append(perf_counter() - started)
        return built

    def checked_pass(built, recorder: Recorder | None) -> float:
        out = work / f"pass-{len(mismatches)}"
        if recorder is None:
            elapsed = one_pass(*built, activities, out)
        else:
            with recorder.active():
                elapsed = one_pass(*built, activities, out)
            groups.append([recorder.spans])
        mismatches.append(mismatched_outputs(out))
        return elapsed

    for _ in range(SETUPS - 1):
        timed_setup(Recorder() if trace else None)
    started = perf_counter()
    if trace:
        # the tracing overhead is a traced pass minus an untraced one
        untraced_times.append(checked_pass(timed_setup(Recorder()), None))
    while True:
        built = timed_setup(Recorder() if trace else None)
        pass_times.append(checked_pass(built, Recorder() if trace else None))
        if perf_counter() - started >= seconds:
            break

    failed = sum(1 for m in mismatches if m)
    result = {
        "attempted": len(mismatches),
        "failed": failed,
        "counts": {"setups": len(setup_times), "passes": len(pass_times), "operations": len(pass_times)},
        "mismatched_outputs": sorted({n for m in mismatches for n in m}),
    }
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "pipeline_s": statistics.median(pass_times),
            "throughput_rps": len(pass_times) / sum(pass_times),
            "latency_p50_ms": 1e3 * statistics.median(pass_times),
            "latency_p95_ms": 1e3 * percentile(pass_times, 95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return result

    overhead = statistics.median(pass_times) - statistics.median(untraced_times)
    values, unsteady = layer_metrics(
        groups,
        {
            "trace.overhead_s": overhead,
            "trace.overhead_share": overhead / statistics.median(untraced_times),
        },
    )
    result["metrics"] = values
    result["unsteady_counts"] = unsteady
    return result
