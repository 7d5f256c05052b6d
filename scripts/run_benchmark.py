#!/usr/bin/env python3
"""End-to-end experiment: build the bundled mini-corpus, train entity
embeddings, run the composer-versus-DQN benchmark and write the metric
CSVs plus a short console summary.

    python scripts/run_benchmark.py --out results/
    python scripts/run_benchmark.py --out results/ --full-scale --caps 1,10,100

Desk-scale training (200 iterations x 5 epochs, batch 256) finishes in a
few seconds; --full-scale switches to the full budget (1000 x 15, batch
1024). DQN cells at cap 100 dominate the runtime on long activities; they
run on one worker process per usable CPU, and timings.json beside the CSVs
records each cell's wall time.
"""

import argparse
import sys
import time
from pathlib import Path

from mdpcompose.bench import ENSEMBLE, mean_commit_radius, radius_rows, run_benchmark
from mdpcompose.embedding import DESK_SCALE, TrainConfig, build_vocabulary, export_tsv, train
from mdpcompose.sample_corpus import corpus_graphs, mini_corpus
from mdpcompose.space import space_from_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory for CSVs")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--caps", default="1,10", help="DQN episode caps")
    parser.add_argument("--full-scale", action="store_true",
                        help="full training budget: 1000x15 iterations, batch 1024")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    caps = [int(c) for c in args.caps.split(",") if c.strip()]

    corpus = mini_corpus()
    graphs = corpus_graphs(corpus)
    graph_list = [graphs[s.activity_name] for s in corpus.scripts]
    print(f"corpus: {len(corpus.scripts)} activities, lengths "
          f"{sorted(len(s.steps) for s in corpus.scripts)}")

    cfg = TrainConfig(rng_seed=args.seed, **({} if args.full_scale else DESK_SCALE))
    vocab = build_vocabulary(graph_list)
    started = time.time()
    table = train(graph_list, vocab, cfg)
    print(f"trained {len(vocab)} embeddings in {time.time() - started:.1f}s "
          f"(loss {table.loss_history[0]:.4f} -> {table.loss_history[-1]:.4f})")
    export_tsv(table, vocab, out / "embeddings.vectors.tsv", out / "embeddings.metadata.tsv")

    space = space_from_table(vocab, table)
    activities = [s.activity_name for s in corpus.scripts]
    started = time.time()
    metrics = run_benchmark(graphs, space, activities, caps, seed=args.seed, out_dir=out)
    print(f"benchmark finished in {time.time() - started:.1f}s; CSVs in {out}")

    ensemble = [m for m in metrics if m.method == ENSEMBLE]
    print(f"\nensemble: {sum(m.success for m in ensemble)}/{len(ensemble)} composed, "
          f"all in {max(m.episodes_used for m in ensemble)} episode(s)")
    for cap in caps:
        rows = [m for m in metrics if m.method == "DQN" and m.episode_cap == cap]
        wins = sum(m.success for m in rows)
        lengths = sorted(m.sequence_length for m in rows if m.success)
        print(f"DQN cap {cap:>3}: {wins}/{len(rows)} learned"
              + (f" (lengths {lengths})" if lengths else ""))

    mean_radius = mean_commit_radius(radius_rows(metrics))
    if mean_radius is not None:
        print(f"mean commit radius over the corpus: {mean_radius:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
