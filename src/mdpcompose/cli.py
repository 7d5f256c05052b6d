"""Command-line entry point for the full pipeline.

Subcommands: ingest (scripts -> graph store), derive (log CSV -> graph),
train (store -> embedding TSVs), compose (one policy request), bench
(composer vs DQN metrics) and serve (the HTTP endpoint).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .bench import mean_commit_radius, radius_rows, run_benchmark
from .composer import ComposerConfig, compose, policy_table_json
from .embedding import DESK_SCALE, TrainConfig, build_vocabulary, export_tsv, train
from .errors import (
    ActivityTerminatedError,
    CompositionFailureError,
    GraphValidationError,
    RuleSyntaxError,
    SchemaError,
    StartupError,
    StepLimitExceededError,
    TrainingDivergenceError,
    TurtleSyntaxError,
    UnknownEntityError,
    UnknownSituationError,
)
from .hmm import fit_hmm, hmm_to_kg, read_log_csv
from .service import BadRequest, resolve_policy_request, serve
from .space import load_tsv
from .store import load_store, save_store
from .turtle_io import write_turtle
from .vhome import load_corpus, script_to_kg

log = logging.getLogger(__name__)


def _embedding_paths(prefix: str) -> tuple[Path, Path]:
    return Path(f"{prefix}.vectors.tsv"), Path(f"{prefix}.metadata.tsv")


def _load_space(prefix: str):
    vectors, metadata = _embedding_paths(prefix)
    return load_tsv(vectors, metadata)


def _cmd_ingest(args) -> int:
    corpus = load_corpus(args.directory)
    if not corpus.scripts:
        print("no scripts found", file=sys.stderr)
        return 1
    graphs = {s.activity_name: script_to_kg(s) for s in corpus.scripts}
    written = save_store(graphs, args.out)
    histogram = corpus.length_histogram()
    print(f"ingested {len(written)} activities into {args.out}")
    print("sequence length histogram: " + json.dumps(histogram, sort_keys=True))
    if corpus.skipped_files:
        print(f"skipped {len(corpus.skipped_files)} unreadable files", file=sys.stderr)
    return 0


def _cmd_derive(args) -> int:
    rows = read_log_csv(args.csv)
    model = fit_hmm(rows)
    graph = hmm_to_kg(model, activity_name=args.name)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(write_turtle(graph), encoding="utf-8")
    print(f"derived activity {args.name!r} with {len(model.states)} states -> {out}")
    return 0


def _cmd_train(args) -> int:
    graphs = load_store(args.store).graphs
    vocab = build_vocabulary(graphs)
    if args.config:
        cfg = TrainConfig.from_file(args.config)
    else:
        scale = {} if args.full_scale else DESK_SCALE
        cfg = TrainConfig(dimension=args.dim, rng_seed=args.seed, **scale)
    overrides = {
        "iterations": args.iterations,
        "epochs_per_iteration": args.epochs,
        "batch_size": args.batch,
    }
    # replace() builds a new config, so the overrides are validated too.
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    table = train(graphs, vocab, cfg)
    vectors, metadata = _embedding_paths(args.out)
    export_tsv(table, vocab, vectors, metadata)
    loss_note = (
        f"; final mean loss {table.loss_history[-1]}" if table.loss_history else ""
    )
    print(
        f"trained {len(vocab)} embeddings (d={cfg.dimension}, "
        f"{cfg.iterations} iterations){loss_note}"
    )
    print(f"wrote {vectors} and {metadata}")
    return 0


def _cmd_compose(args) -> int:
    store = load_store(args.store)
    space = _load_space(args.embeddings)
    request_text = args.state
    if request_text.startswith("@"):
        request_text = Path(request_text[1:]).read_text(encoding="utf-8")
    try:
        body = json.loads(request_text)
    except json.JSONDecodeError as exc:
        print(f"bad --state JSON: {exc}", file=sys.stderr)
        return 1
    graph, state = resolve_policy_request(store, body)
    cfg = ComposerConfig(max_distance=args.max_distance)
    table, _trace = compose(graph, space, state, cfg)
    print(policy_table_json(table))
    return 0


def _cmd_bench(args) -> int:
    store = load_store(args.store)
    space = _load_space(args.embeddings)
    caps = [int(c) for c in args.caps.split(",") if c.strip()]
    activities = sorted(store.activities)
    metrics = run_benchmark(store.activities, space, activities, caps, seed=args.seed, out_dir=args.out)
    mean_radius = mean_commit_radius(radius_rows(metrics))
    successes = sum(1 for m in metrics if m.success)
    print(f"wrote {len(metrics)} rows to {args.out} ({successes} successful cells)")
    if mean_radius is not None:
        print(f"mean commit radius: {mean_radius:.4f}")
    return 0


def _cmd_serve(args) -> int:
    bind = args.bind or os.environ.get("MDPCOMPOSE_BIND") or "127.0.0.1:8080"
    serve(args.store, *_embedding_paths(args.embeddings), bind=bind)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdpcompose",
        description="Activity graphs, entity embeddings and policy composition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse activity scripts into a graph store")
    p.add_argument("directory")
    p.add_argument("--out", required=True, help="store directory for .ttl files")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("derive", help="derive an activity graph from a log CSV")
    p.add_argument("csv")
    p.add_argument("--out", required=True, help="output .ttl path")
    p.add_argument("--name", default="DerivedActivity")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("train", help="train entity embeddings over a store")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="TSV path prefix")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument(
        "--full-scale",
        action="store_true",
        help="full training budget (1000x15, batch 1024) instead of desk scale",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("compose", help="compose policies for one observed state")
    p.add_argument("--store", required=True)
    p.add_argument("--embeddings", required=True, help="TSV path prefix")
    p.add_argument("--state", required=True, help='request JSON (or @file)')
    p.add_argument("--max-distance", type=float, default=0.25)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("bench", help="run the composer vs DQN benchmark")
    p.add_argument("--store", required=True)
    p.add_argument("--embeddings", required=True, help="TSV path prefix")
    p.add_argument("--caps", default="1,10,100")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("serve", help="serve the policy composition endpoint")
    p.add_argument("--store", required=True)
    p.add_argument("--embeddings", required=True, help="TSV path prefix")
    p.add_argument("--bind", default=None, help="host:port (default 127.0.0.1:8080)")
    p.set_defaults(func=_cmd_serve)
    return parser


# Errors that bad input or a failing request can raise; any other
# exception is a bug and propagates with its traceback. ValueError stays
# whole because input parsers such as load_tsv and TrainConfig raise it.
_EXPECTED_ERRORS = (
    ActivityTerminatedError,
    BadRequest,
    CompositionFailureError,
    GraphValidationError,
    OSError,
    RuleSyntaxError,
    SchemaError,
    StartupError,
    StepLimitExceededError,
    TrainingDivergenceError,
    TurtleSyntaxError,
    UnknownEntityError,
    UnknownSituationError,
    ValueError,
)


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("MDPCOMPOSE_LOGLEVEL", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _EXPECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
