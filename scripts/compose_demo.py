#!/usr/bin/env python3
"""Single-activity walkthrough: generate the Watch_TV_49 graph, train a
small embedding space over the mini-corpus, compose the policy for the
initial state and print the ranked table plus the per-round trace.

    python scripts/compose_demo.py
"""

import sys

from mdpcompose.composer import compose, policy_table_json
from mdpcompose.embedding import DESK_SCALE, TrainConfig, build_vocabulary, train
from mdpcompose.sample_corpus import corpus_graphs, mini_corpus
from mdpcompose.simulation import initial_state
from mdpcompose.space import space_from_table


def main() -> int:
    corpus = mini_corpus()
    graphs = corpus_graphs(corpus)
    graph_list = [graphs[s.activity_name] for s in corpus.scripts]
    vocab = build_vocabulary(graph_list)
    table = train(graph_list, vocab, TrainConfig(**DESK_SCALE, rng_seed=7))
    space = space_from_table(vocab, table)

    graph = graphs["Watch_TV_49"]
    policy, trace = compose(graph, space, initial_state(graph, "Watch_TV_49"))

    print("policy table:")
    print(policy_table_json(policy))
    print("\nrounds:")
    for k, record in enumerate(trace.rounds):
        chosen = record.chosen or "(radius expanded)"
        print(
            f"  {k:2d}: radius {record.radius:.2f}, "
            f"{len(record.candidates):3d} candidates -> {chosen}"
        )
    print(
        f"\n{trace.steps} rounds, {trace.agent_steps} agent steps, "
        f"{trace.wrong_decisions} penalized, cumulative reward "
        f"{trace.cumulative_reward}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
