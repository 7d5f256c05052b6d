"""Per-layer metrics from recorded spans.

Spans arrive in groups: one group per set-up and one per timed pass. A
group is a list of span lists, one per recording process, because span ids
are unique only within one recorder. Layer totals are summed per group and
reported as the median over the groups that ran the layer; per-call
timings pool every call; counts are per group and must repeat exactly
across the groups that have them. A layer a workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from tracing import ATTRS, END, ID, NAME, PARENT, START, self_times

# (metric, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("vhome.ingest_s", "s", "lower"),
    ("store.load_s", "s", "lower"),
    ("kg.validate_s", "s", "lower"),
    ("store.recognize_across_ms_p50", "ms", "lower"),
    ("store.recognize_across_ms_p95", "ms", "lower"),
    ("store.recognize_across_calls", "count", "lower"),
    ("store.graphs_scanned", "count", "lower"),
    ("store.graph_of_state_ms", "ms", "lower"),
    ("store.graph_of_state_calls", "count", "lower"),
    ("embedding.train_s", "s", "lower"),
    ("embedding.generate_batch_s", "s", "lower"),
    ("embedding.positive_pairs_s", "s", "lower"),
    ("embedding.batch_loss_and_grad_s", "s", "lower"),
    ("embedding.batch_loss_and_grad_calls", "count", "lower"),
    ("embedding.export_tsv_s", "s", "lower"),
    ("space.load_tsv_s", "s", "lower"),
    ("space.find_closest_actions_us_p50", "us", "lower"),
    ("space.find_closest_actions_us_p95", "us", "lower"),
    ("space.find_closest_actions_calls", "count", "lower"),
    ("space.candidates_per_call", "count", "lower"),
    ("simulation.step_us", "us", "lower"),
    ("simulation.steps", "count", "lower"),
    ("simulation.make_simulation_us", "us", "lower"),
    ("simulation.recognize_state_us", "us", "lower"),
    ("composer.compose_ms_p50", "ms", "lower"),
    ("composer.compose_ms_p95", "ms", "lower"),
    ("composer.self_ms", "ms", "lower"),
    ("composer.rounds", "count", "lower"),
    ("composer.agent_steps", "count", "lower"),
    ("composer.wrong_decisions", "count", "lower"),
    ("composer.radius_expansions", "count", "lower"),
    ("composer.commit_ratio", "ratio", "higher"),
    ("composer.resimulated_share", "ratio", "lower"),
    ("dqn.train_dqn_s.cap1", "s", "lower"),
    ("dqn.train_dqn_s.cap10", "s", "lower"),
    ("dqn.train_dqn_s.cap100", "s", "lower"),
    ("dqn.env_steps", "count", "lower"),
    ("dqn.td_loss_and_grads_us", "us", "lower"),
    ("dqn.td_loss_and_grads_calls", "count", "lower"),
    ("dqn.evaluate_greedy_ms", "ms", "lower"),
    ("dqn.evaluate_greedy_calls", "count", "lower"),
    ("bench.wall_s", "s", "lower"),
    ("bench.cell_busy_s", "s", "lower"),
    ("bench.busy_share", "ratio", "lower"),
    ("bench.cells", "count", "lower"),
    ("bench.write_csv_files_ms", "ms", "lower"),
    ("service.policies_for_ms", "ms", "lower"),
    ("service.resolve_policy_request_ms", "ms", "lower"),
    ("service.http_overhead_ms", "ms", "lower"),
    ("service.status_200", "count", "higher"),
    ("service.status_400", "count", "lower"),
    ("service.status_422", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

# Counts a deterministic program repeats exactly in every pass.
EXACT = [
    "composer.rounds",
    "composer.agent_steps",
    "composer.wrong_decisions",
    "composer.radius_expansions",
    "composer.resimulated",
    "dqn.env_steps",
    "simulation.steps",
    "store.graphs_scanned",
    "store.recognize_across_calls",
    "space.find_closest_actions_calls",
]

# Layer totals in seconds: metric -> span.
TOTALS = {
    "vhome.ingest_s": "vhome.ingest",
    "store.load_s": "store.load_store",
    "kg.validate_s": "kg.validate",
    "embedding.train_s": "embedding.train",
    "embedding.positive_pairs_s": "embedding.positive_pairs",
    "embedding.batch_loss_and_grad_s": "embedding.batch_loss_and_grad",
    "embedding.export_tsv_s": "embedding.export_tsv",
    "space.load_tsv_s": "space.load_tsv",
    "bench.wall_s": "bench.run_benchmark",
    "bench.write_csv_files_s": "bench.write_csv_files",
}

CALLS = {
    "store.recognize_across_calls": "store.recognize_across",
    "store.graph_of_state_calls": "store.graph_of_state",
    "embedding.batch_loss_and_grad_calls": "embedding.batch_loss_and_grad",
    "space.find_closest_actions_calls": "space.find_closest_actions",
    "simulation.steps": "simulation.step",
    "dqn.td_loss_and_grads_calls": "dqn.td_loss_and_grads",
    "dqn.evaluate_greedy_calls": "dqn.evaluate_greedy",
}

# (metric, span, percentile, scale to the metric's unit)
PER_CALL = [
    ("store.recognize_across_ms_p50", "store.recognize_across", 50, 1e3),
    ("store.recognize_across_ms_p95", "store.recognize_across", 95, 1e3),
    ("store.graph_of_state_ms", "store.graph_of_state", 50, 1e3),
    ("space.find_closest_actions_us_p50", "space.find_closest_actions", 50, 1e6),
    ("space.find_closest_actions_us_p95", "space.find_closest_actions", 95, 1e6),
    ("simulation.step_us", "simulation.step", 50, 1e6),
    ("simulation.make_simulation_us", "simulation.make_simulation", 50, 1e6),
    ("simulation.recognize_state_us", "simulation.recognize_state", 50, 1e6),
    ("composer.compose_ms_p50", "composer.compose", 50, 1e3),
    ("composer.compose_ms_p95", "composer.compose", 95, 1e3),
    ("dqn.td_loss_and_grads_us", "dqn.td_loss_and_grads", 50, 1e6),
    ("dqn.evaluate_greedy_ms", "dqn.evaluate_greedy", 50, 1e3),
    ("service.policies_for_ms", "service.policies_for", 50, 1e3),
    ("service.resolve_policy_request_ms", "service.resolve_policy_request", 50, 1e3),
]

CELLS = ("composer.compose", "dqn.train_dqn")
COMPOSE_COUNTS = ("rounds", "agent_steps", "wrong_decisions", "commits", "resimulated")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _duration(span) -> float:
    return span[END] - span[START]


def _group_stats(group: list[list[list]]) -> dict[str, float]:
    """Totals and counts of one group. A key is present only when the
    group ran the layer it measures."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for spans in group:
        by_id = {s[ID]: s for s in spans}
        for span in spans:
            name, attrs = span[NAME], span[ATTRS] or {}
            add(f"total:{name}", _duration(span))
            add(f"calls:{name}", 1)
            if name == "composer.compose":
                for key in COMPOSE_COUNTS:
                    add(f"composer.{key}", attrs.get(key, 0))
            elif name == "dqn.train_dqn":
                add("dqn.env_steps", attrs["env_steps"])
                add(f"dqn.train_dqn_s.cap{attrs['cap']}", _duration(span))
            elif name == "space.find_closest_actions":
                add("candidates", attrs["candidates"])
            elif name == "simulation.recognize_state":
                parent = by_id.get(span[PARENT])
                if parent and parent[NAME] == "store.recognize_across":
                    add("store.graphs_scanned", 1)
        own = self_times(spans, {"embedding.generate_batch"})
        if own:
            add("embedding.generate_batch_s", sum(own.values()))
    for metric, span in {**TOTALS, **CALLS}.items():
        kind = "calls" if metric in CALLS else "total"
        if f"calls:{span}" in out:
            out[metric] = out[f"{kind}:{span}"]
    if "composer.rounds" in out:
        out["composer.radius_expansions"] = out["composer.rounds"] - out["composer.commits"]
    if "bench.wall_s" in out:
        out["bench.cell_busy_s"] = sum(out.get(f"total:{c}", 0.0) for c in CELLS)
        out["bench.cells"] = sum(out.get(f"calls:{c}", 0.0) for c in CELLS)
    return out


def layer_metrics(groups: list[list[list[list]]], extra: dict[str, float]) -> tuple[dict, list[str]]:
    """Every per-layer metric of PER_LAYER (plus the raw counts behind
    its ratios), and the exact counts that differed between groups."""
    stats = [_group_stats(g) for g in groups]

    def median_of(key: str) -> float:
        found = [s[key] for s in stats if key in s]
        return statistics.median(found) if found else 0.0

    values = {metric: 0.0 for metric, _unit, _better in PER_LAYER}
    keys = {k for s in stats for k in s if not k.startswith(("total:", "calls:"))}
    for key in keys:
        values[key] = median_of(key)
    values["bench.write_csv_files_ms"] = 1e3 * values.pop("bench.write_csv_files_s", 0.0)

    calls = values["space.find_closest_actions_calls"]
    values["space.candidates_per_call"] = values.get("candidates", 0.0) / calls if calls else 0.0
    agent_steps = values["composer.agent_steps"]
    commits = values.get("composer.commits", 0.0)
    resimulated = values.get("composer.resimulated", 0.0)
    values["composer.commit_ratio"] = commits / agent_steps if agent_steps else 0.0
    values["composer.resimulated_share"] = resimulated / agent_steps if agent_steps else 0.0
    wall = values["bench.wall_s"]
    values["bench.busy_share"] = values["bench.cell_busy_s"] / wall if wall else 0.0

    pooled: dict[str, list[float]] = {}
    compose_self: list[float] = []
    for group in groups:
        for spans in group:
            for span in spans:
                pooled.setdefault(span[NAME], []).append(_duration(span))
            compose_self.extend(self_times(spans, {"composer.compose"}).values())
    for metric, span, q, scale in PER_CALL:
        if span in pooled:
            values[metric] = scale * percentile(pooled[span], q)
    if compose_self:
        values["composer.self_ms"] = 1e3 * statistics.median(compose_self)

    unsteady = [m for m in EXACT if len({s[m] for s in stats if m in s}) > 1]
    values.update(extra)
    return values, unsteady
