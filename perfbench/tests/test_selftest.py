"""Tiny-scale self-test of the benchmark: every workload runs a handful of
operations, a tampered output trips the correctness gate, traced counts
repeat exactly, and the benchmark refuses to run without the program.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import layers
import pipeline
import run
import serve
from mdpcompose import composer
from mdpcompose.composer import compose
from mdpcompose.sample_corpus import corpus_graphs
from mdpcompose.simulation import SimState, initial_features
from mdpcompose.space import space_from_table
from mdpcompose.embedding import TrainConfig, build_vocabulary, train
from tracing import NAME, PARENT, ID, Recorder

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(serve.SETUPS, "serve-desk", 1)
    monkeypatch.setitem(serve.SETUPS, "serve-scaled", 1)
    monkeypatch.setattr(pipeline, "SETUPS", 1)
    monkeypatch.setattr(inputs, "SCALED_ACTIVITIES", 20)


def test_pipeline_pass_matches_pins_and_tampering_trips_the_gate(tiny, tmp_path):
    result = pipeline.run(seed=3, seconds=0, trace=False, work=tmp_path)
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert pipeline.mismatched_outputs(tmp_path / "pass-0") == []
    steps = tmp_path / "pass-0" / "steps.csv"
    tampered = bytearray(steps.read_bytes())
    tampered[-2] ^= 1  # the last digit of the last row
    steps.write_bytes(bytes(tampered))
    assert pipeline.mismatched_outputs(tmp_path / "pass-0") == ["steps.csv"]


@pytest.mark.parametrize("workload", ["serve-desk", "serve-scaled"])
def test_serve_workload_runs_clean(tiny, tmp_path, workload):
    result = serve.run(workload, seed=5, seconds=0, trace=False, work=tmp_path)
    assert result["failed"] == 0
    assert result["attempted"] == 2 * result["requests_per_pass"]
    assert result["deterministic_exports"]
    assert result.get("reference_digest_ok", True)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value in result["metrics"].values())


def test_tampered_response_trips_the_gate(tmp_path):
    texts = inputs.desk_texts()
    sequence = inputs.request_sequence("serve-desk", inputs.parse_corpus(texts), 5)
    _seconds, server = serve.setup(texts, tmp_path / "setup", None, None)
    try:
        graphs = serve.store.load_store(tmp_path / "setup" / "store")
        space = serve.load_tsv(tmp_path / "setup" / "embeddings.vectors.tsv", tmp_path / "setup" / "embeddings.metadata.tsv")
        expected = {r.body: serve.reference(graphs, space, r.body) for r in sequence}
        clean = serve.measure(server.port, sequence, expected, 0)
        body = next(r.body for r in sequence if r.kind == "features-initial")
        status, payload, counts = expected[body]
        expected[body] = (status, payload.replace(b"0.25", b"0.26", 1), counts)
        tampered = serve.measure(server.port, sequence, expected, 0)
    finally:
        server.stop()
    assert clean["failed"] == 0
    assert tampered["failed"] == 2  # the warm-up pass and the timed pass


def test_traced_counts_repeat_and_cover_every_layer(tiny, tmp_path):
    first = serve.run("serve-desk", seed=2, seconds=0, trace=True, work=tmp_path / "a")
    second = serve.run("serve-desk", seed=2, seconds=0, trace=True, work=tmp_path / "b")
    assert first["failed"] == 0 and first["unsteady_counts"] == []
    names = [m for m, _unit, _better in layers.PER_LAYER]
    assert set(names) <= set(first["metrics"])
    for metric in ("composer.rounds", "composer.agent_steps", "composer.resimulated_share", "store.graphs_scanned"):
        assert first["metrics"][metric] == second["metrics"][metric]
    assert first["metrics"]["composer.agent_steps"] > 0
    assert first["metrics"]["service.status_200"] == 48


def test_agent_spans_on_pool_threads_link_to_their_composition():
    graphs = corpus_graphs()
    graph_list = list(graphs.values())
    vocab = build_vocabulary(graph_list)
    table = train(graph_list, vocab, TrainConfig(iterations=20, epochs_per_iteration=2, batch_size=64))
    space = space_from_table(vocab, table)
    graph = graphs["Make_coffee"]
    initial = next(s.name for s in graph.states if s.is_initial_state)
    state = SimState(feature_values=initial_features(graph, "Make_coffee"), state_label=initial)
    recorder = Recorder()
    with recorder.active():
        assert composer.compose is not compose
        composer.compose(graph, space, state)
    assert composer.compose is compose
    by_id = {s[ID]: s for s in recorder.spans}
    steps = [s for s in recorder.spans if s[NAME] == "simulation.step"]
    assert steps
    assert all(by_id[s[PARENT]][NAME] == "composer.compose" for s in steps)


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
