import contextlib
import dataclasses
import io
import json
import logging
import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NAME_ALPHABETS, make_random_graph
from mdpcompose import cli
from mdpcompose.cli import main
from mdpcompose.embedding import DESK_SCALE, EmbeddingTable
from mdpcompose.errors import (
    ActivityTerminatedError,
    StepLimitExceededError,
    TrainingDivergenceError,
)
from mdpcompose.sample_corpus import script_texts
from mdpcompose.store import load_store
from mdpcompose.turtle_io import parse_turtle


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """ingest + desk-scale train once for the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    scripts = root / "scripts"
    scripts.mkdir()
    for k, text in enumerate(script_texts()):
        (scripts / f"activity_{k:02d}.txt").write_text(text)
    store = root / "store"
    assert main(["ingest", str(scripts), "--out", str(store)]) == 0
    emb = root / "embeddings"
    assert (
        main(
            [
                "train", "--store", str(store), "--out", str(emb),
                "--iterations", "60", "--epochs", "3", "--batch", "128",
                "--dim", "24", "--seed", "7",
            ]
        )
        == 0
    )
    return root, store, emb


def test_ingest_writes_one_file_per_activity(pipeline):
    _root, store, _emb = pipeline
    files = sorted(p.name for p in store.glob("*.ttl"))
    assert len(files) == 12
    assert "Watch_TV_49.ttl" in files


def test_ingest_writes_the_good_script_and_skips_the_bad_ones(tmp_path, capsys):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    step = "\n[Walk] <door> (1)\n"
    (scripts / "good.txt").write_text(script_texts()[0])
    (scripts / "escape.txt").write_text("../evil\nx\n" + step)
    (scripts / "unreadable.txt").write_text("Watch TV (evening)!\nx\n" + step)
    (scripts / "dotted.txt").write_text("Dotted\nx\n\n[Walk] <living.room> (1)\n")
    (scripts / "clash.txt").write_text("Clash\nx\n\n[Walk] <x> (1)\n[Walk] <x> (1)\n[Walk] <x_1> (2)\n")
    store = tmp_path / "store"
    assert main(["ingest", str(scripts), "--out", str(store)]) == 0
    assert "skipped 4 files" in capsys.readouterr().err
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.ttl")) == [
        "store/Watch_TV_49.ttl"
    ]
    assert [a.name for g in load_store(store).graphs for a in g.activities] == ["Watch_TV_49"]


def _ingest(tmp_path, texts):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    for k, text in enumerate(texts):
        (scripts / f"{k:02d}.txt").write_text(text)
    store = tmp_path / "store"
    assert main(["ingest", str(scripts), "--out", str(store)]) == 0
    return store


def test_ingest_keeps_every_renamed_duplicate(tmp_path, capsys):
    scripts = [
        "A\nx\n\n[Walk] <door> (1)\n",
        "A\nx\n\n[Find] <cup> (1)\n",
        "A 1\nx\n\n[Sit] <couch> (1)\n",
    ]
    store = _ingest(tmp_path, scripts)
    out, err = capsys.readouterr()
    assert "ingested 3 activities" in out
    assert 'histogram: {"1": 3}' in out
    assert "skipped" not in err
    steps = {a.name: a.actions for g in load_store(store).graphs for a in g.activities}
    assert steps == {"A_1": ["Sit_couch_1"], "A_2": ["Walk_door_1"], "A_3": ["Find_cup_1"]}


def test_ingest_skips_a_script_whose_names_clash_with_the_store(tmp_path, capsys):
    # The second script's action Walk_kitchen_1 is the first's activity; the
    # third's activity is an action that only the skipped second script had.
    scripts = [
        "Walk kitchen 1\nx\n\n[Sit] <couch> (1)\n",
        "Cook\nx\n\n[Open] <fridge> (1)\n[Walk] <kitchen> (1)\n",
        "Open fridge 1\nx\n\n[Find] <cup> (1)\n",
    ]
    store = _ingest(tmp_path, scripts)
    assert "skipped 1 files" in capsys.readouterr().err
    assert sorted(p.name for p in store.glob("*.ttl")) == ["Open_fridge_1.ttl", "Walk_kitchen_1.ttl"]
    out = tmp_path / "emb"
    assert main(["train", "--store", str(store), "--out", str(out), "--iterations", "0", "--dim", "4"]) == 0


def test_ingest_into_a_store_checks_the_graphs_already_there(tmp_path, capsys, caplog):
    store = tmp_path / "store"

    def ingest(run, texts):
        scripts = tmp_path / run
        scripts.mkdir()
        for k, text in enumerate(texts):
            (scripts / f"{k:02d}.txt").write_text(text)
        return main(["ingest", str(scripts), "--out", str(store)])

    cook = "Cook\nx\n\n[Open] <fridge> (1)\n"
    assert ingest("first", ["Walk kitchen 1\nx\n\n[Sit] <couch> (1)\n", cook]) == 0
    before = (store / "Cook.ttl").read_bytes()
    capsys.readouterr()
    # the action Walk_kitchen_1 is an activity of the store; Cook.ttl holds
    # another graph than the new Cook; the same Cook again changes no byte
    texts = [
        "Wash\nx\n\n[Find] <cup> (1)\n[Walk] <kitchen> (1)\n",
        "Cook\nx\n\n[Find] <pan> (1)\n",
        "Sit\nx\n\n[Find] <chair> (1)\n",
    ]
    assert ingest("second", texts) == 0
    assert "skipped 2 files" in capsys.readouterr().err
    assert str(store / "Cook.ttl") in caplog.text
    assert ingest("third", [cook]) == 0
    assert (store / "Cook.ttl").read_bytes() == before
    assert sorted(p.name for p in store.glob("*.ttl")) == ["Cook.ttl", "Sit.ttl", "Walk_kitchen_1.ttl"]
    out = tmp_path / "emb"
    assert main(["train", "--store", str(store), "--out", str(out), "--iterations", "0", "--dim", "4"]) == 0


def test_ingest_that_skips_every_script_says_so(tmp_path, capsys):
    store = tmp_path / "store"
    for run, text in (("first", "Walk kitchen 1\nx\n\n[Sit] <couch> (1)\n"),
                      ("second", "Cook\nx\n\n[Walk] <kitchen> (1)\n")):
        (tmp_path / run).mkdir()
        (tmp_path / run / "script.txt").write_text(text)
    assert main(["ingest", str(tmp_path / "first"), "--out", str(store)]) == 0
    capsys.readouterr()
    # the action Walk_kitchen_1 is an activity of the store
    assert main(["ingest", str(tmp_path / "second"), "--out", str(store)]) == 1
    assert "all 1 scripts skipped" in capsys.readouterr().err
    assert [p.name for p in store.glob("*.ttl")] == ["Walk_kitchen_1.ttl"]


def _run(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(NAME_ALPHABETS), st.data())
def test_a_store_that_ingest_accepts_trains_and_composes(alphabet, data):
    # a few words make every name, so that names collide across scripts: a
    # script named like another's step, two scripts of one name, one step twice
    words = data.draw(st.lists(st.text(alphabet=alphabet, min_size=1, max_size=6), min_size=1, max_size=4))
    word = st.sampled_from(words)
    name = st.one_of(word, st.builds("{} {} {}".format, word, word, st.integers(1, 2)))
    step = st.builds("[{}] <{}> ({})".format, word, word, st.integers(1, 2))
    scripts = data.draw(st.lists(st.tuples(name, st.lists(step, min_size=1, max_size=3)), min_size=1, max_size=4))
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        (root / "scripts").mkdir()
        for k, (title, steps) in enumerate(scripts):
            text = "\n".join([title, "x", "", *steps]) + "\n"
            (root / "scripts" / f"{k:02d}.txt").write_text(text, encoding="utf-8")
        store, emb = root / "store", root / "emb"
        code, err = _run(["ingest", str(root / "scripts"), "--out", str(store)])
        if code == 1:
            assert f"all {len(scripts)} scripts skipped" in err
            return
        assert code == 0
        kept = load_store(store).graphs
        skipped = re.search(r"skipped (\d+) files", err)
        assert len(kept) + (int(skipped[1]) if skipped else 0) == len(scripts)
        train = ["train", "--store", str(store), "--out", str(emb), "--dim", "4"]
        assert _run(train + ["--iterations", "2", "--epochs", "1", "--batch", "8"])[0] == 0
        for graph in kept:
            (activity,) = graph.activities
            initial = next(s for s in activity.states if graph.get(s).is_initial_state)
            state = json.dumps({"stateName": initial})
            compose = ["compose", "--store", str(store), "--embeddings", str(emb), "--state", state]
            assert _run(compose)[0] == 0


def _log_text(features, rows) -> str:
    lines = [",".join(["state,action,reward,next_state", *features])]
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _log_names(alphabet):
    # read_log_csv strips each cell, so draw names that strip to themselves
    return st.text(alphabet=alphabet, min_size=1, max_size=6).filter(lambda s: s == s.strip())


@st.composite
def _logs(draw):
    name = _log_names(draw(st.sampled_from(NAME_ALPHABETS)))
    states = draw(st.lists(name, min_size=1, max_size=3, unique=True))
    actions = draw(st.lists(name, min_size=1, max_size=2, unique=True))
    features = draw(st.lists(name, max_size=2, unique=True))
    row = st.tuples(
        st.sampled_from(states),
        st.sampled_from(actions),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.sampled_from(states),
        *[st.integers(0, 3)] * len(features),
    )
    return draw(st.lists(row, min_size=1, max_size=5)), features, states + actions + features


@settings(max_examples=25, deadline=None)
@given(_logs())
@example(([("S", "go", 1.0, "S")], [], ["S", "go"]))
@example(([("S", "go", 1, "T"), ("T", "go", 1, "S")], [], ["S", "T", "go"]))
def test_a_store_that_derive_accepts_trains_and_composes(log):
    rows, features, words = log
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        csv_path, store, emb = root / "log.csv", root / "store" / "Derived.ttl", root / "emb"
        csv_path.write_text(_log_text(features, rows), encoding="utf-8")
        code, err = _run(["derive", str(csv_path), "--out", str(store), "--name", "Derived"])
        if code == 1:
            assert any(f"{name!r}" in err for name in words), err
            return
        assert code == 0
        train = ["train", "--store", str(store), "--out", str(emb), "--dim", "4"]
        assert _run(train + ["--iterations", "2", "--epochs", "1", "--batch", "8"])[0] == 0
        graph = parse_turtle(store.read_text(encoding="utf-8"))
        (activity,) = graph.activities
        initial = next(s for s in activity.states if graph.get(s).is_initial_state)
        state = json.dumps({"stateName": initial})
        compose = ["compose", "--store", str(store), "--embeddings", str(emb), "--state", state]
        code, err = _run(compose)
        # a derived walk can loop, e.g. A -go-> A or B ties at 0.5 and takes A
        assert code == 0 or "step budget" in err or "no reward-improving action" in err, err


def test_train_warns_once_per_relation_without_negative_pairs(tmp_path, caplog):
    # In the store derived from A -go-> A and A -go-> B every pair of each
    # relation co-occurs: one warning per relation for the whole run, not
    # one per relation and batch.
    csv_path, store, emb = tmp_path / "log.csv", tmp_path / "Loop.ttl", tmp_path / "emb"
    csv_path.write_text(_log_text([], [("A", "go", 1, "A"), ("A", "go", 2, "B")]), encoding="utf-8")
    assert _run(["derive", str(csv_path), "--out", str(store), "--name", "Loop"])[0] == 0
    with caplog.at_level(logging.WARNING):
        assert _run(["train", "--store", str(store), "--out", str(emb)])[0] == 0
    dropped = [r.getMessage() for r in caplog.records if "no negative pair" in r.getMessage()]
    assert len(dropped) == 3


def test_derive_refuses_a_name_it_cannot_write(tmp_path, capsys):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text("state,action,reward,next_state,temp\nS a,go,0.5,S b,1.0\n")
    out = tmp_path / "derived.ttl"
    assert main(["derive", str(csv_path), "--out", str(out)]) == 1
    assert "'S a' is not a Turtle local name" in capsys.readouterr().err
    assert not out.exists()


def test_derive_refuses_a_log_whose_action_is_named_like_a_state(tmp_path, capsys):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text("state,action,reward,next_state,temp\nA,B,0.5,B,1.0\n")
    out = tmp_path / "derived.ttl"
    assert main(["derive", str(csv_path), "--out", str(out)]) == 1
    assert "state and action share the name 'B'" in capsys.readouterr().err
    assert not out.exists()


def test_train_writes_tsv_pair(pipeline):
    _root, _store, emb = pipeline
    vectors = emb.parent / (emb.name + ".vectors.tsv")
    metadata = emb.parent / (emb.name + ".metadata.tsv")
    assert vectors.exists() and metadata.exists()
    assert metadata.read_text().splitlines()[0] == "name\tindex\tconcept"


def test_compose_prints_policy_json(pipeline, capsys):
    _root, store, emb = pipeline
    code = main(
        [
            "compose", "--store", str(store), "--embeddings", str(emb),
            "--state", json.dumps({"stateName": "InitialState_Watch_TV_49"}),
        ]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert document["policies"][0]["rank"] == 1
    assert len(document["policies"][0]["actions"]) == 7


def test_compose_single_file_store(pipeline, capsys):
    _root, store, emb = pipeline
    code = main(
        [
            "compose", "--store", str(store / "Make_coffee.ttl"),
            "--embeddings", str(emb),
            "--state", json.dumps({"stateName": "InitialState_Make_coffee"}),
        ]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(document["policies"][0]["actions"]) == 2


def test_compose_unknown_state_exits_nonzero(pipeline, capsys):
    _root, store, emb = pipeline
    code = main(
        [
            "compose", "--store", str(store), "--embeddings", str(emb),
            "--state", json.dumps({"featureValues": {"Nothing": 1}}),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_zero_iterations(pipeline):
    root, store, _emb = pipeline
    out = root / "zero"
    code = main(
        ["train", "--store", str(store), "--out", str(out), "--iterations", "0", "--dim", "8"]
    )
    assert code == 0
    vectors = (out.parent / (out.name + ".vectors.tsv")).read_text().splitlines()
    assert len(vectors) == 286
    assert all(len(line.split("\t")) == 8 for line in vectors)


@pytest.mark.parametrize(
    "flags, budget",
    [
        ([], DESK_SCALE),
        (["--full-scale"], dict(iterations=1000, epochs_per_iteration=15, batch_size=1024)),
        (["--full-scale", "--epochs", "1"], dict(iterations=1000, epochs_per_iteration=1, batch_size=1024)),
        (["--iterations", "3", "--batch", "8"], dict(iterations=3, epochs_per_iteration=5, batch_size=8)),
        (["--dim", "8", "--seed", "3"], dict(DESK_SCALE, dimension=8, rng_seed=3)),
    ],
)
def test_train_budget_flags_reach_the_config(pipeline, tmp_path, monkeypatch, flags, budget):
    _root, store, _emb = pipeline
    seen = []

    def record(_graphs, vocab, cfg):
        seen.append(cfg)
        return EmbeddingTable(np.zeros((len(vocab), cfg.dimension)))

    monkeypatch.setattr(cli, "train", record)
    assert main(["train", "--store", str(store), "--out", str(tmp_path / "emb"), *flags]) == 0
    (cfg,) = seen
    assert dataclasses.asdict(cfg) == dict(dimension=50, rng_seed=0) | budget


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--batch", "7"], "batch_size must be even"),
        (["--batch", "-2"], "batch_size must be positive"),
        (["--batch", "0"], "batch_size must be positive"),
        (["--iterations", "-3"], "iterations must not be negative"),
        (["--epochs", "-1"], "epochs_per_iteration must not be negative"),
    ],
)
def test_train_rejects_out_of_range_overrides(pipeline, capsys, flags, message):
    root, store, _emb = pipeline
    out = root / "rejected"
    code = main(["train", "--store", str(store), "--out", str(out), "--dim", "8", *flags])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out.parent / (out.name + ".vectors.tsv")).exists()


def test_no_arguments_prints_usage_and_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code != 0
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--bogus"])
    assert exit_info.value.code != 0


def test_missing_file_reports_error(tmp_path, capsys):
    code = main(["ingest", str(tmp_path / "missing"), "--out", str(tmp_path / "store")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_derive_subcommand(tmp_path, capsys):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text(
        "state,action,reward,next_state,temp\n"
        "Cold,heat,0.5,Warm,15.0\n"
        "Warm,heat,1.0,Hot,22.0\n"
        "Cold,heat,0.5,Warm,14.0\n"
    )
    out = tmp_path / "derived.ttl"
    code = main(["derive", str(csv_path), "--out", str(out), "--name", "Heating"])
    assert code == 0
    from mdpcompose.turtle_io import parse_turtle

    graph = parse_turtle(out.read_text())
    assert graph.get("Heating").name == "Heating"
    assert {s.name for s in graph.states} == {"Cold", "Warm", "Hot"}


def test_bench_subcommand(pipeline, capsys):
    root, store, emb = pipeline
    out = root / "bench"
    code = main(
        [
            "bench", "--store", str(store / "Make_coffee.ttl"),
            "--embeddings", str(emb), "--caps", "1", "--out", str(out),
            "--seed", "3",
        ]
    )
    assert code == 0
    assert (out / "steps.csv").exists()
    assert "mean commit radius" in capsys.readouterr().out


def test_bench_refuses_caps_below_one(pipeline, capsys):
    root, store, emb = pipeline
    out = root / "bench-caps"
    code = main(
        [
            "bench", "--store", str(store / "Make_coffee.ttl"),
            "--embeddings", str(emb), "--caps=-1,0", "--out", str(out),
        ]
    )
    assert code == 1
    assert "error: episode caps must be at least 1, got [-1, 0]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bind, env", [("127.0.0.1:70000", None), (None, "127.0.0.1:-1")])
def test_serve_port_outside_the_tcp_range_reports_error(pipeline, capsys, monkeypatch, bind, env):
    _root, store, emb = pipeline
    if env is None:
        monkeypatch.delenv("MDPCOMPOSE_BIND", raising=False)
    else:
        monkeypatch.setenv("MDPCOMPOSE_BIND", env)
    flags = ["--bind", bind] if bind else []
    assert main(["serve", "--store", str(store), "--embeddings", str(emb), *flags]) == 1
    port = (bind or env).rpartition(":")[2]
    assert f"error: port must be in 0-65535, got {port}" in capsys.readouterr().err


def test_serve_startup_failure_reports_error(tmp_path, capsys):
    code = main(
        ["serve", "--store", str(tmp_path / "missing"), "--embeddings", str(tmp_path / "none")]
    )
    assert code == 1
    assert "error: startup failed:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error", [ActivityTerminatedError, StepLimitExceededError, TrainingDivergenceError]
)
def test_typed_runtime_errors_report_error(tmp_path, capsys, monkeypatch, error):
    def fail(_path):
        raise error("expected failure")

    monkeypatch.setattr(cli, "load_store", fail)
    code = main(["train", "--store", str(tmp_path), "--out", str(tmp_path / "emb")])
    assert code == 1
    assert "error: expected failure" in capsys.readouterr().err


def test_bug_in_a_command_propagates(tmp_path, monkeypatch):
    def add_to_a_frozen_graph(_path):
        graph = make_random_graph(random.Random(0))
        graph.add(graph.states[0])

    monkeypatch.setattr(cli, "load_store", add_to_a_frozen_graph)
    with pytest.raises(RuntimeError, match="frozen"):
        main(["train", "--store", str(tmp_path), "--out", str(tmp_path / "emb")])
