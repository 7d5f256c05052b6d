import json

import pytest

from mdpcompose.cli import main
from mdpcompose.sample_corpus import script_texts


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
