import json
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

CONFIG_TEXT = """\
L=2
d=16
heads=2
K=1
fusion_mode=early_late
max_tokens=48
max_nodes=8
token_pooling=mean
encoder_kind=hash-bag
lr_lm=0.003
lr_graph=0.01
epochs=2
batch_size=4
seed=0
"""


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "factpool", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG_TEXT, encoding="utf-8")
    run_cli(
        "generate", "--entities", "400", "--relations", "3", "--questions", "14",
        "--candidates", "3", "--distractor-rate", "0.5", "--kg-fraction", "0.7",
        "--seed", "3", "--out", str(root / "data"),
    )
    return root


def data_args(root):
    d = root / "data"
    return [
        "--kg", str(d / "kg.tsv"),
        "--dataset", str(d / "dataset.jsonl"),
        "--templates", str(d / "templates.tsv"),
    ]


def test_generate_outputs(workspace):
    data = workspace / "data"
    assert (data / "kg.tsv").exists()
    assert (data / "templates.tsv").exists()
    assert len((data / "dataset.jsonl").read_text().splitlines()) == 14


def test_retrieve_and_perturb(workspace):
    out = workspace / "sub"
    run_cli("retrieve", *data_args(workspace), "--config", str(workspace / "run.cfg"),
            "--count", "4", "--out", str(out))
    lines = (out / "subgraphs.jsonl").read_text().splitlines()
    assert lines and all("virtual_node" in json.loads(l) for l in lines)
    run_cli("perturb", *data_args(workspace), "--config", str(workspace / "run.cfg"),
            "--count", "4", "--out", str(out))
    perturbed = (out / "subgraphs_perturbed.jsonl").read_text().splitlines()
    assert len(perturbed) == len(lines)


def test_encode_writes_cache(workspace):
    out = workspace / "enc"
    run_cli("encode", *data_args(workspace), "--config", str(workspace / "run.cfg"),
            "--count", "4", "--out", str(out))
    assert (out / "embeddings.bin").stat().st_size > 20


def test_encode_incremental_matches_one_pass(workspace, monkeypatch):
    from factpool import cli, encoders

    writes = []

    def counting_write(*args, **kwargs):
        writes.append(args[0])
        return encoders.write_embedding_cache(*args, **kwargs)

    monkeypatch.setattr(cli, "write_embedding_cache", counting_write)
    common = [*data_args(workspace), "--config", str(workspace / "run.cfg")]

    def encode(count, out):
        before = len(writes)
        assert cli.main(["encode", *common, "--count", str(count), "--out", str(out)]) == 0
        return len(writes) - before

    grown = workspace / "enc_grown"
    assert encode(3, grown) == 1
    assert encode(6, grown) == 1
    assert encode(6, grown) == 0  # nothing new to add
    one_pass = workspace / "enc_one_pass"
    assert encode(6, one_pass) == 1
    assert (grown / "embeddings.bin").read_bytes() == (one_pass / "embeddings.bin").read_bytes()


def test_encode_toy_encoder_cache_matches_fresh_encoder(workspace):
    from factpool import cli
    from factpool.config import load_config
    from factpool.encoders import read_embedding_cache
    from factpool.kg import Fact, load_kg
    from factpool.model import build_encoder, create_model, relation_table
    from factpool.verbalize import load_templates, verbalize

    cfg_path = workspace / "toy.cfg"
    cfg_path.write_text(
        CONFIG_TEXT.replace("encoder_kind=hash-bag", "encoder_kind=shared-toy-encoder"),
        encoding="utf-8",
    )
    common = [*data_args(workspace), "--config", str(cfg_path)]
    grown, one_pass = workspace / "toy_grown", workspace / "toy_one_pass"
    for count, out in ((3, grown), (6, grown), (6, one_pass)):
        assert cli.main(["encode", *common, "--count", str(count), "--out", str(out)]) == 0
    data = (one_pass / "embeddings.bin").read_bytes()
    assert (grown / "embeddings.bin").read_bytes() == data

    entries, dim = read_embedding_cache(str(one_pass / "embeddings.bin"))
    kg = load_kg(str(workspace / "data" / "kg.tsv"))
    templates = load_templates(str(workspace / "data" / "templates.tsv"))
    fresh = build_encoder(create_model(load_config(str(cfg_path)), "pooled", relation_table(kg)))
    assert entries and dim == fresh.dim
    for key, vec in entries.items():
        fact = Fact(*key.split("\t"))
        expected = fresh.encode_fact_text(fact, verbalize(fact, templates).text)
        assert vec.tobytes() == expected.tobytes(), key


def _fpemc001_bytes(key: str, vec) -> bytes:
    """A one-entry cache in the retired record layout."""
    encoded = key.encode("utf-8")
    return (
        b"FPEMC001" + struct.pack("<IQ", len(vec), 1)
        + struct.pack("<I", len(encoded)) + encoded
        + struct.pack("<I", len(vec)) + vec.tobytes()
    )


@pytest.mark.parametrize("kind", ["checkpoint", "FPEMC001"])
def test_train_rejects_wrong_cache_file_naming_it(workspace, kind):
    from factpool import cli
    from factpool.checkpoint import CheckpointError, save_checkpoint

    cfg_path = workspace / "external.cfg"
    cfg_path.write_text(
        CONFIG_TEXT.replace("encoder_kind=hash-bag", "encoder_kind=external-file"),
        encoding="utf-8",
    )
    path = workspace / f"{kind}.bin"
    if kind == "checkpoint":
        save_checkpoint(path, {"b": np.ones(16)}, config={}, seed=0, step=0)
        expected = f"{path}: not an embedding cache file"
    else:
        path.write_bytes(_fpemc001_bytes("a\tr\tb", np.ones(16)))
        expected = f"{path}: retired FPEMC001 embedding cache; rerun `factpool encode`"
    with pytest.raises(CheckpointError, match=re.escape(expected)):
        cli.main(["train", *data_args(workspace), "--config", str(cfg_path), "--count", "2",
                  "--cache", str(path), "--out", str(workspace / f"train_{kind}")])


def test_train_eval_explain_roundtrip(workspace):
    out = workspace / "train"
    run_cli("train", *data_args(workspace), "--config", str(workspace / "run.cfg"),
            "--model", "pooled", "--count", "10", "--out", str(out))
    final = out / "final.ckpt"
    assert final.exists() and (out / "loss_curve.txt").exists()

    eval_out = workspace / "eval"
    run_cli("eval", *data_args(workspace), "--checkpoint", str(final),
            "--skip", "10", "--count", "4", "--out", str(eval_out))
    text = (eval_out / "eval.txt").read_text()
    assert "acc_with_answers=" in text and "delta_acc=" in text

    explain_out = workspace / "explain"
    stdout = run_cli("explain", *data_args(workspace), "--checkpoint", str(final),
                     "--question-index", "0", "--top-n", "2", "--out", str(explain_out))
    assert "fusion layer k=0" in stdout
    assert (explain_out / "explain.txt").exists()


def test_count_aggs(workspace):
    stdout = run_cli("count-aggs", "--config", str(workspace / "run.cfg"), "--nodes", "4,6")
    assert "pooled K=1 -> 2 aggregations" in stdout
    assert "gnn L_g=2 -> 8 node updates" in stdout


def test_count_aggs_nodes_dedup_by_value(capsys):
    from factpool import cli

    assert cli.main(["count-aggs", "--nodes", "16,4,04,16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["|V_q|=4", "|V_q|=16"]


@pytest.mark.parametrize("nodes", ["4,x", "4,,16", "", "0", "4,-1", "2.5"])
def test_count_aggs_bad_nodes_is_usage_error(capsys, nodes):
    from factpool import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["count-aggs", f"--nodes={nodes}"])
    assert exc.value.code == 2
    assert "--nodes" in capsys.readouterr().err


def test_gradcheck_cli(workspace):
    stdout = run_cli("gradcheck", "--config", str(workspace / "run.cfg"),
                     "--model", "pooled", "--max-per-param", "6")
    assert "max_relative_error" in stdout


def test_sweep_cli(workspace):
    out = workspace / "sweep"
    stdout = run_cli("sweep", *data_args(workspace), "--config", str(workspace / "run.cfg"),
                     "--axis", "K", "--values", "0,1", "--model", "pooled",
                     "--train-count", "8", "--test-count", "4", "--seeds", "0",
                     "--out", str(out))
    assert "axis=K" in stdout
    assert (out / "sweep_K.txt").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("retrieve", "--skip", "-1"),
        ("retrieve", "--count", "-1"),
        ("perturb", "--count", "0"),
        ("encode", "--skip", "x"),
        ("train", "--count", "-3"),
        ("eval", "--skip", "-2"),
        ("explain", "--question-index", "-1"),
        ("explain", "--top-n", "0"),
        ("explain", "--top-n", "-2"),
    ],
)
def test_bad_slice_flags_are_usage_errors(capsys, command, flag, value):
    from factpool import cli

    extra = ["--checkpoint", "none.ckpt"] if command in ("eval", "explain") else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--kg", "kg.tsv", "--dataset", "d.jsonl", *extra, f"{flag}={value}"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_explain_question_index_out_of_range_is_usage_error(workspace, capsys):
    from factpool import cli

    out = workspace / "train_explain"
    run_cli("train", *data_args(workspace), "--config", str(workspace / "run.cfg"),
            "--count", "4", "--out", str(out))
    with pytest.raises(SystemExit) as exc:
        cli.main(["explain", *data_args(workspace), "--checkpoint", str(out / "final.ckpt"),
                  "--question-index", "14", "--out", str(workspace / "explain_oob")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--question-index 14 is out of range" in err and "has 14 questions" in err


def test_encode_into_cache_of_another_width_is_a_usage_error(workspace, capsys):
    from factpool import cli

    out = workspace / "enc_width"
    cache = out / "embeddings.bin"
    common = [*data_args(workspace), "--out", str(out)]
    assert cli.main(["encode", *common, "--config", str(workspace / "run.cfg"),
                     "--count", "3"]) == 0
    before = cache.read_bytes()
    wide = workspace / "wide.cfg"
    wide.write_text(CONFIG_TEXT.replace("d=16", "d=32"), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["encode", *common, "--config", str(wide), "--count", "6"])
    assert exc.value.code == 2
    assert f"{cache}: embedding cache width 16 != config width d=32" in capsys.readouterr().err
    assert cache.read_bytes() == before


def test_eval_retrieves_each_statement_once(workspace, monkeypatch):
    from factpool import cli, model as model_mod
    from factpool.data import load_dataset

    train_out = workspace / "train_once"
    assert cli.main(["train", *data_args(workspace), "--config", str(workspace / "run.cfg"),
                     "--count", "4", "--out", str(train_out)]) == 0
    calls = []
    real_retrieve = model_mod.retrieve_subgraph

    def retrieve(*args, **kwargs):
        calls.append(args[1])
        return real_retrieve(*args, **kwargs)

    monkeypatch.setattr(model_mod, "retrieve_subgraph", retrieve)
    assert cli.main(["eval", *data_args(workspace), "--checkpoint",
                     str(train_out / "final.ckpt"), "--skip", "4", "--count", "5",
                     "--out", str(workspace / "eval_once")]) == 0
    records = load_dataset(workspace / "data" / "dataset.jsonl")[4:9]
    assert len(calls) == sum(len(r.candidates) for r in records)
