import argparse
import json
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import rewrite_checkpoint_config

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


def graph_args(root):
    d = root / "data"
    return ["--kg", str(d / "kg.tsv"), "--dataset", str(d / "dataset.jsonl")]


def data_args(root):
    return [*graph_args(root), "--templates", str(root / "data" / "templates.tsv")]


def test_generate_outputs(workspace):
    data = workspace / "data"
    assert (data / "kg.tsv").exists()
    assert (data / "templates.tsv").exists()
    assert len((data / "dataset.jsonl").read_text().splitlines()) == 14


def test_retrieve_and_perturb(workspace):
    out = workspace / "sub"
    run_cli("retrieve", *graph_args(workspace), "--config", str(workspace / "run.cfg"),
            "--count", "4", "--out", str(out))
    lines = (out / "subgraphs.jsonl").read_text().splitlines()
    assert lines and all("virtual_node" in json.loads(l) for l in lines)
    run_cli("perturb", *graph_args(workspace), "--config", str(workspace / "run.cfg"),
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
        expected = fresh.encode_fact_text(fact, verbalize(fact, templates))
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
def test_train_rejects_wrong_cache_file_naming_it(workspace, capsys, kind):
    from factpool import cli
    from factpool.checkpoint import save_checkpoint

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
        expected = (
            f"{path}: retired FPEMC001 embedding cache; rerun `factpool encode` to rebuild it"
        )
    status = cli.main(["train", *data_args(workspace), "--config", str(cfg_path), "--count", "2",
                       "--cache", str(path), "--out", str(workspace / f"train_{kind}")])
    assert status == 1
    assert capsys.readouterr().err == f"factpool: error: {expected}\n"


def test_train_with_a_cache_that_lacks_a_fact_names_cache_and_fact(workspace, capsys):
    from factpool import cli

    common = [*data_args(workspace), "--config", str(workspace / "run.cfg")]
    enc = workspace / "enc_partial"
    assert cli.main(["encode", *common, "--count", "3", "--out", str(enc)]) == 0
    cfg_path = workspace / "external_partial.cfg"
    cfg_path.write_text(
        CONFIG_TEXT.replace("encoder_kind=hash-bag", "encoder_kind=external-file"),
        encoding="utf-8",
    )
    cache = enc / "embeddings.bin"
    status = cli.main(["train", *data_args(workspace), "--config", str(cfg_path), "--count", "8",
                       "--cache", str(cache), "--out", str(workspace / "train_partial")])
    assert status == 1
    err = capsys.readouterr().err
    pattern = (
        f"factpool: error: {re.escape(str(cache))}: embedding cache has no entry for fact "
        r"'\w+\\t\w+\\t\w+'\n"
    )
    assert re.fullmatch(pattern, err), err


GENERATE_DEFAULTS = {
    "--entities": "6000", "--relations": "4", "--questions": "700", "--candidates": "4",
    "--distractor-rate": "0.5", "--kg-fraction": "0.6",
}


@pytest.mark.parametrize(
    "flag, value, shown, message",
    [
        ("--entities", "10", "10",
         "infeasible spec: 700 questions need 5884 entities, only 10 available"),
        ("--relations", "1", "1", "need at least the link relation and one noise relation"),
        ("--kg-fraction", "2", "2.0", "kg_fraction must be in [0, 1]"),
        ("--candidates", "0", "0", "spec counts must be positive"),
        ("--distractor-rate", "1.5", "1.5", "distractor_rate must be in [0, 1]"),
    ],
    ids=["entities", "relations", "kg-fraction", "candidates", "distractor-rate"],
)
def test_generate_spec_the_generator_rejects_is_a_usage_error(
    tmp_path, flag, value, shown, message
):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "factpool", "generate", flag, value, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    flags = " ".join(f"{name} {v}" for name, v in {**GENERATE_DEFAULTS, flag: shown}.items())
    errors = [line for line in proc.stderr.splitlines() if "error" in line]
    assert errors == [f"factpool: error: {flags}: {message}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "question, max_tokens, expected",
    [
        ("?!", 48, "question '?!' has no token; it must be non-empty"),
        (
            "which one of these six words",
            6,
            "question 'which one of these six words' alone needs 10 tokens, "
            "exceeding max_tokens=6",
        ),
    ],
    ids=["no-token", "too-long"],
)
def test_train_question_the_tokenizer_cannot_fit_is_one_error_line(
    workspace, tmp_path, question, max_tokens, expected
):
    dataset = tmp_path / "dataset.jsonl"
    record = json.loads((workspace / "data" / "dataset.jsonl").read_text().splitlines()[0])
    record["question"] = question
    dataset.write_text(json.dumps(record) + "\n", encoding="utf-8")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        CONFIG_TEXT.replace("max_tokens=48", f"max_tokens={max_tokens}"), encoding="utf-8"
    )
    data = workspace / "data"
    proc = subprocess.run(
        [sys.executable, "-m", "factpool", "train", "--kg", str(data / "kg.tsv"),
         "--dataset", str(dataset), "--templates", str(data / "templates.tsv"),
         "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"factpool: error: {expected}\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["generate", "--seed", "-1", "--entities", "7000", "--questions", "10"],
         "factpool generate: error: argument --seed: must be at least 0: '-1'"),
        (["gradcheck", "--seed", "-1"],
         "factpool gradcheck: error: argument --seed: must be at least 0: '-1'"),
        (["gradcheck", "--config", "{cfg}"],
         "factpool: error: --config {cfg}: seed must be non-negative, got -3"),
    ],
    ids=["generate", "gradcheck", "gradcheck-config"],
)
def test_negative_seed_is_a_usage_error(tmp_path, argv, expected):
    cfg = tmp_path / "negative.cfg"
    cfg.write_text(CONFIG_TEXT.replace("seed=0", "seed=-3"), encoding="utf-8")
    argv = [arg.format(cfg=cfg) for arg in argv]
    out = tmp_path / "out"
    if argv[0] == "generate":
        argv += ["--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "factpool", *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if "error" in line] == [
        expected.format(cfg=cfg)
    ]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "run"])
def test_one_candidate_training_question_is_one_error_line(workspace, tmp_path, command):
    lines = (workspace / "data" / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    keep = record["answer_index"]
    record["candidates"] = record["candidates"][keep : keep + 1]
    record["answer_index"] = 0
    if "answer_entities" in record:
        record["answer_entities"] = record["answer_entities"][keep : keep + 1]
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n", encoding="utf-8")
    data = workspace / "data"
    out = tmp_path / "out"
    counts = ["--train-count", "8", "--test-count", "4"] if command == "run" else []
    proc = subprocess.run(
        [sys.executable, "-m", "factpool", command, "--kg", str(data / "kg.tsv"),
         "--dataset", str(dataset), "--templates", str(data / "templates.tsv"),
         "--config", str(workspace / "run.cfg"), *counts, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        f"factpool: error: {dataset}: question {record['question']!r} has one candidate; "
        "training needs at least two\n"
    )
    assert not out.exists()


def _wordless_run(tmp_path, monkeypatch, kind, command, kg_text, templates_text):
    """`factpool <command>` of a `kind` model on two questions whose second
    alone retains the connectors of alpha and beta; returns its exit code
    and the output directory.  A training step fails the test."""
    from factpool import cli
    from factpool import model as model_mod
    from factpool.config import load_config
    from factpool.kg import load_kg

    def no_training(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(model_mod, "batch_backward", no_training)
    kg = tmp_path / "kg.tsv"
    kg.write_text(kg_text, encoding="utf-8")
    templates = tmp_path / "templates.tsv"
    templates.write_text(templates_text, encoding="utf-8")
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(
        json.dumps({"question": "what about alpha", "candidates": ["gamma", "delta"],
                    "answer_index": 0}) + "\n"
        + json.dumps({"question": "what about alpha and beta", "candidates": ["beta", "gamma"],
                      "answer_index": 0}) + "\n",
        encoding="utf-8",
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG_TEXT, encoding="utf-8")
    data = ["--kg", str(kg), "--dataset", str(dataset), "--templates", str(templates)]
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", *data, "--config", str(cfg), "--model", kind, "--out", str(out)]
    elif command == "run":
        argv = ["run", *data, "--config", str(cfg), "--kinds", kind, "--train-count", "1",
                "--test-count", "1", "--out", str(out)]
    elif command == "encode":
        argv = ["encode", *data, "--config", str(cfg), "--out", str(out)]
    else:
        ckpt = tmp_path / f"{kind}.ckpt"
        relations = model_mod.relation_table(load_kg(kg))
        model_mod.save_model(model_mod.create_model(load_config(cfg), kind, relations), str(ckpt))
        argv = ["eval", *data, "--checkpoint", str(ckpt), "--out", str(out)]
    return cli.main(argv), out


@pytest.mark.parametrize("command", ["train", "eval", "run"])
def test_gnn_connector_with_no_word_token_is_one_error_line_before_training(
    tmp_path, capsys, monkeypatch, command
):
    # Only the second question retains `???`, the connector of alpha and beta.
    code, out = _wordless_run(
        tmp_path, monkeypatch, "gnn", command,
        "alpha\tr\t???\n???\tr\tbeta\nalpha\tr\tgamma\n", "r\t{h} r {t}\n",
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "factpool: error: entity '???' has no word token for a gnn node state\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "run", "encode"])
def test_pooled_fact_with_no_word_token_is_one_error_line_before_training(
    tmp_path, capsys, monkeypatch, command
):
    # Only the second question retains both connectors of alpha and beta, so
    # only it induces the `??? s !!!` edge, whose text is '??? !!!'.
    code, out = _wordless_run(
        tmp_path, monkeypatch, "pooled", command,
        "alpha\tr\t???\n???\tr\tbeta\nalpha\tr\t!!!\n!!!\tr\tbeta\n???\ts\t!!!\n"
        "alpha\tr\tgamma\n",
        "r\tr {h} r {t}\ns\t{h} {t}\n",
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"factpool: error: {tmp_path / 'templates.tsv'}: fact '???\\ts\\t!!!' verbalizes "
        "to '??? !!!', which has no word token for a pooled edge vector\n"
    )
    assert not out.exists()


def _bad_input(workspace, name: str):
    """(command args, expected message) for a command given one bad input file."""
    path = workspace / f"bad_{name}"
    d = workspace / "data"
    if name == "checkpoint":
        path.write_bytes(b"not a checkpoint")
        return (["eval", *data_args(workspace), "--checkpoint", str(path)],
                f"{path}: not a checkpoint file")
    files = {"kg": d / "kg.tsv", "dataset": d / "dataset.jsonl", "templates": d / "templates.tsv"}
    if name == "kg":
        path.write_text("winter\tcauses\n", encoding="utf-8")
        expected = f"{path}: malformed line 1: 'winter\\tcauses'"
    elif name == "dataset":
        record = json.loads(files["dataset"].read_text(encoding="utf-8").splitlines()[0])
        record["answer_index"] = 1.7
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        expected = f"{path}: bad record on line 1: field 'answer_index' must be an integer: 1.7"
    else:
        path.write_text("causes {h} {t}\n", encoding="utf-8")
        expected = f"{path}: malformed line 1: 'causes {{h}} {{t}}'"
    files[name] = path
    args = ["--kg", str(files["kg"]), "--dataset", str(files["dataset"]),
            "--templates", str(files["templates"])]
    return ["encode", *args, "--count", "2"], expected


@pytest.mark.parametrize("name", ["kg", "dataset", "templates", "checkpoint"])
def test_bad_input_file_is_a_one_line_error(workspace, capsys, name):
    from factpool import cli

    args, expected = _bad_input(workspace, name)
    assert cli.main([*args, "--out", str(workspace / f"out_bad_{name}")]) == 1
    assert capsys.readouterr().err == f"factpool: error: {expected}\n"


def test_bad_input_file_prints_no_traceback(workspace):
    args, expected = _bad_input(workspace, "kg")
    proc = subprocess.run(
        [sys.executable, "-m", "factpool", *args, "--out", str(workspace / "out_bad_kg")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"factpool: error: {expected}\n"


def test_missing_input_file_is_one_error_line(tmp_path):
    missing = tmp_path / "nope.tsv"
    proc = subprocess.run(
        [sys.executable, "-m", "factpool", "retrieve", "--kg", str(missing),
         "--dataset", str(tmp_path / "d.jsonl"), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"factpool: error: [Errno 2] No such file or directory: '{missing}'\n"


def _untrained_model(tmp_path, encoder_kind="external-file", kind="pooled"):
    """(config path, checkpoint path) of an untrained `kind` model with an
    `encoder_kind` encoder, d=16."""
    from factpool.config import load_config
    from factpool.model import create_model, save_model

    cfg_path = tmp_path / f"{encoder_kind}.cfg"
    cfg_path.write_text(
        CONFIG_TEXT.replace("encoder_kind=hash-bag", f"encoder_kind={encoder_kind}"),
        encoding="utf-8",
    )
    ckpt = tmp_path / f"{kind}-{encoder_kind}.ckpt"
    save_model(create_model(load_config(str(cfg_path)), kind, ["r0"]), str(ckpt))
    return cfg_path, ckpt


def _usage_error_before_any_input(tmp_path, argv, expected):
    """Run `argv` with --kg, --dataset and --templates naming missing files:
    it must exit 2 with one error line, before reading any of them."""
    missing = [str(tmp_path / name) for name in ("kg.tsv", "d.jsonl", "t.tsv")]
    missing = ["--kg", missing[0], "--dataset", missing[1], "--templates", missing[2]]
    proc = subprocess.run(
        [sys.executable, "-m", "factpool", *argv, *missing, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error" in line]
    assert errors == [f"factpool: error: {expected}"]
    assert proc.stderr.endswith(f"factpool: error: {expected}\n")


@pytest.mark.parametrize("command", ["train", "eval", "explain"])
def test_cache_of_another_width_is_a_usage_error(tmp_path, command):
    from factpool.encoders import write_embedding_cache

    cfg_path, ckpt = _untrained_model(tmp_path)
    cache = tmp_path / "w32.bin"
    write_embedding_cache(str(cache), {"a\tr\tb": np.ones(32)}, 32)
    source = ["--config", str(cfg_path)] if command == "train" else ["--checkpoint", str(ckpt)]
    _usage_error_before_any_input(
        tmp_path,
        [command, *source, "--cache", str(cache)],
        f"--cache {cache}: embedding cache width 32 != model width d=16",
    )


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_external_file_checkpoint_without_cache_is_a_usage_error(tmp_path, command):
    _, ckpt = _untrained_model(tmp_path)
    _usage_error_before_any_input(
        tmp_path,
        [command, "--checkpoint", str(ckpt)],
        f"--checkpoint {ckpt}: encoder_kind=external-file needs --cache",
    )


@pytest.mark.parametrize("kind", ["gnn", "lm"])
def test_explain_of_a_model_without_pooling_is_a_usage_error(tmp_path, kind):
    _, ckpt = _untrained_model(tmp_path, "hash-bag", kind)
    _usage_error_before_any_input(
        tmp_path,
        ["explain", "--checkpoint", str(ckpt)],
        f"--checkpoint {ckpt}: explain needs a pooled model, not {kind}",
    )


def test_eval_of_an_external_file_gnn_checkpoint_is_a_usage_error(tmp_path):
    from factpool.encoders import write_embedding_cache

    _, ckpt = _untrained_model(tmp_path, kind="gnn")
    cache = tmp_path / "w16.bin"
    write_embedding_cache(str(cache), {"a\tr\tb": np.ones(16)}, 16)
    _usage_error_before_any_input(
        tmp_path,
        ["eval", "--checkpoint", str(ckpt), "--cache", str(cache)],
        f"--checkpoint {ckpt}: encoder_kind=external-file cannot encode a gnn model's "
        "entity states",
    )


@pytest.mark.parametrize("command", ["train", "eval", "explain"])
def test_cache_the_encoder_does_not_read_is_a_usage_error(tmp_path, command):
    cfg_path, ckpt = _untrained_model(tmp_path, "hash-bag")
    cache = tmp_path / "nonexistent.bin"
    source = ["--config", str(cfg_path)] if command == "train" else ["--checkpoint", str(ckpt)]
    _usage_error_before_any_input(
        tmp_path,
        [command, *source, "--cache", str(cache)],
        f"--cache {cache}: encoder_kind=hash-bag reads no cache",
    )


@pytest.mark.parametrize("command", ["retrieve", "perturb", "encode", "train", "eval"])
def test_empty_dataset_slice_is_a_usage_error(workspace, tmp_path, capsys, command):
    from factpool import cli

    cfg_path, ckpt = _untrained_model(tmp_path, "hash-bag")
    source = ["--checkpoint", str(ckpt)] if command == "eval" else ["--config", str(cfg_path)]
    inputs = graph_args(workspace) if command in ("retrieve", "perturb") else data_args(workspace)
    out = tmp_path / "out"
    dataset = workspace / "data" / "dataset.jsonl"
    # Past the end of the 14 records, and running past it: neither is truncated.
    for skip, count, problem in (("14", "2", "selects no record"),
                                 ("10", "100", "runs past the last record")):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *inputs, *source, "--skip", skip, "--count", count,
                      "--out", str(out)])
        assert exc.value.code == 2
        expected = f"factpool: error: --skip {skip} --count {count} {problem}: {dataset} has 14\n"
        assert capsys.readouterr().err.endswith(expected)
        assert not out.exists()


def test_relation_without_template_names_templates_file_and_fact(workspace, capsys):
    from factpool import cli
    from factpool.synthetic import LINK_RELATION

    path = workspace / "one_relation.tsv"
    path.write_text(f"{LINK_RELATION}\t{{h}} connects with {{t}}\n", encoding="utf-8")
    status = cli.main(["encode", *graph_args(workspace), "--templates", str(path),
                       "--count", "2", "--out", str(workspace / "enc_one_relation")])
    assert status == 1
    err = capsys.readouterr().err
    pattern = (
        f"factpool: error: {re.escape(str(path))}: no template for relation "
        r"'(sits_near_\d+)' \(fact '\w+\\t\1\\t\w+'\)\n"
    )
    assert re.fullmatch(pattern, err), err


def test_eval_of_a_checkpoint_with_an_invalid_config_is_one_error_line(
    workspace, tmp_path, capsys
):
    # each rejected field's message is checked in test_checkpoint.py
    from factpool import cli
    from factpool.config import load_config
    from factpool.kg import load_kg
    from factpool.model import create_model, relation_table, save_model

    ckpt = tmp_path / "gnn.ckpt"
    model = create_model(
        load_config(workspace / "run.cfg"), "gnn", relation_table(load_kg(graph_args(workspace)[1]))
    )
    save_model(model, str(ckpt))
    rewrite_checkpoint_config(ckpt, gnn_layers=0)
    argv = ["eval", *data_args(workspace), "--checkpoint", str(ckpt), "--skip", "10",
            "--count", "4", "--out", str(tmp_path / "eval")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"factpool: error: {ckpt}: invalid checkpoint config (gnn_layers must be positive)\n"
    )


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


@pytest.mark.parametrize("kind", ["pooled", "gnn", "lm"])
def test_gradcheck_cli(workspace, kind):
    stdout = run_cli("gradcheck", "--config", str(workspace / "run.cfg"),
                     "--model", kind, "--max-per-param", "6")
    assert "max_relative_error" in stdout


def test_gradcheck_cli_on_a_one_layer_config(tmp_path):
    cfg = tmp_path / "one_layer.cfg"
    cfg.write_text(CONFIG_TEXT.replace("L=2", "L=1"), encoding="utf-8")
    stdout = run_cli("gradcheck", "--config", str(cfg), "--max-per-param", "3")
    assert "max_relative_error" in stdout


def test_sweep_cli(workspace):
    out = workspace / "sweep"
    stdout = run_cli("sweep", *data_args(workspace), "--config", str(workspace / "run.cfg"),
                     "--axis", "K", "--values", "0,1", "--model", "pooled",
                     "--train-count", "8", "--test-count", "4", "--seeds", "0",
                     "--out", str(out))
    assert "axis=K" in stdout
    assert (out / "sweep_K.txt").exists()


def test_run_cli(workspace):
    from factpool.config import load_config
    from factpool.experiment import ExperimentConfig, run_experiment

    out = workspace / "run"
    stdout = run_cli("run", *data_args(workspace), "--config", str(workspace / "run.cfg"),
                     "--kinds", "pooled,gnn", "--seeds", "0", "--train-count", "8",
                     "--test-count", "4", "--out", str(out))
    summary = (out / "summary.tsv").read_text()
    assert stdout == summary
    lines = summary.splitlines()
    assert lines[0] == "kind\tacc_with_mean\tacc_without_mean\tdelta_acc"
    assert [line.split("\t")[0] for line in lines[1:]] == ["pooled", "gnn"]
    assert not (out / "metrics_lm.txt").exists()
    data = workspace / "data"
    for kind in ("pooled", "gnn"):
        metrics = run_experiment(ExperimentConfig(
            config=load_config(workspace / "run.cfg"),
            kg_path=str(data / "kg.tsv"),
            dataset_path=str(data / "dataset.jsonl"),
            templates_path=str(data / "templates.tsv"),
            train_count=8,
            test_count=4,
            model_kind=kind,
            seeds=(0,),
        ))
        assert (out / f"metrics_{kind}.txt").read_text() == metrics.render()


def test_kg_line_order_does_not_reach_a_run(workspace, tmp_path):
    # A 1-epoch run of every kind on the generated (sorted) kg.tsv and on its
    # lines shuffled writes the same metrics, summary and final checkpoints.
    from factpool import cli

    data = workspace / "data"
    cfg = tmp_path / "one_epoch.cfg"
    cfg.write_text(CONFIG_TEXT.replace("epochs=2", "epochs=1"), encoding="utf-8")
    lines = (data / "kg.tsv").read_text(encoding="utf-8").splitlines()
    np.random.default_rng(0).shuffle(lines)
    shuffled = tmp_path / "kg.tsv"
    shuffled.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert lines != sorted(lines)
    written = []
    for name, kg_path in (("sorted", data / "kg.tsv"), ("shuffled", shuffled)):
        out = tmp_path / name
        assert cli.main([
            "run", "--kg", str(kg_path), "--dataset", str(data / "dataset.jsonl"),
            "--templates", str(data / "templates.tsv"), "--config", str(cfg),
            "--seeds", "0", "--train-count", "8", "--test-count", "4", "--out", str(out),
        ]) == 0
        names = ["summary.tsv"] + [
            name for kind in ("pooled", "gnn", "lm")
            for name in (f"metrics_{kind}.txt", f"{kind}_seed0/final.ckpt")
        ]
        written.append({name: (out / name).read_bytes() for name in names})
    assert written[0] == written[1]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_gradcheck_max_per_param_must_be_positive(capsys, value):
    from factpool import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["gradcheck", f"--max-per-param={value}"])
    assert exc.value.code == 2
    assert "--max-per-param" in capsys.readouterr().err


BAD_EXPERIMENT_FLAGS = [
    ("sweep", "--train-count", "-38"),
    ("sweep", "--train-count", "0"),
    ("sweep", "--test-count", "-1"),
    ("sweep", "--values", "x"),
    ("sweep", "--values", "0,-1"),
    ("sweep", "--values", "1,,2"),
    ("sweep", "--seeds", "x"),
    ("sweep", "--seeds", "-1"),
    ("sweep", "--seeds", ""),
    ("run", "--kinds", "pooled,foo"),
    ("run", "--kinds", "pooled,pooled"),
    ("run", "--kinds", ""),
    ("run", "--seeds", "-1"),
    ("run", "--train-count", "0"),
    ("run", "--test-count", "x"),
]


# Sweep's case ids carry no command name; other commands' ids start with theirs.
@pytest.mark.parametrize(
    "command, flag, value",
    BAD_EXPERIMENT_FLAGS,
    ids=[f"{flag}-{value}" if command == "sweep" else f"{command}-{flag}-{value}"
         for command, flag, value in BAD_EXPERIMENT_FLAGS],
)
def test_bad_sweep_flags_are_usage_errors(capsys, command, flag, value):
    from factpool import cli

    flags = {"--train-count": "8", "--test-count": "4", flag: value}
    extra = ["--axis", "K"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--kg", "kg.tsv", "--dataset", "d.jsonl", *extra,
                  *(f"{name}={text}" for name, text in flags.items())])
    assert exc.value.code == 2
    # The flag's own error, not the usage line, which names every flag.
    assert f"argument {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["sweep", "--axis", "max_nodes", "--values", "0", "--train-count", "8"],
         ["--values", "max_nodes=0"]),
        (["sweep", "--axis", "K", "--values", "3", "--train-count", "8"], ["--values", "K=3"]),
        (["sweep", "--axis", "K", "--values", "1", "--train-count", "40"],
         ["--train-count", "dataset.jsonl"]),
        (["run", "--kinds", "lm", "--train-count", "40"], ["--train-count", "dataset.jsonl"]),
    ],
)
def test_sweep_values_the_config_or_data_reject_are_usage_errors(
    workspace, capsys, flags, named
):
    from factpool import cli

    with pytest.raises(SystemExit) as exc:
        cli.main([*flags, *data_args(workspace), "--config", str(workspace / "run.cfg"),
                  "--test-count", "2", "--out", str(workspace / "bad_sweep")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(text in err for text in named), err
    assert not (workspace / "bad_sweep").exists()


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


def test_config_file_the_parser_rejects_is_usage_error(tmp_path, capsys):
    from factpool import cli

    cfg = tmp_path / "twice.cfg"
    cfg.write_text("L=2\nL=4\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--kg", "kg.tsv", "--dataset", "d.jsonl", "--templates", "t.tsv",
                  "--config", str(cfg), "--train-count", "8", "--test-count", "4"])
    assert exc.value.code == 2
    assert f"--config {cfg}: config line 2 repeats key 'L'" in capsys.readouterr().err


def _runnable(command, encoder, pooling, model, cache) -> bool:
    """Whether `command` can run a config, by the rules the CLI checks first."""
    if pooling == "cls" and encoder == "hash-bag":
        return False  # the hash-bag encoder has no cls token
    if encoder != "external-file" or command in ("retrieve", "perturb", "count-aggs"):
        return True  # these three encode nothing
    return cache and model != "gnn"  # gnn node states need a text encoder


def _config_cases():
    from factpool.config import ENCODER_KINDS, TOKEN_POOLINGS
    from factpool.model import MODEL_KINDS

    for command in ("retrieve", "perturb", "encode", "train", "run", "sweep", "gradcheck",
                    "count-aggs"):
        for encoder in ENCODER_KINDS:
            for pooling in TOKEN_POOLINGS:
                for model in MODEL_KINDS if command == "train" else (None,):
                    for cache in (False, True) if command == "train" else (False,):
                        case = [command, encoder, pooling, model, cache]
                        ids = [command, encoder, pooling, model, "cache" if cache else None]
                        yield pytest.param(*case, id="-".join(i for i in ids if i))


@pytest.mark.parametrize("command, encoder, pooling, model, cache", _config_cases())
def test_config_no_command_can_run_is_rejected_before_any_input(
    tmp_path, capsys, command, encoder, pooling, model, cache
):
    from factpool import cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEXT.replace("encoder_kind=hash-bag", f"encoder_kind={encoder}")
        .replace("token_pooling=mean", f"token_pooling={pooling}"),
        encoding="utf-8",
    )
    missing = {"kg.tsv", "d.jsonl", "t.tsv"}
    argv = [command, "--config", str(cfg)]
    argv += [str(tmp_path / a) if a in missing else a for a in REQUIRED_ARGS[command]]
    argv += {"sweep": ["--values", "0"], "gradcheck": ["--max-per-param", "2"]}.get(command, [])
    argv += ["--model", model] if model else []
    argv += ["--cache", str(tmp_path / "embeddings.bin")] if cache else []
    if not _runnable(command, encoder, pooling, model, cache):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"factpool: error: --config {cfg}: " in capsys.readouterr().err
    elif cache and encoder != "external-file":
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2  # a cache the config's encoder never reads
        cache_path = tmp_path / "embeddings.bin"
        assert f"factpool: error: --cache {cache_path}: " in capsys.readouterr().err
    elif command in ("gradcheck", "count-aggs"):
        assert cli.main(argv) == 0
    else:
        assert cli.main(argv) == 1
        assert "No such file or directory" in capsys.readouterr().err


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


@pytest.mark.parametrize("kind", ["hash-bag", "shared-toy-encoder"])
def test_encode_draws_no_model_parameters(workspace, monkeypatch, kind):
    # `encode` runs only the frozen fact encoder: no model is drawn for it.
    from factpool import cli, model as model_mod

    def no_model(*args, **kwargs):
        raise AssertionError("encode drew a model's parameters")

    monkeypatch.setattr(model_mod, "_init_params", no_model)
    cfg_path = workspace / f"no_model_{kind}.cfg"
    cfg_path.write_text(
        CONFIG_TEXT.replace("encoder_kind=hash-bag", f"encoder_kind={kind}"), encoding="utf-8"
    )
    out = workspace / f"enc_no_model_{kind}"
    assert cli.main(["encode", *data_args(workspace), "--config", str(cfg_path),
                     "--count", "3", "--out", str(out)]) == 0
    assert (out / "embeddings.bin").stat().st_size > 0


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


# Each command and exactly the flags it reads.
COMMAND_FLAGS = {
    "generate": {"--seed", "--out", "--entities", "--relations", "--questions", "--candidates",
                 "--distractor-rate", "--kg-fraction"},
    "retrieve": {"--config", "--out", "--kg", "--dataset", "--skip", "--count"},
    "perturb": {"--config", "--out", "--kg", "--dataset", "--skip", "--count"},
    "encode": {"--config", "--seed", "--out", "--kg", "--dataset", "--templates", "--skip",
               "--count"},
    "train": {"--config", "--seed", "--out", "--kg", "--dataset", "--templates", "--skip",
              "--count", "--model", "--condition", "--cache"},
    "eval": {"--out", "--kg", "--dataset", "--templates", "--skip", "--count", "--checkpoint",
             "--cache"},
    "explain": {"--out", "--kg", "--dataset", "--templates", "--checkpoint", "--question-index",
                "--top-n", "--cache"},
    "run": {"--config", "--seed", "--out", "--kg", "--dataset", "--templates", "--train-count",
            "--test-count", "--seeds", "--kinds"},
    "sweep": {"--config", "--seed", "--out", "--kg", "--dataset", "--templates", "--train-count",
              "--test-count", "--seeds", "--axis", "--values", "--model", "--condition"},
    "gradcheck": {"--config", "--seed", "--model", "--max-per-param"},
    "count-aggs": {"--config", "--nodes"},
}

# The fewest arguments each command parses with.
REQUIRED_ARGS = {
    "generate": [],
    "retrieve": ["--kg", "kg.tsv", "--dataset", "d.jsonl"],
    "perturb": ["--kg", "kg.tsv", "--dataset", "d.jsonl"],
    "encode": ["--kg", "kg.tsv", "--dataset", "d.jsonl", "--templates", "t.tsv"],
    "train": ["--kg", "kg.tsv", "--dataset", "d.jsonl", "--templates", "t.tsv"],
    "eval": ["--kg", "kg.tsv", "--dataset", "d.jsonl", "--templates", "t.tsv",
             "--checkpoint", "m.ckpt"],
    "explain": ["--kg", "kg.tsv", "--dataset", "d.jsonl", "--templates", "t.tsv",
                "--checkpoint", "m.ckpt"],
    "run": ["--kg", "kg.tsv", "--dataset", "d.jsonl", "--templates", "t.tsv",
            "--train-count", "8", "--test-count", "4"],
    "sweep": ["--kg", "kg.tsv", "--dataset", "d.jsonl", "--templates", "t.tsv",
              "--train-count", "8", "--test-count", "4", "--axis", "K"],
    "gradcheck": [],
    "count-aggs": [],
}


def test_each_command_takes_exactly_the_flags_it_reads():
    from factpool import cli

    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert flags == COMMAND_FLAGS
    for name, argv in REQUIRED_ARGS.items():
        assert parser.parse_args([name, *argv]).command == name
        assert callable(getattr(cli, f"cmd_{name.replace('-', '_')}"))


def test_main_runs_the_handler_bound_when_it_is_called(monkeypatch):
    # A tracer wraps a handler by rebinding the module attribute.
    from factpool import cli

    seen = []
    monkeypatch.setattr(cli, "cmd_count_aggs", lambda args: seen.append(args.nodes) or 7)
    assert cli.main(["count-aggs", "--nodes", "4"]) == 7
    assert seen == [[4]]


REMOVED_FLAGS = [
    ("generate", "--config"),
    ("retrieve", "--seed"),
    ("retrieve", "--templates"),
    ("perturb", "--seed"),
    ("perturb", "--templates"),
    ("eval", "--config"),
    ("eval", "--seed"),
    ("explain", "--config"),
    ("explain", "--seed"),
    ("gradcheck", "--out"),
    ("count-aggs", "--seed"),
    ("count-aggs", "--out"),
]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_flag_the_command_does_not_read_is_rejected(capsys, command, flag):
    from factpool import cli

    value = {"--seed": "7", "--config": "run.cfg", "--templates": "t.tsv", "--out": "o"}[flag]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *REQUIRED_ARGS[command], flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encode", "train", "eval", "explain", "run", "sweep"])
def test_templates_is_required_where_facts_are_verbalized(capsys, command):
    from factpool import cli

    argv = REQUIRED_ARGS[command]
    at = argv.index("--templates")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *argv[:at], *argv[at + 2:]])
    assert exc.value.code == 2
    assert "the following arguments are required: --templates" in capsys.readouterr().err


ROOT = Path(__file__).resolve().parent.parent


def _readme_commands() -> list[list[str]]:
    """argv of each `factpool` line in the README's CLI and Experiments code blocks."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for section in re.split(r"^## ", readme, flags=re.M):
        if section.split("\n", 1)[0].strip() not in ("CLI", "Experiments"):
            continue
        for block in re.findall(r"```bash\n(.*?)```", section, flags=re.S):
            for line in block.replace("\\\n", " ").splitlines():
                if line.startswith("factpool "):
                    commands.append(shlex.split(line)[1:])
    return commands


def _readme_scripts() -> list[str]:
    """The path of each `python3 <path>` line in any of the README's code blocks."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [
        shlex.split(line)[1]
        for block in re.findall(r"```bash\n(.*?)```", readme, flags=re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("python3 ")
    ]


def test_readme_commands_parse():
    from factpool import cli

    scripts = _readme_scripts()
    assert scripts and [path for path in scripts if not (ROOT / path).is_file()] == []
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(cli.COMMANDS)
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: factpool {shlex.join(argv)}")
