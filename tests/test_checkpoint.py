import re

import numpy as np
import pytest
from helpers import rewrite_checkpoint_config

from factpool.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from factpool.config import Config
from factpool.encoders import read_embedding_cache, write_embedding_cache
from factpool.harness_data import tiny_benchmark
from factpool.model import (
    build_encoder,
    create_model,
    load_model,
    prepare_dataset,
    relation_table,
    save_model,
    train_model,
)


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "a.w": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(7),
        "scalar": np.array([3.25]),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config={"d": 4}, seed=5, step=12)
    loaded, header = load_checkpoint(path)
    assert header["seed"] == 5 and header["step"] == 12 and header["config"] == {"d": 4}
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].tobytes() == params[name].tobytes()
        assert loaded[name].shape == params[name].shape


def test_bytes_deterministic_regardless_of_dict_order(tmp_path):
    rng = np.random.default_rng(1)
    a = {"x": rng.standard_normal(3), "y": rng.standard_normal(2)}
    b = {"y": a["y"], "x": a["x"]}
    save_checkpoint(tmp_path / "a.ckpt", a, {}, 0, 0)
    save_checkpoint(tmp_path / "b.ckpt", b, {}, 0, 0)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


# Prefix lengths inside each field of the 218-byte file written below: header
# length, header, tensor count, then name length, name, ndim, shape and data
# of the first tensor and of the last.
@pytest.mark.parametrize("keep", [10, 30, 60, 64, 68, 71, 80, 120, 187, 190, 195, 210, 217])
def test_truncated_checkpoint_names_path(tmp_path, keep):
    path = tmp_path / "cut.ckpt"
    params = {"a.w": np.arange(12.0).reshape(3, 4), "b": np.ones(2)}
    save_checkpoint(path, params, config={"d": 4}, seed=0, step=0)
    data = path.read_bytes()
    assert len(data) == 218
    path.write_bytes(data[:keep])
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: truncated checkpoint")):
        load_checkpoint(path)


# One byte of the file below flipped, at an offset from the start of the
# header JSON or of a tensor name: a byte that is not UTF-8 or not JSON.
@pytest.mark.parametrize(
    "anchor, at, mask, what",
    [
        (b'{"config"', 0, 0x80, "header"),
        (b'{"config"', 2, 0x80, "header"),  # byte 14 of the file
        (b'{"config"', 0, 0x01, "header"),  # '{' -> 'z'
        (b'"seed":0', 7, 0x10, "header"),  # '0' -> ' '
        (b"a.w", 0, 0x80, "tensor name"),
        (b"\x01\x00\x00\x00b", 4, 0xC0, "tensor name"),
    ],
)
def test_corrupt_checkpoint_names_path(tmp_path, anchor, at, mask, what):
    path = tmp_path / "flip.ckpt"
    params = {"a.w": np.arange(12.0).reshape(3, 4), "b": np.ones(2)}
    save_checkpoint(path, params, config={"d": 4}, seed=0, step=0)
    data = bytearray(path.read_bytes())
    offset = data.index(anchor) + at
    data[offset] ^= mask
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: corrupt checkpoint {what}")):
        load_checkpoint(path)


def test_model_checkpoint_restores_everything(tmp_path):
    cfg = Config(L=2, d=16, heads=2, K=1, fusion_mode="early_late",
                 vocab_size=128, max_tokens=48, max_nodes=8, epochs=1, batch_size=4)
    kg, templates, records = tiny_benchmark(seed=4)
    model = create_model(cfg, "pooled", relation_table(kg))
    encoder = build_encoder(model)
    prepared = prepare_dataset(model, kg, templates, encoder, records[:3])
    train_model(model, prepared)
    path = tmp_path / "trained.ckpt"
    save_model(model, str(path), step=3)
    restored = load_model(str(path))
    assert restored.kind == "pooled"
    assert restored.cfg == model.cfg
    assert restored.relations == model.relations
    assert set(restored.params) == set(model.params)
    for name in model.params:
        assert restored.params[name].tobytes() == model.params[name].tobytes()


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_load_model_returns_tensors_in_the_config_dtype(tmp_path, precision):
    # The container stores float64; a load casts back to the model's precision.
    cfg = Config(L=2, d=16, heads=2, vocab_size=64, max_tokens=16, max_nodes=8,
                 precision=precision)
    model = create_model(cfg, "gnn", ["r0", "r1"])
    path = tmp_path / "model.ckpt"
    save_model(model, str(path))
    restored = load_model(str(path))
    assert restored.cfg.precision == precision
    for name, tensor in model.params.items():
        assert restored.params[name].dtype == cfg.dtype, name
        assert restored.params[name].tobytes() == tensor.tobytes(), name


def test_two_training_runs_byte_identical_checkpoints(tmp_path):
    blobs = []
    for run in range(2):
        cfg = Config(L=2, d=16, heads=2, vocab_size=128, max_tokens=48,
                     max_nodes=8, epochs=2, batch_size=4, seed=9)
        kg, templates, records = tiny_benchmark(seed=4)
        model = create_model(cfg, "pooled", relation_table(kg))
        encoder = build_encoder(model)
        prepared = prepare_dataset(model, kg, templates, encoder, records[:4])
        out = tmp_path / f"run{run}"
        train_model(model, prepared, out_dir=str(out))
        blobs.append((out / "final.ckpt").read_bytes())
        assert (out / "epoch_001.ckpt").exists() and (out / "epoch_002.ckpt").exists()
    assert blobs[0] == blobs[1]


def _saved_model(tmp_path):
    cfg = Config(L=2, d=16, heads=2, K=1, fusion_mode="early_late",
                 vocab_size=64, max_tokens=16, max_nodes=8)
    path = tmp_path / "model.ckpt"
    save_model(create_model(cfg, "pooled", ["r0", "r1"]), str(path))
    return path


def _frozen_snapshot_layout(header, params):
    """The retired shared-toy layout: a `frozen.` copy of every trunk tensor."""
    header["config"].update(encoder_kind="shared-toy-encoder")
    trunk = [name for name in params if name.startswith(("tok_emb", "pos_emb", "layer"))]
    params.update({"frozen." + name: params[name].copy() for name in trunk})


def _key_net_layout(header, params):
    """The retired pooling layout: each head's key net as `pool{k}.{w,b}_key{1,2}`."""
    for name in [name for name in params if ".key." in name]:
        head, _, tensor = name.split(".")
        params[f"{head}.{tensor[0]}_key{tensor[1]}"] = params.pop(name)


# Each edit of the header and tensors, and the message naming its first mismatch.
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h, p: h["config"].update(extra=1),
         "checkpoint config fields differ from Config: ['extra']"),
        (lambda h, p: h["config"].pop("seed"),
         "checkpoint config fields differ from Config: ['seed']"),
        (lambda h, p: h["config"].update(heads=3),
         "invalid checkpoint config (width d=16 must be divisible by heads=3)"),
        (lambda h, p: h["config"].update(token_pooling="cls"),
         "invalid checkpoint config (token_pooling=cls needs a cls token; "
         "encoder_kind=hash-bag has none)"),
        (lambda h, p: h["meta"].pop("kind"),
         "model kind None is not one of ('pooled', 'gnn', 'lm')"),
        (lambda h, p: h["meta"].update(kind="foo"),
         "model kind 'foo' is not one of ('pooled', 'gnn', 'lm')"),
        (lambda h, p: h["meta"].pop("relations"), "checkpoint meta needs a relation list"),
        (lambda h, p: h["config"].update(L=1),
         "tensor 'layer2.attn.bk' has shape (16,), a pooled model needs none"),
        (lambda h, p: h["config"].update(L=3),
         "tensor 'layer3.attn.bk' has shape none, a pooled model needs (16,)"),
        (lambda h, p: h["config"].update(vocab_size=32),
         "tensor 'tok_emb' has shape (64, 16), a pooled model needs (32, 16)"),
        (_frozen_snapshot_layout,
         "tensor 'frozen.layer1.attn.bk' has shape (16,), a pooled model needs none"),
        (_key_net_layout, "tensor 'pool0.b_key1' has shape (16,), a pooled model needs none"),
    ],
    ids=["unknown-key", "missing-key", "invalid-config", "cls-hash-bag", "no-kind",
         "unknown-kind", "no-relations", "fewer-layers", "more-layers", "tensor-shape",
         "frozen-snapshot", "key-net-layout"],
)
def test_load_model_checks_header_against_tensors(tmp_path, edit, message):
    path = _saved_model(tmp_path)
    params, header = load_checkpoint(path)
    edit(header, params)
    save_checkpoint(path, params, header["config"], header["seed"], header["step"], header["meta"])
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: {message}")):
        load_model(str(path))


# A gnn's parameter shapes do not depend on its round count, and the rewrite
# trims the embedding tables to the rest, so only the config check can reject these.
@pytest.mark.parametrize(
    "values, message",
    [
        ({"gnn_layers": 0}, "gnn_layers must be positive"),
        ({"gnn_layers": -2}, "gnn_layers must be positive"),
        ({"vocab_size": 4}, "vocab_size must exceed the 4 reserved token ids, got 4"),
        ({"vocab_size": 2}, "vocab_size must exceed the 4 reserved token ids, got 2"),
        ({"max_tokens": 4}, "max_tokens must be at least 5, got 4"),
        # Unchecked, any precision but f64 would load as f32.
        ({"precision": "f16"}, "precision must be 'f64' or 'f32'"),
    ],
    ids=["gnn-layers-0", "gnn-layers-negative", "vocab-reserved-only", "vocab-below-reserved",
         "max-tokens-below-skeleton", "precision-f16"],
)
def test_load_model_rejects_a_config_no_model_can_run(tmp_path, values, message):
    cfg = Config(L=2, d=16, heads=2, vocab_size=64, max_tokens=16, max_nodes=8)
    path = tmp_path / "gnn.ckpt"
    save_model(create_model(cfg, "gnn", ["r0", "r1"]), str(path))
    rewrite_checkpoint_config(path, **values)
    expected = f"{path}: invalid checkpoint config ({message})"
    with pytest.raises(CheckpointError, match=re.escape(expected)):
        load_model(str(path))


@pytest.mark.parametrize("encoder_kind", ["hash-bag", "shared-toy-encoder"])
@pytest.mark.parametrize("kind", ["pooled", "gnn", "lm"])
def test_load_model_draws_no_parameter(tmp_path, monkeypatch, kind, encoder_kind):
    cfg = Config(L=2, d=16, heads=2, K=1, fusion_mode="early_late", vocab_size=64,
                 max_tokens=16, max_nodes=8, encoder_kind=encoder_kind)
    model = create_model(cfg, kind, ["r0", "r1", "r2"])
    path = tmp_path / "model.ckpt"
    save_model(model, str(path))

    def no_generator(*args, **kwargs):
        raise AssertionError("load_model made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded = load_model(str(path))
    assert (loaded.cfg, loaded.kind, loaded.relations) == (cfg, kind, ["r0", "r1", "r2"])
    assert loaded.params.keys() == model.params.keys()
    for name, tensor in model.params.items():
        assert loaded.params[name].tobytes() == tensor.tobytes(), name


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_load_model_rejects_a_non_finite_tensor(tmp_path, value):
    cfg = Config(L=2, d=16, heads=2, vocab_size=64, max_tokens=16, max_nodes=8)
    model = create_model(cfg, "pooled", ["r0", "r1"])
    model.params["fq.b2"][0] = value
    path = tmp_path / "model.ckpt"
    save_model(model, str(path))
    expected = f"{path}: checkpoint tensor 'fq.b2' holds a non-finite value"
    with pytest.raises(CheckpointError, match=re.escape(expected)):
        load_model(str(path))


def test_each_reader_rejects_the_other_kind(tmp_path):
    ckpt = _saved_model(tmp_path)
    cache = tmp_path / "embeddings.bin"
    write_embedding_cache(str(cache), {"a\tr\tb": np.ones(16)}, 16)
    with pytest.raises(CheckpointError, match=re.escape(f"{cache}: not a checkpoint file")):
        load_model(str(cache))
    with pytest.raises(CheckpointError, match=re.escape(f"{ckpt}: not an embedding cache file")):
        read_embedding_cache(str(ckpt))


FIRST, SECOND = "a\tr\tb", "a\tr\tc"


def _two_tensor_file(path, kind):
    """A `kind` file holding FIRST (ones) then SECOND (twos), and its reader."""
    tensors = {FIRST: np.ones(2), SECOND: np.full(2, 2.0)}
    if kind == "checkpoint":
        save_checkpoint(path, tensors, config={}, seed=0, step=0)
        return load_checkpoint
    write_embedding_cache(str(path), tensors, 2)
    return read_embedding_cache


@pytest.mark.parametrize("kind", ["checkpoint", "embedding cache"])
def test_a_repeated_tensor_name_is_rejected(tmp_path, kind):
    # The second entry renamed to the first: a dict would keep only the second copy.
    path = tmp_path / "repeated.bin"
    read = _two_tensor_file(path, kind)
    data = path.read_bytes()
    assert data.count(SECOND.encode()) == 1
    path.write_bytes(data.replace(SECOND.encode(), FIRST.encode()))
    expected = re.escape(f"{path}: {kind} tensor name {FIRST!r} does not sort after {FIRST!r}")
    with pytest.raises(CheckpointError, match=expected):
        read(str(path))


@pytest.mark.parametrize("kind", ["checkpoint", "embedding cache"])
def test_swapped_tensor_names_are_rejected(tmp_path, kind):
    # The two names swapped in place: read by name, each would hold the other's tensor.
    path = tmp_path / "swapped.bin"
    read = _two_tensor_file(path, kind)
    data = bytearray(path.read_bytes())
    assert data.count(FIRST.encode()) == data.count(SECOND.encode()) == 1
    first, second = data.index(FIRST.encode()), data.index(SECOND.encode())
    data[first : first + len(FIRST)] = SECOND.encode()
    data[second : second + len(SECOND)] = FIRST.encode()
    path.write_bytes(data)
    expected = re.escape(f"{path}: {kind} tensor name {FIRST!r} does not sort after {SECOND!r}")
    with pytest.raises(CheckpointError, match=expected):
        read(str(path))
