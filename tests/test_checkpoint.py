import re

import numpy as np
import pytest

from factpool.checkpoint import (
    CheckpointError,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from factpool.config import Config
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


def test_bytes_deterministic_regardless_of_dict_order():
    rng = np.random.default_rng(1)
    a = {"x": rng.standard_normal(3), "y": rng.standard_normal(2)}
    b = {"y": a["y"], "x": a["x"]}
    assert checkpoint_bytes(a, {}, 0, 0) == checkpoint_bytes(b, {}, 0, 0)


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
    train_model(model, prepared, epochs=1)
    path = tmp_path / "trained.ckpt"
    save_model(model, str(path), step=3)
    restored = load_model(str(path))
    assert restored.kind == "pooled"
    assert restored.cfg == model.cfg
    assert restored.relations == model.relations
    assert set(restored.params) == set(model.params)
    for name in model.params:
        assert restored.params[name].tobytes() == model.params[name].tobytes()


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
