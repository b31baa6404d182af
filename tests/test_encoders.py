import re

import numpy as np
import pytest

from oracles import hash_bag_oracle

from factpool.checkpoint import CheckpointError, _container_bytes
from factpool.encoders import (
    _CACHE_MAGIC,
    ENCODE_BATCH,
    FileBackedEncoder,
    HashBagEncoder,
    ToyTrunkEncoder,
    read_embedding_cache,
    write_embedding_cache,
)
from factpool.kg import Fact, text_tokens
from factpool.tokenizer import CLS_ID, Tokenizer
from factpool.transformer import init_trunk_params, trunk_forward


# --- hash-bag ------------------------------------------------------------------


def test_hash_bag_singleton_is_token_vector():
    enc = HashBagEncoder(dim=16, seed=0)
    assert np.array_equal(enc.encode_fact_text(Fact("b", "r", "b"), "bird"), enc.token_vector("bird"))
    assert np.array_equal(enc.encode_texts(["bird"])[0], enc.token_vector("bird"))


def test_hash_bag_mean_of_two_tokens():
    enc = HashBagEncoder(dim=16, seed=0)
    u, v = enc.token_vector("winter"), enc.token_vector("storm")
    got = enc.encode_text("winter storm")
    assert np.allclose(got, (u + v) / 2.0, atol=0)


def test_hash_bag_deterministic_across_instances():
    a = HashBagEncoder(dim=8, seed=3).encode_text("bird migration")
    b = HashBagEncoder(dim=8, seed=3).encode_text("bird migration")
    assert np.array_equal(a, b)


def test_mean_pooling_of_constant_sequence_is_the_constant():
    enc = HashBagEncoder(dim=12, seed=2)
    v = enc.token_vector("echo")
    for text in ("echo echo", "echo echo echo", "echo echo echo echo echo"):
        assert np.allclose(enc.encode_text(text), v, atol=1e-15)


def random_texts(rng, count, vocabulary=12):
    """`count` texts of 1-20 tokens from a small vocabulary, so tokens repeat
    within a text and across texts."""
    words = [f"w{i}" for i in range(vocabulary)]
    return [" ".join(rng.choice(words, size=n)) for n in rng.integers(1, 21, count)]


def test_hash_bag_rows_are_byte_identical_to_the_per_text_mean():
    enc = HashBagEncoder(dim=32, seed=4)
    texts = [*random_texts(np.random.default_rng(0), 200), "echo echo echo", "Bird, bird!"]
    assert {len(text_tokens(text)) for text in texts} == set(range(1, 21))
    got = enc.encode_texts(texts)
    assert got.shape == (len(texts), 32)
    for text, row in zip(texts, got):
        assert row.tobytes() == hash_bag_oracle(enc, text).tobytes(), text


def test_hash_bag_text_encodes_the_same_whatever_shares_its_call():
    rng = np.random.default_rng(1)
    texts = random_texts(rng, 60)
    alone = [HashBagEncoder(dim=16, seed=2).encode_text(text) for text in texts]
    together = HashBagEncoder(dim=16, seed=2).encode_texts(texts)
    order = rng.permutation(len(texts))
    shuffled = HashBagEncoder(dim=16, seed=2).encode_texts([texts[i] for i in order])
    for i, row in zip(order, shuffled):
        assert alone[i].tobytes() == together[i].tobytes() == row.tobytes(), texts[i]


def test_hash_bag_rejects_an_empty_text_by_name():
    enc = HashBagEncoder(dim=8)
    assert enc.encode_texts([]).shape == (0, 8)
    with pytest.raises(ValueError, match=re.escape("cannot encode empty text: '!!'")):
        enc.encode_texts(["bird", "!!", "winter"])
    with pytest.raises(ValueError, match=re.escape("cannot encode empty text: ''")):
        enc.encode_text("")


# --- toy trunk encoder ------------------------------------------------------------


def make_toy_encoder(pooling="mean", seed=0):
    rng = np.random.default_rng(seed)
    params = init_trunk_params(L=2, d=16, vocab_size=128, max_tokens=32, rng=rng)
    return ToyTrunkEncoder(
        params, L=2, heads=2, tokenizer=Tokenizer(128), token_pooling=pooling, max_tokens=32
    )


def test_toy_encoder_deterministic_and_width():
    enc = make_toy_encoder()
    a = enc.encode_text("winter causes bird migration")
    b = enc.encode_text("winter causes bird migration")
    assert a.shape == (16,)
    assert np.array_equal(a, b)


def test_toy_encoder_cls_vs_mean_differ():
    mean_enc = make_toy_encoder("mean")
    cls_enc = make_toy_encoder("cls")
    text = "bird relates to chirp"
    assert not np.allclose(mean_enc.encode_text(text), cls_enc.encode_text(text))


@pytest.mark.parametrize("pooling", ["mean", "cls"])
def test_encode_texts_matches_per_text_encoding(pooling):
    words = ["winter", "bird", "storm", "chirp", "migration", "wing", "cold"]
    rng = np.random.default_rng(5)
    texts = [
        " ".join(rng.choice(words, size=n))
        for n in (1, 2, 3, 3, 5, 8, 2, 3)
        for _ in range(ENCODE_BATCH // 2 + 1)
    ]
    texts += texts[:5]  # duplicates, also of texts already in the call
    # With [CLS], both fill max_tokens=32: the first is cut, the second fits.
    texts += [" ".join(["bird"] * 40), " ".join(["storm"] * 31)]
    # Several token lengths, one of them over more than one chunk.
    assert len({len(t.split()) for t in texts}) > 3
    assert len({t for t in texts if len(t.split()) == 3}) > ENCODE_BATCH
    batched = make_toy_encoder(pooling).encode_texts(texts)
    single = make_toy_encoder(pooling)
    assert len(batched) == len(texts)
    for text, vec in zip(texts, batched):
        assert vec.shape == (16,)
        assert vec.tobytes() == single.encode_text(text).tobytes()
        assert vec.tobytes() == batch1_trunk_encoding(single, text).tobytes()


def batch1_trunk_encoding(enc, text, backward_cache=False):
    """A batch-1 trunk forward over [CLS] + the first max_tokens - 1 token ids."""
    ids = [CLS_ID] + enc.tokenizer.encode_text(text)[: enc.max_tokens - 1]
    seq = np.array([ids], dtype=np.int64)
    cls_row = enc.snapshot["tok_emb"][CLS_ID][None, :]
    states, _ = trunk_forward(
        enc.snapshot, enc.L, enc.heads, seq, np.ones_like(seq, bool), cls_row,
        backward_cache=backward_cache,
    )
    return states[0, 0, :] if enc.token_pooling == "cls" else states[0, 1:, :].mean(axis=0)


@pytest.mark.parametrize("pooling", ["mean", "cls"])
def test_encoder_vectors_byte_equal_to_caching_forward(pooling):
    # The encoder's forwards keep no backward cache; a caching forward of each
    # text gives the same bytes.
    texts = ["winter causes bird migration", "storm relates to cold wing", "bird", "chirp wing"]
    enc = make_toy_encoder(pooling)
    for text, vec in zip(texts, enc.encode_texts(texts)):
        assert vec.tobytes() == batch1_trunk_encoding(enc, text, backward_cache=True).tobytes()


def test_encode_texts_rejects_empty_text(monkeypatch):
    enc = make_toy_encoder()
    monkeypatch.setattr("factpool.encoders.trunk_forward", None)  # neither call runs a forward
    assert enc.encode_texts([]).shape == (0, 16)
    with pytest.raises(ValueError, match="empty text"):
        enc.encode_texts(["bird", "!!"])


# --- the embedding cache ----------------------------------------------------------


def test_cache_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    entries = {f"fact{i}\tr\tt{i}": rng.standard_normal(12) for i in range(5)}
    path = tmp_path / "cache.bin"
    write_embedding_cache(str(path), entries, 12)
    loaded, dim = read_embedding_cache(str(path))
    assert dim == 12
    assert set(loaded) == set(entries)
    for key, vec in entries.items():
        assert vec.tobytes() == loaded[key].tobytes()


def _cache_bytes(tmp_path):
    path = tmp_path / "cache.bin"
    write_embedding_cache(str(path), {"a\tr\tb": np.ones(4), "c\tr\td": np.zeros(4)}, 4)
    return path, path.read_bytes()


def test_cache_round_trip_empty(tmp_path):
    path = tmp_path / "empty.bin"
    write_embedding_cache(str(path), {}, 8)
    assert read_embedding_cache(str(path)) == ({}, 8)


def test_write_cache_rejects_wrong_width(tmp_path):
    path = tmp_path / "cache.bin"
    with pytest.raises(ValueError, match=re.escape("entry 'b' has shape (3,), expected (4,)")):
        write_embedding_cache(str(path), {"a": np.ones(4), "b": np.ones(3)}, 4)
    assert not path.exists()


# Bytes cut from the end of the 131-byte file above, leaving a prefix that
# ends inside: the header length (121), the header (116), the tensor count
# (108), then name length, name, ndim, shape and data of the first tensor
# (104, 100, 95, 90, 60) and of the second (50, 46, 42, 33, 24 .. 1).
@pytest.mark.parametrize(
    "cut", [1, 7, 12, 20, 24, 33, 42, 46, 50, 60, 90, 95, 100, 104, 108, 116, 121]
)
def test_read_cache_truncated_names_path(tmp_path, cut):
    path, data = _cache_bytes(tmp_path)
    assert len(data) == 131
    path.write_bytes(data[: len(data) - cut])
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: truncated embedding cache")):
        read_embedding_cache(str(path))


def test_read_cache_trailing_bytes_names_path(tmp_path):
    path, data = _cache_bytes(tmp_path)
    path.write_bytes(data + b"\0")
    expected = re.escape(f"{path}: trailing bytes after tensor block")
    with pytest.raises(CheckpointError, match=expected):
        read_embedding_cache(str(path))


def test_read_cache_bad_magic_names_path(tmp_path):
    path, data = _cache_bytes(tmp_path)
    path.write_bytes(b"XXXXXXXX" + data[8:])
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: not an embedding cache file")):
        read_embedding_cache(str(path))


# One byte of a fact key flipped so that the key is no longer UTF-8.
@pytest.mark.parametrize("at, mask", [(0, 0x80), (2, 0xC0)])
def test_read_cache_corrupt_key_names_path(tmp_path, at, mask):
    path, data = _cache_bytes(tmp_path)
    flipped = bytearray(data)
    flipped[data.index(b"c\tr\td") + at] ^= mask
    path.write_bytes(bytes(flipped))
    expected = re.escape(f"{path}: corrupt embedding cache tensor name")
    with pytest.raises(CheckpointError, match=expected):
        read_embedding_cache(str(path))


@pytest.mark.parametrize(
    "header", [{}, {"width": 4}, {"dim": 0}, {"dim": -4}, {"dim": 4.0}, {"dim": "4"}, {"dim": True}]
)
def test_read_cache_header_needs_positive_integer_dim(tmp_path, header):
    path = tmp_path / "cache.bin"
    path.write_bytes(_container_bytes(_CACHE_MAGIC, header, {}))
    expected = re.escape(f"{path}: embedding cache header needs a positive integer dim")
    with pytest.raises(CheckpointError, match=expected):
        read_embedding_cache(str(path))


def test_read_cache_entry_width_must_match_header(tmp_path):
    path = tmp_path / "cache.bin"
    entries = {"a\tr\tb": np.ones(4), "c\tr\td": np.ones(3)}
    path.write_bytes(_container_bytes(_CACHE_MAGIC, {"dim": 4}, entries))
    expected = re.escape(f"{path}: entry 'c\\tr\\td' has shape (3,), header width is 4")
    with pytest.raises(CheckpointError, match=expected):
        read_embedding_cache(str(path))


def test_read_cache_rejects_a_non_finite_entry(tmp_path):
    path = tmp_path / "cache.bin"
    entries = {"a\tr\tb": np.ones(2), "c\tr\td": np.array([np.nan, 1.0])}
    write_embedding_cache(str(path), entries, 2)
    expected = re.escape(f"{path}: embedding cache tensor 'c\\tr\\td' holds a non-finite value")
    with pytest.raises(CheckpointError, match=expected):
        read_embedding_cache(str(path))


def test_file_backed_encoder_uncached_fact(tmp_path):
    path = tmp_path / "cache.bin"
    write_embedding_cache(str(path), {"a\tr\tb": np.zeros(4)}, 4)
    enc = FileBackedEncoder(str(path))
    assert np.array_equal(enc.encode_fact_text(Fact("a", "r", "b"), ""), np.zeros(4))
    expected = re.escape(f"{path}: embedding cache has no entry for fact 'x\\tr\\ty'")
    with pytest.raises(CheckpointError, match=expected):
        enc.encode_fact_text(Fact("x", "r", "y"), "")
