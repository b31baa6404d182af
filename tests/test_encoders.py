import re

import numpy as np
import pytest

from conftest import kg_from_facts

from factpool.config import Config
from factpool.encoders import (
    FileBackedEncoder,
    HashBagEncoder,
    ToyTrunkEncoder,
    UncachedFactError,
    encode_fact,
    encode_subgraph,
    read_embedding_cache,
    write_embedding_cache,
)
from factpool.kg import Fact, add_virtual_question_node, retrieve_subgraph
from factpool.model import build_encoder, create_model
from factpool.tokenizer import Tokenizer
from factpool.transformer import init_trunk_params
from factpool.verbalize import TemplateTable, VerbalizedFact

TEMPLATES = TemplateTable({"causes": "{h} causes {t}", "related_to": "{h} relates to {t}"})


def small_subgraph():
    kg = kg_from_facts(
        [("winter", "causes", "bird_migration"), ("bird", "related_to", "chirp")]
    )
    from factpool.kg import GroundedStatement

    stmt = GroundedStatement(
        context="",
        question="q",
        candidate="",
        question_entities={"winter", "bird", "bird_migration", "chirp"},
        answer_entities=set(),
    )
    return add_virtual_question_node(retrieve_subgraph(kg, stmt, 32), stmt)


# --- hash-bag ------------------------------------------------------------------


def test_hash_bag_singleton_is_token_vector():
    enc = HashBagEncoder(dim=16, seed=0)
    vf = VerbalizedFact(fact=Fact("b", "r", "b"), text="bird")
    emb = encode_fact(vf, enc)
    assert np.array_equal(emb.vector, enc.token_vector("bird"))


def test_hash_bag_mean_of_two_tokens():
    enc = HashBagEncoder(dim=16, seed=0)
    u, v = enc.token_vector("winter"), enc.token_vector("storm")
    got = enc.encode_text("winter storm")
    assert np.allclose(got, (u + v) / 2.0, atol=0)


def test_hash_bag_deterministic_across_instances():
    a = HashBagEncoder(dim=8, seed=3).encode_text("bird migration")
    b = HashBagEncoder(dim=8, seed=3).encode_text("bird migration")
    assert np.array_equal(a, b)


def test_hash_bag_rejects_cls_pooling():
    with pytest.raises(ValueError, match="cls"):
        HashBagEncoder(dim=8, seed=0, token_pooling="cls")


def test_mean_pooling_of_constant_sequence_is_the_constant():
    enc = HashBagEncoder(dim=12, seed=2)
    v = enc.token_vector("echo")
    for text in ("echo echo", "echo echo echo", "echo echo echo echo echo"):
        assert np.allclose(enc.encode_text(text), v, atol=1e-15)


# --- toy trunk encoder ------------------------------------------------------------


def make_toy_encoder(pooling="mean", seed=0):
    rng = np.random.default_rng(seed)
    params = init_trunk_params(L=2, d=16, vocab_size=128, max_tokens=32, rng=rng)
    return ToyTrunkEncoder(params, L=2, heads=2, tokenizer=Tokenizer(128), token_pooling=pooling)


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


def test_shared_toy_encoder_matches_model_snapshot():
    cfg = Config(L=2, d=16, heads=2, vocab_size=128, max_tokens=32,
                 encoder_kind="shared-toy-encoder", seed=9)
    model = create_model(cfg, "pooled", ["r", "entity", "a_entity"])
    encoder = build_encoder(model)
    assert encoder.dim == cfg.d
    for name, arr in encoder.snapshot.items():
        assert np.array_equal(arr, model.params["frozen." + name])
        assert np.array_equal(arr, model.params[name])  # snapshot taken at init


# --- subgraph encoding and the cache ----------------------------------------------


def test_encode_subgraph_canonical_order():
    sub = small_subgraph()
    enc = HashBagEncoder(dim=8, seed=0)
    embs = encode_subgraph(sub, TEMPLATES, enc)
    assert len(embs) == len(sub.edges)
    keys = [e.fact for e in embs]
    assert keys == sorted(keys)


def test_encode_subgraph_empty():
    from factpool.kg import Subgraph

    sub = Subgraph(nodes=set(), edges=set())
    assert encode_subgraph(sub, TEMPLATES, HashBagEncoder(dim=8)) == []


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


def test_encode_subgraph_with_cache_matches_direct(tmp_path):
    sub = small_subgraph()
    enc = HashBagEncoder(dim=8, seed=1)
    direct = encode_subgraph(sub, TEMPLATES, enc)
    cache: dict = {}
    first = encode_subgraph(sub, TEMPLATES, HashBagEncoder(dim=8, seed=1), cache)
    assert set(cache) == {fact.key() for fact in sub.edges}
    path = tmp_path / "emb.bin"
    write_embedding_cache(str(path), cache, 8)
    reloaded, _ = read_embedding_cache(str(path))

    class Exploding:
        dim = 8

        def encode_fact_text(self, fact, text):
            raise AssertionError("cache should have been hit")

    cached = encode_subgraph(sub, TEMPLATES, Exploding(), reloaded)
    assert len(reloaded) == len(cache)  # nothing new was added
    for a, b, c in zip(direct, first, cached):
        assert a.fact == b.fact == c.fact
        assert a.vector.tobytes() == b.vector.tobytes() == c.vector.tobytes()


def _cache_bytes(tmp_path):
    path = tmp_path / "cache.bin"
    write_embedding_cache(str(path), {"a\tr\tb": np.ones(4), "c\tr\td": np.zeros(4)}, 4)
    return path, path.read_bytes()


@pytest.mark.parametrize("cut", [1, 7, 12, 20, 24, 33, 60, 90, 95])
def test_read_cache_truncated_names_path(tmp_path, cut):
    path, data = _cache_bytes(tmp_path)
    path.write_bytes(data[: len(data) - cut])
    with pytest.raises(ValueError, match=re.escape(f"{path}: not an embedding cache file")):
        read_embedding_cache(str(path))


def test_read_cache_trailing_bytes_names_path(tmp_path):
    path, data = _cache_bytes(tmp_path)
    path.write_bytes(data + b"\0")
    expected = re.escape(f"{path}: not an embedding cache file (1 trailing")
    with pytest.raises(ValueError, match=expected):
        read_embedding_cache(str(path))


def test_read_cache_bad_magic_names_path(tmp_path):
    path, data = _cache_bytes(tmp_path)
    path.write_bytes(b"XXXXXXXX" + data[8:])
    with pytest.raises(ValueError, match=re.escape(f"{path}: not an embedding cache file")):
        read_embedding_cache(str(path))


def test_file_backed_encoder_uncached_fact(tmp_path):
    path = tmp_path / "cache.bin"
    write_embedding_cache(str(path), {"a\tr\tb": np.zeros(4)}, 4)
    enc = FileBackedEncoder(str(path))
    assert np.array_equal(enc.encode_fact_text(Fact("a", "r", "b"), ""), np.zeros(4))
    with pytest.raises(UncachedFactError, match="uncached fact"):
        enc.encode_fact_text(Fact("x", "r", "y"), "")
