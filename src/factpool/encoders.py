"""Fact-text encoders producing d-dimensional edge embeddings.

Three encoder families share one interface:

  * hash-bag: every token maps to a fixed seeded pseudo-random unit vector;
    a fact embedding is the mean of its token vectors.  Needs no trained
    model, so retrieval and pooling tests can run standalone.
  * shared-toy-encoder: runs a frozen snapshot of the QA model's own token
    embedder and transformer trunk over the fact text, so edge embeddings
    live in the same space the QA model starts from.
  * external-file: reads embeddings from a cache file and never computes.

Token pooling is `mean` (average over text-token states) or `cls` (state of
the prepended classification token).  The hash-bag encoder has no cls token
and rejects cls pooling.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from factpool.kg import Fact, Subgraph, text_tokens
from factpool.tokenizer import CLS_ID, Tokenizer
from factpool.transformer import trunk_forward
from factpool.util import atomic_write_bytes, derive_seed
from factpool.verbalize import TemplateTable, verbalize


# Sequences per trunk forward in `ToyTrunkEncoder.encode_texts`.  The forward
# keeps no backward cache, so a batch holds one layer's activations at a
# time (at most [8, max_tokens, 4d] floats); the bound now trades per-forward
# overhead against batch size, not memory.
ENCODE_BATCH = 8


class UncachedFactError(KeyError):
    pass


class HashBagEncoder:
    """Mean of fixed seeded unit vectors, one per token."""

    def __init__(self, dim: int, seed: int = 0, token_pooling: str = "mean"):
        if token_pooling != "mean":
            raise ValueError("hash-bag encoder has no cls token; use mean pooling")
        self.dim = dim
        self.seed = seed
        self._token_vectors: dict[str, np.ndarray] = {}
        self._memo: dict[str, np.ndarray] = {}

    def token_vector(self, token: str) -> np.ndarray:
        vec = self._token_vectors.get(token)
        if vec is None:
            rng = np.random.default_rng(derive_seed(self.seed, "hash-bag", token))
            vec = rng.standard_normal(self.dim)
            vec /= np.linalg.norm(vec)
            self._token_vectors[token] = vec
        return vec

    def encode_text(self, text: str) -> np.ndarray:
        cached = self._memo.get(text)
        if cached is not None:
            return cached
        tokens = text_tokens(text)
        if not tokens:
            raise ValueError(f"cannot encode empty text: {text!r}")
        vec = np.mean([self.token_vector(t) for t in tokens], axis=0)
        self._memo[text] = vec
        return vec

    def encode_texts(self, texts: list[str]) -> list[np.ndarray]:
        return [self.encode_text(text) for text in texts]

    def encode_fact_text(self, fact: Fact, text: str) -> np.ndarray:
        return self.encode_text(text)


class ToyTrunkEncoder:
    """Frozen snapshot of the QA model's embedder + trunk as a text encoder."""

    def __init__(
        self,
        snapshot: dict[str, np.ndarray],
        L: int,
        heads: int,
        tokenizer: Tokenizer,
        token_pooling: str = "mean",
        max_tokens: int = 64,
    ):
        self.snapshot = {name: arr.copy() for name, arr in snapshot.items()}
        self.L = L
        self.heads = heads
        self.tokenizer = tokenizer
        self.token_pooling = token_pooling
        self.max_tokens = max_tokens
        self.dim = snapshot["tok_emb"].shape[1]
        self._memo: dict[str, np.ndarray] = {}

    def encode_text(self, text: str) -> np.ndarray:
        return self.encode_texts([text])[0]

    def encode_texts(self, texts: list[str]) -> list[np.ndarray]:
        """One vector per text, each equal to its batch-1 encoding.

        Texts not yet memoized are grouped by token length and run through
        the trunk up to ENCODE_BATCH at a time.  Nothing is padded, so each
        sequence sees the GEMM shapes and row reductions of a forward on its
        own (numpy's matmul loops over the batch axis).
        """
        pending: dict[str, list[int]] = {}
        for text in texts:
            if text in self._memo or text in pending:
                continue
            ids = self.tokenizer.encode_text(text)
            if not ids:
                raise ValueError(f"cannot encode empty text: {text!r}")
            pending[text] = [CLS_ID] + ids[: self.max_tokens - 1]
        by_length: dict[int, list[str]] = {}
        for text, seq in pending.items():
            by_length.setdefault(len(seq), []).append(text)
        # Position 0 carries the [CLS] embedding itself.
        cls_row = self.snapshot["tok_emb"][CLS_ID]
        for group in by_length.values():
            for start in range(0, len(group), ENCODE_BATCH):
                batch = group[start : start + ENCODE_BATCH]
                seqs = np.array([pending[text] for text in batch], dtype=np.int64)
                mask = np.ones_like(seqs, dtype=bool)
                cls_rows = np.broadcast_to(cls_row, (len(batch), self.dim))
                states, _ = trunk_forward(
                    self.snapshot, self.L, self.heads, seqs, mask, cls_rows
                )
                for text, seq_states in zip(batch, states):
                    if self.token_pooling == "cls":
                        self._memo[text] = seq_states[0, :].copy()
                    else:
                        self._memo[text] = seq_states[1:, :].mean(axis=0)
        return [self._memo[text] for text in texts]

    def encode_fact_text(self, fact: Fact, text: str) -> np.ndarray:
        return self.encode_text(text)


class FileBackedEncoder:
    """Serves embeddings from a cache file; unknown facts are an error."""

    def __init__(self, path: str):
        self.entries, self.dim = read_embedding_cache(path)

    def encode_fact_text(self, fact: Fact, text: str) -> np.ndarray:
        key = fact.key()
        vec = self.entries.get(key)
        if vec is None:
            raise UncachedFactError(f"uncached fact: {key!r}")
        return vec


def encode_subgraphs(
    subgraphs: Iterable[Subgraph],
    templates: TemplateTable,
    encoder,
    cache: dict[str, np.ndarray],
) -> int:
    """Add every edge missing from `cache` (keyed by `Fact.key()`) to it.

    The missing facts are verbalized once each, in first-seen canonical edge
    order, and encoded in one `encode_texts` call.  Returns the number of
    edges over all subgraphs.
    """
    missing: dict[str, Fact] = {}
    total = 0
    for sub in subgraphs:
        total += len(sub.edges)
        for fact in sub.sorted_edges():
            key = fact.key()
            if key not in cache and key not in missing:
                missing[key] = fact
    texts = [verbalize(fact, templates).text for fact in missing.values()]
    cache.update(zip(missing, encoder.encode_texts(texts)))
    return total


# --- embedding cache file ----------------------------------------------------
#
# header: magic b"FPEMC001", u32 d, u64 record count
# record: u32 key length, key utf-8, u32 d, d float64 little-endian

_CACHE_MAGIC = b"FPEMC001"


def write_embedding_cache(path: str, entries: dict[str, np.ndarray], dim: int) -> None:
    buf = io.BytesIO()
    buf.write(_CACHE_MAGIC)
    buf.write(struct.pack("<IQ", dim, len(entries)))
    for key in sorted(entries):
        vec = np.ascontiguousarray(entries[key], dtype="<f8")
        if vec.shape != (dim,):
            raise ValueError(f"entry {key!r} has shape {vec.shape}, expected ({dim},)")
        encoded = key.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<I", dim))
        buf.write(vec.tobytes())
    atomic_write_bytes(path, buf.getvalue())


def read_embedding_cache(path: str):
    data = Path(path).read_bytes()
    if data[:8] != _CACHE_MAGIC:
        raise ValueError(f"{path}: not an embedding cache file")
    offset = 8

    def take(size: int) -> int:
        nonlocal offset
        start = offset
        offset += size
        if offset > len(data):
            raise ValueError(f"{path}: not an embedding cache file (truncated at byte {start})")
        return start

    dim, count = struct.unpack_from("<IQ", data, take(12))
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (key_len,) = struct.unpack_from("<I", data, take(4))
        start = take(key_len)
        key = data[start:offset].decode("utf-8")
        (rec_dim,) = struct.unpack_from("<I", data, take(4))
        if rec_dim != dim:
            raise ValueError(f"{path}: record {key!r} width {rec_dim} != header width {dim}")
        entries[key] = np.frombuffer(data, dtype="<f8", count=dim, offset=take(8 * dim)).copy()
    if offset != len(data):
        raise ValueError(
            f"{path}: not an embedding cache file "
            f"({len(data) - offset} trailing bytes after {count} records)"
        )
    return entries, dim
