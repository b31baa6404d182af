"""Fact-text encoders producing d-dimensional edge embeddings.

Three encoder families share one interface:

  * hash-bag: every token maps to a fixed seeded pseudo-random unit vector;
    a fact embedding is the mean of its token vectors.  Needs no trained
    model, so retrieval and pooling tests can run standalone.
  * shared-toy-encoder: runs a frozen snapshot of the QA model's own token
    embedder and transformer trunk, as initialized, over the fact text, so
    edge embeddings live in the same space the QA model starts from.
  * external-file: reads embeddings from a cache file and never computes.

Token pooling is `mean` (average over text-token states) or `cls` (state of
the prepended classification token).  The hash-bag encoder has no cls token
and always means; `Config.validate` rejects cls pooling with it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from factpool.checkpoint import CheckpointError, _container_bytes, _read_container
from factpool.kg import Fact, Subgraph, text_tokens
from factpool.tokenizer import CLS_ID, Tokenizer
from factpool.transformer import trunk_forward
from factpool.util import atomic_write_bytes, derive_seed
from factpool.verbalize import TemplateTable, verbalize


# Sequences per trunk forward in `ToyTrunkEncoder.encode_texts`.  On the
# perfbench `ground` workload 32 cut wall_s by ~6%, inside the run-to-run
# spread, but raised peak_rss_mb in every run (~67.6 -> ~70.1 MB), so the
# bound stays at 8.
ENCODE_BATCH = 8


class UncachedFactError(KeyError):
    pass


class HashBagEncoder:
    """Mean of fixed seeded unit vectors, one per token."""

    def __init__(self, dim: int, seed: int = 0):
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

    def encode_fact_texts(self, facts: list[Fact], texts: list[str]) -> list[np.ndarray]:
        return self.encode_texts(texts)


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
        self.snapshot = snapshot
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

    def encode_fact_texts(self, facts: list[Fact], texts: list[str]) -> list[np.ndarray]:
        return self.encode_texts(texts)


class FileBackedEncoder:
    """Serves embeddings from a cache file; unknown facts are an error."""

    def __init__(self, path: str):
        self.entries, self.dim = read_embedding_cache(path)

    def encode_fact_text(self, fact: Fact, text: str) -> np.ndarray:
        return self.encode_fact_texts([fact], [text])[0]

    def encode_fact_texts(self, facts: list[Fact], texts: list[str]) -> list[np.ndarray]:
        try:
            return [self.entries[fact.key()] for fact in facts]
        except KeyError as exc:
            raise UncachedFactError(f"uncached fact: {exc.args[0]!r}") from None


def encode_subgraphs(
    subgraphs: Iterable[Subgraph],
    templates: TemplateTable,
    encoder,
    cache: dict[str, np.ndarray],
) -> dict[str, str]:
    """Add every edge missing from `cache` (keyed by `Fact.key()`) to it.

    The missing facts are verbalized once each, in first-seen canonical edge
    order, and encoded in one `encode_fact_texts` call.  Returns their texts
    by fact key.
    """
    missing: dict[str, Fact] = {}
    for sub in subgraphs:
        for fact in sub.sorted_edges():
            key = fact.key()
            if key not in cache and key not in missing:
                missing[key] = fact
    facts = list(missing.values())
    texts = [verbalize(fact, templates) for fact in facts]
    cache.update(zip(missing, encoder.encode_fact_texts(facts, texts)))
    return dict(zip(missing, texts))


# --- embedding cache file ----------------------------------------------------
# The checkpoint container under its own magic: header {"dim": d}, one [d]
# tensor per fact key.

_CACHE_MAGIC = b"FPEMC002"


def write_embedding_cache(path: str, entries: dict[str, np.ndarray], dim: int) -> None:
    for key, vec in entries.items():
        if np.shape(vec) != (dim,):
            raise ValueError(f"entry {key!r} has shape {np.shape(vec)}, expected ({dim},)")
    atomic_write_bytes(path, _container_bytes(_CACHE_MAGIC, {"dim": dim}, entries))


def read_embedding_cache(path: str):
    """Returns (entries, dim); a bad file raises CheckpointError naming it."""
    entries, header = _read_container(path, _CACHE_MAGIC, "embedding cache")
    dim = header.get("dim")
    if type(dim) is not int or dim < 1:
        raise CheckpointError(f"{path}: embedding cache header needs a positive integer dim")
    for key, vec in entries.items():
        if vec.shape != (dim,):
            raise CheckpointError(
                f"{path}: entry {key!r} has shape {vec.shape}, header width is {dim}"
            )
    return entries, dim
