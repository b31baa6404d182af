"""Fact-text encoders producing d-dimensional edge embeddings.

Three encoder families share one interface: `encode_fact_texts` (and, for
the two that compute, `encode_texts`) returns one [n, d] array, a row per
input in input order; `encode_fact_text` (and `encode_text`) returns one [d]
vector.  The two that compute keep nothing of a call: each encodes a call's
distinct texts once, so the array it returns is the one copy of its vectors.

  * hash-bag: every token maps to a fixed seeded pseudo-random unit vector;
    a fact embedding is the mean of its token vectors.  A call encodes all
    its texts in one vectorized pass.  Needs no trained model, so retrieval
    and pooling tests can run standalone.
  * shared-toy-encoder: runs a frozen snapshot of the QA model's own token
    embedder and transformer trunk, as initialized, over the fact text, so
    edge embeddings live in the same space the QA model starts from.
  * external-file: reads embeddings from a cache file and never computes.

Token pooling is `mean` (average over text-token states) or `cls` (state of
the prepended classification token).  The hash-bag encoder has no cls token
and always means; `Config.validate` rejects cls pooling with it.
"""

from __future__ import annotations

from typing import Container, Iterable

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


class HashBagEncoder:
    """Mean of fixed seeded unit vectors, one per token."""

    def __init__(self, dim: int, seed: int = 0):
        self.dim = dim
        self.seed = seed

    def token_vector(self, token: str) -> np.ndarray:
        rng = np.random.default_rng(derive_seed(self.seed, "hash-bag", token))
        vec = rng.standard_normal(self.dim)
        vec /= np.linalg.norm(vec)
        return vec

    def encode_text(self, text: str) -> np.ndarray:
        return self.encode_texts([text])[0]

    def encode_texts(self, texts: list[str]) -> np.ndarray:
        """[n, d]: row i is the mean of text i's token vectors.

        Each row is summed in token order, one position at a time over every
        text that long, then divided by its token count: the order `np.mean`
        sums a [tokens, d] stack in, so a row's bytes equal `np.mean` over
        its token vectors whatever other texts share the call.
        """
        index: dict[str, int] = {}  # the call's distinct tokens -> table row
        ids = []
        for text in texts:
            tokens = text_tokens(text)
            if not tokens:
                raise ValueError(f"cannot encode empty text: {text!r}")
            ids.append([index.setdefault(token, len(index)) for token in tokens])
        table = np.fromiter(map(self.token_vector, index), np.dtype((float, self.dim)), len(index))
        lengths = np.array([len(row) for row in ids], dtype=np.int64)
        padded = np.zeros((len(ids), max(lengths, default=1)), dtype=np.int64)
        for row, token_ids in zip(padded, ids):
            row[: len(token_ids)] = token_ids
        vectors = table[padded[:, 0]]
        for position in range(1, padded.shape[1]):
            # In place, so the one temporary is the gathered column.
            longer = (lengths > position)[:, None]
            np.add(vectors, table[padded[:, position]], out=vectors, where=longer)
        vectors /= lengths[:, None]
        return vectors

    def encode_fact_text(self, fact: Fact, text: str) -> np.ndarray:
        return self.encode_text(text)

    def encode_fact_texts(self, facts: list[Fact], texts: list[str]) -> np.ndarray:
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

    def encode_text(self, text: str) -> np.ndarray:
        return self.encode_texts([text])[0]

    def encode_texts(self, texts: list[str]) -> np.ndarray:
        """[n, d]: row i equals text i's batch-1 encoding.

        Each distinct text runs once, grouped by token length, through the
        trunk up to ENCODE_BATCH at a time.  Nothing is padded, so each
        sequence sees the GEMM shapes and row reductions of a forward on its
        own (numpy's matmul loops over the batch axis).
        """
        rows: dict[str, list[int]] = {}  # text -> its rows in the result
        for i, text in enumerate(texts):
            rows.setdefault(text, []).append(i)
        by_length: dict[int, list[tuple[str, list[int]]]] = {}  # (text, token ids) by length
        for text in rows:
            ids = self.tokenizer.encode_text(text)
            if not ids:
                raise ValueError(f"cannot encode empty text: {text!r}")
            seq = [CLS_ID] + ids[: self.max_tokens - 1]
            by_length.setdefault(len(seq), []).append((text, seq))
        # Position 0 carries the [CLS] embedding itself.
        cls_row = self.snapshot["tok_emb"][CLS_ID]
        vectors = np.empty((len(texts), self.dim))
        for group in by_length.values():
            for start in range(0, len(group), ENCODE_BATCH):
                batch = group[start : start + ENCODE_BATCH]
                seqs = np.array([seq for _, seq in batch], dtype=np.int64)
                mask = np.ones_like(seqs, dtype=bool)
                cls_rows = np.broadcast_to(cls_row, (len(batch), self.dim))
                states, _ = trunk_forward(
                    self.snapshot, self.L, self.heads, seqs, mask, cls_rows
                )
                for (text, _), seq_states in zip(batch, states):
                    if self.token_pooling == "cls":
                        vectors[rows[text]] = seq_states[0, :]
                    else:
                        vectors[rows[text]] = seq_states[1:, :].mean(axis=0)
        return vectors

    def encode_fact_text(self, fact: Fact, text: str) -> np.ndarray:
        return self.encode_text(text)

    def encode_fact_texts(self, facts: list[Fact], texts: list[str]) -> np.ndarray:
        return self.encode_texts(texts)


class FileBackedEncoder:
    """Serves embeddings from a cache file; a fact the file lacks raises
    CheckpointError naming the file and the fact."""

    def __init__(self, path: str):
        self.path = path
        self.entries, self.dim = read_embedding_cache(path)

    def encode_fact_text(self, fact: Fact, text: str) -> np.ndarray:
        return self.encode_fact_texts([fact], [text])[0]

    def encode_fact_texts(self, facts: list[Fact], texts: list[str]) -> np.ndarray:
        try:
            return np.array([self.entries[fact.key()] for fact in facts]).reshape(-1, self.dim)
        except KeyError as exc:
            raise CheckpointError(
                f"{self.path}: embedding cache has no entry for fact {exc.args[0]!r}"
            ) from None


def encode_subgraphs(
    subgraphs: Iterable[Subgraph],
    templates: TemplateTable,
    encoder,
    known: Container[str] = (),
) -> tuple[list[Fact], list[str], np.ndarray]:
    """Verbalize and encode every edge whose `Fact.key()` is not in `known`.

    The new facts are verbalized once each, in first-seen canonical edge
    order, and encoded in one `encode_fact_texts` call.  Returns the facts,
    their texts and their [F, d] vectors, all in that order.
    """
    facts = list(dict.fromkeys(fact for sub in subgraphs for fact in sub.sorted_edges()))
    if known:
        facts = [fact for fact in facts if fact.key() not in known]
    texts = [verbalize(fact, templates) for fact in facts]
    return facts, texts, encoder.encode_fact_texts(facts, texts)


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
