"""Helpers the test modules import by name.  They live outside `conftest.py`
so that `from helpers import ...` means this file in any pytest session,
`perfbench/tests` included."""

import numpy as np

from factpool.kg import Fact, KnowledgeGraph


def kg_from_facts(facts) -> KnowledgeGraph:
    return KnowledgeGraph({f if isinstance(f, Fact) else Fact(*f) for f in facts})


def rewrite_checkpoint_config(path, **values) -> None:
    """Rewrite a saved model's config to `values`.  A vocab_size or max_tokens
    change trims the embedding table to match, so only the config is wrong."""
    from factpool.checkpoint import load_checkpoint, save_checkpoint

    params, header = load_checkpoint(path)
    header["config"].update(values)
    if "vocab_size" in values:
        params["tok_emb"] = params["tok_emb"][: values["vocab_size"]]
    if "max_tokens" in values:
        params["pos_emb"] = params["pos_emb"][: values["max_tokens"]]
    save_checkpoint(path, params, header["config"], header["seed"], header["step"], header["meta"])


def candidate_pool_weights(pool_weights, candidates) -> list[list[np.ndarray]]:
    """Per candidate, per head: `batch_forward`'s per-head [E] pooling weights
    split by the candidates' edge counts."""
    bounds = np.cumsum([len(c.edge_rows) for c in candidates])[:-1]
    return [list(per_head) for per_head in zip(*(np.split(w, bounds) for w in pool_weights))]
