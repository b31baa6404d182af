"""Global attention pooling over edge embeddings.

Each edge embedding h_e is scored by a small key network producing one logit
per edge; a stable softmax over a candidate's edges turns the logits into
weights a_e, and the candidate's pooled graph vector is the weighted sum of
value-projected embeddings:

    g = sum_e a_e * (h_e W_v + b_v),   a = softmax(key_net(h_e)).

The key network is one hidden GELU layer mapping d -> d -> 1.  For late
fusion, one independent head per fusion slot produces its own weights and
pooled vector.  A head pools a whole batch in one call: the candidates' edge
rows are stacked, the key net and values run as one GEMM each, and the
softmax and weighted sum run per candidate segment.  Backward passes are
exact reverse-mode gradients of this composition.
"""

from __future__ import annotations

import numpy as np

from factpool.numerics import gelu_cached, gelu_grad_cached


def init_pooling_head(prefix: str, d: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The `{prefix}.*` parameters: a near-identity value projection and a
    small uniform key net, which keep an untrained head close to unweighted
    mean pooling."""
    bound = 1.0 / np.sqrt(d)
    return {
        f"{prefix}.w_value": np.eye(d) + 0.01 * rng.standard_normal((d, d)),
        f"{prefix}.b_value": np.zeros(d),
        f"{prefix}.w_key1": rng.uniform(-bound, bound, size=(d, d)),
        f"{prefix}.b_key1": np.zeros(d),
        f"{prefix}.w_key2": rng.uniform(-bound, bound, size=d),
        f"{prefix}.b_key2": np.zeros(1),
    }


def pool_forward(params: dict[str, np.ndarray], matrix: np.ndarray, counts, prefix: str):
    """Pool every candidate of a batch with head `prefix`.

    matrix [E, d] stacks the candidates' edge rows in candidate order and
    counts[i] is candidate i's number of rows.  Returns (pooled [B, d],
    weights [E], cache).  An edgeless candidate pools to zeros.
    """
    counts = np.asarray(counts, dtype=np.intp)
    nonempty = counts > 0
    sizes = counts[nonempty]
    starts = np.cumsum(sizes) - sizes  # first row of each non-empty segment
    rows = np.repeat(np.arange(len(counts)), counts)  # each row's candidate
    pre = matrix @ params[f"{prefix}.w_key1"] + params[f"{prefix}.b_key1"]
    hidden, pre_t = gelu_cached(pre)
    logits = hidden @ params[f"{prefix}.w_key2"] + params[f"{prefix}.b_key2"][0]
    logits -= np.repeat(np.maximum.reduceat(logits, starts), sizes)
    weights = np.exp(logits, out=logits)
    weights /= np.repeat(np.add.reduceat(weights, starts), sizes)
    values = matrix @ params[f"{prefix}.w_value"] + params[f"{prefix}.b_value"]
    pooled = np.zeros((len(counts), values.shape[1]), dtype=values.dtype)
    pooled[nonempty] = np.add.reduceat(weights[:, None] * values, starts, axis=0)
    cache = (matrix, pre, pre_t, hidden, weights, values, starts, sizes, rows)
    return pooled, weights, cache


def pool_backward_arrays(params: dict[str, np.ndarray], cache, upstream: np.ndarray, prefix: str):
    """Backward of `pool_forward`; upstream [B, d] is each pooled vector's
    gradient.  Returns (param grads by name, d_matrix [E, d])."""
    matrix, pre, pre_t, hidden, weights, values, starts, sizes, rows = cache
    upstream = upstream[rows]  # [E, d]: each row's candidate gradient
    # Value path: g = sum_e a_e * values_e.
    d_values = weights[:, None] * upstream
    d_matrix = d_values @ params[f"{prefix}.w_value"].T
    # Weight path through the segment softmax and the key net.
    d_logits = weights * (values * upstream).sum(axis=1)
    d_logits -= weights * np.repeat(np.add.reduceat(d_logits, starts), sizes)
    d_pre = np.outer(d_logits, params[f"{prefix}.w_key2"])
    d_pre *= gelu_grad_cached(pre, pre_t)
    d_matrix += d_pre @ params[f"{prefix}.w_key1"].T
    grads = {
        f"{prefix}.w_value": matrix.T @ d_values,
        f"{prefix}.b_value": d_values.sum(axis=0),
        f"{prefix}.w_key1": matrix.T @ d_pre,
        f"{prefix}.b_key1": d_pre.sum(axis=0),
        f"{prefix}.w_key2": hidden.T @ d_logits,
        f"{prefix}.b_key2": d_logits.sum(keepdims=True),
    }
    return grads, d_matrix
