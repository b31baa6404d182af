"""Global attention pooling over edge embeddings.

Each edge embedding h_e is scored by a small key network producing one logit
per edge; a stable softmax over a candidate's edges turns the logits into
weights a_e, and the candidate's pooled graph vector is the weighted sum of
value-projected embeddings:

    g = sum_e a_e * (h_e W_v + b_v),   a = softmax(key_net(h_e)).

The key network is the model's scalar head (d -> d -> 1 through one GELU
layer) under `{prefix}.key`.  For late fusion, one independent head per
fusion slot produces its own weights and pooled vector.  A head pools a whole
batch in one call: the candidates' edge rows are stacked, the key net and
values run as one GEMM each, and the softmax and weighted sum run per
candidate segment.  Backward passes are exact reverse-mode gradients.
"""

from __future__ import annotations

import numpy as np

from factpool.transformer import init_scalar_head, scalar_head_backward, scalar_head_forward


def init_pooling_head(prefix: str, d: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The `{prefix}.*` parameters: a near-identity value projection and a
    small uniform key net, which keep an untrained head close to unweighted
    mean pooling."""
    return {
        f"{prefix}.w_value": np.eye(d) + 0.01 * rng.standard_normal((d, d)),
        f"{prefix}.b_value": np.zeros(d),
    } | init_scalar_head(f"{prefix}.key", d, rng)


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
    logits, key_cache = scalar_head_forward(params, f"{prefix}.key", matrix)
    logits -= np.repeat(np.maximum.reduceat(logits, starts), sizes)
    weights = np.exp(logits, out=logits)
    weights /= np.repeat(np.add.reduceat(weights, starts), sizes)
    values = matrix @ params[f"{prefix}.w_value"] + params[f"{prefix}.b_value"]
    pooled = np.zeros((len(counts), values.shape[1]), dtype=values.dtype)
    pooled[nonempty] = np.add.reduceat(weights[:, None] * values, starts, axis=0)
    cache = (matrix, key_cache, weights, values, starts, sizes, rows)
    return pooled, weights, cache


def pool_backward_arrays(params: dict[str, np.ndarray], cache, upstream: np.ndarray, prefix: str):
    """Backward of `pool_forward`; upstream [B, d] is each pooled vector's
    gradient.  Returns (param grads by name, d_matrix [E, d])."""
    matrix, key_cache, weights, values, starts, sizes, rows = cache
    upstream = upstream[rows]  # [E, d]: each row's candidate gradient
    # Value path: g = sum_e a_e * values_e.
    d_values = weights[:, None] * upstream
    d_matrix = d_values @ params[f"{prefix}.w_value"].T
    # Weight path through the segment softmax and the key net.
    d_logits = weights * (values * upstream).sum(axis=1)
    d_logits -= weights * np.repeat(np.add.reduceat(d_logits, starts), sizes)
    grads, d_keys = scalar_head_backward(params, f"{prefix}.key", key_cache, d_logits)
    grads[f"{prefix}.w_value"] = matrix.T @ d_values
    grads[f"{prefix}.b_value"] = d_values.sum(axis=0)
    return grads, d_matrix + d_keys
