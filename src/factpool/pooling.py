"""Global attention pooling over edge embeddings.

Each edge embedding h_e is scored by a small key network producing one logit
per edge; a stable softmax turns the logits into weights a_e, and the pooled
graph vector is the weighted sum of value-projected embeddings:

    g = sum_e a_e * (h_e W_v + b_v),   a = softmax(key_net(h_e)).

The key network is one hidden GELU layer mapping d -> d -> 1.  For late
fusion, one independent head per fusion slot produces its own weights and
pooled vector.  Backward passes are exact reverse-mode gradients of this
composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from factpool.numerics import gelu_cached, gelu_grad_cached, softmax_backward, softmax_stable

HEAD_PARAM_NAMES = ("w_value", "b_value", "w_key1", "b_key1", "w_key2", "b_key2")


@dataclass
class PoolingHead:
    w_value: np.ndarray  # [d, d]
    b_value: np.ndarray  # [d]
    w_key1: np.ndarray  # [d, d]
    b_key1: np.ndarray  # [d]
    w_key2: np.ndarray  # [d]
    b_key2: np.ndarray  # [1]


def init_pooling_head(d: int, rng: np.random.Generator, dtype=np.float64) -> PoolingHead:
    """Near-identity value projection; small uniform key net.

    This keeps an untrained head close to unweighted mean pooling.
    """
    bound = 1.0 / np.sqrt(d)
    return PoolingHead(
        w_value=(np.eye(d) + 0.01 * rng.standard_normal((d, d))).astype(dtype),
        b_value=np.zeros(d, dtype=dtype),
        w_key1=rng.uniform(-bound, bound, size=(d, d)).astype(dtype),
        b_key1=np.zeros(d, dtype=dtype),
        w_key2=rng.uniform(-bound, bound, size=d).astype(dtype),
        b_key2=np.zeros(1, dtype=dtype),
    )


def pool_forward(head: PoolingHead, matrix: np.ndarray):
    """Array-level forward.  Returns (pooled [d], weights [E], cache)."""
    pre = matrix @ head.w_key1 + head.b_key1
    hidden, pre_t = gelu_cached(pre)
    logits = hidden @ head.w_key2 + head.b_key2[0]
    weights = softmax_stable(logits)
    values = matrix @ head.w_value + head.b_value
    pooled = weights @ values
    cache = (matrix, pre, pre_t, hidden, weights, values)
    return pooled, weights, cache


def pool_backward_arrays(head: PoolingHead, cache, upstream: np.ndarray):
    """Array-level backward.  Returns (param grads dict, d_matrix [E, d])."""
    matrix, pre, pre_t, hidden, weights, values = cache
    upstream = np.asarray(upstream, dtype=np.float64)
    # Value path: g = sum_e a_e * values_e.
    d_values = np.outer(weights, upstream)
    d_w_value = matrix.T @ d_values
    d_b_value = d_values.sum(axis=0)
    d_matrix = d_values @ head.w_value.T
    # Weight path through the softmax and key net.
    d_weights = values @ upstream
    d_logits = softmax_backward(weights, d_weights)
    d_w_key2 = hidden.T @ d_logits
    d_b_key2 = np.array([d_logits.sum()])
    d_hidden = np.outer(d_logits, head.w_key2)
    d_pre = d_hidden * gelu_grad_cached(pre, pre_t)
    d_w_key1 = matrix.T @ d_pre
    d_b_key1 = d_pre.sum(axis=0)
    d_matrix = d_matrix + d_pre @ head.w_key1.T
    grads = {
        "w_value": d_w_value,
        "b_value": d_b_value,
        "w_key1": d_w_key1,
        "b_key1": d_b_key1,
        "w_key2": d_w_key2,
        "b_key2": d_b_key2,
    }
    return grads, d_matrix
