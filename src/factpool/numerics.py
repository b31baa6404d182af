"""Shared numerical kernels: stable softmax, GELU, layer norm (fwd + bwd)."""

from __future__ import annotations

import numpy as np

_GELU_C = float(np.sqrt(2.0 / np.pi))
_LN_EPS = 1e-5


def softmax_stable(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max subtraction; accumulation in float64."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_backward(weights: np.ndarray, d_weights: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient w.r.t. logits given softmax outputs and their upstream grad."""
    inner = np.sum(d_weights * weights, axis=axis, keepdims=True)
    return weights * (d_weights - inner)


def gelu_cached(x: np.ndarray):
    """tanh-approximation GELU.  Returns (y, tanh cache for the backward)."""
    # Smooth everywhere, so finite-difference checks stay clean.
    x2 = x * x
    t = np.tanh(_GELU_C * (x + 0.044715 * (x2 * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_grad_cached(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    du = _GELU_C * (1.0 + 0.134145 * (x * x))
    return 0.5 * (1.0 + t) + (0.5 * x * du) * (1.0 - t * t)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalize over the last axis.  Returns (y, cache) for the backward pass."""
    mu = np.mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = np.mean(centered**2, axis=-1, keepdims=True)
    inv_sigma = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv_sigma
    y = gain * xhat + bias
    return y, (xhat, inv_sigma)


def layer_norm_backward(d_y: np.ndarray, cache, gain: np.ndarray):
    """Returns (d_x, d_gain, d_bias)."""
    xhat, inv_sigma = cache
    d_gain = np.sum(d_y * xhat, axis=tuple(range(d_y.ndim - 1)))
    d_bias = np.sum(d_y, axis=tuple(range(d_y.ndim - 1)))
    d_xhat = d_y * gain
    mean_d = np.mean(d_xhat, axis=-1, keepdims=True)
    mean_dx = np.mean(d_xhat * xhat, axis=-1, keepdims=True)
    d_x = inv_sigma * (d_xhat - mean_d - xhat * mean_dx)
    return d_x, d_gain, d_bias
