"""Shared numerical kernels: stable softmax, GELU, layer norm (fwd + bwd)."""

from __future__ import annotations

import numpy as np

_GELU_C = float(np.sqrt(2.0 / np.pi))
_LN_EPS = 1e-5


def softmax_stable(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max subtraction, in the logits' dtype."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_backward(weights: np.ndarray, d_weights: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. logits given last-axis softmax outputs and their upstream grad."""
    inner = np.sum(d_weights * weights, axis=-1, keepdims=True)
    return weights * (d_weights - inner)


def gelu_cached(x: np.ndarray):
    """tanh-approximation GELU.  Returns (y, tanh cache for the backward).

    Computed in two result buffers and one temporary, with the operations of
    0.5 * x * (1 + tanh(c * (x + 0.044715 * x^3))) in the same order; `x` is
    never written.
    """
    # Smooth everywhere, so finite-difference checks stay clean.
    t = np.multiply(x, x)
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    return gelu_from_tanh(x, t), t


def gelu_from_tanh(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU's output from its input and tanh cache: the last steps of
    `gelu_cached`, so an output recomputed from the cache is byte-identical."""
    y = np.add(t, 1.0)
    y *= np.multiply(x, 0.5)
    return y


def gelu_grad_cached(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """dGELU/dx from the forward's tanh cache; writes neither input."""
    # 0.5 * (1 + t) + (0.5 * x * du) * (1 - t * t), du = c * (1 + 0.134145 * x^2)
    buf = np.multiply(x, x)
    buf *= 0.134145
    buf += 1.0
    buf *= _GELU_C
    slope = np.multiply(x, 0.5)
    slope *= buf
    np.multiply(t, t, out=buf)
    np.subtract(1.0, buf, out=buf)
    slope *= buf
    np.add(t, 1.0, out=buf)
    buf *= 0.5
    buf += slope
    return buf


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalize over the last axis.  Returns (y, cache) for the backward pass.

    The operations of gain * ((x - mu) * (1 / sqrt(var + eps))) + bias in the
    same order, in two buffers; `x` is not written.
    """
    mu = np.mean(x, axis=-1, keepdims=True)
    xhat = np.subtract(x, mu)
    y = np.square(xhat)
    var = np.mean(y, axis=-1, keepdims=True)
    inv_sigma = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv_sigma
    return layer_norm_affine(xhat, gain, bias, out=y), (xhat, inv_sigma)


def layer_norm_affine(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray, out=None):
    """gain * xhat + bias: the last steps of `layer_norm`, so an output
    recomputed from its cache's `xhat` is byte-identical."""
    y = np.multiply(xhat, gain, out=out)
    y += bias
    return y


def layer_norm_backward(d_y: np.ndarray, cache, gain: np.ndarray):
    """Returns (d_x, d_gain, d_bias); `d_y` is not written."""
    xhat, inv_sigma = cache
    lead = tuple(range(d_y.ndim - 1))
    buf = np.multiply(d_y, xhat)
    d_gain = np.sum(buf, axis=lead)
    d_bias = np.sum(d_y, axis=lead)
    d_x = np.multiply(d_y, gain)  # d_xhat until the last three steps
    mean_d = np.mean(d_x, axis=-1, keepdims=True)
    np.multiply(d_x, xhat, out=buf)
    mean_dx = np.mean(buf, axis=-1, keepdims=True)
    d_x -= mean_d
    np.multiply(xhat, mean_dx, out=buf)
    d_x -= buf
    d_x *= inv_sigma
    return d_x, d_gain, d_bias
