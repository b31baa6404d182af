"""Compact transformer encoder with explicit forward/backward passes.

Post-norm layers: x -> LN(x + MHA(x)) -> LN(. + FFN(.)), GELU feed-forward,
additive key masking for padding.  The graph token occupies position 0; its
input embedding is supplied by the caller (the pooled graph vector), and
late-fusion injections add per-layer vectors to the graph token's hidden
state immediately before selected layers.  A caller that reads only the
leading positions of the output has the last layer computed for those rows
alone: its keys and values still come from every position.  All tensors are
float64 by default; gradients are exact reverse-mode, computed from caches
recorded during the forward pass.

Parameter dict layout (flat name -> array):
    tok_emb [V, d], pos_emb [max_tokens, d]
    layer{i}.attn.{wq,wk,wv,wo} [d, d], layer{i}.attn.{bq,bk,bv,bo} [d]
    layer{i}.ln1.{gain,bias} [d], layer{i}.ln2.{gain,bias} [d]
    layer{i}.ffn.w1 [d, 4d], .b1 [4d], .w2 [4d, d], .b2 [d]
with i = 1..L.
"""

from __future__ import annotations

import math

import numpy as np

from factpool.numerics import (
    gelu_cached,
    gelu_from_tanh,
    gelu_grad_cached,
    layer_norm,
    layer_norm_affine,
    layer_norm_backward,
    softmax_backward,
    softmax_stable,
)

_MASK_VALUE = -1e30


def init_trunk_params(
    L: int,
    d: int,
    vocab_size: int,
    max_tokens: int,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {
        "tok_emb": 0.02 * rng.standard_normal((vocab_size, d)),
        "pos_emb": 0.02 * rng.standard_normal((max_tokens, d)),
    }
    for i in range(1, L + 1):
        p = f"layer{i}"
        for name in ("wq", "wk", "wv", "wo"):
            params[f"{p}.attn.{name}"] = 0.02 * rng.standard_normal((d, d))
        for name in ("bq", "bk", "bv", "bo"):
            params[f"{p}.attn.{name}"] = np.zeros(d)
        params[f"{p}.ln1.gain"] = np.ones(d)
        params[f"{p}.ln1.bias"] = np.zeros(d)
        params[f"{p}.ffn.w1"] = 0.02 * rng.standard_normal((d, 4 * d))
        params[f"{p}.ffn.b1"] = np.zeros(4 * d)
        params[f"{p}.ffn.w2"] = 0.02 * rng.standard_normal((4 * d, d))
        params[f"{p}.ffn.b2"] = np.zeros(d)
        params[f"{p}.ln2.gain"] = np.ones(d)
        params[f"{p}.ln2.bias"] = np.zeros(d)
    return params


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dk)


class NoBackwardCacheError(RuntimeError):
    """A backward pass was asked of a forward that kept no backward cache."""


def _layer_forward(
    params, p: str, x: np.ndarray, heads: int, key_bias: np.ndarray, caches, rows=None
):
    """One post-norm layer over x [B, T, d]; appends its backward cache to
    `caches` unless None.

    rows: compute the output for the leading `rows` positions only (None:
    all T).  Keys and values come from every position; the query projection,
    the attention rows, the output projection, both LayerNorms and the FFN
    run on the read rows, each row byte-identical to the full layer's.
    The cache keeps the layer input, q, k, v, the attention weights, the
    merged context, both LayerNorm caches, the FFN pre-activation and its
    tanh.  It leaves out the LayerNorm-1 output and the GELU output, which
    `trunk_backward` recomputes from the cache with the forward's own ops.
    A function of its own so that, without a cache, the layer's activations
    are freed on return rather than held until the next layer rebinds them.
    """
    dk = x.shape[-1] // heads
    x_rows = x[:, :rows]
    q = _split_heads(x_rows @ params[f"{p}.attn.wq"] + params[f"{p}.attn.bq"], heads)
    k = _split_heads(x @ params[f"{p}.attn.wk"] + params[f"{p}.attn.bk"], heads)
    v = _split_heads(x @ params[f"{p}.attn.wv"] + params[f"{p}.attn.bv"], heads)
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dk) + key_bias
    attn = softmax_stable(scores)
    ctx = _merge_heads(attn @ v)
    attn_out = ctx @ params[f"{p}.attn.wo"] + params[f"{p}.attn.bo"]
    r1 = x_rows + attn_out
    x1, ln1_cache = layer_norm(r1, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
    pre = x1 @ params[f"{p}.ffn.w1"] + params[f"{p}.ffn.b1"]
    hid, pre_t = gelu_cached(pre)
    ffn_out = hid @ params[f"{p}.ffn.w2"] + params[f"{p}.ffn.b2"]
    r2 = x1 + ffn_out
    x_next, ln2_cache = layer_norm(r2, params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
    if caches is not None:
        caches.append((x, q, k, v, attn, ctx, ln1_cache, pre, pre_t, ln2_cache))
    return x_next


def trunk_forward(
    params: dict[str, np.ndarray],
    L: int,
    heads: int,
    ids: np.ndarray,
    real_mask: np.ndarray,
    graph_init: np.ndarray,
    injections: dict[int, np.ndarray] | None = None,
    backward_cache: bool = False,
    read_positions: int | None = None,
):
    """Run the encoder.

    ids: [B, T] token ids; real_mask: [B, T] bool, False at padding;
    graph_init: [B, d] initial graph-token content (position 0);
    injections: 1-based layer index -> [B, d] added to the graph token's
    state immediately before that layer (index 0 targets the input state).
    backward_cache: keep each layer's backward cache (`_layer_forward`) for
    `trunk_backward`.
    Without it a layer's activations are freed when the next layer starts,
    and the cache holds only the token ids and the injections.  Every op is
    row-wise, so a row's states do not depend on the other rows of the batch.
    read_positions: the number of leading positions the caller reads (None:
    all).  The last layer then computes only those rows, each byte-identical
    to the full layer's, and `trunk_backward` takes d_states for them alone.
    Returns (states [B, read_positions or T, d], cache).
    """
    injections = injections or {}
    t = ids.shape[1]
    x = params["tok_emb"][ids] + params["pos_emb"][:t]
    x[:, 0, :] = graph_init + params["pos_emb"][0]
    if 0 in injections:
        x[:, 0, :] += injections[0]
    key_bias = np.where(real_mask[:, None, None, :], 0.0, _MASK_VALUE).astype(x.dtype)
    layer_caches = [] if backward_cache else None
    for i in range(1, L + 1):
        if i in injections:
            x = x.copy()
            x[:, 0, :] += injections[i]
        rows = read_positions if i == L else None
        x = _layer_forward(params, f"layer{i}", x, heads, key_bias, layer_caches, rows)
    cache = (ids, injections, layer_caches, heads)
    return x, cache


def _pad_rows(a: np.ndarray, t: int) -> np.ndarray:
    """a [B, n, X] zero-padded to [B, t, X]; `a` itself when n == t."""
    if a.shape[1] == t:
        return a
    padded = np.zeros((a.shape[0], t, a.shape[2]), a.dtype)
    padded[:, : a.shape[1]] = a
    return padded


def trunk_backward(params: dict[str, np.ndarray], L: int, cache, d_states: np.ndarray):
    """Backward through the encoder.

    d_states covers the positions the forward computed.  A last layer that
    computed n < T rows runs its element-wise work on those n rows.  Its
    input-gradient products through transposed weights and its weight
    gradients run on [B, T] operands zero-padded past row n, because their
    bytes depend on the row count (GEMM kernel choice and K-blocking); the
    gradients are then byte-identical to a full-layer backward given zero
    d_states past row n.
    Returns (grads dict matching param names, d_graph_init [B, d],
    d_injections {layer: [B, d]}).
    """
    ids, injections, layer_caches, heads = cache
    if layer_caches is None:
        raise NoBackwardCacheError(
            "trunk_forward ran without a backward cache; call it with backward_cache=True"
        )
    d = params["tok_emb"].shape[1]
    dk = d // heads
    grads: dict[str, np.ndarray] = {}
    d_injections: dict[int, np.ndarray] = {}
    dx = np.asarray(d_states)
    for i in range(L, 0, -1):
        p = f"layer{i}"
        x_in, q, k, v, attn, ctx, ln1_cache, pre, pre_t, ln2_cache = layer_caches[i - 1]
        t, n = x_in.shape[1], q.shape[2]  # n < t: the layer computed n leading rows
        d_r2, d_g2, d_b2 = layer_norm_backward(dx, ln2_cache, params[f"{p}.ln2.gain"])
        grads[f"{p}.ln2.gain"] = d_g2
        grads[f"{p}.ln2.bias"] = d_b2
        # r2 = x1 + ffn_out
        d_ffn = _pad_rows(d_r2, t)
        hid = _pad_rows(gelu_from_tanh(pre, pre_t), t)
        grads[f"{p}.ffn.w2"] = np.tensordot(hid, d_ffn, axes=([0, 1], [0, 1]))
        del hid
        grads[f"{p}.ffn.b2"] = d_r2.sum(axis=(0, 1))
        d_hid = (d_ffn @ params[f"{p}.ffn.w2"].T)[:, :n]
        del d_ffn
        d_pre = gelu_grad_cached(pre, pre_t)
        d_pre *= d_hid
        del d_hid
        x1 = layer_norm_affine(ln1_cache[0], params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        x1 = _pad_rows(x1, t)
        d_pre_pad = _pad_rows(d_pre, t)
        grads[f"{p}.ffn.w1"] = np.tensordot(x1, d_pre_pad, axes=([0, 1], [0, 1]))
        del x1
        grads[f"{p}.ffn.b1"] = d_pre.sum(axis=(0, 1))
        d_x1 = d_r2 + (d_pre_pad @ params[f"{p}.ffn.w1"].T)[:, :n]
        del d_pre, d_pre_pad
        d_r1, d_g1, d_b1 = layer_norm_backward(d_x1, ln1_cache, params[f"{p}.ln1.gain"])
        grads[f"{p}.ln1.gain"] = d_g1
        grads[f"{p}.ln1.bias"] = d_b1
        # r1 = x_in + attn_out
        d_attn_out = _pad_rows(d_r1, t)
        grads[f"{p}.attn.wo"] = np.tensordot(_pad_rows(ctx, t), d_attn_out, axes=([0, 1], [0, 1]))
        grads[f"{p}.attn.bo"] = d_r1.sum(axis=(0, 1))
        d_ctx = _split_heads((d_attn_out @ params[f"{p}.attn.wo"].T)[:, :n], heads)
        d_attn = d_ctx @ v.transpose(0, 1, 3, 2)
        d_v = attn.transpose(0, 1, 3, 2) @ d_ctx
        d_scores = softmax_backward(attn, d_attn)
        d_q = d_scores @ k / math.sqrt(dk)
        d_k = d_scores.transpose(0, 1, 3, 2) @ q / math.sqrt(dk)
        dx_in = d_attn_out  # nothing reads d_r1 after this, so it is written in place
        for mat, dmat in (("wq", d_q), ("wk", d_k), ("wv", d_v)):
            flat = _pad_rows(_merge_heads(dmat), t)
            grads[f"{p}.attn.{mat}"] = np.tensordot(x_in, flat, axes=([0, 1], [0, 1]))
            grads[f"{p}.attn.b{mat[1]}"] = flat.sum(axis=(0, 1))
            dx_in += flat @ params[f"{p}.attn.{mat}"].T
        dx = dx_in
        if i in injections:
            d_injections[i] = dx[:, 0, :].copy()
    # Input embeddings: position 0 carries the pooled graph vector, so its
    # token embedding row receives no gradient.
    d_graph_init = dx[:, 0, :].copy()
    if 0 in injections:
        d_injections[0] = dx[:, 0, :].copy()
    b, t = ids.shape
    d_tok = np.zeros_like(params["tok_emb"])
    np.add.at(d_tok, ids[:, 1:].ravel(), dx[:, 1:, :].reshape(-1, d))
    grads["tok_emb"] = d_tok
    d_pos = np.zeros_like(params["pos_emb"])
    d_pos[:t] = dx.sum(axis=0)
    grads["pos_emb"] = d_pos
    return grads, d_graph_init, d_injections


# --- scalar MLP heads (d -> d -> 1): candidate scores, pooling edge scores ---


def init_scalar_head(prefix: str, d: int, rng: np.random.Generator):
    bound = 1.0 / np.sqrt(d)
    return {
        f"{prefix}.w1": rng.uniform(-bound, bound, size=(d, d)),
        f"{prefix}.b1": np.zeros(d),
        f"{prefix}.w2": rng.uniform(-bound, bound, size=d),
        f"{prefix}.b2": np.zeros(1),
    }


def scalar_head_forward(params: dict[str, np.ndarray], prefix: str, x: np.ndarray):
    """x: [N, d] -> scores [N].  Returns (scores, cache)."""
    pre = x @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"]
    hid, pre_t = gelu_cached(pre)
    out = hid @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"][0]
    return out, (x, pre, pre_t, hid)


def scalar_head_backward(params: dict[str, np.ndarray], prefix: str, cache, d_out: np.ndarray):
    """d_out: [N].  Returns (grads dict, d_x [N, d])."""
    x, pre, pre_t, hid = cache
    grads = {
        f"{prefix}.w2": hid.T @ d_out,
        f"{prefix}.b2": np.array([d_out.sum()]),
    }
    d_hid = np.outer(d_out, params[f"{prefix}.w2"])
    d_pre = d_hid * gelu_grad_cached(pre, pre_t)
    grads[f"{prefix}.w1"] = x.T @ d_pre
    grads[f"{prefix}.b1"] = d_pre.sum(axis=0)
    d_x = d_pre @ params[f"{prefix}.w1"].T
    return grads, d_x
