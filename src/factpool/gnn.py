"""Generic message-passing baseline over retrieved subgraphs.

Facts are treated as undirected: each edge contributes one message per
direction, built from the source node's state concatenated with a learned
relation embedding.  A node update adds a GELU feed-forward transform of the
summed messages onto the previous state; the transform is bias-free and
reads only the aggregate, so an empty neighborhood contributes exactly zero
and isolated nodes keep their state bit-for-bit.  The virtual question node
is initialized from the language model's question representation; its final
state feeds candidate scoring.

Parameters (flat dict, "gnn." prefix):
    gnn.rel_emb [R, d]
    gnn.msg.w [2d, d], gnn.msg.b [d]
    gnn.upd.w [d, d]
    gnn.score.{w1 [d, d], b1 [d], w2 [d], b2 [1]}
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from factpool.kg import VIRTUAL_NODE_ID, Subgraph
from factpool.numerics import gelu_cached, gelu_grad_cached
from factpool.transformer import init_scalar_head


@dataclass
class GNNConfig:
    layers: int = 2


def init_gnn_params(d: int, num_relations: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    bound = 1.0 / np.sqrt(2 * d)
    params = {
        "gnn.rel_emb": 0.1 * rng.standard_normal((num_relations, d)),
        "gnn.msg.w": rng.uniform(-bound, bound, size=(2 * d, d)),
        "gnn.msg.b": np.zeros(d),
        "gnn.upd.w": rng.uniform(-bound, bound, size=(d, d)),
    }
    params.update(init_scalar_head("gnn.score", d, rng))
    return params


@dataclass
class SubgraphArrays:
    """Index form of a subgraph for vectorized message passing."""

    node_ids: list[str]  # sorted; includes the virtual node when present
    src: np.ndarray  # [M] int, message source node index
    dst: np.ndarray  # [M] int, message destination node index
    rel: np.ndarray  # [M] int, relation-table row per message
    virtual_index: int | None


def subgraph_arrays(sub: Subgraph, relation_index: dict[str, int]) -> SubgraphArrays:
    node_ids = sorted(sub.nodes)
    pos = {node: i for i, node in enumerate(node_ids)}
    src, dst, rel = [], [], []
    for fact in sorted(sub.edges):
        r = relation_index[fact.relation]
        # one message per direction, shared relation embedding
        src.append(pos[fact.head])
        dst.append(pos[fact.tail])
        rel.append(r)
        src.append(pos[fact.tail])
        dst.append(pos[fact.head])
        rel.append(r)
    return SubgraphArrays(
        node_ids=node_ids,
        src=np.array(src, dtype=np.int64),
        dst=np.array(dst, dtype=np.int64),
        rel=np.array(rel, dtype=np.int64),
        virtual_index=pos.get(VIRTUAL_NODE_ID),
    )


def union_arrays(parts: list[SubgraphArrays]) -> tuple[SubgraphArrays, np.ndarray]:
    """The disjoint union of `parts`, for one message-passing run over a batch.

    Part i's nodes follow part i-1's and its message indices are offset to
    match, so no message crosses parts.  Returns (union, each part's
    virtual-node index in the union).
    """
    offsets = np.cumsum([0] + [len(part.node_ids) for part in parts[:-1]])
    union = SubgraphArrays(
        node_ids=[node for part in parts for node in part.node_ids],
        src=np.concatenate([part.src + off for part, off in zip(parts, offsets)]),
        dst=np.concatenate([part.dst + off for part, off in zip(parts, offsets)]),
        rel=np.concatenate([part.rel for part in parts]),
        virtual_index=None,
    )
    return union, offsets + [part.virtual_index for part in parts]


def gnn_forward_arrays(
    params: dict[str, np.ndarray],
    cfg: GNNConfig,
    arrays: SubgraphArrays,
    node_init: np.ndarray,
    backward_cache: bool = False,
):
    """Vectorized forward.  Returns (final states [N, d], cache, update count).

    backward_cache: keep each layer's activations for `gnn_backward_arrays`;
    without it the cache is None.
    """
    n, d = node_init.shape
    h = node_init
    layer_caches = []
    for _ in range(cfg.layers):
        m_in = np.concatenate(
            [h[arrays.src], params["gnn.rel_emb"][arrays.rel]], axis=1
        )  # [M, 2d]
        pre_m = m_in @ params["gnn.msg.w"] + params["gnn.msg.b"]
        msg, pre_m_t = gelu_cached(pre_m)
        agg = np.zeros((n, d))
        np.add.at(agg, arrays.dst, msg)
        pre_u = agg @ params["gnn.upd.w"]
        upd, pre_u_t = gelu_cached(pre_u)
        if backward_cache:
            layer_caches.append((h, m_in, pre_m, pre_m_t, agg, pre_u, pre_u_t))
        else:  # free the [M, .] message arrays before the next layer allocates its own
            del m_in, pre_m, pre_m_t, msg
        h = upd + h
    cache = (arrays, layer_caches) if backward_cache else None
    return h, cache, n * cfg.layers


def gnn_backward_arrays(
    params: dict[str, np.ndarray], cfg: GNNConfig, cache, d_final: np.ndarray
):
    """Returns (grads dict, d_node_init [N, d])."""
    arrays, layer_caches = cache
    d = d_final.shape[1]
    grads = {
        "gnn.rel_emb": np.zeros_like(params["gnn.rel_emb"]),
        "gnn.msg.w": np.zeros_like(params["gnn.msg.w"]),
        "gnn.msg.b": np.zeros_like(params["gnn.msg.b"]),
        "gnn.upd.w": np.zeros_like(params["gnn.upd.w"]),
    }
    dh = np.asarray(d_final)
    for layer in range(cfg.layers - 1, -1, -1):
        h_prev, m_in, pre_m, pre_m_t, agg, pre_u, pre_u_t = layer_caches[layer]
        d_pre_u = dh * gelu_grad_cached(pre_u, pre_u_t)
        grads["gnn.upd.w"] += agg.T @ d_pre_u
        dh_prev = dh.copy()
        d_msg = (d_pre_u @ params["gnn.upd.w"].T)[arrays.dst]
        d_pre_m = d_msg * gelu_grad_cached(pre_m, pre_m_t)
        grads["gnn.msg.w"] += m_in.T @ d_pre_m
        grads["gnn.msg.b"] += d_pre_m.sum(axis=0)
        d_m_in = d_pre_m @ params["gnn.msg.w"].T
        np.add.at(dh_prev, arrays.src, d_m_in[:, :d])
        np.add.at(grads["gnn.rel_emb"], arrays.rel, d_m_in[:, d:])
        dh = dh_prev
    return grads, dh
