"""Independent reference implementations used as test oracles.

Everything here is deliberately written with explicit loops and scalar math,
not by calling the package kernels, so agreement is meaningful.
"""

from __future__ import annotations

import math
import re

import numpy as np


def softmax_oracle(logits) -> list[float]:
    exps = [math.exp(z) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


def pool_oracle(head, matrix) -> np.ndarray:
    """Loop re-implementation of attention pooling over edge rows."""
    n, d = matrix.shape
    logits = []
    for i in range(n):
        hidden = []
        for j in range(head.w_key1.shape[1]):
            acc = head.b_key1[j]
            for t in range(d):
                acc += matrix[i, t] * head.w_key1[t, j]
            hidden.append(gelu_scalar(acc))
        z = head.b_key2[0]
        for j, hj in enumerate(hidden):
            z += hj * head.w_key2[j]
        logits.append(z)
    weights = softmax_oracle(logits)
    out = np.zeros(d)
    for i in range(n):
        value = [
            head.b_value[j] + sum(matrix[i, t] * head.w_value[t, j] for t in range(d))
            for j in range(d)
        ]
        for j in range(d):
            out[j] += weights[i] * value[j]
    return out


def gelu_scalar(x: float) -> float:
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x**3)))


def message_oracle(h_src, rel_emb, w, b) -> np.ndarray:
    """Loop re-implementation of the edge message network."""
    d = len(b)
    concat = list(h_src) + list(rel_emb)
    out = np.zeros(d)
    for j in range(d):
        acc = b[j]
        for t, v in enumerate(concat):
            acc += v * w[t, j]
        out[j] = gelu_scalar(acc)
    return out


def gnn_oracle(params, layers, aggregation, node_init, edges) -> np.ndarray:
    """Loop message passing: edges is a list of (src_idx, dst_idx, rel_idx)."""
    n, d = node_init.shape
    h = np.array(node_init, dtype=float)
    counts = [0] * n
    for _, dst, _ in edges:
        counts[dst] += 1
    for _ in range(layers):
        agg = np.zeros((n, d))
        for src, dst, rel in edges:
            msg = message_oracle(
                h[src], params["gnn.rel_emb"][rel], params["gnn.msg.w"], params["gnn.msg.b"]
            )
            agg[dst] += msg
        h_next = np.zeros_like(h)
        for v in range(n):
            a = agg[v]
            if aggregation == "mean" and counts[v] > 0:
                a = a / counts[v]
            update = np.zeros(d)
            for j in range(d):
                acc = 0.0
                for t in range(d):
                    acc += a[t] * params["gnn.upd.w"][t, j]
                update[j] = gelu_scalar(acc)
            h_next[v] = h[v] + update
        h = h_next
    return h


def layer_norm_oracle(x, gain, bias, eps=1e-5) -> np.ndarray:
    mu = sum(x) / len(x)
    var = sum((v - mu) ** 2 for v in x) / len(x)
    return np.array([gain[j] * (x[j] - mu) / math.sqrt(var + eps) + bias[j] for j in range(len(x))])


def trunk_oracle(params, L, heads, ids, graph_init, injections=None) -> np.ndarray:
    """Single-sequence dense transformer, loops over layers/heads/positions."""
    injections = injections or {}
    d = params["tok_emb"].shape[1]
    dk = d // heads
    T = len(ids)
    x = np.zeros((T, d))
    for pos, tok in enumerate(ids):
        x[pos] = params["tok_emb"][tok] + params["pos_emb"][pos]
    x[0] = np.asarray(graph_init) + params["pos_emb"][0]
    if 0 in injections:
        x[0] = x[0] + injections[0]
    for layer in range(1, L + 1):
        if layer in injections:
            x = x.copy()
            x[0] = x[0] + injections[layer]
        p = f"layer{layer}"
        q = x @ params[f"{p}.attn.wq"] + params[f"{p}.attn.bq"]
        k = x @ params[f"{p}.attn.wk"] + params[f"{p}.attn.bk"]
        v = x @ params[f"{p}.attn.wv"] + params[f"{p}.attn.bv"]
        ctx = np.zeros((T, d))
        for h in range(heads):
            sl = slice(h * dk, (h + 1) * dk)
            for i in range(T):
                scores = [float(q[i, sl] @ k[j, sl]) / math.sqrt(dk) for j in range(T)]
                weights = softmax_oracle(scores)
                for j in range(T):
                    ctx[i, sl] += weights[j] * v[j, sl]
        attn_out = ctx @ params[f"{p}.attn.wo"] + params[f"{p}.attn.bo"]
        r1 = x + attn_out
        x1 = np.stack(
            [
                layer_norm_oracle(r1[i], params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
                for i in range(T)
            ]
        )
        pre = x1 @ params[f"{p}.ffn.w1"] + params[f"{p}.ffn.b1"]
        hid = np.vectorize(gelu_scalar)(pre)
        r2 = x1 + hid @ params[f"{p}.ffn.w2"] + params[f"{p}.ffn.b2"]
        x = np.stack(
            [
                layer_norm_oracle(r2[i], params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
                for i in range(T)
            ]
        )
    return x


def fd_gradient(loss_fn, array: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. one array."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = loss_fn()
        flat[i] = original - step
        down = loss_fn()
        flat[i] = original
        grad_flat[i] = (up - down) / (2.0 * step)
    return grad


def bfs_distances(adjacency: dict[str, set[str]], start: str) -> dict[str, int]:
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adjacency.get(node, ()):
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def two_hop_nodes_oracle(facts, linked: set[str]) -> set[str]:
    """All nodes on paths of length <= 2 between distinct linked entities."""
    adjacency: dict[str, set[str]] = {}
    for head, _, tail in facts:
        adjacency.setdefault(head, set()).add(tail)
        adjacency.setdefault(tail, set()).add(head)
    keep = set(linked)
    nodes = set(adjacency)
    for mid in nodes - linked:
        neighbors = adjacency.get(mid, set())
        touching = {u for u in neighbors if u in linked}
        if len(touching) >= 2:
            keep.add(mid)
    return keep


def induced_edges_oracle(facts, nodes: set[str]) -> set:
    """Every fact whose two endpoints both lie in `nodes` (full scan)."""
    out = set()
    for fact in facts:
        if fact.head in nodes and fact.tail in nodes:
            out.add(fact)
    return out


def load_kg_oracle(path: str):
    """The line-by-line KG parser: per-line id normalization, per-key sorts.

    Returns (entities, relations, facts, adjacency, first_token_index) with
    facts as plain (head, relation, tail) tuples, or raises KGFormatError
    with the message `load_kg` gives.
    """
    from factpool.kg import KGFormatError

    def to_id(surface: str) -> str:
        return "_".join(surface.lower().split())

    entities: set[str] = set()
    relations: set[str] = set()
    facts: set[tuple[str, str, str]] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(p.strip() for p in parts):
                raise KGFormatError(f"{path}: malformed line {lineno}: {line!r}")
            head, relation, tail = (to_id(p) for p in parts)
            if "question" in (head, tail):
                raise KGFormatError(
                    f"{path}: line {lineno}: entity id 'question' is reserved "
                    f"for the virtual question node: {line!r}"
                )
            entities.add(head)
            entities.add(tail)
            relations.add(relation)
            facts.add((head, relation, tail))
    if not facts:
        raise KGFormatError(f"{path}: empty KG")
    adjacency: dict[str, list] = {}
    for fact in sorted(facts):
        head, _, tail = fact
        adjacency.setdefault(head, []).append(fact)
        if tail != head:
            adjacency.setdefault(tail, []).append(fact)
    index: dict[str, set[str]] = {}
    for entity in entities:
        tokens = re.findall(r"[a-z0-9]+", entity.replace("_", " ").lower())
        if not tokens:
            continue
        first = tokens[0]
        plural_folded = first[:-1] if len(first) > 1 and first.endswith("s") else first
        for key in {first, plural_folded}:
            index.setdefault(key, set()).add(entity)
    return (
        entities,
        relations,
        facts,
        {entity: tuple(incident) for entity, incident in adjacency.items()},
        {key: tuple(sorted(vals)) for key, vals in index.items()},
    )


def barycentric_membership(points: list[np.ndarray], target: np.ndarray, tol=1e-9) -> bool:
    """Is target a convex combination of <= 3 points (exhaustive solve)?"""
    pts = np.stack(points)
    n = pts.shape[0]
    if n == 1:
        return bool(np.linalg.norm(target - pts[0]) < tol)
    basis = (pts[:-1] - pts[-1]).T  # [d, n-1]
    rhs = target - pts[-1]
    coeffs, residual, _, _ = np.linalg.lstsq(basis, rhs, rcond=None)
    reconstructed = basis @ coeffs + pts[-1]
    if np.linalg.norm(reconstructed - target) > tol:
        return False
    lambdas = list(coeffs) + [1.0 - float(np.sum(coeffs))]
    return all(lam >= -tol for lam in lambdas)
