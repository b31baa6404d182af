"""Independent reference implementations used as test oracles.

Everything here is deliberately written with explicit loops and scalar math,
not by calling the package kernels, so agreement is meaningful.  The
exceptions are `subgraphs_oracle` and `prepare_question_oracle`: they reuse
the package's retrieval, verbalizer and encoders one statement and one fact
at a time, so agreement checks the dataset-level batching and the derived
`without_answers` subgraphs.  `hash_bag_oracle` likewise reuses the hash-bag
token vectors and means them one text at a time, so agreement checks the
batched summation byte for byte.
"""

from __future__ import annotations

import math
import re

import numpy as np


def softmax_oracle(logits) -> list[float]:
    exps = [math.exp(z) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


def pool_oracle(params, matrix, prefix) -> np.ndarray:
    """Loop re-implementation of attention pooling of one candidate's edge
    rows with the head whose parameters are `{prefix}.*`."""
    key_w1, key_b1 = params[f"{prefix}.key.w1"], params[f"{prefix}.key.b1"]
    key_w2, key_b2 = params[f"{prefix}.key.w2"], params[f"{prefix}.key.b2"]
    w_value, b_value = params[f"{prefix}.w_value"], params[f"{prefix}.b_value"]
    n, d = matrix.shape
    logits = []
    for i in range(n):
        hidden = []
        for j in range(key_w1.shape[1]):
            acc = key_b1[j]
            for t in range(d):
                acc += matrix[i, t] * key_w1[t, j]
            hidden.append(gelu_scalar(acc))
        z = key_b2[0]
        for j, hj in enumerate(hidden):
            z += hj * key_w2[j]
        logits.append(z)
    weights = softmax_oracle(logits)
    out = np.zeros(d)
    for i in range(n):
        value = [
            b_value[j] + sum(matrix[i, t] * w_value[t, j] for t in range(d))
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


def gnn_oracle(params, layers, node_init, edges) -> np.ndarray:
    """Loop message passing: edges is a list of (src_idx, dst_idx, rel_idx)."""
    n, d = node_init.shape
    h = np.array(node_init, dtype=float)
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


# The array formulas of GELU, its gradient and LayerNorm as first written:
# one temporary per operation.  The in-place kernels in factpool.numerics
# apply the same operations in the same order and must match these byte for
# byte.


def gelu_reference(x: np.ndarray):
    c = math.sqrt(2.0 / math.pi)
    x2 = x * x
    t = np.tanh(c * (x + 0.044715 * (x2 * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_grad_reference(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    du = math.sqrt(2.0 / math.pi) * (1.0 + 0.134145 * (x * x))
    return 0.5 * (1.0 + t) + (0.5 * x * du) * (1.0 - t * t)


def layer_norm_reference(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps=1e-5):
    mu = np.mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = np.mean(centered**2, axis=-1, keepdims=True)
    inv_sigma = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_sigma
    return gain * xhat + bias, (xhat, inv_sigma)


def layer_norm_backward_reference(d_y: np.ndarray, cache, gain: np.ndarray):
    xhat, inv_sigma = cache
    d_gain = np.sum(d_y * xhat, axis=tuple(range(d_y.ndim - 1)))
    d_bias = np.sum(d_y, axis=tuple(range(d_y.ndim - 1)))
    d_xhat = d_y * gain
    mean_d = np.mean(d_xhat, axis=-1, keepdims=True)
    mean_dx = np.mean(d_xhat * xhat, axis=-1, keepdims=True)
    d_x = inv_sigma * (d_xhat - mean_d - xhat * mean_dx)
    return d_x, d_gain, d_bias


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


def name_pool_oracle(spec, rng) -> list[str]:
    """The synthetic name pool drawn one scalar `integers` call per syllable,
    entity by entity, first syllable before second."""
    from factpool.synthetic import _SYLLABLES

    n = len(_SYLLABLES)
    return [
        f"{_SYLLABLES[int(rng.integers(n))]}{_SYLLABLES[int(rng.integers(n))]}{i}"
        for i in range(spec.entities)
    ]


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


# The key=value config file, stated apart from `factpool.config`: each of
# its 14 keys in file order, with its value type and its default.
CONFIG_FILE_KEYS = {
    "L": (int, 4),
    "d": (int, 64),
    "heads": (int, 4),
    "K": (int, 0),
    "fusion_mode": (str, "early"),
    "max_tokens": (int, 100),
    "max_nodes": (int, 32),
    "token_pooling": (str, "mean"),
    "encoder_kind": (str, "hash-bag"),
    "lr_lm": (float, 3e-4),
    "lr_graph": (float, 1e-3),
    "epochs": (int, 20),
    "batch_size": (int, 16),
    "seed": (int, 0),
}


def parse_config_oracle(text: str):
    """Every file key's value (the file's, else its default), or None when
    `parse_config_text` must reject the text: a non-blank line (after its
    `#` comment) without `=`, an unknown or repeated key, a value of the
    wrong type, or values no model can run with."""
    values = {}
    for raw in text.splitlines():
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            return None
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in CONFIG_FILE_KEYS or key in values:
            return None
        kind = CONFIG_FILE_KEYS[key][0]
        try:
            values[key] = kind(value)
        except ValueError:
            return None
    c = {key: values.get(key, default) for key, (_, default) in CONFIG_FILE_KEYS.items()}
    sizes = ("L", "d", "heads", "max_nodes", "epochs", "batch_size")
    runnable = (
        all(c[name] >= 1 for name in sizes)
        and c["max_tokens"] >= 5  # [GRAPH][CLS] [SEP] question [SEP]
        and c["seed"] >= 0
        and c["d"] % c["heads"] == 0
        and 0 <= c["K"] <= c["L"]
        and c["fusion_mode"] in ("early", "early_late")
        and not (c["fusion_mode"] == "early" and c["K"] != 0)
        and c["token_pooling"] in ("cls", "mean")
        and c["encoder_kind"] in ("hash-bag", "shared-toy-encoder", "external-file")
        and not (c["token_pooling"] == "cls" and c["encoder_kind"] == "hash-bag")
        and all(math.isfinite(c[name]) and c[name] >= 0 for name in ("lr_lm", "lr_graph"))
    )
    return c if runnable else None


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


def subgraphs_oracle(kg, record, max_nodes, condition):
    """Per candidate of `record`: (statement, subgraph under `condition`), from
    one retrieval per statement and condition."""
    from factpool.kg import (
        add_virtual_question_node,
        ground_statement,
        remove_answer_edges,
        retrieve_subgraph,
    )
    from factpool.model import WITHOUT_ANSWERS

    statements = []
    for c_index, cand_text in enumerate(record.candidates):
        stmt = ground_statement(
            kg,
            record.context,
            record.question,
            cand_text,
            question_entities=(
                set(record.question_entities) if record.question_entities is not None else None
            ),
            answer_entities=(
                set(record.answer_entities[c_index]) if record.answer_entities is not None else None
            ),
        )
        sub = add_virtual_question_node(retrieve_subgraph(kg, stmt, max_nodes), stmt)
        if condition == WITHOUT_ANSWERS:
            sub = remove_answer_edges(sub, stmt)
        statements.append((stmt, sub))
    return statements


def hash_bag_oracle(encoder, text: str) -> np.ndarray:
    """`text`'s hash-bag vector computed on its own: `np.mean` over its
    token vectors, as `HashBagEncoder.encode_text` once did per text."""
    from factpool.kg import text_tokens

    tokens = text_tokens(text)
    if not tokens:
        raise ValueError(f"cannot encode empty text: {text!r}")
    return np.mean([encoder.token_vector(token) for token in tokens], axis=0)


def prepare_question_oracle(model, kg, templates, encoder, record, condition):
    """Per-question preparation from `subgraphs_oracle`: one encoder call per
    fact of a pooled model (gnn and lm candidates hold no facts) and per GNN
    entity node."""
    from factpool.gnn import subgraph_arrays
    from factpool.kg import VIRTUAL_NODE_ID, id_to_surface
    from factpool.model import PreparedCandidate, PreparedQuestion, PreparedSet
    from factpool.tokenizer import Tokenizer, tokenize_statement
    from factpool.verbalize import verbalize

    cfg = model.cfg
    candidates = []
    for stmt, sub in subgraphs_oracle(kg, record, cfg.max_nodes, condition):
        facts = sub.sorted_edges() if model.kind == "pooled" else []
        texts = [verbalize(f, templates) for f in facts]
        if facts:
            matrix = np.stack([encoder.encode_fact_text(f, t) for f, t in zip(facts, texts)])
        else:
            matrix = np.zeros((0, cfg.d))
        tokenizer = Tokenizer(cfg.vocab_size)
        ids = np.asarray(
            tokenize_statement(
                stmt.context, stmt.question, stmt.candidate, tokenizer, cfg.max_tokens
            ),
            dtype=np.int64,
        )
        # Each candidate gets a set of its own, rows in candidate order.
        cand = PreparedCandidate(
            ids=ids,
            shared=PreparedSet(facts, texts, matrix),
            edge_rows=np.arange(len(facts), dtype=np.int64),
        )
        if model.kind == "gnn":
            nodes = sorted(sub.nodes)
            relation_index = {rel: i for i, rel in enumerate(model.relations)}
            cand.gnn = subgraph_arrays(sub, relation_index, {n: i for i, n in enumerate(nodes)})
            init = np.zeros((len(nodes), cfg.d))
            for i, node in enumerate(nodes):
                if node != VIRTUAL_NODE_ID:
                    init[i] = encoder.encode_text(id_to_surface(node))
            cand.shared.node_table = init
        candidates.append(cand)
    return PreparedQuestion(candidates=candidates, answer_index=record.answer_index)
