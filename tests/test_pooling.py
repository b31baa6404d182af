import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import candidate_pool_weights
from oracles import barycentric_membership, fd_gradient, pool_oracle, softmax_oracle

from factpool.config import Config
from factpool.data import QuestionRecord
from factpool.harness_data import tiny_benchmark
from factpool import model as model_mod
from factpool.model import (
    batch_forward,
    build_encoder,
    create_model,
    loss_and_grads,
    prepare_dataset,
    relation_table,
)
from factpool.numerics import softmax_stable
from factpool.pooling import init_pooling_head, pool_backward_arrays, pool_forward

HEAD = "pool0"


def make_head(d, seed=0):
    return init_pooling_head(HEAD, d, np.random.default_rng(seed))


def pool_one(head, matrix):
    """Pool a single candidate's rows: (pooled [d], weights [E], cache)."""
    pooled, weights, cache = pool_forward(head, matrix, [matrix.shape[0]], HEAD)
    return pooled[0], weights, cache


def forward_backward(head, matrix, upstream):
    _, _, cache = pool_one(head, matrix)
    return pool_backward_arrays(head, cache, upstream[None, :], HEAD)


def pooled_model(K=0):
    """A tiny model, its KG assets and encoder, for batch_forward checks."""
    cfg = Config(
        L=2, d=8, heads=2, K=K, fusion_mode="early" if K == 0 else "early_late",
        vocab_size=64, max_tokens=48, max_nodes=8, seed=0,
    )
    kg, templates, records = tiny_benchmark(seed=1, questions=4)
    model = create_model(cfg, "pooled", relation_table(kg))
    return model, kg, templates, build_encoder(model), records


def zero_key_head(d):
    """Logits are exactly the output bias: designed-near-uniform weights."""
    head = make_head(d)
    for name in ("w1", "b1", "w2", "b2"):
        head[f"{HEAD}.key.{name}"][:] = 0.0
    return head


def identity_value_head(d):
    head = zero_key_head(d)
    head[f"{HEAD}.w_value"][:] = np.eye(d)
    head[f"{HEAD}.b_value"][:] = 0.0
    return head


# --- attention weights ---------------------------------------------------------


def test_uniform_logits_give_exact_quarter():
    d = 8
    head = make_head(d)
    row = np.random.default_rng(1).standard_normal(d)
    _, weights, _ = pool_one(head, np.tile(row, (4, 1)))
    assert np.all(weights == 0.25)


def test_single_edge_weight_is_one():
    head = make_head(6)
    _, weights, _ = pool_one(head, np.ones((1, 6)))
    assert weights.tolist() == [1.0]


def test_softmax_oracle_values():
    expected = softmax_oracle([1.0, 2.0, 3.0])
    got = softmax_stable(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(got, expected, atol=1e-15)
    assert np.allclose(got, [0.0900, 0.2447, 0.6652], atol=5e-5)


# --- pooled vector ---------------------------------------------------------------


def test_single_edge_identity_value():
    d = 8
    head = identity_value_head(d)
    vec = np.random.default_rng(2).standard_normal(d)
    pooled, _, _ = pool_one(head, vec[None, :])
    assert np.allclose(pooled, vec, atol=0)


def test_identical_edges_pool_to_projected_point():
    d = 6
    head = make_head(d, seed=5)
    row = np.random.default_rng(3).standard_normal(d)
    pooled, _, _ = pool_one(head, np.tile(row, (3, 1)))
    expected = row @ head[f"{HEAD}.w_value"] + head[f"{HEAD}.b_value"]
    assert np.allclose(pooled, expected, atol=1e-12)


def test_pool_matches_loop_oracle():
    d = 8
    rng = np.random.default_rng(7)
    head = make_head(d, seed=11)
    matrix = rng.standard_normal((3, d))
    pooled, _, _ = pool_one(head, matrix)
    assert np.allclose(pooled, pool_oracle(head, matrix, HEAD), atol=1e-12)


def test_empty_pool_returns_zero_vector():
    # A statement linking no entity has no edges; its graph vector is zero, so
    # the pooled model scores exactly like the text-only model sharing its
    # trunk and heads.
    model, kg, templates, encoder, _ = pooled_model()
    record = QuestionRecord(question="zzq xqv", candidates=["vvx", "qqz"], answer_index=0)
    [prepared] = prepare_dataset(model, kg, templates, encoder, [record])
    assert all(c.edge_matrix.shape == (0, 8) for c in prepared.candidates)
    result = batch_forward(model, [prepared])
    assert result.pool_weights and all(w.shape == (0,) for w in result.pool_weights)
    text_only = create_model(model.cfg, "lm", model.relations)
    text_only.params = {n: a for n, a in model.params.items() if not n.startswith("pool")}
    assert np.array_equal(batch_forward(text_only, [prepared]).scores, result.scores)


def test_pool_multi_reductions():
    # batch_forward runs one independent pooling head per fusion slot.
    model, kg, templates, encoder, records = pooled_model(K=2)
    record = next(r for r in records if r.meta.get("kind") == "kg")
    [prepared] = prepare_dataset(model, kg, templates, encoder, [record])
    matrix = prepared.candidates[0].edge_matrix
    assert matrix.shape[0] >= 2
    n = matrix.shape[0]
    result = batch_forward(model, [prepared], backward_cache=True)
    first = candidate_pool_weights(result.pool_weights, prepared.candidates)[0]
    for k in range(3):
        _, _, weights, values, _, _, _ = result._caches["pool_caches"][k]
        assert np.array_equal(result.pool_weights[k], weights)
        assert np.array_equal(first[k], weights[:n])
        expected = pool_oracle(model.params, matrix, f"pool{k}")
        assert np.allclose(weights[:n] @ values[:n], expected, atol=1e-12)
    assert not np.array_equal(first[0], first[1])
    # identical heads reduce to one pooled vector in every slot
    for k in (1, 2):
        for name in [name for name in model.params if name.startswith("pool0.")]:
            model.params[name.replace("pool0.", f"pool{k}.")][...] = model.params[name]
    same = batch_forward(model, [prepared])
    for k in (1, 2):
        assert np.array_equal(same.pool_weights[k], same.pool_weights[0])


def test_batch_pool_matches_oracle_per_candidate():
    # One call pools a batch that mixes edgeless and non-empty candidates.
    d = 6
    rng = np.random.default_rng(31)
    counts = [3, 0, 1, 5, 0, 2]
    matrix = rng.standard_normal((sum(counts), d))
    params = {}
    for k in range(3):
        params.update(init_pooling_head(f"pool{k}", d, rng))
    bounds = np.cumsum(counts[:-1])
    for k in range(3):
        pooled, weights, _ = pool_forward(params, matrix, counts, f"pool{k}")
        assert pooled.shape == (len(counts), d)
        per_candidate = np.split(weights, bounds)
        for i, rows in enumerate(np.split(matrix, bounds)):
            if counts[i] == 0:
                assert np.all(pooled[i] == 0.0)
                assert per_candidate[i].shape == (0,)
            else:
                expected = pool_oracle(params, rows, f"pool{k}")
                assert np.max(np.abs(pooled[i] - expected)) < 1e-12
                assert abs(per_candidate[i].sum() - 1.0) < 1e-12
        assert per_candidate[2].tolist() == [1.0]


def test_batch_forward_pools_once_per_head(monkeypatch):
    model, kg, templates, encoder, records = pooled_model(K=2)
    prepared = prepare_dataset(model, kg, templates, encoder, records)
    calls = []
    real = model_mod.pool_forward

    def counting(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(model_mod, "pool_forward", counting)
    result = batch_forward(model, prepared, backward_cache=True)
    assert calls == ["pool0", "pool1", "pool2"]
    edges = sum(len(c.edge_rows) for q in prepared for c in q.candidates)
    assert [w.shape for w in result.pool_weights] == [(edges,)] * 3
    candidates = [c for q in prepared for c in q.candidates]
    per_candidate = candidate_pool_weights(result.pool_weights, candidates)
    assert len(per_candidate) == len(candidates)
    assert all(len(per_head) == 3 for per_head in per_candidate)


# --- gradients --------------------------------------------------------------------


def test_pool_backward_vs_finite_differences():
    d = 8
    rng = np.random.default_rng(13)
    head = make_head(d, seed=17)
    matrix = rng.standard_normal((3, d))
    upstream = rng.standard_normal(d)

    def loss():
        pooled, _, _ = pool_one(head, matrix)
        return float(pooled @ upstream)

    grads, d_matrix = forward_backward(head, matrix, upstream)
    for name in head:
        numeric = fd_gradient(loss, head[name])
        denom = np.maximum(np.abs(numeric), 1e-4)
        assert np.max(np.abs(grads[name] - numeric) / denom) < 1e-4, name
    numeric = fd_gradient(loss, matrix)
    assert np.max(np.abs(d_matrix - numeric) / np.maximum(np.abs(numeric), 1e-4)) < 1e-4


def test_batch_pool_backward_vs_finite_differences():
    # Segments of 2, 0, 3 and 1 rows; the edgeless candidate's upstream is
    # ignored because its pooled vector is the constant zero.
    d = 5
    rng = np.random.default_rng(41)
    counts = [2, 0, 3, 1]
    head = make_head(d, seed=43)
    matrix = rng.standard_normal((sum(counts), d))
    upstream = rng.standard_normal((len(counts), d))

    def loss():
        pooled, _, _ = pool_forward(head, matrix, counts, HEAD)
        return float(np.sum(pooled * upstream))

    _, _, cache = pool_forward(head, matrix, counts, HEAD)
    grads, d_matrix = pool_backward_arrays(head, cache, upstream, HEAD)
    assert set(grads) == set(head)
    for name in head:
        numeric = fd_gradient(loss, head[name])
        denom = np.maximum(np.abs(numeric), 1e-4)
        assert np.max(np.abs(grads[name] - numeric) / denom) < 1e-4, name
    numeric = fd_gradient(loss, matrix)
    assert np.max(np.abs(d_matrix - numeric) / np.maximum(np.abs(numeric), 1e-4)) < 1e-4


def test_edgeless_batch_gets_no_pool_gradient():
    # RAdam moves a parameter on a zero gradient through its momentum, so a
    # batch without edges must leave the pooling heads out of the gradients.
    model, kg, templates, encoder, _ = pooled_model(K=1)
    record = QuestionRecord(question="zzq xqv", candidates=["vvx", "qqz"], answer_index=0)
    [prepared] = prepare_dataset(model, kg, templates, encoder, [record])
    _, grads = loss_and_grads(model, [prepared])
    assert "fg.w1" in grads
    assert not [name for name in grads if name.startswith("pool")]


def test_pool_backward_zero_upstream():
    d = 6
    head = make_head(d)
    matrix = np.random.default_rng(5).standard_normal((4, d))
    grads, d_matrix = forward_backward(head, matrix, np.zeros(d))
    assert all(np.all(g == 0.0) for g in grads.values())
    assert np.all(d_matrix == 0.0)


def test_duplicate_edges_get_per_position_gradients():
    d = 6
    rng = np.random.default_rng(9)
    head = make_head(d, seed=3)
    row = rng.standard_normal(d)
    matrix = np.stack([row, row.copy()])
    upstream = rng.standard_normal(d)

    def loss():
        pooled, _, _ = pool_one(head, matrix)
        return float(pooled @ upstream)

    _, d_matrix = forward_backward(head, matrix, upstream)
    numeric = fd_gradient(loss, matrix)
    assert d_matrix.shape == (2, d)
    assert np.max(np.abs(d_matrix - numeric) / np.maximum(np.abs(numeric), 1e-4)) < 1e-4
    # duplicated rows: same gradient appears at each list position
    assert np.allclose(d_matrix[0], d_matrix[1], atol=1e-12)


# --- invariants --------------------------------------------------------------------


vectors = st.integers(2, 10).flatmap(
    lambda e: st.integers(2, 16).flatmap(
        lambda d: st.lists(
            st.lists(
                st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                min_size=d,
                max_size=d,
            ),
            min_size=e,
            max_size=e,
        )
    )
)


@settings(max_examples=50, deadline=None)
@given(vectors, st.integers(0, 2**31 - 1))
def test_weight_sum_and_permutation_invariance(rows, seed):
    matrix = np.array(rows)
    head = make_head(matrix.shape[1], seed=seed % 100)
    pooled, weights, _ = pool_one(head, matrix)
    assert abs(weights.sum() - 1.0) < 1e-9
    perm = np.random.default_rng(seed).permutation(matrix.shape[0])
    pooled_p, weights_p, _ = pool_one(head, matrix[perm])
    assert np.allclose(weights_p, weights[perm], atol=1e-12)
    assert np.allclose(pooled_p, pooled, atol=1e-12)


def test_logit_shift_invariance_exact_bitwise():
    # Dyadic logits and shifts make every addition exact, so the
    # max-subtracted softmax must agree bit for bit.
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        logits = rng.integers(-(2**20), 2**20, size=n) / 2.0**10
        shift = float(rng.integers(-(2**12), 2**12)) / 2.0**6
        base = softmax_stable(logits)
        shifted = softmax_stable(logits + shift)
        assert np.array_equal(base, shifted)


def test_logit_shift_via_output_bias_close():
    d = 8
    matrix = np.random.default_rng(2).standard_normal((5, d))
    head = make_head(d, seed=4)
    _, base, _ = pool_one(head, matrix)
    head[f"{HEAD}.key.b2"][0] += 3.75
    _, shifted, _ = pool_one(head, matrix)
    assert np.allclose(base, shifted, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(2, 8), st.integers(0, 10_000))
def test_pooled_vector_in_convex_hull(n_edges, d, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n_edges, d))
    head = make_head(d, seed=seed % 50)
    pooled, _, _ = pool_one(head, matrix)
    points = [matrix[i] @ head[f"{HEAD}.w_value"] + head[f"{HEAD}.b_value"] for i in range(n_edges)]
    assert barycentric_membership(points, pooled, tol=1e-8)


def test_near_uniform_designed_head():
    d = 8
    head = zero_key_head(d)
    matrix = np.random.default_rng(6).standard_normal((7, d))
    _, weights, _ = pool_one(head, matrix)
    assert np.max(np.abs(weights - 1.0 / 7.0)) < 1e-6
