import numpy as np
import pytest

from oracles import fd_gradient, trunk_oracle

from factpool.model import TRUNK_BLOCK
from factpool.transformer import (
    NoBackwardCacheError,
    init_scalar_head,
    init_trunk_params,
    scalar_head_backward,
    scalar_head_forward,
    trunk_backward,
    trunk_forward,
)


def make_setup(L=2, d=8, heads=2, T=6, vocab=32, seed=0):
    rng = np.random.default_rng(seed)
    params = init_trunk_params(L, d, vocab, max_tokens=16, rng=rng)
    ids = rng.integers(4, vocab, size=(1, T))
    ids[0, 0] = 0
    ids[0, 1] = 1
    graph_init = rng.standard_normal((1, d))
    return params, ids, graph_init, rng


def test_trunk_matches_loop_oracle():
    params, ids, graph_init, _ = make_setup()
    mask = np.ones_like(ids, dtype=bool)
    states, _ = trunk_forward(params, 2, 2, ids, mask, graph_init)
    oracle = trunk_oracle(params, 2, 2, ids[0], graph_init[0])
    assert np.max(np.abs(states[0] - oracle)) < 1e-10


def test_trunk_with_injections_matches_oracle():
    # K=2, L=4: vectors injected before layers 3 and 2.
    params, ids, graph_init, rng = make_setup(L=4, d=16, heads=4, T=8, vocab=64, seed=3)
    injections = {3: rng.standard_normal((1, 16)), 2: rng.standard_normal((1, 16))}
    mask = np.ones_like(ids, dtype=bool)
    states, _ = trunk_forward(params, 4, 4, ids, mask, graph_init, injections)
    oracle = trunk_oracle(
        params, 4, 4, ids[0], graph_init[0], {k: v[0] for k, v in injections.items()}
    )
    assert np.max(np.abs(states[0] - oracle)) < 1e-10
    # graph-token state after layer L-1: a 3-layer forward against the same oracle path
    after_l_minus_1, _ = trunk_forward(params, 3, 4, ids, mask, graph_init, injections)
    oracle_after_l_minus_1 = trunk_oracle(
        params, 3, 4, ids[0], graph_init[0], {k: v[0] for k, v in injections.items()}
    )[0]
    assert np.max(np.abs(after_l_minus_1[0, 0] - oracle_after_l_minus_1)) < 1e-10


def test_padding_does_not_change_real_positions():
    params, ids, graph_init, _ = make_setup(T=6)
    mask = np.ones_like(ids, dtype=bool)
    states, _ = trunk_forward(params, 2, 2, ids, mask, graph_init)
    padded_ids = np.concatenate([ids, np.full((1, 3), 3)], axis=1)
    padded_mask = np.concatenate([mask, np.zeros((1, 3), dtype=bool)], axis=1)
    padded_states, _ = trunk_forward(params, 2, 2, padded_ids, padded_mask, graph_init)
    assert np.allclose(padded_states[0, :6], states[0], atol=1e-12)


def padded_injected_batch():
    """L=4: three sequences, two of them padded, injections at 0, 2 and 3."""
    params, _, _, rng = make_setup(L=4, d=16, heads=4, T=9, vocab=64, seed=5)
    ids = rng.integers(4, 64, size=(3, 9))
    mask = np.ones_like(ids, dtype=bool)
    mask[1, 6:] = False
    mask[2, 3:] = False
    ids[~mask] = 3
    graph_init = rng.standard_normal((3, 16))
    injections = {layer: rng.standard_normal((3, 16)) for layer in (0, 2, 3)}
    return params, ids, mask, graph_init, injections


def test_cache_free_forward_byte_equal_to_caching_forward():
    params, ids, mask, graph_init, injections = padded_injected_batch()
    states, cache = trunk_forward(params, 4, 4, ids, mask, graph_init, injections)
    cached_states, full_cache = trunk_forward(
        params, 4, 4, ids, mask, graph_init, injections, backward_cache=True
    )
    assert states.tobytes() == cached_states.tobytes()
    assert cache[2] is None and len(full_cache[2]) == 4


@pytest.mark.parametrize("b", [1, 31, 32, 33, 70])
def test_forward_equals_forwards_over_its_blocks(b):
    # Padded (lengths 2..9 of T=9) and injected at 0, 2 and 3.  Evaluation
    # runs the trunk in blocks of TRUNK_BLOCK rows and a batch in one call;
    # each row's states are the same bytes.
    params, _, _, rng = make_setup(L=4, d=16, heads=4, T=9, vocab=64, seed=b)
    ids = rng.integers(4, 64, size=(b, 9))
    mask = np.arange(9) < rng.integers(2, 10, size=(b, 1))
    ids[~mask] = 3
    graph_init = rng.standard_normal((b, 16))
    injections = {layer: rng.standard_normal((b, 16)) for layer in (0, 2, 3)}
    states, cache = trunk_forward(params, 4, 4, ids, mask, graph_init, injections)
    assert cache[2] is None
    for start in range(0, b, TRUNK_BLOCK):
        rows = slice(start, start + TRUNK_BLOCK)
        block = {layer: vec[rows] for layer, vec in injections.items()}
        block_states, _ = trunk_forward(
            params, 4, 4, ids[rows], mask[rows], graph_init[rows], block
        )
        assert states[rows].tobytes() == block_states.tobytes()


def test_backward_without_cache_is_typed_error():
    params, ids, mask, graph_init, injections = padded_injected_batch()
    states, cache = trunk_forward(params, 4, 4, ids, mask, graph_init, injections)
    with pytest.raises(NoBackwardCacheError, match="without a backward cache"):
        trunk_backward(params, 4, cache, np.ones_like(states))


def test_trunk_backward_vs_finite_differences():
    params, ids, graph_init, rng = make_setup(L=1, d=8, heads=2, T=5, vocab=24, seed=7)
    mask = np.ones_like(ids, dtype=bool)
    probe = rng.standard_normal((1, 5, 8))

    def loss():
        states, _ = trunk_forward(params, 1, 2, ids, mask, graph_init)
        return float(np.sum(states * probe))

    _, cache = trunk_forward(params, 1, 2, ids, mask, graph_init, backward_cache=True)
    grads, d_graph_init, _ = trunk_backward(params, 1, cache, probe)
    for name in ("layer1.attn.wq", "layer1.ffn.w1", "layer1.ln1.gain", "pos_emb"):
        numeric = fd_gradient(loss, params[name])
        denom = np.maximum(np.abs(numeric), 1e-4)
        assert np.max(np.abs(grads[name] - numeric) / denom) < 1e-4, name
    numeric = fd_gradient(loss, graph_init)
    assert np.max(np.abs(d_graph_init - numeric) / np.maximum(np.abs(numeric), 1e-4)) < 1e-4


def test_scalar_head_backward():
    rng = np.random.default_rng(1)
    params = init_scalar_head("fq", 8, rng)
    x = rng.standard_normal((4, 8))
    probe = rng.standard_normal(4)

    def loss():
        out, _ = scalar_head_forward(params, "fq", x)
        return float(out @ probe)

    out, cache = scalar_head_forward(params, "fq", x)
    grads, d_x = scalar_head_backward(params, "fq", cache, probe)
    for name in ("fq.w1", "fq.b1", "fq.w2", "fq.b2"):
        numeric = fd_gradient(loss, params[name])
        denom = np.maximum(np.abs(numeric), 1e-4)
        assert np.max(np.abs(grads[name] - numeric) / denom) < 1e-4, name
    numeric = fd_gradient(loss, x)
    assert np.max(np.abs(d_x - numeric) / np.maximum(np.abs(numeric), 1e-4)) < 1e-4
