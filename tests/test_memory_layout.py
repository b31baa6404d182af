"""What prepared sets and training steps hold in memory: one vector table per
prepared set, held by nothing else, and a backward cache that leaves out what
backward can recompute."""

import tracemalloc

import numpy as np
import pytest

from factpool.config import Config
from factpool.encoders import HashBagEncoder
from factpool.harness_data import tiny_benchmark
from factpool.kg import VIRTUAL_NODE_ID, Fact
from factpool.model import (
    CONDITIONS,
    PreparedCandidate,
    PreparedQuestion,
    PreparedSet,
    batch_backward,
    batch_forward,
    build_encoder,
    create_model,
    ground_records,
    loss_and_grads,
    prepare_conditions,
    relation_table,
)


def prepared_set(kind, encoder=None):
    cfg = Config(L=2, d=8, heads=2, K=1, fusion_mode="early_late", vocab_size=64,
                 max_tokens=48, max_nodes=8, seed=0)
    kg, templates, records = tiny_benchmark(seed=1, questions=6)
    model = create_model(cfg, kind, relation_table(kg))
    grounding = ground_records(kg, records, cfg.max_nodes)
    encoder = encoder or build_encoder(model)
    prepared = prepare_conditions(model, templates, encoder, records, grounding)
    candidates = [c for condition in CONDITIONS for q in prepared[condition] for c in q.candidates]
    return model, candidates, grounding


def assert_one_row_per_key(table, keyed_rows):
    """`keyed_rows`: (key, row) pairs over every candidate.  Each key reads
    one row, no two keys share a row and every row is read."""
    row_of = {}
    for key, row in keyed_rows:
        assert row_of.setdefault(key, int(row)) == int(row), key
    assert sorted(row_of.values()) == list(range(len(table)))


def test_a_prepared_set_shares_one_edge_table_with_a_row_per_fact():
    _, candidates, grounding = prepared_set("pooled")
    shared = candidates[0].shared
    assert all(c.shared is shared for c in candidates)
    table = shared.edge_table
    keys = {f.key() for statements in grounding for _, sub in statements for f in sub.edges}
    assert table.shape[0] == len(shared.facts) == len(shared.texts) == len(keys) > 0
    assert_one_row_per_key(
        table, ((f.key(), row) for c in candidates for f, row in zip(c.facts, c.edge_rows))
    )
    # Some candidate lost its answer edges and reads a subset of the same table.
    assert len({len(c.edge_rows) for c in candidates}) > 1


def test_a_gnn_prepared_set_shares_one_node_table_with_a_row_per_node():
    _, candidates, grounding = prepared_set("gnn")
    shared = candidates[0].shared
    assert all(c.shared is shared for c in candidates)
    assert shared.facts == shared.texts == [] and shared.edge_table.shape[0] == 0
    table = shared.node_table
    nodes = {n for statements in grounding for _, sub in statements for n in sub.nodes}
    assert table.shape[0] == len(nodes)
    assert_one_row_per_key(
        table, ((n, row) for c in candidates for n, row in zip(c.gnn.node_ids, c.node_rows))
    )
    assert candidates[0].node_rows[candidates[0].gnn.node_ids.index(VIRTUAL_NODE_ID)] == 0
    assert not table[0].any()  # the question-state placeholder


def arrays_reachable_from(root) -> list[np.ndarray]:
    """Every array reachable from `root` through attributes, dict values and
    list or tuple items."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return arrays


def test_the_edge_table_is_the_only_holder_of_a_pooled_sets_fact_vectors():
    encoder = HashBagEncoder(dim=8, seed=0)
    _, candidates, _ = prepared_set("pooled", encoder)
    table = candidates[0].shared.edge_table
    rows, width = {row.tobytes() for row in table}, table.shape[1]
    holders = []
    for array in arrays_reachable_from((encoder, candidates)):
        if array.dtype != table.dtype or array.shape[-1:] != (width,):
            continue
        if np.shares_memory(array, table) or rows & {r.tobytes() for r in array.reshape(-1, width)}:
            holders.append(array)
    assert len(holders) == 1 and holders[0] is table
    assert arrays_reachable_from(encoder) == []  # not even a token vector


@pytest.mark.parametrize("kind", ["pooled", "gnn"])
def test_backward_twice_on_one_result_gives_identical_gradients(kind):
    # Backward recomputes what the forward's cache leaves out; it must not
    # write the cache it recomputes from.
    model, candidates, _ = prepared_set(kind)
    # At initialization every LayerNorm has gain 1 and bias 0, so its output
    # equals its cached xhat: move them off that point.
    rng = np.random.default_rng(0)
    for name, param in model.params.items():
        if ".ln" in name:
            param += 0.1 * rng.standard_normal(param.shape)
    questions = [PreparedQuestion(candidates[i : i + 3], 0) for i in (0, 3)]
    result = batch_forward(model, questions, backward_cache=True)
    first, second = batch_backward(model, result), batch_backward(model, result)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name].tobytes() == second[name].tobytes(), name


def test_pooled_training_step_peak_memory():
    # B=16 sequences of T=16 at d=64, L=4, heads=4: a layer's backward cache
    # is 7 [B, T, d] arrays, the [B, heads, T, T] attention weights and two
    # [B, T, 4d] FFN arrays, 2.1 MB.  The step peaks at 15.1 MB (numpy 2.4);
    # with each layer's GELU and LayerNorm-1 outputs cached too, 0.66 MB per
    # layer, it read 17.7 MB.
    cfg = Config(L=4, d=64, heads=4, K=2, fusion_mode="early_late", max_tokens=40,
                 vocab_size=256, seed=0)
    model = create_model(cfg, "pooled", ["r0", "r1"])
    rng = np.random.default_rng(0)
    facts = [Fact(f"e{i}", "r0", f"e{i + 1}") for i in range(64)]
    shared = PreparedSet(facts, [f.key() for f in facts], rng.standard_normal((64, cfg.d)))
    questions = [
        PreparedQuestion(
            [
                PreparedCandidate(
                    ids=rng.integers(5, cfg.vocab_size, 16), shared=shared,
                    edge_rows=rng.integers(0, len(facts), 12),
                )
                for _ in range(4)
            ],
            0,
        )
        for _ in range(4)
    ]
    loss_and_grads(model, questions)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        loss_and_grads(model, questions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16.0e6, f"{peak / 1e6:.2f} MB"
