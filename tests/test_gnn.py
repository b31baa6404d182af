from dataclasses import replace

import numpy as np

from helpers import kg_from_facts
from oracles import fd_gradient, gnn_oracle, message_oracle

from factpool.config import Config
from factpool.gnn import (
    GNNConfig,
    SubgraphArrays,
    gnn_backward_arrays,
    gnn_forward_arrays,
    init_gnn_params,
    subgraph_arrays,
    union_arrays,
)
from factpool.harness_data import tiny_benchmark
from factpool.kg import (
    VIRTUAL_NODE_ID,
    VIRTUAL_QUESTION_RELATION,
    Fact,
    GroundedStatement,
    Subgraph,
    add_virtual_question_node,
    id_to_surface,
    retrieve_subgraph,
)
from factpool import model as model_mod
from factpool.model import (
    batch_forward,
    build_encoder,
    create_model,
    ground_records,
    prepare_dataset,
    relation_table,
)
from factpool.transformer import scalar_head_forward


def make_sub(facts, question_entities, answer_entities=()):
    kg = kg_from_facts(facts)
    stmt = GroundedStatement(
        context="",
        question="q",
        candidate="",
        question_entities=set(question_entities),
        answer_entities=set(answer_entities),
    )
    return kg, stmt, add_virtual_question_node(retrieve_subgraph(kg, stmt, 32), stmt)


def rel_index(sub):
    return {r: i for i, r in enumerate(sorted({e.relation for e in sub.edges}))}


def gnn_question():
    """A tiny gnn model, its encoder, one prepared graph-determined question and
    its grounding (per candidate: statement and intact subgraph)."""
    cfg = Config(L=2, d=8, heads=2, vocab_size=64, max_tokens=48, max_nodes=8,
                 gnn_layers=2, seed=0)
    kg, templates, records = tiny_benchmark(seed=1, questions=4)
    model = create_model(cfg, "gnn", relation_table(kg))
    encoder = build_encoder(model)
    record = next(r for r in records if r.meta.get("kind") == "kg")
    prepared = prepare_dataset(model, kg, templates, encoder, [record])[0]
    return model, encoder, prepared, ground_records(kg, [record], cfg.max_nodes)[0]


def single_edge_messages(params, init):
    """Messages aggregated at each node of the one-fact graph a -r-> b."""
    arrays = subgraph_arrays(Subgraph(nodes={"a", "b"}, edges={Fact("a", "r", "b")}), {"r": 1})
    _, cache, _ = gnn_forward_arrays(params, GNNConfig(layers=1), arrays, init, True)
    _, layer_caches = cache
    return layer_caches[0][4]  # sum aggregate: one message per node here


def test_init_nodes_virtual_and_entities():
    model, encoder, prepared, statements = gnn_question()
    result = batch_forward(model, [prepared], backward_cache=True)
    _, layer_caches = result._caches["gnn_cache"]
    layer0 = layer_caches[0][0]  # the union graph's initial node states
    offset = 0
    for i, (cand, (_, sub)) in enumerate(zip(prepared.candidates, statements, strict=True)):
        assert cand.gnn.node_ids == sorted(sub.nodes)
        assert len(cand.gnn.node_ids) > 1
        for row, node in enumerate(cand.gnn.node_ids, start=offset):
            if node == VIRTUAL_NODE_ID:
                assert result._caches["gnn_virtual"][i] == row
                assert np.array_equal(layer0[row], result._caches["graph_states_final"][i, 1])
            else:
                assert np.array_equal(layer0[row], encoder.encode_text(id_to_surface(node)))
        offset += len(cand.gnn.node_ids)
    assert offset == len(layer0)


def test_batch_forward_message_passes_once(monkeypatch):
    model, _, prepared, _ = gnn_question()
    calls = []
    real = model_mod.gnn_forward_arrays

    def counting(*args):
        calls.append(len(args[2].node_ids))
        return real(*args)

    monkeypatch.setattr(model_mod, "gnn_forward_arrays", counting)
    result = batch_forward(model, [prepared, prepared])
    nodes = 2 * sum(len(cand.gnn.node_ids) for cand in prepared.candidates)
    assert calls == [nodes]
    assert result.aggregations == nodes * model.cfg.gnn_layers


def test_union_matches_oracle_per_part():
    # One run over the disjoint union equals a loop run per part.
    facts = [
        [("a", "r", "b"), ("b", "s", "c")],
        [("x", "s", "y")],
        [("p", "r", "q"), ("q", "r", "p"), ("p", "s", "s2"), ("s2", "r", "q")],
    ]
    subs = [make_sub(part, {f[0] for f in part} | {f[2] for f in part})[2] for part in facts]
    index = {"r": 0, "s": 1, VIRTUAL_QUESTION_RELATION: 2}
    parts = [subgraph_arrays(sub, index) for sub in subs]
    union, virtual = union_arrays(parts)
    sizes = [len(part.node_ids) for part in parts]
    assert len(union.node_ids) == sum(sizes)
    assert [union.node_ids[v] for v in virtual] == [VIRTUAL_NODE_ID] * len(parts)
    d = 6
    params = init_gnn_params(d, len(index), np.random.default_rng(15))
    rng = np.random.default_rng(16)
    inits = [rng.standard_normal((n, d)) for n in sizes]
    final, _, count = gnn_forward_arrays(
        params, GNNConfig(layers=2), union, np.concatenate(inits)
    )
    assert count == 2 * sum(sizes)
    for part, init, rows in zip(parts, inits, np.split(final, np.cumsum(sizes[:-1]))):
        edges = list(zip(part.src, part.dst, part.rel))
        assert np.max(np.abs(rows - gnn_oracle(params, 2, init, edges))) < 1e-12


def test_message_matches_oracle_and_is_pure():
    rng = np.random.default_rng(0)
    d = 8
    params = init_gnn_params(d, num_relations=3, rng=rng)
    init = rng.standard_normal((2, d))
    got = single_edge_messages(params, init)[1]  # a -> b
    expected = message_oracle(
        init[0], params["gnn.rel_emb"][1], params["gnn.msg.w"], params["gnn.msg.b"]
    )
    assert np.allclose(got, expected, atol=1e-12)
    moved = init.copy()
    moved[1] += 1.0
    assert np.array_equal(got, single_edge_messages(params, moved)[1])  # dest state unused


def test_zero_source_zero_relation_zero_bias_message():
    rng = np.random.default_rng(1)
    params = init_gnn_params(6, num_relations=2, rng=rng)
    params["gnn.msg.b"][:] = 0.0
    params["gnn.rel_emb"][:] = 0.0
    assert np.all(single_edge_messages(params, np.zeros((2, 6))) == 0.0)


def test_zero_layers_leaves_states():
    _, _, sub = make_sub([("a", "r", "b")], {"a", "b"})
    params = init_gnn_params(4, 3, np.random.default_rng(0))
    arrays = subgraph_arrays(sub, rel_index(sub))
    init = np.random.default_rng(1).standard_normal((len(arrays.node_ids), 4))
    final, _, count = gnn_forward_arrays(params, GNNConfig(layers=0), arrays, init)
    assert np.array_equal(final, init)
    assert count == 0


def test_two_node_single_layer_matches_hand_computation():
    _, _, sub = make_sub([("a", "r", "b")], {"a", "b"})
    d = 6
    params = init_gnn_params(d, len(rel_index(sub)), np.random.default_rng(3))
    arrays = subgraph_arrays(sub, rel_index(sub))
    init = np.random.default_rng(4).standard_normal((len(arrays.node_ids), d))
    final, _, _ = gnn_forward_arrays(params, GNNConfig(layers=1), arrays, init)
    edges = [(arrays.src[i], arrays.dst[i], arrays.rel[i]) for i in range(len(arrays.src))]
    expected = gnn_oracle(params, 1, init, edges)
    assert np.allclose(final, expected, atol=1e-12)


def test_isolated_node_keeps_state_exactly():
    # node "c" has no edges at all
    kg = kg_from_facts([("a", "r", "b"), ("c", "r", "c_partner")])
    stmt = GroundedStatement(
        context="", question="q", candidate="",
        question_entities={"a", "b", "c"}, answer_entities=set(),
    )
    sub = retrieve_subgraph(kg, stmt, 32)
    arrays = subgraph_arrays(sub, rel_index(sub))
    c_index = arrays.node_ids.index("c")
    d = 6
    params = init_gnn_params(d, max(1, len(rel_index(sub))), np.random.default_rng(5))
    init = np.random.default_rng(6).standard_normal((len(arrays.node_ids), d))
    for layers in (1, 2, 3):
        final, _, _ = gnn_forward_arrays(params, GNNConfig(layers=layers), arrays, init)
        assert np.array_equal(final[c_index], init[c_index])


def test_answer_isolation_after_perturbation():
    from factpool.kg import remove_answer_edges

    kg, stmt, sub = make_sub(
        [("q1", "r", "mid"), ("mid", "r", "ans")], {"q1"}, {"ans"}
    )
    pruned = remove_answer_edges(sub, stmt)
    arrays = subgraph_arrays(pruned, rel_index(sub))
    ans_index = arrays.node_ids.index("ans")
    d = 4
    params = init_gnn_params(d, len(rel_index(sub)), np.random.default_rng(0))
    init = np.random.default_rng(1).standard_normal((len(arrays.node_ids), d))
    final, _, _ = gnn_forward_arrays(params, GNNConfig(layers=2), arrays, init)
    assert np.array_equal(final[ans_index], init[ans_index])


def test_permutation_invariance_of_message_order():
    _, _, sub = make_sub([("a", "r", "b"), ("b", "s", "c"), ("a", "s", "c")], {"a", "b", "c"})
    arrays = subgraph_arrays(sub, rel_index(sub))
    d = 8
    params = init_gnn_params(d, len(rel_index(sub)), np.random.default_rng(7))
    init = np.random.default_rng(8).standard_normal((len(arrays.node_ids), d))
    base, _, _ = gnn_forward_arrays(params, GNNConfig(layers=2), arrays, init)
    perm = np.random.default_rng(9).permutation(len(arrays.src))
    shuffled = SubgraphArrays(
        node_ids=arrays.node_ids,
        src=arrays.src[perm],
        dst=arrays.dst[perm],
        rel=arrays.rel[perm],
        virtual_index=arrays.virtual_index,
    )
    permuted, _, _ = gnn_forward_arrays(params, GNNConfig(layers=2), shuffled, init)
    assert np.allclose(base, permuted, atol=1e-12)


def test_locality_remote_edge_is_bit_irrelevant():
    # states of {a, b} after 1 layer cannot depend on the far edge (x, y)
    facts = [("a", "r", "b"), ("b", "r", "x"), ("x", "r", "y")]
    kg, stmt, _ = make_sub(facts, {"a", "b", "x", "y"})
    sub_full = retrieve_subgraph(kg, stmt, 32)
    kg2 = kg_from_facts([("a", "r", "b"), ("b", "r", "x")])
    stmt2 = GroundedStatement(
        context="", question="q", candidate="",
        question_entities={"a", "b", "x"}, answer_entities=set(),
    )
    sub_cut = retrieve_subgraph(kg2, stmt2, 32)
    index = {"r": 0}
    arrays_full = subgraph_arrays(sub_full, index)
    arrays_cut = subgraph_arrays(sub_cut, index)
    d = 6
    params = init_gnn_params(d, 1, np.random.default_rng(11))
    rng = np.random.default_rng(12)
    init_by_node = {node: rng.standard_normal(d) for node in arrays_full.node_ids}
    init_full = np.stack([init_by_node[n] for n in arrays_full.node_ids])
    init_cut = np.stack([init_by_node[n] for n in arrays_cut.node_ids])
    final_full, _, _ = gnn_forward_arrays(params, GNNConfig(layers=1), arrays_full, init_full)
    final_cut, _, _ = gnn_forward_arrays(params, GNNConfig(layers=1), arrays_cut, init_cut)
    for node in ("a", "b"):
        i_full = arrays_full.node_ids.index(node)
        i_cut = arrays_cut.node_ids.index(node)
        assert np.array_equal(final_full[i_full], final_cut[i_cut])


def test_update_count_instrumentation():
    _, _, sub = make_sub([("a", "r", "b"), ("b", "r", "c")], {"a", "b", "c"})
    arrays = subgraph_arrays(sub, rel_index(sub))
    params = init_gnn_params(4, len(rel_index(sub)), np.random.default_rng(0))
    init = np.zeros((len(arrays.node_ids), 4))
    for layers in (1, 2, 3):
        _, _, count = gnn_forward_arrays(params, GNNConfig(layers=layers), arrays, init)
        assert count == len(arrays.node_ids) * layers


def test_gnn_backward_vs_finite_differences():
    _, _, sub = make_sub([("a", "r", "b"), ("b", "s", "c")], {"a", "b", "c"})
    arrays = subgraph_arrays(sub, rel_index(sub))
    d = 6
    params = init_gnn_params(d, len(rel_index(sub)), np.random.default_rng(13))
    rng = np.random.default_rng(14)
    init = rng.standard_normal((len(arrays.node_ids), d))
    probe = rng.standard_normal((len(arrays.node_ids), d))
    gcfg = GNNConfig(layers=2)

    def loss():
        final, _, _ = gnn_forward_arrays(params, gcfg, arrays, init)
        return float(np.sum(final * probe))

    _, cache, _ = gnn_forward_arrays(params, gcfg, arrays, init, backward_cache=True)
    grads, d_init = gnn_backward_arrays(params, gcfg, cache, probe)
    for name in ("gnn.rel_emb", "gnn.msg.w", "gnn.msg.b", "gnn.upd.w"):
        numeric = fd_gradient(loss, params[name])
        denom = np.maximum(np.abs(numeric), 1e-4)
        assert np.max(np.abs(grads[name] - numeric) / denom) < 1e-4, name
    numeric = fd_gradient(loss, init)
    assert np.max(np.abs(d_init - numeric) / np.maximum(np.abs(numeric), 1e-4)) < 1e-4


def test_forward_without_backward_cache_is_bit_identical_and_keeps_none(monkeypatch):
    _, _, sub = make_sub([("a", "r", "b"), ("b", "s", "c"), ("c", "r", "a")], {"a", "c"})
    arrays = subgraph_arrays(sub, rel_index(sub))
    params = init_gnn_params(6, len(rel_index(sub)), np.random.default_rng(21))
    init = np.random.default_rng(22).standard_normal((len(arrays.node_ids), 6))
    gcfg = GNNConfig(layers=2)
    kept, cache, count = gnn_forward_arrays(params, gcfg, arrays, init, backward_cache=True)
    bare, no_cache, bare_count = gnn_forward_arrays(params, gcfg, arrays, init)
    assert bare.tobytes() == kept.tobytes() and bare_count == count
    assert len(cache[1]) == 2 and no_cache is None
    # Only a training forward keeps layer caches; evaluation scores the same bytes.
    model, _, prepared, _ = gnn_question()
    caches = []
    real = model_mod.gnn_forward_arrays

    def spying(*args):
        out = real(*args)
        caches.append(out[1])
        return out

    monkeypatch.setattr(model_mod, "gnn_forward_arrays", spying)
    trained = batch_forward(model, [prepared], backward_cache=True)
    scored = batch_forward(model, [prepared])
    model_mod.evaluate(model, [prepared])
    assert caches[0] is not None and caches[1:] == [None, None]
    assert scored.scores.tobytes() == trained.scores.tobytes()
    assert "gnn_cache" not in scored._caches


def test_forward_arrays_cover_every_node():
    _, _, sub = make_sub([("a", "r", "b")], {"a", "b"})
    index = rel_index(sub)
    params = init_gnn_params(4, len(index), np.random.default_rng(2))
    arrays = subgraph_arrays(sub, index)
    assert set(arrays.node_ids) == sub.nodes
    init = np.random.default_rng(3).standard_normal((len(arrays.node_ids), 4))
    final, _, _ = gnn_forward_arrays(params, GNNConfig(layers=1), arrays, init)
    assert final.shape == (len(sub.nodes), 4)


def test_gnn_score_reads_question_state():
    # zero-round propagation: the score depends on the question vector only.
    # Config rejects gnn_layers=0, so the round count is set after validation.
    model, _, prepared, _ = gnn_question()
    model.cfg.gnn_layers = 0
    scores = batch_forward(model, [prepared]).scores
    rng = np.random.default_rng(4)
    # Each candidate gets a set of its own: the prepared set is shared.
    for cand in prepared.candidates:
        table = rng.standard_normal(cand.node_init.shape)
        cand.shared = replace(cand.shared, node_table=table)
        cand.node_rows = np.arange(len(cand.node_rows))
    result = batch_forward(model, [prepared])
    assert np.array_equal(result.scores, scores)
    # a zeroed head adds exactly nothing to the text score
    for name in list(model.params):
        if name.startswith("gnn.score"):
            model.params[name][:] = 0.0
    result = batch_forward(model, [prepared])
    fq, _ = scalar_head_forward(model.params, "fq", result._caches["graph_states_final"][:, 1])
    assert np.array_equal(result.scores, fq)
