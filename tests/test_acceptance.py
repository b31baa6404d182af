"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured values.
The robustness-trend criterion trains nine models (three kinds, three seeds)
and is the long pole: `tests/robustness.py` runs it in two subprocesses
started at collection, beside the other tests (see `tests/conftest.py`); everything
else finishes in seconds to a couple of minutes.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import gnn_oracle, message_oracle, pool_oracle

from factpool.config import Config
from factpool.experiment import (
    ExperimentConfig,
    count_aggregations,
    delta_acc,
    explain,
    pipeline_hashes,
    run_experiment,
)
from factpool.gnn import GNNConfig, gnn_forward_arrays, init_gnn_params
from factpool.harness_data import tiny_gradcheck_setup
from factpool.kg import (
    Fact,
    GroundedStatement,
    Subgraph,
    add_virtual_question_node,
    remove_answer_edges,
    retrieve_subgraph,
)
from factpool.model import (
    SCORED_POSITIONS,
    WITH_ANSWERS,
    WITHOUT_ANSWERS,
    batch_forward,
    build_encoder,
    create_model,
    gradient_check,
    ground_records,
    load_model,
    prepare_dataset,
    relation_table,
    train_model,
)
from factpool.numerics import softmax_stable
from factpool.pooling import init_pooling_head, pool_forward
from factpool.synthetic import SyntheticSpec, write_synthetic

from helpers import candidate_pool_weights, kg_from_facts, own_arrays


def report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE criterion {num} [{name}]: PASS{suffix}")


# -----------------------------------------------------------------------------


def test_criterion_01_relative_degradation_arithmetic():
    assert delta_acc(68.3, 65.0) == -4.8
    assert delta_acc(66.7, 64.8) == -2.8
    assert delta_acc(50.0, 50.0) == 0.0
    report(1, "delta-acc arithmetic", "(68.3,65.0)->-4.8, (66.7,64.8)->-2.8, equal->0.0")


def test_criterion_02_pooling_invariant_suite():
    start = time.time()
    rng = np.random.default_rng(2024)
    dims = [4, 8, 16, 32, 64]
    for i in range(1000):
        d = dims[i % len(dims)]
        n_edges = int(rng.integers(1, 41))
        head = init_pooling_head("pool0", d, rng)
        matrix = rng.standard_normal((n_edges, d)) * rng.uniform(0.2, 3.0)
        pooled, weights, _ = pool_forward(head, matrix, [n_edges], "pool0")
        assert abs(weights.sum() - 1.0) < 1e-9
        assert np.all(weights >= 0.0) and np.all(weights <= 1.0)
        perm = rng.permutation(n_edges)
        pooled_p, weights_p, _ = pool_forward(head, matrix[perm], [n_edges], "pool0")
        assert np.allclose(weights_p, weights[perm], atol=1e-12)
        assert np.allclose(pooled_p, pooled, atol=1e-12)
        # exact logit-shift invariance on exactly-representable shifts
        logits = rng.integers(-(2**20), 2**20, size=n_edges) / 2.0**10
        shift = float(rng.integers(-(2**12), 2**12)) / 2.0**6
        assert np.array_equal(softmax_stable(logits), softmax_stable(logits + shift))
        # single-edge and uniform-logit cases are exact
        _, w_single, _ = pool_forward(head, matrix[:1], [1], "pool0")
        assert w_single.tolist() == [1.0]
        uniform = softmax_stable(np.full(n_edges, float(rng.integers(-6, 7))))
        assert np.all(uniform == 1.0 / n_edges)
        # identical embedding rows: uniform up to last-ulp BLAS blocking noise
        tiled = np.tile(matrix[:1], (n_edges, 1))
        _, w_tiled, _ = pool_forward(head, tiled, [n_edges], "pool0")
        assert np.allclose(w_tiled, 1.0 / n_edges, rtol=0, atol=1e-12)
    report(2, "pooling invariants", f"1000 instances in {time.time()-start:.1f}s")


def test_criterion_03_full_model_gradient_suite():
    start = time.time()
    worst = {}
    for kind in ("pooled", "gnn"):
        model, prepared = tiny_gradcheck_setup(Config(), kind)
        result = gradient_check(model, prepared)
        worst[kind] = result.max_error
        assert result.max_error < 1e-4, (kind, result.group_errors)
        groups = set(result.group_errors)
        if kind == "pooled":
            assert {"pool0", "pool1", "pool2", "fq", "fg", "layer1", "layer2"} <= groups
        else:
            assert "gnn" in groups
    report(
        3,
        "finite-difference gradients",
        f"max rel err pooled={worst['pooled']:.2e}, gnn={worst['gnn']:.2e}, "
        f"{time.time()-start:.0f}s",
    )


def test_criterion_04_fusion_reduction_bit_identical():
    start = time.time()
    from factpool.harness_data import tiny_benchmark

    kg, templates, records = tiny_benchmark(seed=11, questions=6)
    curves = {}
    forwards = {}
    for mode in ("early", "early_late"):
        cfg = Config(
            L=2, d=16, heads=2, K=0, fusion_mode=mode, vocab_size=128,
            max_tokens=48, max_nodes=8, epochs=2, batch_size=3, seed=5,
            lr_lm=3e-3, lr_graph=1e-2,
        )
        model = create_model(cfg, "pooled", relation_table(kg))
        encoder = build_encoder(model)
        prepared = prepare_dataset(model, kg, templates, encoder, records)
        forwards[mode] = batch_forward(model, prepared)
        curves[mode] = train_model(model, prepared)
    early, late = forwards["early"], forwards["early_late"]
    assert np.array_equal(early.scores, late.scores)
    assert len(early.pool_weights) == len(late.pool_weights) == 1
    assert all(np.array_equal(a, b) for a, b in zip(early.pool_weights, late.pool_weights))
    # K=0 injects nothing before any layer in either mode.
    assert early._caches["trunk_cache"][1] == {} == late._caches["trunk_cache"][1]
    final = early._caches["graph_states_final"]
    assert final.shape == (len(early.scores), SCORED_POSITIONS, cfg.d)  # the read positions
    assert np.array_equal(final, late._caches["graph_states_final"])
    assert curves["early"] == curves["early_late"]
    report(4, "early_late K=0 == early", f"bit-identical, {time.time()-start:.0f}s")


def test_criterion_05_robustness_trend(robustness_results):
    start = time.time()
    pooled = robustness_results["pooled"]
    gnn = robustness_results["gnn"]
    lm = robustness_results["lm"]
    margin = pooled.acc_with_mean - lm.acc_with_mean
    assert margin >= 5.0, (pooled.acc_with_mean, lm.acc_with_mean)
    assert abs(pooled.delta_acc) < abs(gnn.delta_acc), (pooled.delta_acc, gnn.delta_acc)
    report(
        5,
        "robustness trend",
        f"pooled w/={pooled.acc_with_mean:.1f} w/o={pooled.acc_without_mean:.1f} "
        f"delta={pooled.delta_acc}; gnn delta={gnn.delta_acc}; "
        f"lm w/={lm.acc_with_mean:.1f}; margin={margin:.1f}pts",
    )


def test_criterion_06_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(66)
    for case in range(200):
        d = int(rng.integers(2, 9))
        # pooling vs loop oracle
        n_edges = int(rng.integers(1, 6))
        head = init_pooling_head("pool0", d, rng)
        matrix = rng.standard_normal((n_edges, d))
        [pooled], _, _ = pool_forward(head, matrix, [n_edges], "pool0")
        assert np.max(np.abs(pooled - pool_oracle(head, matrix, "pool0"))) < 1e-12
        # message vs loop oracle: the one message a -> b of a single-fact graph
        params = init_gnn_params(d, num_relations=3, rng=rng)
        r = int(rng.integers(3))
        single = own_arrays(
            Subgraph(nodes={"a", "b"}, edges={Fact("a", f"r{r}", "b")}),
            {f"r{i}": i for i in range(3)},
        )
        h = rng.standard_normal((2, d))
        _, (_, layer_caches), _ = gnn_forward_arrays(
            params, GNNConfig(layers=1), single, h, backward_cache=True
        )
        got = layer_caches[0][4][1]
        want = message_oracle(
            h[0], params["gnn.rel_emb"][r], params["gnn.msg.w"], params["gnn.msg.b"]
        )
        assert np.max(np.abs(got - want)) < 1e-12
        # gnn forward vs loop oracle on a <=5-node graph
        n_nodes = int(rng.integers(2, 6))
        names = [f"n{i}" for i in range(n_nodes)]
        n_facts = int(rng.integers(1, 7))
        facts = {
            Fact(
                names[int(rng.integers(n_nodes))],
                f"r{int(rng.integers(3))}",
                names[int(rng.integers(n_nodes))],
            )
            for _ in range(n_facts)
        }
        sub = Subgraph(nodes=set(names), edges=facts)
        relation_index = {f"r{i}": i for i in range(3)}
        arrays = own_arrays(sub, relation_index)
        init = rng.standard_normal((n_nodes, d))
        layers = 1 + case % 2
        final, _, _ = gnn_forward_arrays(params, GNNConfig(layers=layers), arrays, init)
        edges = list(zip(arrays.src, arrays.dst, arrays.rel))
        want = gnn_oracle(params, layers, init, edges)
        assert np.max(np.abs(final - want)) < 1e-12
    report(6, "naive-oracle equivalence", f"200 cases in {time.time()-start:.1f}s")


def test_criterion_07_aggregation_count_grid():
    start = time.time()
    for k in (0, 2, 5):
        cfg = Config(
            L=6, d=16, heads=2, K=k,
            fusion_mode="early" if k == 0 else "early_late", vocab_size=64,
        )
        for n in (4, 16, 32):
            assert count_aggregations("pooled", n, cfg) == k + 1
            for layers in (1, 2):
                gcfg = replace(cfg, gnn_layers=layers)
                assert count_aggregations("gnn", n, gcfg) == n * layers
    # the structural count is what the real forward performs
    from factpool.harness_data import tiny_benchmark

    kg, templates, records = tiny_benchmark(seed=7, questions=4)
    for kind, cfg in (
        ("pooled", Config(L=2, d=16, heads=2, K=2, fusion_mode="early_late",
                          vocab_size=64, max_tokens=48, max_nodes=8)),
        ("gnn", Config(L=2, d=16, heads=2, vocab_size=64, max_tokens=48,
                       max_nodes=8, gnn_layers=3)),
    ):
        model = create_model(cfg, kind, relation_table(kg))
        prepared = prepare_dataset(model, kg, templates, build_encoder(model), records)
        expected = sum(
            count_aggregations(kind, len(sub.nodes), cfg)
            for statements in ground_records(kg, records, cfg.max_nodes)
            for _, sub in statements
        )
        assert batch_forward(model, prepared).aggregations == expected
    report(7, "aggregation counts", f"grid exact in {time.time()-start:.1f}s")


def test_criterion_08_perturbation_properties():
    start = time.time()
    rng = np.random.default_rng(88)
    names = [f"e{i}" for i in range(14)]
    for _ in range(500):
        n_facts = int(rng.integers(1, 25))
        facts = {
            (
                names[int(rng.integers(len(names)))],
                f"r{int(rng.integers(3))}",
                names[int(rng.integers(len(names)))],
            )
            for _ in range(n_facts)
        }
        kg = kg_from_facts(facts)
        pool_entities = sorted(kg.entities)
        answers = {
            pool_entities[int(rng.integers(len(pool_entities)))]
            for _ in range(int(rng.integers(1, 4)))
        }
        questions = {
            pool_entities[int(rng.integers(len(pool_entities)))]
            for _ in range(int(rng.integers(1, 4)))
        } - answers
        stmt = GroundedStatement(
            context="", question="q", candidate="",
            question_entities=questions, answer_entities=answers,
        )
        sub = add_virtual_question_node(retrieve_subgraph(kg, stmt, 32), stmt)
        pruned = remove_answer_edges(sub, stmt)
        for edge in pruned.edges:
            assert edge.head not in answers and edge.tail not in answers
        again = remove_answer_edges(pruned, stmt)
        assert again.edges == pruned.edges and again.nodes == pruned.nodes
        assert pruned.nodes == sub.nodes
    # pipeline stages are identical across conditions except perturbation
    from factpool.harness_data import tiny_benchmark

    kg, templates, records = tiny_benchmark(seed=8, questions=6)
    cfg = Config(L=2, d=16, heads=2, vocab_size=128, max_tokens=48, max_nodes=8)
    with_h = pipeline_hashes(kg, records, cfg, WITH_ANSWERS)
    without_h = pipeline_hashes(kg, records, cfg, WITHOUT_ANSWERS)
    shared = ("kg", "dataset", "linking", "retrieval")
    for stage in shared:
        assert with_h[stage] == without_h[stage]
    assert with_h["perturbation"] != without_h["perturbation"]
    report(8, "perturbation properties", f"500 subgraphs in {time.time()-start:.1f}s")


def test_criterion_09_explain_report():
    start = time.time()
    from factpool.harness_data import tiny_benchmark

    cfg = Config(
        L=4, d=32, heads=4, K=2, fusion_mode="early_late", vocab_size=256,
        max_tokens=48, max_nodes=8, epochs=3, batch_size=4, seed=2,
        lr_lm=1e-3, lr_graph=3e-3,
    )
    kg, templates, records = tiny_benchmark(seed=12, questions=10)
    model = create_model(cfg, "pooled", relation_table(kg))
    encoder = build_encoder(model)
    prepared = prepare_dataset(model, kg, templates, encoder, records)
    train_model(model, prepared)
    record = next(r for r in records if r.meta.get("kind") == "kg")
    [question] = prepare_dataset(model, kg, templates, encoder, [record])
    pool_weights = candidate_pool_weights(
        batch_forward(model, [question]).pool_weights, question.candidates
    )
    rep = explain(model, kg, templates, encoder, record, top_n=3)
    for idx, cand in enumerate(rep.candidates):
        assert len(cand.per_layer) == cfg.K + 1
        for k, entries in enumerate(cand.per_layer):
            weights = [e.weight for e in entries]
            assert weights == sorted(weights, reverse=True)
            assert all(0.0 <= w <= 1.0 for w in weights)
            full = pool_weights[idx][k]
            if len(full):
                assert abs(full.sum() - 1.0) < 1e-9
                top = sorted(full, reverse=True)[: len(entries)]
                assert np.allclose(weights, top, atol=0)  # exact forward values
    text = rep.render()
    assert "fusion layer k=2" in text
    report(9, "explain report", f"trained + verified in {time.time()-start:.0f}s")


def test_criterion_10_determinism_and_persistence(tmp_path):
    start = time.time()
    spec = SyntheticSpec(
        entities=400, relations=3, questions=16, candidates=3,
        distractor_rate=0.5, kg_fraction=0.7, seed=3,
    )
    paths = write_synthetic(spec, tmp_path / "data")
    cfg = Config(
        L=2, d=16, heads=2, K=1, fusion_mode="early_late", vocab_size=128,
        max_tokens=48, max_nodes=8, epochs=2, batch_size=4, seed=1,
        lr_lm=3e-3, lr_graph=1e-2,
    )
    blobs = {}
    for run in ("x", "y"):
        out = tmp_path / run
        ecfg = ExperimentConfig(
            config=cfg,
            kg_path=str(paths["kg"]),
            dataset_path=str(paths["dataset"]),
            templates_path=str(paths["templates"]),
            train_count=10,
            test_count=6,
            seeds=(1,),
            out_dir=str(out),
        )
        run_experiment(ecfg)
        blobs[run] = (
            (out / "pooled_seed1" / "final.ckpt").read_bytes(),
            (out / "metrics_pooled.txt").read_bytes(),
        )
    assert blobs["x"][0] == blobs["y"][0], "checkpoints differ across identical runs"
    assert blobs["x"][1] == blobs["y"][1], "metrics differ across identical runs"
    restored = load_model(str(tmp_path / "x" / "pooled_seed1" / "final.ckpt"))
    reference = load_model(str(tmp_path / "y" / "pooled_seed1" / "final.ckpt"))
    for name in reference.params:
        assert restored.params[name].tobytes() == reference.params[name].tobytes()
    report(10, "determinism & persistence", f"{time.time()-start:.0f}s")
