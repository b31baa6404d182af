import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import candidate_pool_weights

from factpool.config import Config
from factpool.experiment import (
    DatasetTooSmallError,
    ExperimentConfig,
    count_aggregations,
    delta_acc,
    explain,
    load_assets,
    pipeline_hashes,
    run_experiment,
    sweep,
    sweep_cells,
)
from factpool.harness_data import tiny_benchmark
from factpool.kg import Fact, KnowledgeGraph, text_tokens
from factpool.model import (
    CONDITIONS,
    WITH_ANSWERS,
    WITHOUT_ANSWERS,
    batch_forward,
    build_encoder,
    create_model,
    ground_records,
    relation_table,
    train_model,
    prepare_dataset,
)
from factpool.synthetic import SyntheticSpec, write_synthetic


def micro_config(**overrides):
    base = dict(
        L=2, d=16, heads=2, K=1, fusion_mode="early_late", max_tokens=48,
        max_nodes=8, vocab_size=128, epochs=2, batch_size=4, seed=0,
        lr_lm=3e-3, lr_graph=1e-2,
    )
    base.update(overrides)
    return Config(**base)


@pytest.fixture(scope="module")
def micro_assets(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    spec = SyntheticSpec(
        entities=400, relations=3, questions=16, candidates=3,
        distractor_rate=0.5, kg_fraction=0.7, seed=3,
    )
    paths = write_synthetic(spec, out)
    return paths


def micro_ecfg(paths, tmp_out=None, **overrides):
    cfg = micro_config()
    base = dict(
        config=cfg,
        kg_path=str(paths["kg"]),
        dataset_path=str(paths["dataset"]),
        templates_path=str(paths["templates"]),
        train_count=10,
        test_count=6,
        seeds=(0,),
        out_dir=tmp_out,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- delta_acc -----------------------------------------------------------------


def test_delta_acc_reference_values():
    assert delta_acc(68.3, 65.0) == -4.8
    assert delta_acc(66.7, 64.8) == -2.8
    assert delta_acc(50.0, 50.0) == 0.0


def test_delta_acc_rounding_away_from_zero():
    from factpool.util import round_half_away

    # 2.25 is an exact binary midpoint at one decimal: ties go away from zero
    assert round_half_away(2.25, 1) == 2.3
    assert round_half_away(-2.25, 1) == -2.3
    assert round(2.25, 1) == 2.2  # the stdlib banker's rule would disagree
    assert delta_acc(100.0, 97.75) == -2.3


# --- run_experiment / metrics ----------------------------------------------------


def test_run_experiment_writes_reproducible_metrics(micro_assets, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    metrics_a = run_experiment(micro_ecfg(micro_assets, str(out_a)))
    metrics_b = run_experiment(micro_ecfg(micro_assets, str(out_b)))
    file_a = (out_a / "metrics_pooled.txt").read_bytes()
    file_b = (out_b / "metrics_pooled.txt").read_bytes()
    assert file_a == file_b
    assert metrics_a.acc_with_mean == metrics_b.acc_with_mean
    text = file_a.decode()
    assert "acc_with_mean=" in text and "[table]" in text and "delta_acc=" in text


def test_condition_isolation_hashes(micro_assets):
    ecfg = micro_ecfg(micro_assets)
    assets = load_assets(ecfg)
    with_h = pipeline_hashes(assets.kg, assets.train_records, ecfg.config, WITH_ANSWERS)
    without_h = pipeline_hashes(assets.kg, assets.train_records, ecfg.config, WITHOUT_ANSWERS)
    for stage in ("kg", "dataset", "linking", "retrieval"):
        assert with_h[stage] == without_h[stage], stage
    assert with_h["perturbation"] != without_h["perturbation"]
    assert with_h["perturbation"] == with_h["retrieval"]  # no-op condition


@pytest.mark.parametrize("condition", [WITH_ANSWERS, WITHOUT_ANSWERS])
def test_run_hashes_equal_standalone_hashes(micro_assets, condition):
    ecfg = micro_ecfg(micro_assets, condition=condition, config=micro_config(epochs=1))
    assets = load_assets(ecfg)
    metrics = run_experiment(ecfg, assets)
    standalone = pipeline_hashes(assets.kg, assets.train_records, ecfg.config, condition)
    assert metrics.pipeline_hashes == standalone


def test_sweep_singleton_matches_run_experiment(micro_assets):
    ecfg = micro_ecfg(micro_assets)
    rows, text = sweep(ecfg, "max_nodes", [8])
    assert len(rows) == 1
    single = run_experiment(replace(ecfg, config=replace(ecfg.config, max_nodes=8)))
    assert rows[0][1].acc_with_mean == single.acc_with_mean
    assert rows[0][1].delta_acc == single.delta_acc
    assert "axis=max_nodes" in text


def test_sweep_rejects_bad_axis(micro_assets):
    with pytest.raises(ValueError, match="axis"):
        sweep(micro_ecfg(micro_assets), "width", [1])


def test_sweep_builds_every_cell_before_reading_data(micro_assets):
    ecfg = replace(micro_ecfg(micro_assets), dataset_path="missing.jsonl", kg_path="missing.tsv")
    with pytest.raises(ValueError, match="max_nodes=0: max_nodes must be positive"):
        sweep(ecfg, "max_nodes", [8, 0])


def test_sweep_needs_at_least_one_value(micro_assets):
    with pytest.raises(ValueError, match="sweep needs at least one value"):
        sweep_cells(micro_ecfg(micro_assets), "K", [])


def test_run_experiment_rejects_an_unknown_condition_before_reading_data():
    # The files do not exist: unchecked, the condition would fail later and
    # elsewhere, on the first file read.
    missing = {"kg": "missing.tsv", "dataset": "missing.jsonl", "templates": "missing.tsv"}
    ecfg = micro_ecfg(missing, condition="no_graph")
    with pytest.raises(ValueError, match=re.escape(f"condition must be one of {CONDITIONS}")):
        run_experiment(ecfg)


def test_too_small_dataset_is_a_typed_error_naming_the_path(micro_assets):
    ecfg = replace(micro_ecfg(micro_assets), train_count=15, test_count=2)
    with pytest.raises(DatasetTooSmallError, match=r"dataset.jsonl has 16 records, need 15\+2"):
        load_assets(ecfg)


# --- explain ----------------------------------------------------------------------


def test_explain_report_structure(micro_assets):
    ecfg = micro_ecfg(micro_assets, config=micro_config(epochs=1))
    assets = load_assets(ecfg)
    model = create_model(ecfg.config, "pooled", relation_table(assets.kg))
    encoder = build_encoder(model)
    prepared = prepare_dataset(
        model, assets.kg, assets.templates, encoder, assets.train_records
    )
    train_model(model, prepared)
    record = next(r for r in assets.train_records if r.meta.get("kind") == "kg")
    report = explain(model, assets.kg, assets.templates, encoder, record, top_n=3)
    [question] = prepare_dataset(model, assets.kg, assets.templates, encoder, [record])
    forward = batch_forward(model, [question])
    pool_weights = candidate_pool_weights(forward.pool_weights, question.candidates)
    assert len(report.candidates) == len(record.candidates)
    for idx, cand in enumerate(report.candidates):
        assert len(cand.per_layer) == ecfg.config.K + 1
        for k, entries in enumerate(cand.per_layer):
            weights = [e.weight for e in entries]
            assert weights == sorted(weights, reverse=True)
            assert all(0.0 <= w <= 1.0 for w in weights)
            full = pool_weights[idx][k]
            assert len(entries) == min(3, len(full))
            # report weights are exactly the forward pass attention values
            top = sorted(full, reverse=True)[: len(entries)]
            assert np.allclose(weights, top, atol=0)
            assert abs(cand.layer_weight_sums[k] - full.sum()) == 0.0
    rendered = report.render()
    assert "fusion layer k=0" in rendered


def test_explain_top_n_larger_than_edges(micro_assets):
    ecfg = micro_ecfg(micro_assets)
    assets = load_assets(ecfg)
    model = create_model(ecfg.config, "pooled", relation_table(assets.kg))
    encoder = build_encoder(model)
    record = assets.train_records[0]
    report = explain(model, assets.kg, assets.templates, encoder, record, top_n=50)
    [prepared] = prepare_dataset(model, assets.kg, assets.templates, encoder, [record])
    for cand_report, cand in zip(report.candidates, prepared.candidates):
        for entries in cand_report.per_layer:
            assert len(entries) == len(cand.facts)


def test_explain_requires_pooled(micro_assets):
    ecfg = micro_ecfg(micro_assets)
    assets = load_assets(ecfg)
    model = create_model(ecfg.config, "lm", relation_table(assets.kg))
    encoder = build_encoder(model)
    with pytest.raises(ValueError, match="pooled"):
        explain(model, assets.kg, assets.templates, encoder, assets.train_records[0])


# --- aggregation counts -------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 2, 5])
def test_pooled_aggregation_count_is_k_plus_one(k):
    cfg = Config(L=6, d=16, heads=2, K=k,
                 fusion_mode="early" if k == 0 else "early_late", vocab_size=64)
    assert count_aggregations("pooled", 6, cfg) == k + 1


@pytest.mark.parametrize("nodes,layers", [(4, 1), (10, 2), (16, 2)])
def test_gnn_aggregation_count_is_nodes_times_layers(nodes, layers):
    cfg = Config(L=2, d=16, heads=2, gnn_layers=layers, vocab_size=64)
    assert count_aggregations("gnn", nodes, cfg) == nodes * layers


# --- one grounding per statement --------------------------------------------------


def count_retrievals(monkeypatch):
    """Calls of retrieve_subgraph, pipeline_hashes included."""
    from factpool import model as model_mod

    calls = []
    real_retrieve = model_mod.retrieve_subgraph

    def retrieve(*args, **kwargs):
        calls.append(args[1])
        return real_retrieve(*args, **kwargs)

    monkeypatch.setattr(model_mod, "retrieve_subgraph", retrieve)
    return calls


def statement_count(records):
    return sum(len(r.candidates) for r in records)


@pytest.mark.parametrize("seeds", [(0,), (0, 1)], ids=["one-seed", "two-seeds"])
def test_run_experiment_retrieves_each_statement_once(micro_assets, monkeypatch, seeds):
    ecfg = micro_ecfg(micro_assets, seeds=seeds)
    assets = load_assets(ecfg)
    calls = count_retrievals(monkeypatch)
    run_experiment(ecfg, assets)
    assert len(calls) == statement_count(assets.train_records) + statement_count(
        assets.test_records
    )


# --- invariance to a fresh KG component --------------------------------------------


FRESH_ENTITIES = [f"qqz{a}{b}" for a in "hjkwxyz" for b in "hjkwxyz"][:40]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 4),
    extra=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), min_size=38, max_size=38),
    relations=st.lists(st.integers(0, 99), min_size=78, max_size=78),
)
def test_a_fresh_kg_component_changes_only_the_kg_digest(seed, extra, relations):
    # Up to 78 facts over existing relations join 40 fresh entities, whose
    # surfaces share no token with any statement: a ring through all of them
    # plus 38 more.  No statement links them, so grounding sees the same graph.
    kg, _, records = tiny_benchmark(seed=seed, questions=8)
    table = sorted(kg.relations)
    pairs = [(i, i + 1) for i in range(39)] + [(39, 0)] + extra
    component = {
        Fact(FRESH_ENTITIES[h], table[r % len(table)], FRESH_ENTITIES[t])
        for (h, t), r in zip(pairs, relations)
    }
    grown = KnowledgeGraph(kg.facts | component)
    assert grown.relations == kg.relations and len(grown.entities) == len(kg.entities) + 40
    statement_tokens = {
        tok
        for r in records
        for text in (r.context, r.question, *r.candidates)
        for tok in text_tokens(text)
    }
    assert not statement_tokens & set(FRESH_ENTITIES)
    cfg = Config(max_nodes=8)
    before = ground_records(kg, records, cfg.max_nodes)
    after = ground_records(grown, records, cfg.max_nodes)
    for statements, grown_statements in zip(before, after, strict=True):
        for (stmt, sub), (grown_stmt, grown_sub) in zip(statements, grown_statements, strict=True):
            assert grown_stmt == stmt
            assert grown_sub.canonical() == sub.canonical()
    for condition in (WITH_ANSWERS, WITHOUT_ANSWERS):
        hashes = pipeline_hashes(kg, records, cfg, condition, before)
        grown_hashes = pipeline_hashes(grown, records, cfg, condition, after)
        assert sorted(k for k in hashes if hashes[k] != grown_hashes[k]) == ["kg"]
