import functools
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import candidate_arrays, kg_from_facts
from oracles import prepare_question_oracle, softmax_oracle, subgraphs_oracle

from factpool import model as model_mod
from factpool.checkpoint import CheckpointError, load_checkpoint
from factpool.config import ENCODER_KINDS, Config
from factpool.harness_data import tiny_benchmark
from factpool.kg import VIRTUAL_NODE_ID, id_to_surface, link_entities
from factpool.model import (
    CONDITIONS,
    MODEL_KINDS,
    WITH_ANSWERS,
    WITHOUT_ANSWERS,
    DivergenceError,
    TRUNK_BLOCK,
    NoBackwardCacheError,
    NoFactVectorsError,
    apply_condition,
    batch_backward,
    batch_forward,
    build_encoder,
    candidate_log_probabilities,
    create_model,
    EVAL_CHUNK,
    SCORED_POSITIONS,
    evaluate,
    evaluate_conditions,
    ground_records,
    load_model,
    loss_and_grads,
    prepare_conditions,
    prepare_dataset,
    relation_table,
    train_model,
)
from factpool.data import QuestionRecord
from factpool.encoders import write_embedding_cache
from factpool.synthetic import SyntheticSpec, generate_synthetic
from factpool.tokenizer import Tokenizer
from factpool.verbalize import verbalize


def small_cfg(**overrides):
    base = dict(
        L=2, d=16, heads=2, K=0, fusion_mode="early", max_tokens=48, max_nodes=8,
        vocab_size=128, epochs=2, batch_size=4, seed=0, lr_lm=3e-3, lr_graph=1e-2,
    )
    base.update(overrides)
    return Config(**base)


def make_setup(kind="pooled", cfg=None, questions=4):
    cfg = cfg or small_cfg()
    kg, templates, records = tiny_benchmark(seed=1, questions=questions)
    model = create_model(cfg, kind, relation_table(kg))
    encoder = build_encoder(model)
    prepared = prepare_dataset(model, kg, templates, encoder, records[:questions])
    return model, kg, templates, encoder, records, prepared


@pytest.mark.parametrize("encoder_kind", ENCODER_KINDS)
@pytest.mark.parametrize("kind", ["pooled", "gnn", "lm"])
def test_f32_model_is_the_f64_model_cast(kind, encoder_kind):
    cfg = small_cfg(K=1, fusion_mode="early_late", encoder_kind=encoder_kind)
    f64 = create_model(cfg, kind, ["r0", "r1"]).params
    f32 = create_model(replace(cfg, precision="f32"), kind, ["r0", "r1"]).params
    assert list(f32) == list(f64)
    for name, tensor in f64.items():
        assert tensor.dtype == np.float64, name
        assert f32[name].dtype == np.float32, name
        assert f32[name].tobytes() == tensor.astype(np.float32).tobytes(), name


# --- probabilities -------------------------------------------------------------


def candidate_probabilities(scores):
    return np.exp(candidate_log_probabilities(scores))


def test_candidate_probabilities_softmax_example():
    probs = candidate_probabilities(np.array([0.0, math.log(3.0)]))
    assert np.allclose(probs, [0.25, 0.75], atol=1e-12)
    assert np.allclose(probs, softmax_oracle([0.0, math.log(3.0)]), atol=1e-12)


def test_probabilities_sum_to_one_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        probs = candidate_probabilities(rng.standard_normal(rng.integers(1, 6)))
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs > 0)


def test_score_shift_leaves_prediction():
    model, kg, templates, encoder, records, prepared = make_setup()
    result = batch_forward(model, prepared)
    for sl in result.slices:
        shifted = candidate_probabilities(result.scores[sl] + 17.5)
        assert np.argmax(shifted) == np.argmax(candidate_probabilities(result.scores[sl]))


# --- fusion modes ----------------------------------------------------------------


def test_early_late_k0_bit_identical_to_early():
    cfg_early = small_cfg(fusion_mode="early", K=0)
    cfg_late = small_cfg(fusion_mode="early_late", K=0)
    kg, templates, records = tiny_benchmark(seed=2)
    m_early = create_model(cfg_early, "pooled", relation_table(kg))
    m_late = create_model(cfg_late, "pooled", relation_table(kg))
    for name in m_early.params:
        assert np.array_equal(m_early.params[name], m_late.params[name])
    results = []
    for model in (m_early, m_late):
        prepared = prepare_dataset(model, kg, templates, build_encoder(model), records)
        results.append(batch_forward(model, prepared))
    early, late = results
    assert np.array_equal(early.scores, late.scores)
    assert len(early.pool_weights) == len(late.pool_weights) == 1
    assert np.array_equal(early.pool_weights[0], late.pool_weights[0])
    final = early._caches["graph_states_final"]
    assert final.shape == (len(early.scores), SCORED_POSITIONS, cfg_early.d)  # the read positions
    assert np.array_equal(final, late._caches["graph_states_final"])
    # K=0 injects nothing before any layer in either mode.
    assert early._caches["trunk_cache"][1] == {} == late._caches["trunk_cache"][1]


def test_zero_graph_vectors_match_early_zero():
    # Zero value projections pool every edge set to the zero vector, so the
    # injections before layers L-1 and L-2 leave the trunk states untouched.
    kg, templates, records = tiny_benchmark(seed=2)
    states = []
    for cfg in (small_cfg(fusion_mode="early_late", K=2, L=4), small_cfg(L=4)):
        model = create_model(cfg, "pooled", relation_table(kg))
        for k in range(cfg.num_pooling_heads()):
            model.params[f"pool{k}.w_value"][:] = 0.0
        prepared = prepare_dataset(model, kg, templates, build_encoder(model), records)
        assert any(c.edge_matrix.shape[0] for q in prepared for c in q.candidates)
        states.append(batch_forward(model, prepared)._caches["graph_states_final"])
    assert np.allclose(states[0], states[1], atol=0)


def test_zeroed_scoring_heads_give_uniform():
    model, kg, templates, encoder, records, prepared = make_setup()
    for name in list(model.params):
        if name.startswith(("fq.", "fg.")):
            model.params[name][:] = 0.0
    result = batch_forward(model, prepared)
    assert np.allclose(result.scores, 0.0, atol=0)
    for sl in result.slices:
        probs = candidate_probabilities(result.scores[sl])
        assert np.allclose(probs, 1.0 / len(probs), atol=1e-12)


# --- predict -----------------------------------------------------------------------


def predict(model, record, kg, templates, encoder):
    """(choice index, probabilities) for one question through batch_forward."""
    result = batch_forward(model, prepare_dataset(model, kg, templates, encoder, [record]))
    scores = result.scores[result.slices[0]]
    return int(np.argmax(scores)), candidate_probabilities(scores)


def test_predict_single_candidate():
    model, kg, templates, encoder, records, _ = make_setup()
    record = QuestionRecord(question="what connects with nothing", candidates=["only"], answer_index=0)
    idx, probs = predict(model, record, kg, templates, encoder)
    assert idx == 0
    assert np.allclose(probs, [1.0])


def test_predict_identical_candidates_tie_breaks_low():
    model, kg, templates, encoder, records, _ = make_setup()
    record = QuestionRecord(
        question="what connects with nothing", candidates=["same", "same", "same"], answer_index=1
    )
    idx, probs = predict(model, record, kg, templates, encoder)
    assert idx == 0
    assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)


# --- training --------------------------------------------------------------------


def test_overfit_single_question_and_discriminate():
    cfg = small_cfg(epochs=1, lr_lm=3e-3, lr_graph=1e-2, batch_size=1)
    kg, templates, records = tiny_benchmark(seed=1, questions=4)
    record = next(r for r in records if r.meta.get("kind") == "kg")
    model = create_model(cfg, "pooled", relation_table(kg))
    encoder = build_encoder(model)
    prepared = prepare_dataset(model, kg, templates, encoder, [record])
    loss = None
    for step in range(200):
        loss, grads = loss_and_grads(model, prepared)
        if loss < 1e-2:
            break
        from factpool.optim import RAdam

        if step == 0:
            optimizer = RAdam(model.params, cfg.lr_lm, cfg.lr_graph)
        optimizer.step(model.params, grads)
    assert loss is not None and loss < 1e-2
    idx, _ = predict(model, record, kg, templates, encoder)
    assert idx == record.answer_index


def test_zero_learning_rate_keeps_params():
    cfg = small_cfg(lr_lm=0.0, lr_graph=0.0, epochs=1)
    model, kg, templates, encoder, records, prepared = make_setup(cfg=cfg)
    before = {k: v.copy() for k, v in model.params.items()}
    train_model(model, prepared)
    for name, arr in model.params.items():
        assert np.array_equal(arr, before[name]), name


def test_same_seed_identical_loss_curves():
    results = []
    for _ in range(2):
        model, kg, templates, encoder, records, prepared = make_setup(cfg=small_cfg(epochs=2))
        results.append(train_model(model, prepared))
    assert results[0] == results[1]


def test_divergence_raises():
    model, kg, templates, encoder, records, prepared = make_setup(cfg=small_cfg(epochs=1))
    model.params["fq.w2"][:] = np.nan
    with pytest.raises(DivergenceError):
        train_model(model, prepared)


def test_non_finite_gradient_raises(monkeypatch):
    from factpool import model as model_mod

    model, kg, templates, encoder, records, prepared = make_setup(
        cfg=small_cfg(epochs=1), questions=8
    )
    real = model_mod.loss_and_grads
    calls = []

    def nan_grad_on_second_step(model, questions):
        loss, grads = real(model, questions)
        calls.append(loss)
        if len(calls) == 2:
            grads["fq.w2"] = grads["fq.w2"].copy()
            grads["fq.w2"].flat[3] = np.nan
        return loss, grads

    monkeypatch.setattr(model_mod, "loss_and_grads", nan_grad_on_second_step)
    before = {k: v.copy() for k, v in model.params.items()}
    with pytest.raises(DivergenceError, match=r"non-finite gradient of fq\.w2 at epoch 1 step 1 "):
        train_model(model, prepared)
    assert all(np.isfinite(loss) for loss in calls)
    # Only the first step was applied; the bad gradient never reached the parameters.
    assert all(np.isfinite(v).all() for v in model.params.values())
    assert any(not np.array_equal(v, before[k]) for k, v in model.params.items())


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_finite_scores_that_overflow_the_loss_raise_before_a_step(monkeypatch):
    # Scores of +1e308 and -1e308 are finite, but their difference overflows
    # the log-softmax: an answer scored -1e308 has an infinite loss.
    from factpool import model as model_mod

    model, kg, templates, encoder, records, prepared = make_setup(cfg=small_cfg(epochs=1))
    assert len(prepared) <= model.cfg.batch_size and any(q.answer_index for q in prepared)
    real = model_mod._score

    def overflowing(model, flat, slices, *args):
        scores, aggregations, caches = real(model, flat, slices, *args)
        scores = np.full(len(scores), -1e308)
        scores[[sl.start for sl in slices]] = 1e308
        return scores, aggregations, caches

    monkeypatch.setattr(model_mod, "_score", overflowing)
    before = {k: v.copy() for k, v in model.params.items()}
    with pytest.raises(DivergenceError, match=r"non-finite loss inf at epoch 1 step 0 "):
        train_model(model, prepared)
    assert all(np.array_equal(v, before[k]) for k, v in model.params.items())


def fact_entries(prepared, width):
    """Embedding cache entries for every fact of the prepared questions."""
    return {
        fact.key(): np.resize(row, width)
        for q in prepared
        for cand in q.candidates
        for fact, row in zip(cand.facts, cand.edge_matrix)
    }


def test_external_cache_width_must_match_model(tmp_path):
    model, kg, templates, encoder, records, prepared = make_setup()
    path = tmp_path / "wide.bin"
    write_embedding_cache(str(path), fact_entries(prepared, 17), 17)
    external = create_model(small_cfg(encoder_kind="external-file"), "pooled", model.relations)
    expected = re.escape(f"{path}: embedding cache width 17 != model width d=16")
    with pytest.raises(ValueError, match=expected):
        build_encoder(external, cache_path=str(path))


def test_non_finite_embedding_fails_evaluation(tmp_path):
    # A cache file holding one is rejected on read (test_encoders); an encoder
    # that hands the model one in memory fails at scoring.
    model, kg, templates, encoder, records, prepared = make_setup()
    path = tmp_path / "cache.bin"
    entries = fact_entries(prepared, 16)
    write_embedding_cache(str(path), entries, 16)
    external = create_model(small_cfg(encoder_kind="external-file"), "pooled", model.relations)
    cached = build_encoder(external, cache_path=str(path))
    cached.entries[min(entries)] = np.full(16, np.nan)
    questions = prepare_dataset(external, kg, templates, cached, records[:4])
    with pytest.raises(DivergenceError, match=r"non-finite score .*\(kind=pooled\)"):
        evaluate(external, questions)


def test_create_model_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match=re.escape(f"model kind must be one of {MODEL_KINDS}")):
        create_model(small_cfg(), "bert", ["r0", "r1"])


def test_external_file_encoder_needs_a_cache_path():
    model = create_model(small_cfg(encoder_kind="external-file"), "pooled", ["r0", "r1"])
    with pytest.raises(ValueError, match="external-file encoder needs a cache path"):
        build_encoder(model)


def test_training_needs_a_question():
    model = create_model(small_cfg(), "pooled", ["r0", "r1"])
    with pytest.raises(ValueError, match="empty training set"):
        train_model(model, [])


def test_training_needs_two_candidates():
    model, kg, templates, encoder, records, _ = make_setup()
    record = QuestionRecord(question="solo", candidates=["one"], answer_index=0)
    prepared = prepare_dataset(model, kg, templates, encoder, [record])
    with pytest.raises(ValueError, match="two candidates"):
        train_model(model, prepared)


# --- gradient sanity ----------------------------------------------------------------


def test_matched_uniform_targets_give_zero_gradient():
    model, kg, templates, encoder, records, _ = make_setup()
    base = QuestionRecord(question="pick one now", candidates=["twin", "twin"], answer_index=0)
    other = QuestionRecord(question="pick one now", candidates=["twin", "twin"], answer_index=1)
    prepared = prepare_dataset(model, kg, templates, encoder, [base, other])
    _, grads = loss_and_grads(model, prepared)
    for name, grad in grads.items():
        assert np.max(np.abs(grad)) < 1e-12, name


def test_optimizer_holds_state_for_every_parameter(monkeypatch):
    model, kg, templates, encoder, records, prepared = make_setup(
        cfg=small_cfg(encoder_kind="shared-toy-encoder", epochs=1)
    )
    optimizers = []

    class Recording(model_mod.RAdam):
        def __init__(self, params, *args):
            super().__init__(params, *args)
            optimizers.append(self)

    monkeypatch.setattr(model_mod, "RAdam", Recording)
    train_model(model, prepared)
    (optimizer,) = optimizers
    assert set(optimizer.m) == set(optimizer.v) == set(optimizer.lr) == set(model.params)


@pytest.mark.parametrize("frozen", ["lr_lm", "lr_graph"])
@pytest.mark.parametrize("kind", ["pooled", "gnn", "lm"])
def test_each_parameter_learns_at_its_group_rate(kind, frozen):
    # One step with one group's rate at zero moves exactly the other group:
    # the trunk and fq.* learn at lr_lm; pool*, fg.* and gnn.* at lr_graph.
    cfg = small_cfg(K=1, fusion_mode="early_late", batch_size=4, epochs=1, **{frozen: 0.0})
    model, *_, prepared = make_setup(kind, cfg=cfg)
    before = {name: t.copy() for name, t in model.params.items()}
    train_model(model, prepared)
    unchanged = {n for n, t in model.params.items() if t.tobytes() == before[n].tobytes()}
    graph_side = {n for n in model.params if n.startswith(("pool", "fg.", "gnn."))}
    assert graph_side and graph_side != set(model.params)
    assert unchanged == (graph_side if frozen == "lr_graph" else set(model.params) - graph_side)


@pytest.mark.parametrize("kind", ["pooled", "gnn", "lm"])
def test_shared_toy_encoder_is_the_initial_trunk_after_training_and_reload(tmp_path, kind):
    cfg = small_cfg(encoder_kind="shared-toy-encoder", epochs=1)
    model, kg, templates, encoder, records, prepared = make_setup(kind, cfg=cfg)
    for name, arr in encoder.snapshot.items():  # the model's trunk as drawn, not shared
        assert arr.tobytes() == model.params[name].tobytes() and arr is not model.params[name]
    facts = sorted(kg.facts)
    texts = [verbalize(fact, templates) for fact in facts]
    before = [vec.tobytes() for vec in encoder.encode_fact_texts(facts, texts)]
    train_model(model, prepared, out_dir=str(tmp_path))
    reloaded = load_model(str(tmp_path / "final.ckpt"))
    after = build_encoder(reloaded).encode_fact_texts(facts, texts)
    assert [vec.tobytes() for vec in after] == before
    # The trunk trained away from its initial draw; the checkpoint holds no
    # copy of that draw, only the tensors of a hash-bag model of this kind.
    hash_bag = create_model(replace(cfg, encoder_kind="hash-bag"), kind, model.relations)
    assert not np.array_equal(reloaded.params["layer1.ffn.w1"], hash_bag.params["layer1.ffn.w1"])
    tensors, _ = load_checkpoint(str(tmp_path / "final.ckpt"))
    assert sorted(tensors) == sorted(hash_bag.params)


# --- grounding sensitivity -------------------------------------------------------------


def test_graph_vectors_change_scores_only_through_fg_paths():
    cfg = small_cfg(fusion_mode="early_late", K=1, L=2, lr_lm=1e-3)
    kg, templates, records = tiny_benchmark(seed=3)
    model = create_model(cfg, "pooled", relation_table(kg))
    encoder = build_encoder(model)
    record = next(r for r in records if r.meta.get("kind") == "kg")
    [prepared] = prepare_dataset(model, kg, templates, encoder, [record])
    distinct = batch_forward(model, [prepared])
    # force identical pooled vectors by pointing every candidate at the same edge rows
    for cand in prepared.candidates[1:]:
        cand.edge_rows = prepared.candidates[0].edge_rows
    same_graph = batch_forward(model, [prepared])
    fq_only, _ = (None, None)
    scores = same_graph.scores
    # with shared graph vectors and shared question text, score differences
    # can come only from the candidate tokens through f_q
    assert not np.allclose(distinct.scores, scores, atol=1e-12)


# --- inference without the backward cache -----------------------------------------------


@pytest.mark.parametrize(
    "kind, overrides",
    [("pooled", dict(fusion_mode="early_late", K=1)), ("gnn", {}), ("lm", {})],
)
def test_cache_free_batch_forward_byte_equal_to_caching(kind, overrides):
    model, _, _, _, _, prepared = make_setup(kind, small_cfg(**overrides))
    free = batch_forward(model, prepared)
    cached = batch_forward(model, prepared, backward_cache=True)
    assert free.scores.tobytes() == cached.scores.tobytes()
    assert free.slices == cached.slices
    assert free.loss == cached.loss
    assert len(free.pool_weights) == len(cached.pool_weights)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(free.pool_weights, cached.pool_weights))
    with pytest.raises(NoBackwardCacheError, match="without a backward cache"):
        batch_backward(model, free)


@pytest.mark.parametrize("kind", ["pooled", "gnn"])
def test_the_pruned_last_layer_is_byte_identical_to_the_full_layer(monkeypatch, kind):
    # Acceptance shapes: 16 questions x 4 candidates at T=40, d=64, 4 heads,
    # L=4, K=2.  A weight gradient summed over fewer rows, or an input
    # gradient through a transposed weight computed for fewer rows, changes
    # its bytes at these sizes (BLAS K-blocking and kernel choice) but not at
    # the golden runs' d=16.  So the trunk as a training step runs it, with
    # its last layer on the SCORED_POSITIONS rows, must equal the full layer
    # given zero d_states past those rows, byte for byte.
    cfg = small_cfg(L=4, d=64, heads=4, K=2, fusion_mode="early_late", max_tokens=40,
                    max_nodes=32)
    bench = generate_synthetic(
        SyntheticSpec(entities=1000, relations=3, questions=16, candidates=4,
                      distractor_rate=0.5, kg_fraction=0.7, seed=0)
    )
    # One long context fills T=40; the other sequences are padded to it.
    records = [replace(bench.records[0], context="filler " * 40), *bench.records[1:]]
    kg = kg_from_facts(bench.facts)
    model = create_model(cfg, kind, relation_table(kg))
    prepared = prepare_dataset(model, kg, bench.templates, build_encoder(model), records)
    seen = {}
    real_forward, real_backward = model_mod.trunk_forward, model_mod.trunk_backward

    def recording_forward(*args, **kwargs):
        seen["args"], seen["kwargs"] = args, kwargs
        seen["pruned"] = real_forward(*args, **kwargs)
        return seen["pruned"]

    def recording_backward(params, L, cache, d_states):
        seen["d_states"] = d_states
        seen["pruned_grads"] = real_backward(params, L, cache, d_states)
        return seen["pruned_grads"]

    monkeypatch.setattr(model_mod, "trunk_forward", recording_forward)
    monkeypatch.setattr(model_mod, "trunk_backward", recording_backward)
    result = batch_forward(model, prepared, backward_cache=True)
    batch_backward(model, result)
    assert seen["kwargs"] == {"read_positions": SCORED_POSITIONS}
    ids, mask = seen["args"][3:5]
    assert ids.shape == (64, 40) and not mask.all()
    states, _ = seen["pruned"]
    full_states, full_cache = real_forward(*seen["args"])
    assert states.shape == (64, SCORED_POSITIONS, 64)
    assert result._caches["graph_states_final"] is states
    assert states.tobytes() == full_states[:, :SCORED_POSITIONS].tobytes()
    d_full = np.zeros_like(full_states)
    d_full[:, :SCORED_POSITIONS] = seen["d_states"]
    grads, d_graph_init, d_injections = seen["pruned_grads"]
    want_grads, want_d_graph_init, want_d_injections = real_backward(
        model.params, cfg.L, full_cache, d_full
    )
    assert list(grads) == list(want_grads)
    for name, want in want_grads.items():
        assert grads[name].tobytes() == want.tobytes(), name
    assert d_graph_init.tobytes() == want_d_graph_init.tobytes()
    assert sorted(d_injections) == sorted(want_d_injections) == ([2, 3] if kind == "pooled" else [])
    for layer, want in want_d_injections.items():
        assert d_injections[layer].tobytes() == want.tobytes(), layer


def test_evaluate_peak_memory_below_half_of_caching_forward():
    # numpy reports its buffers to tracemalloc, so the peaks are deterministic.
    cfg = small_cfg(L=4, d=64, heads=4, K=2, fusion_mode="early_late", max_tokens=40,
                    max_nodes=32)
    bench = generate_synthetic(
        SyntheticSpec(entities=1000, relations=3, questions=64, candidates=4,
                      distractor_rate=0.5, kg_fraction=0.7, seed=0)
    )
    kg = kg_from_facts(bench.facts)
    model = create_model(cfg, "pooled", relation_table(kg))
    prepared = prepare_dataset(model, kg, bench.templates, build_encoder(model), bench.records)
    assert len(prepared) == 64

    def peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cached_peak = peak(lambda: batch_forward(model, prepared, backward_cache=True))
    eval_peak = peak(lambda: evaluate(model, prepared))
    assert eval_peak < cached_peak / 2, (eval_peak, cached_peak)


def test_evaluate_peak_memory_grows_slowly_with_the_chunk():
    # Evaluation runs the trunk in blocks of TRUNK_BLOCK (32) sequences, so
    # its activations do not grow with the batch; what grows is the scored
    # states [B, 2, d], the stacked edge rows and the graph vectors.  8
    # questions (32 sequences, one block) peak at ~5.1 MB, 64 questions (256
    # sequences) at ~9.6 MB: a factor of 3 leaves room for those and fails a
    # whole-chunk forward, which peaks ~11.4x higher.
    cfg = small_cfg(L=4, d=64, heads=4, K=2, fusion_mode="early_late", max_tokens=40,
                    max_nodes=32)
    bench = generate_synthetic(
        SyntheticSpec(entities=1000, relations=3, questions=64, candidates=4,
                      distractor_rate=0.5, kg_fraction=0.7, seed=0)
    )
    kg = kg_from_facts(bench.facts)
    model = create_model(cfg, "pooled", relation_table(kg))
    prepared = prepare_dataset(model, kg, bench.templates, build_encoder(model), bench.records)
    assert len(prepared) == EVAL_CHUNK

    def peak(questions) -> int:
        tracemalloc.start()
        try:
            evaluate(model, questions)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, full = peak(prepared[:8]), peak(prepared)
    assert full < 3 * small, (full, small)


# --- evaluation of both conditions -------------------------------------------------------


EVAL_SETUPS = {
    "pooled-K0": ("pooled", dict(fusion_mode="early", K=0)),
    "pooled-K2": ("pooled", dict(L=3, fusion_mode="early_late", K=2)),
    "gnn": ("gnn", {}),
    "lm": ("lm", {}),
}


@pytest.fixture(scope="module")
def eval_benchmark():
    # 70 questions: two chunks, and the first holds 210 sequences (7 blocks).
    return tiny_benchmark(seed=2, questions=70)


def prepare_both(setup, eval_benchmark):
    kind, overrides = EVAL_SETUPS[setup]
    kg, templates, records = eval_benchmark
    model = create_model(small_cfg(**overrides), kind, relation_table(kg))
    grounding = ground_records(kg, records, model.cfg.max_nodes)
    return model, prepare_conditions(model, templates, build_encoder(model), records, grounding)


@pytest.mark.parametrize("setup", sorted(EVAL_SETUPS))
def test_evaluate_conditions_byte_equal_to_batch_forward_per_condition(
    monkeypatch, eval_benchmark, setup
):
    model, prepared = prepare_both(setup, eval_benchmark)
    scored = []
    real_score = model_mod._score

    def recording_score(*args):
        out = real_score(*args)
        scored.append(out[0])
        return out

    monkeypatch.setattr(model_mod, "_score", recording_score)
    accs = evaluate_conditions(model, prepared)
    monkeypatch.undo()
    assert list(accs) == list(CONDITIONS)
    want_scores = {c: [] for c in CONDITIONS}
    for c, questions in prepared.items():
        correct = 0
        for start in range(0, len(questions), EVAL_CHUNK):
            chunk = questions[start : start + EVAL_CHUNK]
            result = batch_forward(model, chunk)
            want_scores[c].append(result.scores)
            correct += sum(
                int(np.argmax(result.scores[sl])) == q.answer_index
                for q, sl in zip(chunk, result.slices)
            )
        assert accs[c] == 100.0 * correct / len(questions)
        assert accs[c] == evaluate(model, questions)
    got_scores = {c: scored[i :: len(CONDITIONS)] for i, c in enumerate(CONDITIONS)}
    for c in CONDITIONS:
        assert len(got_scores[c]) == len(want_scores[c]) == 2
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got_scores[c], want_scores[c]))


@pytest.mark.parametrize("setup", sorted(EVAL_SETUPS))
def test_scores_alone_and_in_the_chunk_agree_within_1e_12(eval_benchmark, setup):
    # In a batch a question's sequences are padded to the batch's longest,
    # which changes the order of the attention sums, so the scores agree to
    # ~1e-16, not byte for byte.
    model, prepared = prepare_both(setup, eval_benchmark)
    for questions in prepared.values():
        chunk = questions[:EVAL_CHUNK]
        together = batch_forward(model, chunk)
        for q, sl in zip(chunk, together.slices, strict=True):
            alone = batch_forward(model, [q]).scores
            assert np.max(np.abs(alone - together.scores[sl])) <= 1e-12


@pytest.mark.parametrize("setup", sorted(EVAL_SETUPS))
def test_evaluate_conditions_runs_each_distinct_trunk_row_once(
    monkeypatch, eval_benchmark, setup
):
    model, prepared = prepare_both(setup, eval_benchmark)
    pairs = [
        (c_with, c_without)
        for q_with, q_without in zip(*prepared.values())
        for c_with, c_without in zip(q_with.candidates, q_without.candidates)
    ]
    changed = sum(c_without is not c_with for c_with, c_without in pairs)
    # An lm candidate holds no edge: it is one object under both conditions.
    assert changed == 0 if model.kind == "lm" else 0 < changed < len(pairs)
    rows = []
    real_forward = model_mod.trunk_forward

    def counting_forward(params, L, heads, ids, *rest, **kwargs):
        rows.append(len(ids))
        return real_forward(params, L, heads, ids, *rest, **kwargs)

    monkeypatch.setattr(model_mod, "trunk_forward", counting_forward)
    evaluate_conditions(model, prepared)
    # gnn and lm graph vectors are zero, so no row changes with the condition.
    want = len(pairs) + (changed if model.kind == "pooled" else 0)
    assert max(rows) == TRUNK_BLOCK and sum(rows) == want


def test_evaluate_conditions_rejects_misaligned_conditions():
    model, kg, templates, encoder, records, _ = make_setup(questions=4)
    grounding = ground_records(kg, records[:4], model.cfg.max_nodes)
    both = prepare_conditions(model, templates, encoder, records[:4], grounding)
    with_q, without_q = both[WITH_ANSWERS], both[WITHOUT_ANSWERS]
    fewer_candidates = [replace(q, candidates=q.candidates[:-1]) for q in without_q]
    swapped = [replace(q, candidates=q.candidates[::-1]) for q in without_q]
    for bad in (without_q[:3], fewer_candidates, swapped):
        with pytest.raises(ValueError, match="not aligned"):
            evaluate_conditions(model, {WITH_ANSWERS: with_q, WITHOUT_ANSWERS: bad})
    with pytest.raises(ValueError, match="empty evaluation set"):
        evaluate_conditions(model, {WITH_ANSWERS: [], WITHOUT_ANSWERS: []})


# --- candidate order ---------------------------------------------------------------


@functools.cache
def trained_setup(kind):
    """A `kind` model trained two epochs on 8 tiny questions, its assets, and
    the records, every other one with pre-linked answer entities."""
    cfg = small_cfg(K=1, fusion_mode="early_late")
    kg, templates, records = tiny_benchmark(seed=1, questions=8)
    for i, statements in enumerate(ground_records(kg, records, cfg.max_nodes)):
        if i % 2:
            linked = [sorted(stmt.answer_entities) for stmt, _ in statements]
            records[i] = replace(records[i], answer_entities=linked)
    model = create_model(cfg, kind, relation_table(kg))
    encoder = build_encoder(model)
    train_model(model, prepare_dataset(model, kg, templates, encoder, records))
    return model, kg, templates, encoder, records


def reordered(record, order):
    """`record` with old candidate order[j] at position j."""
    answers = record.answer_entities
    return replace(
        record,
        candidates=[record.candidates[i] for i in order],
        answer_index=order.index(record.answer_index),
        answer_entities=None if answers is None else [answers[i] for i in order],
    )


@pytest.mark.parametrize("kind", ["pooled", "gnn", "lm"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_candidate_order_only_permutes_the_scores(kind, data):
    model, kg, templates, encoder, records = trained_setup(kind)
    orders = [data.draw(st.permutations(range(len(r.candidates)))) for r in records]
    moved = [reordered(r, order) for r, order in zip(records, orders)]
    prepared = [
        prepare_conditions(
            model, templates, encoder, recs, ground_records(kg, recs, model.cfg.max_nodes)
        )
        for recs in (records, moved)
    ]
    assert evaluate_conditions(model, prepared[1]) == evaluate_conditions(model, prepared[0])
    for condition in CONDITIONS:
        base, perm = (batch_forward(model, p[condition]) for p in prepared)
        for order, sl, sl_perm in zip(orders, base.slices, perm.slices):
            assert perm.scores[sl_perm].tobytes() == base.scores[sl][order].tobytes()
        # The same terms, summed in another order.
        assert abs(perm.loss - base.loss) <= 1e-12


# --- preparation -------------------------------------------------------------------


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_candidate(got, want, got_sub=None, want_sub=None):
    """`got_sub`, `want_sub`: the subgraphs the candidates were prepared from,
    compared when given (a prepared candidate does not keep its subgraph)."""
    assert_same_array(got.ids, want.ids)
    assert got.facts == want.facts
    if want_sub is not None:
        assert got_sub.canonical() == want_sub.canonical()
    if want.node_rows is None:
        assert got.node_rows is None
        assert got.fact_texts == want.fact_texts
        assert_same_array(got.edge_matrix, want.edge_matrix)
        return
    # The arrays a batch of the one candidate passes its messages over.
    (got_arrays, got_virtual), (want_arrays, want_virtual) = map(candidate_arrays, [[got], [want]])
    assert_same_array(got_virtual, want_virtual)
    for name in ("src", "dst", "rel"):
        assert_same_array(getattr(got_arrays, name), getattr(want_arrays, name))
    # Each node's initial state, in node order: distinct entities encode to
    # distinct vectors, so this pins the node order too.
    assert_same_array(
        got.shared.node_table[got.node_rows], want.shared.node_table[want.node_rows]
    )


ENCODER_SETUPS = {
    "hash-bag": dict(encoder_kind="hash-bag"),
    "toy-mean": dict(encoder_kind="shared-toy-encoder", token_pooling="mean"),
    "toy-cls": dict(encoder_kind="shared-toy-encoder", token_pooling="cls"),
    "external-file": dict(encoder_kind="external-file"),
}


@pytest.mark.parametrize("condition", [WITH_ANSWERS, WITHOUT_ANSWERS])
@pytest.mark.parametrize("setup", sorted(ENCODER_SETUPS))
@pytest.mark.parametrize("kind", ["pooled", "gnn", "lm"])
def test_prepare_dataset_matches_per_question_oracle(tmp_path, kind, setup, condition):
    kg, templates, records = tiny_benchmark(seed=1, questions=6)
    edgeless = QuestionRecord(question="zzq xqv", candidates=["vvx", "qqz"], answer_index=1)
    # Pre-linked entity sets, one of them naming an entity the KG lacks.
    first = records[0]
    prelinked = QuestionRecord(
        question=first.question,
        candidates=first.candidates,
        answer_index=first.answer_index,
        question_entities=sorted(link_entities(first.question, kg)) + ["not_in_kg"],
        answer_entities=[sorted(link_entities(c, kg)) for c in first.candidates[:-1]] + [[]],
    )
    records = records + [edgeless, prelinked]
    cfg = small_cfg(**ENCODER_SETUPS[setup])
    model = create_model(cfg, kind, relation_table(kg))
    cache_path = None
    if setup == "external-file":
        hash_bag = create_model(small_cfg(), "pooled", model.relations)
        intact = [
            prepare_question_oracle(hash_bag, kg, templates, build_encoder(hash_bag), r, WITH_ANSWERS)
            for r in records
        ]
        cache_path = str(tmp_path / "embeddings.bin")
        write_embedding_cache(cache_path, fact_entries(intact, cfg.d), cfg.d)
        if kind == "gnn":
            with pytest.raises(ValueError, match="text-capable encoder"):
                prepare_dataset(model, kg, templates, build_encoder(model, cache_path), records)
            return
    got = prepare_dataset(
        model, kg, templates, build_encoder(model, cache_path), records, condition
    )
    oracle_encoder = build_encoder(model, cache_path)
    want = [
        prepare_question_oracle(model, kg, templates, oracle_encoder, r, condition)
        for r in records
    ]
    assert [q.answer_index for q in got] == [q.answer_index for q in want]
    assert [len(q.candidates) for q in got] == [len(q.candidates) for q in want]
    grounding = ground_records(kg, records, cfg.max_nodes)
    edges = []
    for q_got, q_want, statements, record in zip(got, want, grounding, records):
        oracle = subgraphs_oracle(kg, record, cfg.max_nodes, condition)
        for c_got, c_want, (stmt, sub), (_, want_sub) in zip(
            q_got.candidates, q_want.candidates, statements, oracle, strict=True
        ):
            assert_same_candidate(c_got, c_want, apply_condition(sub, stmt, condition), want_sub)
            edges.append(len(want_sub.edges))
    assert 0 in edges and max(edges) > 0


def test_prepare_names_the_fact_an_external_cache_lacks(tmp_path):
    model, kg, templates, encoder, records, prepared = make_setup()
    entries = fact_entries(prepared, 16)
    dropped = max(entries)
    del entries[dropped]
    path = tmp_path / "partial.bin"
    write_embedding_cache(str(path), entries, 16)
    external = create_model(small_cfg(encoder_kind="external-file"), "pooled", model.relations)
    cached = build_encoder(external, cache_path=str(path))
    with pytest.raises(CheckpointError) as exc:
        prepare_dataset(external, kg, templates, cached, records[:4])
    assert exc.value.args[0] == f"{path}: embedding cache has no entry for fact {dropped!r}"


def test_prepare_conditions_equals_one_condition_at_a_time():
    model, kg, templates, encoder, records, _ = make_setup(kind="gnn", questions=5)
    grounding = ground_records(kg, records[:5], model.cfg.max_nodes)
    both = prepare_conditions(model, templates, encoder, records[:5], grounding)
    assert list(both) == list(CONDITIONS)
    for condition in CONDITIONS:
        alone = prepare_dataset(model, kg, templates, encoder, records[:5], condition)
        for q_both, q_alone in zip(both[condition], alone):
            for c_both, c_alone in zip(q_both.candidates, q_alone.candidates):
                assert_same_candidate(c_both, c_alone)


def test_without_answers_candidate_that_loses_no_edge_is_the_intact_one():
    model, kg, templates, encoder, records, _ = make_setup(kind="gnn", questions=6)
    grounding = ground_records(kg, records[:6], model.cfg.max_nodes)
    both = prepare_conditions(model, templates, encoder, records[:6], grounding)
    kept = lost = 0
    for record, statements, q_with, q_without in zip(records, grounding, *both.values()):
        oracle = prepare_question_oracle(model, kg, templates, encoder, record, WITHOUT_ANSWERS)
        oracle_subs = subgraphs_oracle(kg, record, model.cfg.max_nodes, WITHOUT_ANSWERS)
        for c_with, c_without, c_oracle, (stmt, sub), (_, want_sub) in zip(
            q_with.candidates, q_without.candidates, oracle.candidates, statements, oracle_subs,
            strict=True,
        ):
            got_sub = apply_condition(sub, stmt, WITHOUT_ANSWERS)
            assert_same_candidate(c_without, c_oracle, got_sub, want_sub)
            if len(got_sub.edges) == len(sub.edges):
                assert c_without is c_with
                kept += 1
            else:
                assert c_without is not c_with
                lost += 1
    assert kept and lost


def test_a_gnn_candidate_has_no_fact_texts_or_edge_vectors():
    # A gnn set holds its facts as node and relation rows: reading texts or
    # edge vectors says so, for a candidate with edges and one without.
    kg, templates, records = tiny_benchmark(seed=1, questions=8)
    model = create_model(small_cfg(), "gnn", relation_table(kg))
    prepared = prepare_dataset(model, kg, templates, build_encoder(model), records)
    cands = [c for q in prepared for c in q.candidates]
    assert any(len(c.edge_rows) for c in cands) and not all(len(c.edge_rows) for c in cands)
    for cand in cands:
        for name in ("fact_texts", "edge_matrix"):
            with pytest.raises(NoFactVectorsError, match="holds no fact texts or edge vectors"):
                getattr(cand, name)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_without_answers_candidate_drops_rows_of_the_intact_one(kind):
    # Its token ids, set and node rows are the intact candidate's own arrays;
    # an lm candidate holds no edge, so it is the intact candidate itself.
    model, kg, templates, encoder, records, _ = make_setup(kind=kind, questions=6)
    grounding = ground_records(kg, records[:6], model.cfg.max_nodes)
    both = prepare_conditions(model, templates, encoder, records[:6], grounding)
    lost = 0
    for q_with, q_without in zip(*both.values()):
        for c_with, c_without in zip(q_with.candidates, q_without.candidates, strict=True):
            if c_without is c_with:
                continue
            lost += 1
            assert c_without.ids is c_with.ids and c_without.shared is c_with.shared
            assert c_without.node_rows is c_with.node_rows
            kept = c_without.edge_rows.tolist()
            assert len(kept) < len(c_with.edge_rows)
            assert kept == [row for row in c_with.edge_rows.tolist() if row in kept]
    assert (lost == 0) == (kind == "lm")


def test_prepare_rejects_unknown_condition():
    model, kg, templates, encoder, records, _ = make_setup()
    with pytest.raises(ValueError, match="condition must be one of"):
        prepare_dataset(model, kg, templates, encoder, records[:1], "no_graph")


@pytest.mark.parametrize("kind", ["pooled", "gnn"])
def test_toy_encoder_runs_one_forward_per_batch_group(monkeypatch, kind):
    from factpool import encoders

    cfg = small_cfg(encoder_kind="shared-toy-encoder")
    kg, templates, records = tiny_benchmark(seed=1, questions=8)
    model = create_model(cfg, kind, relation_table(kg))
    encoder = build_encoder(model)
    forwards = []
    real_forward = encoders.trunk_forward

    def counting_forward(*args, **kwargs):
        forwards.append(args[3].shape[0])
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(encoders, "trunk_forward", counting_forward)
    prepared = prepare_dataset(model, kg, templates, encoder, records)

    def groups(texts):
        # Distinct texts per sequence length ([CLS] + text tokens, capped).
        lengths = Counter(
            min(len(Tokenizer(cfg.vocab_size).encode_text(t)) + 1, cfg.max_tokens)
            for t in set(texts)
        )
        return sum(-(-n // encoders.ENCODE_BATCH) for n in lengths.values())

    cands = [c for q in prepared for c in q.candidates]
    # Only a pooled set verbalizes its facts.
    texts = [t for c in cands for t in c.fact_texts] if kind == "pooled" else []
    bound = groups(texts)
    if kind == "gnn":
        grounding = ground_records(kg, records, cfg.max_nodes)
        nodes = [n for statements in grounding for _, sub in statements for n in sub.nodes]
        entities = [n for n in nodes if n != VIRTUAL_NODE_ID]
        texts += [id_to_surface(n) for n in entities]
        bound += groups(id_to_surface(n) for n in entities)
    assert bound < len(set(texts))  # batching has something to save
    assert 0 < len(forwards) <= bound
    assert sum(forwards) == len(set(texts))
