import math
import re

import numpy as np
import pytest

from oracles import softmax_oracle

from factpool.config import Config
from factpool.harness_data import tiny_benchmark
from factpool.model import (
    DivergenceError,
    batch_forward,
    batch_loss,
    build_encoder,
    candidate_log_probabilities,
    create_model,
    evaluate,
    loss_and_grads,
    prepare_dataset,
    prepare_question,
    relation_table,
    train_model,
)
from factpool.data import QuestionRecord
from factpool.encoders import write_embedding_cache


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
    for i, sl in enumerate(result.slices):
        shifted = candidate_probabilities(result.scores[sl] + 17.5)
        assert np.argmax(shifted) == np.argmax(result.probs[i])


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
    assert all(
        np.array_equal(a, b)
        for wa, wb in zip(early.pool_weights, late.pool_weights)
        for a, b in zip(wa, wb)
    )
    assert np.array_equal(
        early._caches["graph_states_final"], late._caches["graph_states_final"]
    )
    layer_states = [r._caches["trunk_cache"][6] for r in results]
    assert len(layer_states[0]) == cfg_early.L + 1
    assert all(np.array_equal(a, b) for a, b in zip(*layer_states))


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
    for probs in result.probs:
        assert np.allclose(probs, 1.0 / len(probs), atol=1e-12)


# --- predict -----------------------------------------------------------------------


def predict(model, record, kg, templates, encoder):
    """(choice index, probabilities) for one question through batch_forward."""
    result = batch_forward(model, [prepare_question(model, kg, templates, encoder, record)])
    return result.predictions[0], result.probs[0]


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
        loss, grads, _ = loss_and_grads(model, prepared)
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
    train_model(model, prepared, epochs=1)
    for name, arr in model.params.items():
        assert np.array_equal(arr, before[name]), name


def test_same_seed_identical_loss_curves():
    results = []
    for _ in range(2):
        model, kg, templates, encoder, records, prepared = make_setup(cfg=small_cfg(epochs=2))
        results.append(train_model(model, prepared, epochs=2))
    assert results[0] == results[1]


def test_divergence_raises():
    model, kg, templates, encoder, records, prepared = make_setup()
    model.params["fq.w2"][:] = np.nan
    with pytest.raises(DivergenceError):
        train_model(model, prepared, epochs=1)


def test_non_finite_gradient_raises(monkeypatch):
    from factpool import model as model_mod

    model, kg, templates, encoder, records, prepared = make_setup(questions=8)
    real = model_mod.loss_and_grads
    calls = []

    def nan_grad_on_second_step(model, questions):
        loss, grads, result = real(model, questions)
        calls.append(loss)
        if len(calls) == 2:
            grads["fq.w2"] = grads["fq.w2"].copy()
            grads["fq.w2"].flat[3] = np.nan
        return loss, grads, result

    monkeypatch.setattr(model_mod, "loss_and_grads", nan_grad_on_second_step)
    before = {k: v.copy() for k, v in model.params.items()}
    with pytest.raises(DivergenceError, match=r"non-finite gradient of fq\.w2 at epoch 1 step 1 "):
        train_model(model, prepared, epochs=1)
    assert all(np.isfinite(loss) for loss in calls)
    # Only the first step was applied; the bad gradient never reached the parameters.
    assert all(np.isfinite(v).all() for v in model.params.values())
    assert any(not np.array_equal(v, before[k]) for k, v in model.params.items())


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
    model, kg, templates, encoder, records, prepared = make_setup()
    path = tmp_path / "nan.bin"
    entries = fact_entries(prepared, 16)
    entries[min(entries)] = np.full(16, np.nan)
    write_embedding_cache(str(path), entries, 16)
    external = create_model(small_cfg(encoder_kind="external-file"), "pooled", model.relations)
    cached = build_encoder(external, cache_path=str(path))
    questions = prepare_dataset(external, kg, templates, cached, records[:4])
    with pytest.raises(DivergenceError, match=r"non-finite score .*\(kind=pooled\)"):
        evaluate(external, questions)


def test_training_needs_two_candidates():
    model, kg, templates, encoder, records, _ = make_setup()
    record = QuestionRecord(question="solo", candidates=["one"], answer_index=0)
    prepared = prepare_dataset(model, kg, templates, encoder, [record])
    with pytest.raises(ValueError, match="two candidates"):
        train_model(model, prepared, epochs=1)


# --- gradient sanity ----------------------------------------------------------------


def test_matched_uniform_targets_give_zero_gradient():
    model, kg, templates, encoder, records, _ = make_setup()
    base = QuestionRecord(question="pick one now", candidates=["twin", "twin"], answer_index=0)
    other = QuestionRecord(question="pick one now", candidates=["twin", "twin"], answer_index=1)
    prepared = prepare_dataset(model, kg, templates, encoder, [base, other])
    _, grads, _ = loss_and_grads(model, prepared)
    for name, grad in grads.items():
        assert np.max(np.abs(grad)) < 1e-12, name


def test_frozen_snapshot_gets_no_gradient_and_never_moves():
    cfg = small_cfg(encoder_kind="shared-toy-encoder", epochs=1)
    model, kg, templates, encoder, records, prepared = make_setup(cfg=cfg)
    frozen_before = {
        k: v.copy() for k, v in model.params.items() if k.startswith("frozen.")
    }
    assert frozen_before
    _, grads, _ = loss_and_grads(model, prepared)
    assert not any(name.startswith("frozen.") for name in grads)
    train_model(model, prepared, epochs=1)
    for name, arr in frozen_before.items():
        assert np.array_equal(model.params[name], arr)
    # finite sensitivity check on one frozen element: loss is flat
    base = batch_loss(model, prepared)
    name = next(iter(frozen_before))
    model.params[name].reshape(-1)[0] += 1e-3
    assert batch_loss(model, prepared) == base


# --- grounding sensitivity -------------------------------------------------------------


def test_graph_vectors_change_scores_only_through_fg_paths():
    cfg = small_cfg(fusion_mode="early_late", K=1, L=2, lr_lm=1e-3)
    kg, templates, records = tiny_benchmark(seed=3)
    model = create_model(cfg, "pooled", relation_table(kg))
    encoder = build_encoder(model)
    record = next(r for r in records if r.meta.get("kind") == "kg")
    prepared = prepare_question(model, kg, templates, encoder, record)
    distinct = batch_forward(model, [prepared])
    # force identical pooled vectors by pointing every candidate at the same edges
    for cand in prepared.candidates[1:]:
        cand.edge_matrix = prepared.candidates[0].edge_matrix
    same_graph = batch_forward(model, [prepared])
    fq_only, _ = (None, None)
    scores = same_graph.scores
    # with shared graph vectors and shared question text, score differences
    # can come only from the candidate tokens through f_q
    assert not np.allclose(distinct.scores, scores, atol=1e-12)
