"""Mutants the test suite must kill: each entry breaks one exact place under
`src/` and names the tests that must fail on it.

    PYTHONPATH=src python -m tests.mutants            # every mutant
    PYTHONPATH=src python -m tests.mutants NAME ...   # the named ones

The runner copies the repository to a temporary directory, applies each
mutant there in turn, runs its tests with pytest, and exits 1 listing every
survivor: a mutant some of whose tests passed or did not run.  The checkout
itself is never written.  `tests/test_mutants.py` checks in the fast suite
that each `old` string still occurs exactly once in its file, so a refactor
that moves mutated code fails there and updates the entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in `file`
    new: str
    tests: tuple[str, ...]  # pytest node ids; every one must fail


_LIFETIMES = "tests/test_lifetimes.py"
_LAYOUT = "tests/test_memory_layout.py"
_STATELESS = f"{_LIFETIMES}::test_an_encode_call_leaves_the_encoder_as_it_was"
_TRAIN_SET_FREED = f"{_LIFETIMES}::test_a_run_frees_its_training_set_before_preparing_the_test_set"
_PRUNED = "tests/test_model.py::test_the_pruned_last_layer_is_byte_identical_to_the_full_layer"
_WIDE = "tests/test_golden.py::test_wide_outputs_match_the_golden_manifest"
_DATA_TYPES = "tests/test_data.py::test_load_dataset_rejects_wrong_json_types"
_NAME_POOL = "tests/test_synthetic.py::test_name_pool_matches_the_scalar_draw_oracle"
_PINNED = "tests/test_synthetic.py::test_generated_bytes_are_pinned"
_PARTWAY = "tests/test_data.py::test_a_save_that_fails_partway_leaves_no_partial_dataset"
_HEADER_CHECKS = "tests/test_checkpoint.py::test_load_model_checks_header_against_tensors"
_GNN = "tests/test_gnn.py"
_MODEL = "tests/test_model.py"

MUTANTS = (
    # A per-text memo: the encoder keeps every row it returns.
    Mutant(
        "hash-bag-memo",
        "src/factpool/encoders.py",
        "        vectors /= lengths[:, None]\n",
        "        vectors /= lengths[:, None]\n"
        "        self.__dict__.setdefault('_memo', {}).update(zip(texts, vectors))\n",
        (
            f"{_LIFETIMES}::test_the_hash_bag_encoder_keeps_no_vector_it_returns",
            f"{_LAYOUT}::test_the_edge_table_is_the_only_holder_of_a_pooled_sets_fact_vectors",
            f"{_STATELESS}[hash-bag]",
        ),
    ),
    # A token memo: the hash-bag encoder keeps every token vector it derives.
    Mutant(
        "hash-bag-token-memo",
        "src/factpool/encoders.py",
        "        rng = np.random.default_rng(derive_seed(self.seed, \"hash-bag\", token))\n"
        "        vec = rng.standard_normal(self.dim)\n"
        "        vec /= np.linalg.norm(vec)\n"
        "        return vec\n",
        "        memo = self.__dict__.setdefault('_token_vectors', {})\n"
        "        if token not in memo:\n"
        "            rng = np.random.default_rng(derive_seed(self.seed, \"hash-bag\", token))\n"
        "            memo[token] = rng.standard_normal(self.dim)\n"
        "            memo[token] /= np.linalg.norm(memo[token])\n"
        "        return memo[token]\n",
        (
            f"{_STATELESS}[hash-bag]",
            f"{_LAYOUT}::test_the_edge_table_is_the_only_holder_of_a_pooled_sets_fact_vectors",
        ),
    ),
    # A per-text memo in the shared-toy encoder, holding rows of each array it returns.
    Mutant(
        "toy-text-memo",
        "src/factpool/encoders.py",
        "                        vectors[rows[text]] = seq_states[1:, :].mean(axis=0)\n"
        "        return vectors\n",
        "                        vectors[rows[text]] = seq_states[1:, :].mean(axis=0)\n"
        "        self.__dict__.setdefault('_memo', {}).update(zip(texts, vectors))\n"
        "        return vectors\n",
        (f"{_STATELESS}[shared-toy-encoder]", f"{_TRAIN_SET_FREED}[shared-toy-encoder]"),
    ),
    # Each text summed by `np.add.reduceat`, which does not add in `np.mean`'s order.
    Mutant(
        "reduceat-sum",
        "src/factpool/encoders.py",
        "        vectors = table[padded[:, 0]]\n"
        "        for position in range(1, padded.shape[1]):\n"
        "            # In place, so the one temporary is the gathered column.\n"
        "            longer = (lengths > position)[:, None]\n"
        "            np.add(vectors, table[padded[:, position]], out=vectors, where=longer)\n",
        "        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)\n"
        "        vectors = np.add.reduceat(table[np.concatenate(ids)], starts, axis=0)\n",
        (
            "tests/test_encoders.py::test_hash_bag_rows_are_byte_identical_to_the_per_text_mean",
            "tests/test_golden.py::test_outputs_match_the_golden_manifest",
        ),
    ),
    # A step's gradients live in train_model's frame into the next step.
    Mutant(
        "grads-kept",
        "src/factpool/model.py",
        "del grads  # the step's gradients die before the next forward runs",
        "pass",
        (f"{_LIFETIMES}::test_a_training_step_is_freed_before_the_next_step_runs",),
    ),
    # A module global keeps the last BatchResult.
    Mutant(
        "result-bound",
        "src/factpool/model.py",
        "    result = batch_forward(model, questions, backward_cache=True)\n",
        "    global _kept_result\n"
        "    result = _kept_result = batch_forward(model, questions, backward_cache=True)\n",
        (f"{_LIFETIMES}::test_a_training_step_is_freed_before_the_next_step_runs",),
    ),
    # The prepared training set is bound to a name in _run_seed's frame.
    Mutant(
        "train-set-in-seed-frame",
        "src/factpool/experiment.py",
        "        prepare_conditions(\n            model,\n",
        "        train_set := prepare_conditions(\n            model,\n",
        (f"{_TRAIN_SET_FREED}[hash-bag]", f"{_TRAIN_SET_FREED}[shared-toy-encoder]"),
    ),
    # A module list keeps each seed's model.
    Mutant(
        "model-outlives-seed",
        "src/factpool/experiment.py",
        "    model = create_model(cfg, ecfg.model_kind, relation_table(assets.kg))\n",
        "    model = create_model(cfg, ecfg.model_kind, relation_table(assets.kg))\n"
        "    globals().setdefault('_kept_models', []).append(model)\n",
        (f"{_LIFETIMES}::test_each_seed_is_freed_before_the_next_seed_trains",),
    ),
    # A module global keeps the last seed's prepared test set.
    Mutant(
        "test-set-outlives-seed",
        "src/factpool/experiment.py",
        "    test = prepare_conditions(",
        "    global _kept_test\n    test = _kept_test = prepare_conditions(",
        (f"{_LIFETIMES}::test_each_seed_is_freed_before_the_next_seed_trains",),
    ),
    # Each candidate holds its own copy of the prepared set's edge table.
    Mutant(
        "table-per-candidate",
        "src/factpool/model.py",
        "            shared=shared,\n",
        "            shared=replace(shared, edge_table=shared.edge_table.copy()),\n",
        (
            f"{_LAYOUT}::test_a_prepared_set_shares_one_edge_table_with_a_row_per_fact",
            f"{_LAYOUT}::test_the_edge_table_is_the_only_holder_of_a_pooled_sets_fact_vectors",
        ),
    ),
    # Backward recomputes the GELU output in place into the cached tanh.
    Mutant(
        "hid-into-tanh-cache",
        "src/factpool/transformer.py",
        "        hid = _pad_rows(gelu_from_tanh(pre, pre_t), t)\n",
        "        hid = np.add(pre_t, 1.0, out=pre_t)\n        hid *= np.multiply(pre, 0.5)\n"
        "        hid = _pad_rows(hid, t)\n",
        (
            f"{_LAYOUT}::test_backward_twice_on_one_result_gives_identical_gradients[pooled]",
            f"{_LAYOUT}::test_backward_twice_on_one_result_gives_identical_gradients[gnn]",
        ),
    ),
    # Backward recomputes LayerNorm-1's output in place into its cached xhat.
    Mutant(
        "x1-into-xhat",
        "src/factpool/transformer.py",
        'params[f"{p}.ln1.bias"])\n        x1 = _pad_rows(x1, t)\n',
        'params[f"{p}.ln1.bias"], out=ln1_cache[0])\n        x1 = _pad_rows(x1, t)\n',
        (
            f"{_LAYOUT}::test_backward_twice_on_one_result_gives_identical_gradients[pooled]",
            f"{_LAYOUT}::test_backward_twice_on_one_result_gives_identical_gradients[gnn]",
        ),
    ),
    # The last layer's FFN-2 weight gradient summed over its read rows only:
    # BLAS K-blocks the shorter sum differently, so its bytes move at d=64.
    Mutant(
        "last-layer-weight-grad-unpadded",
        "src/factpool/transformer.py",
        "        hid = _pad_rows(gelu_from_tanh(pre, pre_t), t)\n"
        "        grads[f\"{p}.ffn.w2\"] = np.tensordot(hid, d_ffn, axes=([0, 1], [0, 1]))\n",
        "        hid = gelu_from_tanh(pre, pre_t)\n"
        "        grads[f\"{p}.ffn.w2\"] = np.tensordot(hid, d_r2, axes=([0, 1], [0, 1]))\n",
        (f"{_PRUNED}[pooled]", f"{_PRUNED}[gnn]", _WIDE),
    ),
    # The last layer's input gradient through W2^T computed for its read rows
    # only: a product of fewer rows may take another GEMM kernel.
    Mutant(
        "last-layer-nt-grad-unpadded",
        "src/factpool/transformer.py",
        "        d_hid = (d_ffn @ params[f\"{p}.ffn.w2\"].T)[:, :n]\n",
        "        d_hid = d_r2 @ params[f\"{p}.ffn.w2\"].T\n",
        (f"{_PRUNED}[pooled]", f"{_PRUNED}[gnn]", _WIDE),
    ),
    # Backward stops before layer 1: its parameters get no gradient.
    Mutant(
        "backward-skips-layer-1",
        "src/factpool/transformer.py",
        "    for i in range(L, 0, -1):\n",
        "    for i in range(L, 1, -1):\n",
        ("tests/test_transformer.py::test_trunk_backward_vs_finite_differences",),
    ),
    # Every position of a padded batch is a key: real tokens attend to padding.
    Mutant(
        "key-mask-dropped",
        "src/factpool/model.py",
        "    mask = np.zeros((len(flat), t_max), dtype=bool)\n",
        "    mask = np.ones((len(flat), t_max), dtype=bool)\n",
        tuple(
            f"tests/test_model.py::test_scores_alone_and_in_the_chunk_agree_within_1e_12[{s}]"
            for s in ("gnn", "lm", "pooled-K0", "pooled-K2")
        ),
    ),
    # Each candidate's position within its question is added to its score.
    Mutant(
        "candidate-position-in-score",
        "src/factpool/model.py",
        "    scores = fq_scores + graph_scores\n",
        "    scores = fq_scores + graph_scores\n"
        "    scores += np.concatenate([np.arange(sl.stop - sl.start) for sl in slices])\n",
        tuple(
            f"tests/test_model.py::test_candidate_order_only_permutes_the_scores[{kind}]"
            for kind in ("pooled", "gnn", "lm")
        ),
    ),
    # Retrieval capped at one node per 40 KG entities instead of max_nodes.
    Mutant(
        "retrieval-cap-from-kg-size",
        "src/factpool/kg.py",
        "        raise ValueError(\"max_nodes must be >= 1\")\n",
        "        raise ValueError(\"max_nodes must be >= 1\")\n"
        "    max_nodes = len(kg.entities) // 40\n",
        ("tests/test_experiment.py::test_a_fresh_kg_component_changes_only_the_kg_digest",),
    ),
    # A pooled run checks only what it trains on: a test fact the encoder
    # cannot encode fails after the first seed has trained.
    Mutant(
        "pooled-test-facts-unchecked",
        "src/factpool/experiment.py",
        "        check_fact_texts(test_grounding, assets.templates)\n",
        "        pass\n",
        ("tests/test_cli.py::test_pooled_fact_with_no_word_token_is_one_error_line_before_training"
         "[run]",),
    ),
    # The fg.* scoring head learns at the trunk's rate instead of the graph's.
    Mutant(
        "fg-head-at-lm-rate",
        "src/factpool/optim.py",
        '_GRAPH_PREFIXES = ("pool", "fg.", "gnn.")',
        '_GRAPH_PREFIXES = ("pool", "gnn.")',
        tuple(
            f"tests/test_model.py::test_each_parameter_learns_at_its_group_rate[{kind}-{frozen}]"
            for kind in ("pooled", "lm")
            for frozen in ("lr_lm", "lr_graph")
        ),
    ),
    # RAdam's denominator floor moved by 10%: every trained checkpoint's bytes move.
    Mutant(
        "radam-eps",
        "src/factpool/optim.py",
        "EPS = 1e-8\n",
        "EPS = 1.1e-8\n",
        ("tests/test_golden.py::test_outputs_match_the_golden_manifest",),
    ),
    # Each entity's incident facts kept in the order given, not sorted.
    Mutant(
        "adjacency-in-file-order",
        "src/factpool/kg.py",
        "        self.facts = ordered = tuple(fact for fact, _ in groupby(sorted(self.facts)))\n"
        "        adjacency: dict = {}\n"
        "        for fact in ordered:\n",
        "        given = list(dict.fromkeys(self.facts))\n"
        "        self.facts = ordered = tuple(sorted(given))\n"
        "        adjacency: dict = {}\n"
        "        for fact in given:\n",
        ("tests/test_kg.py::test_graph_is_the_same_for_any_fact_order",),
    ),
    # A graph stores its entity set beside the adjacency whose keys it is.
    Mutant(
        "kg-stores-entity-set",
        "src/factpool/kg.py",
        "        self.adjacency = adjacency\n",
        "        self.adjacency = adjacency\n        self._entities = set(adjacency)\n",
        (f"{_LAYOUT}::test_a_loaded_graph_holds_nothing_beyond_its_accounted_parts",),
    ),
    # A one-token entity id keys its index bucket with a copy of itself.
    Mutant(
        "kg-index-key-copies-the-id",
        "src/factpool/kg.py",
        "            if first == entity:  # a one-token id keys its bucket with its own string\n"
        "                first = entity\n",
        "",
        (f"{_LAYOUT}::test_a_loaded_graph_holds_nothing_beyond_its_accounted_parts",),
    ),
    # `encode` draws a whole pooled model only to read its config and kind.
    Mutant(
        "encode-draws-a-model",
        "src/factpool/cli.py",
        "    encoder = make_encoder(cfg, \"pooled\")\n",
        "    encoder = build_encoder(create_model(cfg, \"pooled\", relation_table(kg)))\n",
        tuple(
            f"tests/test_cli.py::test_encode_draws_no_model_parameters[{kind}]"
            for kind in ("hash-bag", "shared-toy-encoder")
        ),
    ),
    # The checkpoint-only `precision` becomes a config-file key.
    Mutant(
        "precision-in-file-keys",
        "src/factpool/config.py",
        'CHECKPOINT_ONLY = ("vocab_size", "gnn_layers", "precision")\n',
        'CHECKPOINT_ONLY = ("vocab_size", "gnn_layers")\n',
        ("tests/test_config.py::test_parse_config_text_matches_the_reference",),
    ),
    # The gnn scores the node before the virtual question node.
    Mutant(
        "gnn-scores-beside-virtual",
        "src/factpool/model.py",
        'scalar_head_forward(params, "gnn.score", final[virtual])\n',
        'scalar_head_forward(params, "gnn.score", final[virtual - 1])\n',
        ("tests/test_gnn.py::test_gnn_score_reads_question_state",),
    ),
    # The gnn scores the question node plus the mean of every node state.
    Mutant(
        "gnn-scores-node-mean",
        "src/factpool/model.py",
        'scalar_head_forward(params, "gnn.score", final[virtual])\n',
        'scalar_head_forward(params, "gnn.score", final[virtual] + final.mean(axis=0))\n',
        ("tests/test_gnn.py::test_gnn_score_reads_question_state",),
    ),
    # `summary.tsv` lists the kinds last to first.
    Mutant(
        "summary-rows-reversed",
        "src/factpool/experiment.py",
        "    for kind, metrics in results.items():\n",
        "    for kind, metrics in reversed(results.items()):\n",
        ("tests/test_golden.py::test_outputs_match_the_golden_manifest",),
    ),
    # `--skip S --count N` past the dataset's end is truncated to the records left.
    Mutant(
        "slice-past-the-end-truncated",
        "src/factpool/cli.py",
        "    if end > len(records):\n",
        "    if False:\n",
        tuple(
            f"tests/test_cli.py::test_empty_dataset_slice_is_a_usage_error[{command}]"
            for command in ("retrieve", "perturb", "encode", "train", "eval")
        ),
    ),
    # Only a repeated tensor name is rejected: a container whose names were
    # swapped in place loads, each name holding the other's tensor.
    Mutant(
        "swapped-tensor-names-kept",
        "src/factpool/checkpoint.py",
        "        if previous is not None and name <= previous:\n",
        "        if name in tensors:\n",
        (
            "tests/test_checkpoint.py::test_swapped_tensor_names_are_rejected[checkpoint]",
            "tests/test_checkpoint.py::test_swapped_tensor_names_are_rejected[embedding cache]",
        ),
    ),
    # A record with no candidate loads.
    Mutant(
        "record-without-candidates-kept",
        "src/factpool/data.py",
        "            raise ValueError(\"record needs at least one candidate\")\n",
        "            pass\n",
        (f"{_DATA_TYPES}[no-candidates]",),
    ),
    # An answer_index equal to the candidate count loads.
    Mutant(
        "answer-index-past-the-end-kept",
        "src/factpool/data.py",
        "        if not 0 <= self.answer_index < len(self.candidates):\n",
        "        if not 0 <= self.answer_index <= len(self.candidates):\n",
        (f"{_DATA_TYPES}[answer-index-past-the-end]",),
    ),
    # answer_entities with one list too few loads.
    Mutant(
        "answer-entities-length-unchecked",
        "src/factpool/data.py",
        "            raise ValueError(\"answer_entities must have one list per candidate\")\n",
        "            pass\n",
        (f"{_DATA_TYPES}[answer-entities-length]",),
    ),
    # A record missing a required field fails on the missing key, untyped.
    Mutant(
        "missing-field-unchecked",
        "src/factpool/data.py",
        "                raise ValueError(f\"missing field {name!r}\")\n",
        "                pass\n",
        (f"{_DATA_TYPES}[missing-question]",),
    ),
    # `explain` splits each head's weights one edge past each candidate's end.
    Mutant(
        "explain-shifted-bounds",
        "src/factpool/experiment.py",
        "    bounds = np.cumsum([len(cand.edge_rows) for cand in prepared.candidates])[:-1]\n",
        "    bounds = np.cumsum([len(cand.edge_rows) for cand in prepared.candidates])[:-1] + 1\n",
        (
            "tests/test_experiment.py::test_explain_report_structure",
            "tests/test_acceptance.py::test_criterion_09_explain_report",
        ),
    ),
    # The dataset is written in place: a save that raises partway leaves
    # the records before the failure as a shorter, valid dataset.
    Mutant(
        "dataset-written-in-place",
        "src/factpool/data.py",
        "    atomic_write_text(path, \"\".join("
        "record.to_json() + \"\\n\" for record in records))\n",
        "    with open(path, \"w\", encoding=\"utf-8\") as fh:\n"
        "        for record in records:\n"
        "            fh.write(record.to_json() + \"\\n\")\n",
        (f"{_PARTWAY}[fresh]", f"{_PARTWAY}[existing]"),
    ),
    # The name pool reads its one draw column-major: the generator ends in
    # the same state, but entity i gets other syllables.
    Mutant(
        "name-pool-column-major",
        "src/factpool/synthetic.py",
        "    draws = rng.integers(len(_SYLLABLES), size=(spec.entities, 2)).tolist()\n",
        "    draws = rng.integers(len(_SYLLABLES), size=(2, spec.entities)).T.tolist()\n",
        (
            f"{_NAME_POOL}[3-0-fresh]",
            f"{_NAME_POOL}[7000-1-primed]",
            f"{_PINNED}[acceptance]",
            f"{_PINNED}[small]",
        ),
    ),
    # A distractor rate above 1 generates.
    Mutant(
        "distractor-rate-unchecked",
        "src/factpool/synthetic.py",
        "            raise ValueError(\"distractor_rate must be in [0, 1]\")\n",
        "            pass\n",
        ("tests/test_cli.py::test_generate_spec_the_generator_rejects_is_a_usage_error"
         "[distractor-rate]",),
    ),
    # `fusion_mode=early` with injection layers builds.
    Mutant(
        "early-fusion-depth-unchecked",
        "src/factpool/config.py",
        "            raise ValueError(\"fusion_mode=early requires K=0\")\n",
        "            pass\n",
        ("tests/test_config.py::test_early_fusion_with_injection_layers_is_rejected",),
    ),
    # An unknown encoder kind builds.
    Mutant(
        "encoder-kind-unchecked",
        "src/factpool/config.py",
        "            raise ValueError(f\"encoder_kind must be one of {ENCODER_KINDS}\")\n",
        "            pass\n",
        ("tests/test_config.py::test_unknown_encoder_kind_is_rejected",),
    ),
    # A config line without `=` fails on unpacking, naming no line.
    Mutant(
        "config-line-without-equals-unchecked",
        "src/factpool/config.py",
        "            raise ValueError(f\"config line {lineno} is not key=value: {raw!r}\")\n",
        "            pass\n",
        ("tests/test_config.py::test_line_without_equals_is_rejected_naming_the_line",),
    ),
    # A checkpoint whose precision is neither f64 nor f32 loads as f32.
    Mutant(
        "precision-unchecked",
        "src/factpool/config.py",
        "            raise ValueError(\"precision must be 'f64' or 'f32'\")\n",
        "            pass\n",
        ("tests/test_checkpoint.py::test_load_model_rejects_a_config_no_model_can_run"
         "[precision-f16]",),
    ),
    # `run_experiment` reads its files before it checks the condition.
    Mutant(
        "unknown-condition-unchecked",
        "src/factpool/experiment.py",
        "        raise ValueError(f\"condition must be one of {CONDITIONS}\")\n",
        "        pass\n",
        ("tests/test_experiment.py::"
         "test_run_experiment_rejects_an_unknown_condition_before_reading_data",),
    ),
    # A sweep with no value has no cell.
    Mutant(
        "empty-sweep-unchecked",
        "src/factpool/experiment.py",
        "        raise ValueError(\"sweep needs at least one value\")\n",
        "        pass\n",
        ("tests/test_experiment.py::test_sweep_needs_at_least_one_value",),
    ),
    # A model of an unknown kind builds.
    Mutant(
        "unknown-model-kind-unchecked",
        "src/factpool/model.py",
        "        raise ValueError(f\"model kind must be one of {MODEL_KINDS}\")\n",
        "        pass\n",
        ("tests/test_model.py::test_create_model_rejects_an_unknown_kind",),
    ),
    # Training on no question fails on an epoch with no batch.
    Mutant(
        "empty-training-set-unchecked",
        "src/factpool/model.py",
        "        raise ValueError(\"empty training set\")\n",
        "        pass\n",
        ("tests/test_model.py::test_training_needs_a_question",),
    ),
    # An entity both in the question and in the answer grounds.
    Mutant(
        "overlapping-entity-sets-kept",
        "src/factpool/kg.py",
        "            raise ValueError("
        "f\"question/answer entity sets overlap: {sorted(overlap)}\")\n",
        "            pass\n",
        ("tests/test_kg.py::test_grounded_statement_rejects_an_entity_on_both_sides",),
    ),
    # A container whose header is JSON but not an object loads: a checkpoint
    # hands back a list, and a cache read fails untyped.
    Mutant(
        "container-header-not-object-kept",
        "src/factpool/checkpoint.py",
        "        raise CheckpointError(f\"{path}: corrupt {kind} header (not a JSON object)\")\n",
        "        pass\n",
        tuple(
            f"tests/test_checkpoint.py::test_a_header_that_is_not_a_json_object_is_rejected[{k}]"
            for k in ("checkpoint", "embedding cache")
        ),
    ),
    # `--kinds` with a repeated or unknown kind parses.
    Mutant(
        "kinds-unchecked",
        "src/factpool/cli.py",
        "        raise argparse.ArgumentTypeError("
        "f\"want distinct kinds of {MODEL_KINDS}: {text!r}\")\n",
        "        pass\n",
        tuple(
            f"tests/test_cli.py::test_bad_sweep_flags_are_usage_errors[run---kinds-{kinds}]"
            for kinds in ("pooled,pooled", "pooled,foo", "")
        ),
    ),
    # An external-file encoder with no cache path fails untyped, opening None.
    Mutant(
        "external-file-cache-path-unchecked",
        "src/factpool/model.py",
        "            raise ValueError(\"external-file encoder needs a cache path\")\n",
        "            pass\n",
        ("tests/test_model.py::test_external_file_encoder_needs_a_cache_path",),
    ),
    # A checkpoint header whose config or meta is not an object fails later,
    # with a message that does not say so.
    Mutant(
        "header-objects-unchecked",
        "src/factpool/model.py",
        "        raise CheckpointError(f\"{path}: checkpoint header needs config and meta objects\")\n",
        "        pass\n",
        (f"{_HEADER_CHECKS}[config-not-object]", f"{_HEADER_CHECKS}[meta-not-object]"),
    ),
    # An infinite loss from finite scores trains on.
    Mutant(
        "non-finite-loss-unchecked",
        "src/factpool/model.py",
        "            if not np.isfinite(loss):\n",
        "            if False:\n",
        ("tests/test_model.py::test_finite_scores_that_overflow_the_loss_raise_before_a_step",),
    ),
    # A fact's ends are looked up among the previous candidate's nodes.
    Mutant(
        "fact-ends-in-previous-candidate",
        "src/factpool/gnn.py",
        "    end_keys = np.repeat(part, [len(f) for _, f in parts])[:, None] * width"
        " + facts[:, :2]\n",
        "    end_keys = (np.repeat(part, [len(f) for _, f in parts])[:, None] - 1) * width"
        " + facts[:, :2]\n",
        (
            f"{_GNN}::test_batch_arrays_match_the_per_subgraph_reference",
            f"{_GNN}::test_union_matches_oracle_per_part",
        ),
    ),
    # A without_answers candidate keeps the intact candidate's edge rows.
    Mutant(
        "without-answers-keeps-intact-edges",
        "src/factpool/model.py",
        "            cand = intact if keep.all() else "
        "replace(intact, edge_rows=intact.edge_rows[keep])\n",
        "            cand = intact\n",
        (
            f"{_GNN}::test_batch_arrays_match_the_per_subgraph_reference",
            f"{_MODEL}::test_without_answers_candidate_that_loses_no_edge_is_the_intact_one",
            *(
                f"{_MODEL}::test_a_without_answers_candidate_drops_rows_of_the_intact_one[{kind}]"
                for kind in ("pooled", "gnn")
            ),
        ),
    ),
)


def outcomes(root: Path, tests: tuple[str, ...]) -> dict[str, str]:
    """{node id: PASSED, FAILED or ERROR} for each of `tests` run in `root`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, capture_output=True, text=True,
    )
    found = {}
    for line in proc.stdout.splitlines():
        outcome, _, rest = line.partition(" ")
        if outcome in ("PASSED", "FAILED", "ERROR"):
            found[rest.split(" - ")[0]] = outcome
    return found


def survivors(mutants) -> list[str]:
    """One line per mutant some of whose tests did not fail."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
        shutil.copytree(ROOT, root, ignore=ignore)
        for mutant in mutants:
            path = root / mutant.file
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                lines.append(f"{mutant.name}: `old` occurs {original.count(mutant.old)} times")
                continue
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                found = outcomes(root, mutant.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            alive = [f"{t} ({found.get(t, 'not run')})" for t in mutant.tests
                     if found.get(t) not in ("FAILED", "ERROR")]
            print(f"{mutant.name}: {'survived' if alive else 'killed'}", flush=True)
            if alive:
                lines.append(f"{mutant.name}: " + ", ".join(alive))
    return lines


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or [m.name for m in MUTANTS]
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    lines = survivors([m for m in MUTANTS if m.name in names])
    for line in lines:
        print(f"SURVIVED {line}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
