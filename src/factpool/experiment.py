"""Experiment runner: training/eval under graph perturbation, sweeps, reports.

A run trains one model per seed under the configured training condition,
then evaluates the held-out questions twice: once on intact subgraphs
(`with_answers`) and once after removing every edge incident to candidate
answer entities (`without_answers`).  The headline number is the relative
accuracy degradation between the two evaluations, reported in percent at
one decimal with ties rounded away from zero.

A run grounds its training and test sets once (linking and retrieval do not
depend on the seed) and prepares every seed from those groundings.  Its
pipeline hashes digest the training grounding it trained on, so runs under
different conditions can be shown to differ only at the perturbation step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from factpool.config import Config
from factpool.data import QuestionRecord, load_dataset, require_training_candidates
from factpool.kg import KnowledgeGraph, load_kg
from factpool.model import (
    CONDITIONS,
    MODEL_KINDS,
    WITH_ANSWERS,
    WITHOUT_ANSWERS,
    Grounding,
    Model,
    _graph_vectors,
    apply_condition,
    build_encoder,
    check_fact_texts,
    create_model,
    evaluate_conditions,
    gnn_entities,
    ground_records,
    prepare_conditions,
    prepare_dataset,
    relation_table,
    train_model,
)
from factpool.util import atomic_write_text, canonical_json, round_half_away, sha256_hex
from factpool.verbalize import TemplateTable, load_templates


def delta_acc(acc_with: float, acc_without: float) -> float:
    """Relative degradation in percent, one decimal, ties away from zero."""
    if acc_with == 0.0:
        return 0.0
    return round_half_away(100.0 * (acc_without - acc_with) / acc_with, 1)


@dataclass
class SeedResult:
    seed: int
    acc_with: float
    acc_without: float
    final_loss: float

    @property
    def delta(self) -> float:
        return delta_acc(self.acc_with, self.acc_without)


def _seed_mean(name: str) -> property:
    return property(lambda self: float(np.mean([getattr(r, name) for r in self.per_seed])))


def _seed_spread(name: str) -> property:
    """Max absolute deviation of the per-seed values from their mean."""

    def spread(self) -> float:
        values = [getattr(r, name) for r in self.per_seed]
        mean = float(np.mean(values))
        return float(max(abs(v - mean) for v in values))

    return property(spread)


@dataclass
class Metrics:
    """A run's per-seed results; every summary derives from them."""

    model_kind: str
    condition: str
    per_seed: list[SeedResult]
    pipeline_hashes: dict[str, str] = field(default_factory=dict)
    acc_with_mean = _seed_mean("acc_with")
    acc_without_mean = _seed_mean("acc_without")
    acc_with_spread = _seed_spread("acc_with")
    acc_without_spread = _seed_spread("acc_without")

    @property
    def delta_acc(self) -> float:
        """Computed on seed-mean accuracies."""
        return delta_acc(self.acc_with_mean, self.acc_without_mean)

    def render(self) -> str:
        lines = [
            f"model_kind={self.model_kind}",
            f"condition_train={self.condition}",
            f"seeds={','.join(str(r.seed) for r in self.per_seed)}",
            f"acc_with_mean={_fmt(self.acc_with_mean)}",
            f"acc_without_mean={_fmt(self.acc_without_mean)}",
            f"acc_with_spread={_fmt(self.acc_with_spread)}",
            f"acc_without_spread={_fmt(self.acc_without_spread)}",
            f"delta_acc={_fmt(self.delta_acc)}",
        ]
        for stage, digest in sorted(self.pipeline_hashes.items()):
            lines.append(f"hash_{stage}={digest}")
        lines.append("[table]")
        lines.append("seed\tacc_with\tacc_without\tdelta_acc\tfinal_loss")
        for r in self.per_seed:
            lines.append(
                f"{r.seed}\t{_fmt(r.acc_with)}\t{_fmt(r.acc_without)}"
                f"\t{_fmt(r.delta)}\t{_fmt(r.final_loss)}"
            )
        lines.append("[/table]")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    return f"{value:.10g}"


@dataclass
class ExperimentConfig:
    config: Config
    kg_path: str
    dataset_path: str
    templates_path: str
    train_count: int
    test_count: int
    model_kind: str = "pooled"
    condition: str = WITH_ANSWERS  # training condition
    seeds: tuple[int, ...] = (0, 1, 2)
    out_dir: str | None = None


@dataclass
class ExperimentAssets:
    kg: KnowledgeGraph
    templates: TemplateTable
    train_records: list[QuestionRecord]
    test_records: list[QuestionRecord]


class DatasetTooSmallError(ValueError):
    """The dataset holds fewer records than the train and test counts need."""


def load_assets(ecfg: ExperimentConfig) -> ExperimentAssets:
    records = load_dataset(ecfg.dataset_path)
    if len(records) < ecfg.train_count + ecfg.test_count:
        raise DatasetTooSmallError(
            f"{ecfg.dataset_path} has {len(records)} records, need "
            f"{ecfg.train_count}+{ecfg.test_count}"
        )
    require_training_candidates(records[: ecfg.train_count], ecfg.dataset_path)
    return ExperimentAssets(
        kg=load_kg(ecfg.kg_path),
        templates=load_templates(ecfg.templates_path),
        train_records=records[: ecfg.train_count],
        test_records=records[ecfg.train_count : ecfg.train_count + ecfg.test_count],
    )


def run_experiment(ecfg: ExperimentConfig, assets: ExperimentAssets | None = None) -> Metrics:
    """Train per seed under ecfg.condition; evaluate under both conditions.

    The training and test sets are grounded once, before the seed loop.
    """
    if ecfg.condition not in CONDITIONS:
        raise ValueError(f"condition must be one of {CONDITIONS}")
    assets = assets or load_assets(ecfg)
    max_nodes = ecfg.config.max_nodes
    train_grounding = ground_records(assets.kg, assets.train_records, max_nodes)
    test_grounding = ground_records(assets.kg, assets.test_records, max_nodes)
    # A test entity or fact the encoder cannot encode fails before any training.
    if ecfg.model_kind == "gnn":
        gnn_entities(test_grounding)
    elif ecfg.model_kind == "pooled":
        check_fact_texts(test_grounding, assets.templates)
    per_seed = [
        _run_seed(ecfg, assets, seed, train_grounding, test_grounding) for seed in ecfg.seeds
    ]
    metrics = Metrics(
        ecfg.model_kind,
        ecfg.condition,
        per_seed,
        pipeline_hashes(
            assets.kg, assets.train_records, ecfg.config, ecfg.condition, train_grounding
        ),
    )
    if ecfg.out_dir is not None:
        atomic_write_text(Path(ecfg.out_dir) / f"metrics_{ecfg.model_kind}.txt", metrics.render())
    return metrics


def _run_seed(
    ecfg: ExperimentConfig,
    assets: ExperimentAssets,
    seed: int,
    train_grounding: Grounding,
    test_grounding: Grounding,
) -> SeedResult:
    """One seed's training and evaluation.  Its model and prepared test set die
    on return, before the next seed's; its encoder holds no vector to free."""
    cfg = replace(ecfg.config, seed=seed)
    model = create_model(cfg, ecfg.model_kind, relation_table(assets.kg))
    encoder = build_encoder(model)
    ckpt_dir = None
    if ecfg.out_dir is not None:
        ckpt_dir = str(Path(ecfg.out_dir) / f"{ecfg.model_kind}_seed{seed}")
    # The prepared training set is only train_model's argument, so it dies
    # when training returns, before the test set is prepared.
    losses = train_model(
        model,
        prepare_conditions(
            model,
            assets.templates,
            encoder,
            assets.train_records,
            train_grounding,
            (ecfg.condition,),
        )[ecfg.condition],
        out_dir=ckpt_dir,
    )
    test = prepare_conditions(model, assets.templates, encoder, assets.test_records, test_grounding)
    accs = evaluate_conditions(model, test)
    return SeedResult(
        seed=seed,
        acc_with=accs[WITH_ANSWERS],
        acc_without=accs[WITHOUT_ANSWERS],
        final_loss=losses[-1],
    )


SWEEP_VALUES = {"K": (0, 2, 5), "max_nodes": (16, 32, 64)}  # default values per axis


def sweep_cells(ecfg: ExperimentConfig, axis: str, values=None) -> list[tuple]:
    """(value, experiment config) per value along `axis` ('K' or 'max_nodes').

    ValueError names the first value the config rejects.
    """
    if axis not in SWEEP_VALUES:
        raise ValueError("axis must be 'K' or 'max_nodes'")
    if values is None:
        values = SWEEP_VALUES[axis]
    if not values:
        raise ValueError("sweep needs at least one value")
    cells = []
    for value in values:
        try:
            if axis == "K":
                cfg = replace(ecfg.config, K=int(value), fusion_mode="early_late")
            else:
                cfg = replace(ecfg.config, max_nodes=int(value))
        except ValueError as err:
            raise ValueError(f"{axis}={value}: {err}") from None
        cells.append((value, replace(ecfg, config=cfg, out_dir=None)))
    return cells


def sweep(ecfg: ExperimentConfig, axis: str, values=None, assets: ExperimentAssets | None = None):
    """One run per value along `axis`, shared seeds.  Every cell's config is
    built before the data is read."""
    cells = sweep_cells(ecfg, axis, values)
    assets = assets or load_assets(ecfg)
    rows = [(value, run_experiment(cell, assets)) for value, cell in cells]
    table = [f"axis={axis}", "value\tacc_with_mean\tacc_without_mean\tdelta_acc"]
    for value, metrics in rows:
        table.append(
            f"{value}\t{_fmt(metrics.acc_with_mean)}"
            f"\t{_fmt(metrics.acc_without_mean)}\t{_fmt(metrics.delta_acc)}"
        )
    text = "\n".join(table) + "\n"
    if ecfg.out_dir is not None:
        atomic_write_text(Path(ecfg.out_dir) / f"sweep_{axis}.txt", text)
    return rows, text


def compare_kinds(
    ecfg: ExperimentConfig, kinds=MODEL_KINDS, assets: ExperimentAssets | None = None
):
    """One run per model kind on shared data and seeds: the robustness study.

    Returns ({kind: metrics}, summary table); the table is also written to
    `summary.tsv` when ecfg.out_dir is set.
    """
    assets = assets or load_assets(ecfg)
    results = {kind: run_experiment(replace(ecfg, model_kind=kind), assets) for kind in kinds}
    table = ["kind\tacc_with_mean\tacc_without_mean\tdelta_acc"]
    for kind, metrics in results.items():
        table.append(
            f"{kind}\t{metrics.acc_with_mean:.2f}"
            f"\t{metrics.acc_without_mean:.2f}\t{metrics.delta_acc}"
        )
    text = "\n".join(table) + "\n"
    if ecfg.out_dir is not None:
        atomic_write_text(Path(ecfg.out_dir) / "summary.tsv", text)
    return results, text


# --- pipeline hashing ---------------------------------------------------------


def pipeline_hashes(
    kg: KnowledgeGraph,
    records: list[QuestionRecord],
    cfg: Config,
    condition: str,
    grounding: Grounding | None = None,
) -> dict[str, str]:
    """Stage digests: everything before the perturbation step is
    condition-independent; the perturbation stage reflects the condition.

    `grounding` is `ground_records(kg, records, cfg.max_nodes)`; a run passes
    the one it trained on, and it is computed when omitted.
    """
    if grounding is None:
        grounding = ground_records(kg, records, cfg.max_nodes)
    kg_digest = sha256_hex("\n".join(sorted(f.key() for f in kg.facts)))
    dataset_digest = sha256_hex("\n".join(r.to_json() for r in records))
    linking = []
    retrieval = []
    perturbation = []
    for statements in grounding:
        for stmt, intact in statements:
            linked = {"q": sorted(stmt.question_entities), "a": sorted(stmt.answer_entities)}
            linking.append(canonical_json(linked))
            retrieval.append(intact.canonical())
            perturbation.append(apply_condition(intact, stmt, condition).canonical())
    return {
        "kg": kg_digest,
        "dataset": dataset_digest,
        "linking": sha256_hex("\n".join(linking)),
        "retrieval": sha256_hex("\n".join(retrieval)),
        "perturbation": sha256_hex("\n".join(perturbation)),
    }


# --- interpretability ----------------------------------------------------------


@dataclass
class ExplainEntry:
    weight: float
    fact_key: str
    text: str


@dataclass
class CandidateExplanation:
    candidate_index: int
    candidate_text: str
    per_layer: list[list[ExplainEntry]]  # index k -> descending top-N
    layer_weight_sums: list[float]


@dataclass
class ExplainReport:
    question: str
    candidates: list[CandidateExplanation]

    def render(self) -> str:
        lines = [f"question: {self.question}"]
        for cand in self.candidates:
            lines.append(f"candidate[{cand.candidate_index}]: {cand.candidate_text}")
            for k, entries in enumerate(cand.per_layer):
                lines.append(f"  fusion layer k={k} (weight sum {_fmt(cand.layer_weight_sums[k])})")
                for rank, entry in enumerate(entries, start=1):
                    lines.append(
                        f"    {rank}. {entry.weight:.4f}  {entry.text}  [{entry.fact_key}]"
                    )
        return "\n".join(lines) + "\n"


def explain(
    model: Model,
    kg: KnowledgeGraph,
    templates: TemplateTable,
    encoder,
    record: QuestionRecord,
    top_n: int = 3,
) -> ExplainReport:
    """Top-N facts per fusion layer by weight, from `batch_forward`'s pooling stage."""
    if model.kind != "pooled":
        raise ValueError("explain requires a pooled model")
    [prepared] = prepare_dataset(model, kg, templates, encoder, [record])
    _, pool_weights, _ = _graph_vectors(model, prepared.candidates)
    # Each head's weights run over every candidate's edges in turn.
    bounds = np.cumsum([len(cand.edge_rows) for cand in prepared.candidates])[:-1]
    per_candidate = zip(*(np.split(weights, bounds) for weights in pool_weights))
    out = []
    for idx, (cand, head_weights) in enumerate(zip(prepared.candidates, per_candidate)):
        per_layer = []
        sums = []
        for weights in head_weights:
            order = np.argsort(-weights, kind="stable")[: min(top_n, len(weights))]
            per_layer.append(
                [
                    ExplainEntry(
                        weight=float(weights[i]),
                        fact_key=cand.shared.facts[row].key(),
                        text=cand.shared.texts[row],
                    )
                    for i, row in zip(order, cand.edge_rows[order])
                ]
            )
            sums.append(float(weights.sum()))
        out.append(
            CandidateExplanation(
                candidate_index=idx,
                candidate_text=record.candidates[idx],
                per_layer=per_layer,
                layer_weight_sums=sums,
            )
        )
    return ExplainReport(question=record.question, candidates=out)


# --- complexity instrumentation --------------------------------------------------


def count_aggregations(model_kind: str, nodes: int, cfg: Config) -> int:
    """Aggregation events `batch_forward` runs for one statement's subgraph
    of `nodes` nodes.

    Pooled: one attention pooling per head, empty edge sets included.  GNN:
    one update per node and layer.
    """
    if model_kind == "pooled":
        return cfg.num_pooling_heads()
    if model_kind == "gnn":
        return nodes * cfg.gnn_layers
    raise ValueError("model_kind must be 'pooled' or 'gnn'")
